"""Engine tests: factor hashing, preprocessing, verification, and search."""

import array
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfr import (
    ConfigurationError,
    FactorFilter,
    FilterParams,
    InvalidPatternError,
    SearchOutcome,
    baselines,
    check,
    engine,
    extend_hash,
    hash_factor,
    naive_search,
    preprocess,
    search,
)

SHIFT1 = FilterParams(shift_s=1)


def closed_form_hash(z, params=FilterParams()):
    """Independent oracle: arbitrary-precision positional sum, masked once."""
    total = sum(c << (params.shift_s * i) for i, c in enumerate(z))
    return total & params.hash_mask


# --- hash_factor / extend_hash ---------------------------------------------


def test_hash_empty_is_zero():
    assert hash_factor(b"") == 0
    assert hash_factor(b"", SHIFT1) == 0


def test_hash_single_byte():
    assert hash_factor(b"a") == 97


def test_hash_two_bytes():
    # (98 << 2) + 97
    assert hash_factor(b"ab") == 489


def test_hash_two_bytes_shift1():
    # (98 << 1) + 97
    assert hash_factor(b"ab", SHIFT1) == 293


def test_hash_long_input_masked():
    z = b"\xff" * 9
    assert closed_form_hash(z) == 65451
    assert hash_factor(z) == 65451


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.sampled_from([1, 2]))
def test_hash_matches_closed_form(z, shift_s):
    params = FilterParams(shift_s=shift_s)
    assert hash_factor(z, params) == closed_form_hash(z, params)


def test_extend_examples():
    assert extend_hash(98, 97) == 489
    assert extend_hash(0, 0) == 0
    # ((65535 << 2) + 255) mod 65536
    assert extend_hash(65535, 255) == 251


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64), st.integers(0, 255), st.sampled_from([1, 2]))
def test_extend_matches_prepend(z, c, shift_s):
    params = FilterParams(shift_s=shift_s)
    assert extend_hash(hash_factor(z, params), c, params) == hash_factor(bytes([c]) + z, params)


# --- preprocess --------------------------------------------------------------


def _set_values(flt):
    return {v for v in range(flt.params.table_bits) if flt.test_bit(v)}


def test_preprocess_ab_exact_bits():
    assert _set_values(preprocess(b"ab")) == {97, 98, 489}


def test_preprocess_aa_exact_bits():
    # "a" -> 97, "aa" -> (97 << 2) + 97
    assert _set_values(preprocess(b"aa")) == {97, 485}


def test_preprocess_empty_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        preprocess(b"")


def test_preprocess_rejects_non_bytes_like():
    # bytes(5) would be five zero bytes, and bytes("ab") asks for an encoding.
    for pattern in (5, "ab"):
        with pytest.raises(TypeError, match="pattern must be bytes-like"):
            preprocess(pattern)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=48), st.sampled_from([1, 2]))
def test_factor_completeness(pattern, shift_s):
    params = FilterParams(shift_s=shift_s)
    flt = preprocess(pattern, params)
    m = len(pattern)
    for i in range(m):
        for j in range(i, m):
            assert flt.test_bit(hash_factor(pattern[i : j + 1], params))


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=64))
def test_bit_budget(pattern):
    m = len(pattern)
    assert preprocess(pattern).popcount() <= m * (m + 1) // 2


# --- check -------------------------------------------------------------------


def test_check_examples():
    assert check(b"aab", b"aabaab", 0) is True
    assert check(b"aab", b"aabaab", 1) is False
    assert check(b"aab", b"aabaab", 3) is True


def test_check_out_of_range_rejected():
    with pytest.raises(ValueError):
        check(b"aab", b"aabaab", 4)
    with pytest.raises(ValueError):
        check(b"aab", b"aabaab", -1)


def test_check_empty_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        check(b"", b"abc", 0)


def test_check_bytes_like_inputs():
    # Both are taken as a Matcher takes them: a multi-byte item is its bytes.
    assert check(bytearray(b"ab"), memoryview(b"xab"), 1) is True
    assert check(array.array("H", [1]), b"\x00\x01\x00", 1) is True
    assert check(array.array("H", [1]), b"\x00\x01\x05", 1) is False


# --- the Matcher constructor -------------------------------------------------


def test_matcher_checks_its_pattern():
    # The constructor is the one check of a pattern, for every matcher.
    with pytest.raises(TypeError, match="pattern must be bytes-like, not str"):
        engine.Matcher("ab", baselines._scan_naive)
    with pytest.raises(InvalidPatternError, match="pattern must be at least one byte"):
        engine.Matcher(b"", baselines._scan_naive)
    matcher = engine.Matcher(bytearray(b"ab"), baselines._scan_naive)
    assert type(matcher.pattern) is bytes and matcher.search(b"xxab").positions == [2]
    pattern = b"ab"
    assert engine.Matcher(pattern, baselines._scan_naive).pattern is pattern  # read in place
    for algo in baselines.ALGORITHMS:
        with pytest.raises(InvalidPatternError, match="pattern must be at least one byte"):
            baselines.prepare(algo, b"")


def test_matcher_backend_is_the_one_given():
    # The label comes from where the scan is chosen, not from the scan's
    # identity: a native scan behind functools.partial is reported native.
    scan = baselines.prepare("horspool", b"ab")._scan
    assert isinstance(scan, functools.partial)
    matcher = engine.Matcher(b"ab", scan, backend="native")
    assert matcher.backend == "native"
    outcomes = [matcher.search(b"xxab"), matcher.search(io.BytesIO(b"xxab"))]
    assert [out.backend for out in outcomes] == ["native", "native"]
    assert outcomes[0] == outcomes[1] == baselines.prepare("horspool", b"ab").search(b"xxab")
    stream = matcher.stream(io.BytesIO(b"xxab"))
    assert stream.backend == "native" and list(stream) == [[2]]
    assert engine.Matcher(b"ab", scan).backend == "python"


@pytest.mark.parametrize("algo", baselines.ALGORITHMS)
def test_prepare_backend_is_the_search_backend(backend, algo):
    matcher = baselines.prepare(algo, b"ab")
    want = backend if algo == "wfr" else "python"
    assert matcher.backend == matcher.search(b"xxab").backend == want
    with pytest.raises(AttributeError):
        matcher.backend = "native"


# --- search ------------------------------------------------------------------


def test_search_finds_overlapping_occurrences():
    outcome = search(b"aab", b"aabaab")
    assert outcome.positions == [0, 3]
    assert outcome.verification_count == 2
    assert outcome.false_positive_count == 0


def test_search_whole_text_match():
    outcome = search(b"abc", b"abc")
    assert outcome.positions == [0]
    assert outcome.verification_count == 1


def test_search_no_match_no_verification():
    outcome = search(b"b", b"aaaa")
    assert outcome.positions == []
    assert outcome.verification_count == 0
    assert outcome.positions == naive_search(b"b", b"aaaa")


def test_search_periodic_text():
    outcome = search(b"a" * 10, b"a" * 100)
    assert len(outcome.positions) == 91
    assert outcome.verification_count == 91


def test_search_chained_matches_base():
    assert search(b"aab", b"aabaab", k=2).positions == [0, 3]


@pytest.mark.parametrize("k, attempts", [(1, 3), (2, 3), (3, 4)])
def test_search_instrumentation_aabaab(backend, k, attempts):
    # k=1 and k=2: windows 0 and 3 match, and window 1 ("aba") fails on its
    # suffix "ba" and jumps 2. k=3: the one probe over the whole of "aba"
    # fails at the window start, so that window shifts by 1, and window 2
    # ("baa") fails the same way.
    outcome = search(b"aab", b"aabaab", k=k)
    assert outcome.attempt_count == attempts
    assert outcome.total_shift == 4
    assert outcome.check_comparisons == 6
    assert outcome.occurrence_count == 2
    assert outcome.mean_shift == pytest.approx(4 / attempts)


def test_search_single_byte_pattern():
    outcome = search(b"a", b"banana")
    assert outcome.positions == [1, 3, 5]


def test_search_pattern_longer_than_text():
    outcome = search(b"abcdef", b"abc")
    assert outcome.positions == []
    assert outcome.attempt_count == 0
    assert outcome.total_shift == 0
    assert outcome.verification_count == 0


def test_search_empty_text():
    assert search(b"a", b"").positions == []


def test_search_empty_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        search(b"", b"abc")


@pytest.mark.parametrize("k", [0, 5, -1, 1.0, 2.5])
def test_search_k_out_of_range_rejected(backend, k):
    # A k that is not an int is refused on both backends, as is one out of
    # range, by every registry id.
    with pytest.raises(ConfigurationError, match="k must be in"):
        search(b"abcde", b"abcdeabcde", k=k)
    for algo in ("naive", "horspool"):
        with pytest.raises(ConfigurationError, match="k must be in"):
            baselines.prepare(algo, b"abcde").search(b"abcdeabcde", k)


def test_search_k_exceeding_m_rejected():
    with pytest.raises(ConfigurationError):
        search(b"abc", b"abcabc", k=4)


def test_search_with_prebuilt_filter():
    # One filter, many texts: the method equals module-level search.
    params = FilterParams(alpha=12)
    flt = preprocess(b"aab", params)
    for text in (b"aabaab", b"xxaabxx", b"", b"aa", bytearray(b"aabaab"), b"aab" * 500):
        for k in (1, 2, 3):
            assert flt.search(text, k) == search(b"aab", text, params=params, k=k)
    assert flt.search(b"xxaabxx", k=2).positions == [2]
    with pytest.raises(ConfigurationError):
        flt.search(b"aabaab", k=4)


def test_search_prebuilt_filter_for_other_pattern_rejected():
    # Searching with another pattern's filter would silently miss [2, 4].
    with pytest.raises(ConfigurationError):
        search(b"abab", b"xxababab", factors=preprocess(b"zzzz"))
    assert search(bytearray(b"abab"), b"xxababab", factors=preprocess(b"abab")).positions == [2, 4]


def test_search_rejects_str_inputs():
    # A str text is refused whether or not m > n, and a str pattern by the
    # Matcher constructor.
    with pytest.raises(TypeError, match="text must be bytes-like, not str"):
        search(b"abc", "ab")
    with pytest.raises(TypeError, match="text must be bytes-like, not str"):
        search(b"ab", "xab")
    with pytest.raises(TypeError, match="pattern must be bytes-like, not str"):
        search("ab", b"xab")
    # A text-mode file yields str chunks; they are refused the same way.
    with pytest.raises(TypeError, match="text must be bytes-like, not str"):
        preprocess(b"ab").search(io.StringIO("xxab"))
    # Every registry id refuses them too, and the oracle either argument.
    for algo in baselines.ALGORITHMS:
        with pytest.raises(TypeError, match="pattern must be bytes-like, not str"):
            baselines.prepare(algo, "ab")
        with pytest.raises(TypeError, match="text must be bytes-like, not str"):
            baselines.prepare(algo, b"ab").search("xxab")
    with pytest.raises(TypeError, match="pattern must be bytes-like, not str"):
        naive_search("ab", b"xxab")
    with pytest.raises(TypeError, match="text must be bytes-like, not str"):
        naive_search(b"ab", "xxab")
    # check refuses them too.
    with pytest.raises(TypeError, match="pattern must be bytes-like, not str"):
        check("ab", b"xab", 1)
    with pytest.raises(TypeError, match="text must be bytes-like, not str"):
        check(b"ab", "xab", 1)


def test_search_prebuilt_filter_param_conflict():
    flt = preprocess(b"aab", FilterParams(alpha=16))
    with pytest.raises(ConfigurationError):
        search(b"aab", b"aabaab", params=FilterParams(alpha=12), factors=flt)


def test_search_worst_case_counts():
    rng = random.Random(3)
    for _ in range(20):
        m = rng.randint(1, 12)
        n = rng.randint(m, 200)
        outcome = search(b"a" * m, b"a" * n)
        assert len(outcome.positions) == n - m + 1
        assert outcome.verification_count == n - m + 1
        assert outcome.check_comparisons == m * (n - m + 1)


def _random_instance(rng):
    sigma = rng.choice([2, 4, 20, 64, 256])
    m = rng.randint(1, 48)
    n = rng.randint(0, 2000)
    text = bytes(rng.choices(range(sigma), k=n))
    if n >= m and rng.random() < 0.5:
        off = rng.randint(0, n - m)
        pattern = text[off : off + m]
    else:
        pattern = bytes(rng.choices(range(sigma), k=m))
    return pattern, text


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        pattern, text = _random_instance(rng)
        shift_s = rng.choice([1, 2])
        k = rng.randint(1, min(4, len(pattern)))
        params = FilterParams(shift_s=shift_s)
        outcome = search(pattern, text, params=params, k=k)
        assert outcome.positions == naive_search(pattern, text)


def test_chained_equivalence_randomized():
    rng = random.Random(99)
    for _ in range(150):
        pattern, text = _random_instance(rng)
        if len(pattern) < 4:
            pattern = pattern + bytes(4 - len(pattern))
        base = search(pattern, text)
        for k in (2, 3, 4):
            assert search(pattern, text, k=k).positions == base.positions


def test_verification_soundness_randomized():
    rng = random.Random(17)
    for _ in range(100):
        pattern, text = _random_instance(rng)
        outcome = search(pattern, text)
        assert outcome.verification_count >= outcome.occurrence_count
        assert outcome.false_positive_count >= 0
        for p in outcome.positions:
            assert check(pattern, text, p)
        assert outcome.positions == sorted(set(outcome.positions))


# Digest of positions and all four counters over a seeded sweep. The counters
# are the paper's reproduced quantities, so a refactor of the scan or the
# filter must leave every one of them unchanged; recompute the constant only
# for a deliberate change of behaviour.
COUNTER_SWEEP_SHA256 = "c5139a22a0da5b8721f26ed99d2fce1534694c8ef87ec9c9ec4fd85119258651"


def _counter_sweep(run=search):
    """Records of ``run(pattern, text, params, k)`` over the seeded sweep."""
    rng = random.Random(0xC0DE)
    records = []
    for sigma in (2, 4, 20, 64, 256):
        for alpha in (8, 12, 16, 24):
            for shift_s in (1, 2):
                params = FilterParams(alpha=alpha, shift_s=shift_s)
                for _ in range(5):
                    m = rng.randint(1, 48)
                    n = rng.randint(0, 3000)
                    text = bytes(rng.choices(range(sigma), k=n))
                    if n >= m and rng.random() < 0.5:
                        off = rng.randint(0, n - m)
                        pattern = text[off : off + m]
                    else:
                        pattern = bytes(rng.choices(range(sigma), k=m))
                    for k in range(1, min(4, m) + 1):
                        out = run(pattern, text, params=params, k=k)
                        records.append(
                            [
                                out.positions,
                                out.verification_count,
                                out.attempt_count,
                                out.total_shift,
                                out.check_comparisons,
                            ]
                        )
    return records


def test_counter_sweep_pinned(backend):
    records = _counter_sweep()
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == COUNTER_SWEEP_SHA256
    assert search(b"ab", b"xab").backend == backend


class _ShortReads(io.RawIOBase):
    """A binary stream whose reads return at most ``most`` bytes, as a pipe's may."""

    def __init__(self, data, most):
        self._data = data
        self._at = 0
        self._most = most

    def readable(self):
        return True

    def readinto(self, b):
        out = self._data[self._at : self._at + min(len(b), self._most)]
        b[: len(out)] = out
        self._at += len(out)
        return len(out)


def test_counter_sweep_chunked(backend):
    """The chunked scan gives the pinned positions and counters for chunks
    shorter than, equal to and longer than the pattern."""
    for chunk in (lambda m: max(m - 1, 1), lambda m: m, lambda m: m + 1, lambda m: 97, lambda m: 4096):

        def run(pattern, text, params, k):
            reads = _ShortReads(text, chunk(len(pattern)))
            return preprocess(pattern, params).search(reads, k)

        records = _counter_sweep(run)
        assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == COUNTER_SWEEP_SHA256
    # One byte per read: every window is m bytes.
    rng = random.Random(11)
    for _ in range(30):
        m = rng.randint(1, 12)
        text = bytes(rng.choices(b"ab", k=rng.randint(0, 300)))
        pattern = bytes(rng.choices(b"ab", k=m))
        flt = preprocess(pattern, FilterParams(alpha=rng.choice([8, 16]), shift_s=rng.choice([1, 2])))
        for k in range(1, min(4, m) + 1):
            assert flt.search(_ShortReads(text, 1), k) == flt.search(text, k)
    with open(os.devnull, "rb") as empty:
        assert preprocess(b"ab").search(empty) == SearchOutcome()


def test_file_stream_batches(backend):
    """The stream of a file yields the positions of its search in non-empty
    batches that the caller owns, for reads shorter than, equal to and
    longer than the pattern, 1-byte reads and whole-text reads; once it is
    exhausted its counters are those of the whole-text search."""
    rng = random.Random(0x57EA)
    cap = engine._POSITIONS_PER_CALL
    # A full kernel buffer, then a call that finds nothing; and several
    # full buffers in one window, so a kept batch outlives the kernel's
    # reuse of its buffer.
    cases = [(b"aaaa", b"a" * (cap + 3) + b"x" * 10, 1), (b"\0" * 4, bytes(2 * cap + 900), 2)]
    for _ in range(60):
        sigma = rng.choice([1, 2, 4, 256])
        m = rng.randint(1, 12)
        text = bytes(rng.choices(range(sigma), k=rng.randint(0, 2000)))
        pattern = bytes(rng.choices(range(sigma), k=m))
        cases.append((pattern, text, rng.randint(1, min(4, m))))
    for pattern, text, k in cases:
        flt = preprocess(pattern)
        whole = flt.search(text, k)
        m = len(pattern)
        for most in (max(m - 1, 1), m, m + 1, 97, 1, engine._CHUNK_BYTES):
            stream = flt.stream(_ShortReads(text, most), k)
            kept = []
            for batch in stream:
                assert type(batch) is list and batch
                kept.append((batch, list(batch)))
            assert all(batch == copy for batch, copy in kept)
            assert [p for batch, _ in kept for p in batch] == whole.positions
            counters = [stream.verification_count, stream.attempt_count, stream.total_shift, stream.check_comparisons]
            assert counters == _record(whole)[1:]
            assert stream.backend == backend
    batches = list(preprocess(b"aaaa").stream(io.BytesIO(b"a" * (cap + 3) + b"x" * 10)))
    assert [len(batch) for batch in batches] == [cap]
    # k is checked when the stream is made, before anything is read.
    with pytest.raises(ConfigurationError):
        preprocess(b"ab").stream(None, 3)


def test_baselines_chunked_equal_whole_text(backend, monkeypatch):
    """Every algorithm of the registry, on the one scan driver, gives the
    positions and all four counters of a whole-text run for reads shorter
    than, equal to and longer than the pattern, and for 1-byte reads, both
    from the search of a file and as its stream's non-empty batches. It does
    so with a 3-position buffer too, which makes every scan stop mid-window
    whenever the buffer fills and resume from its state."""
    cap = engine._POSITIONS_PER_CALL
    rng = random.Random(0xBA5E)
    for _ in range(150):
        sigma = rng.choice([2, 4, 20, 256])
        m = rng.randint(1, 24)
        n = rng.randint(0, 600)
        text = bytes(rng.choices(range(sigma), k=n))
        if n >= m and rng.random() < 0.5:
            off = rng.randint(0, n - m)
            pattern = text[off : off + m]
        else:
            pattern = bytes(rng.choices(range(sigma), k=m))
        oracle = naive_search(pattern, text)
        for algo in baselines.ALGORITHMS:
            matcher = baselines.prepare(algo, pattern)
            monkeypatch.setattr(engine, "_POSITIONS_PER_CALL", cap)
            want = matcher.search(text)
            assert want.positions == oracle
            for buffer in (cap, 3):
                monkeypatch.setattr(engine, "_POSITIONS_PER_CALL", buffer)
                assert matcher.search(text) == want
                for most in (max(m - 1, 1), m, m + 1, 97, 1):
                    assert matcher.search(_ShortReads(text, most)) == want
                    stream = matcher.stream(_ShortReads(text, most))
                    batches = list(stream)
                    assert all(type(batch) is list and batch for batch in batches)
                    assert [p for batch in batches for p in batch] == want.positions
                    counters = [stream.verification_count, stream.attempt_count, stream.total_shift, stream.check_comparisons]
                    assert counters == _record(want)[1:]


def test_stale_bytes_past_the_last_window(backend, monkeypatch):
    """A file's last window is shorter than its buffer, and the bytes past
    the window's end, left from the window before, complete a prefix of the
    pattern that ends the text. Every algorithm of the registry gives the
    positions and all four counters of a whole-text search: a scan that
    read past the window's end would find an occurrence there."""
    size = 64
    monkeypatch.setattr(engine, "_CHUNK_BYTES", size)  # io.BytesIO has no file descriptor
    rng = random.Random(0x57A1E)
    cases = 0
    for sigma in (2, 4, 256):
        for m in (2, 3, 5, 8, 16, 33, 64):
            pattern = bytes(rng.choices(range(sigma), k=m))
            for t in sorted({1, m // 2, m - 1}):
                # The first read fills the buffer's size + m - 1 bytes, the
                # second adds r, so the last window ends at m - 1 + r.
                r = rng.randint(1, size - (m - t))
                end = m - 1 + r
                text = bytearray(rng.choices(range(sigma), k=size + m - 1 + r))
                text[end : end + m - t] = pattern[t:]
                text[-t:] = pattern[:t]
                text = bytes(text)
                for algo in baselines.ALGORITHMS:
                    matcher = baselines.prepare(algo, pattern)
                    for k in range(1, min(4, m) + 1) if algo == "wfr" else (1,):
                        assert matcher.search(io.BytesIO(text), k) == matcher.search(text, k), (pattern, t, algo, k)
                        cases += 1
    assert cases > 100


def test_file_search_memory_is_one_buffer(tmp_path):
    """A file search allocates one buffer of at most _CHUNK_BYTES + m - 1
    bytes, sized down to a smaller regular file, and no copy of the text,
    as tracemalloc counts the allocations."""
    flt = preprocess(b"acgtacgtacgtacgt")
    for size, bound in ((3 << 20, engine._CHUNK_BYTES + (128 << 10)), (128 << 10, 256 << 10)):
        path = tmp_path / "text.bin"
        path.write_bytes(bytes(random.Random(size).choices(b"acgt", k=size)))
        with open(path, "rb") as fh:
            tracemalloc.start()
            try:
                flt.search(fh)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < bound, (size, peak)


def test_file_search_memory_of_a_short_bytesio():
    """An ``io.BytesIO`` gets a buffer for the bytes it has left, not a
    whole chunk: a 10-byte text peaks under 64 KiB, the position buffer
    included."""
    flt = preprocess(b"ab")
    text = io.BytesIO(b"xxabxxabab")
    tracemalloc.start()
    try:
        out = flt.search(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.positions == [2, 6, 8]
    assert peak < 64 << 10, peak


class _CountedReads(io.RawIOBase):
    """A binary file whose ``readinto`` calls are counted; ``fileno`` and
    ``tell`` are the file's own, so its buffer is sized as the file's."""

    def __init__(self, fh):
        self._fh = fh
        self.reads = 0

    def readable(self):
        return True

    def fileno(self):
        return self._fh.fileno()

    def tell(self):
        return self._fh.tell()

    def readinto(self, b):
        self.reads += 1
        return self._fh.readinto(b)


def test_file_search_of_a_file_that_reports_size_0():
    """Files under /proc report size 0 but hold data: such a file is read
    a chunk at a time, as a pipe is, not a byte at a time."""
    path = "/proc/version"
    if not os.path.exists(path):
        pytest.skip("/proc is absent on this platform")
    assert os.stat(path).st_size == 0
    with open(path, "rb") as fh:
        want = search(b" ", fh.read()).positions
    with open(path, "rb", buffering=0) as fh:
        reads = _CountedReads(fh)
        out = preprocess(b" ").search(reads)
    assert want and out.positions == want
    assert reads.reads <= 3, reads.reads


def test_file_search_non_blocking_without_data_raises():
    # A non-blocking read with no data ready returns None, which must not
    # end the search as if the text ended there.
    r, w = os.pipe()
    try:
        os.set_blocking(r, False)
        with open(r, "rb", buffering=0, closefd=False) as fh:
            with pytest.raises(BlockingIOError):
                preprocess(b"ab").search(fh)
    finally:
        os.close(r)
        os.close(w)


# --- native kernel vs the pure-Python reference -------------------------------


def _record(out):
    return [
        out.positions,
        out.verification_count,
        out.attempt_count,
        out.total_shift,
        out.check_comparisons,
    ]


def _edge_cases():
    """(pattern, text, k, params) cases: m == n, m == 1, k == m, m > n,
    position counts at and around the kernel's per-call buffer, which make
    the scan resume, and runs of verified windows, where the kernel skips
    k=1 probes that it knows pass (those at or left of j-L+1 after a
    verified window ending at j). The rest are at the edges of the kernel's
    branch-free k=1 entry, which tests the probes at j, j-1 and j-2 at once
    and which each call takes only when m >= 4 and its first 256 window
    ends make those probes hard to predict."""
    cap = engine._POSITIONS_PER_CALL
    params = FilterParams()
    L = -(-params.alpha // params.shift_s)
    periodic = bytearray(b"ab" * 500)
    periodic[517] = ord("c")  # breaks a run of verified windows mid-window
    rng = random.Random(0xE17)
    sigma8 = bytes(rng.choices(range(8), k=3000))
    sigma4 = bytes(rng.choices(range(1, 5), k=3000))
    sigma2 = bytes(rng.choices(range(2), k=3000))
    runs = (b"\0" * 40 + b"\1") * 40
    cases = [
        (b"abcab", b"abcab", 1),
        (b"abcab", b"abcab", 4),
        (b"abcd", b"xabcdabcd", 4),
        (b"a", b"banana", 1),
        (b"abcd", b"abc", 1),
        (b"abcd", b"", 1),
        (b"a", b"a" * cap, 1),
        (b"a", b"a" * (cap + 1), 1),
        (b"a" * 4, b"a" * (cap + 3), 3),
        (b"a", b"a" * 20_000, 1),
        # A run of verified windows longer than the buffer, so the scan
        # resumes inside the run with nothing known.
        (b"\0" * 32, bytes(20_000), 1),
        # Verifications that fail at the first byte inside each zero run, and
        # matches where a run starts.
        (b"\x01" * 20 + b"\0" * 12, (b"\x01" * 20 + b"\0" * 60) * 30, 1),
        (b"ab" * 16, bytes(periodic), 1),
        # After a verified window of a's the next window's suffix a^(L-1)b is
        # no factor, though every shorter suffix is: its probe, the first
        # one left of the probes known to pass, must still run.
        (b"a" * L + b"x" + b"a" * (L - 2) + b"b" + b"x" * (32 - 2 * L), (b"a" * 40 + b"b") * 30, 1),
        # m = L + 1, the shortest pattern whose verified runs skip a probe,
        # and m = L, where none is skipped.
        (b"\0" * (L + 1), (b"\0" * 40 + b"\x07") * 40, 1),
        (b"\0" * L, (b"\0" * 40 + b"\x07") * 40, 1),
        # m around the entry's bound, which it never takes at m = 3, and
        # around 64, above which attempts prefetch the text ahead.
        *((sigma8[1000 : 1000 + m], sigma8, 1) for m in (3, 4, 64, 65)),
        # The first 256 window ends choose one copy of the scan and the rest
        # of the text favours the other: zeros, on which no probe passes,
        # then sigma=4 text, and the reverse.
        (sigma4[1000:1016], bytes(300) + sigma4, 1),
        (sigma4[1000:1016], sigma4 + bytes(300), 1),
        # Position buffers filled in a zero run and then in random text, and
        # the reverse, so a resumed call chooses its copy again in mid-text.
        (b"\0" * 4, bytes(cap + 3) + sigma2, 1),
        (b"\0" * 4, sigma2 + bytes(cap + 3), 1),
    ]
    cases = [(p, t, k, params) for p, t, k in cases]
    # Runs of verified windows behind a random prefix that makes the calls
    # take the entry. At alpha=8 (L=4) the probe at lim = j-3 follows the
    # entry's three probes at once; at alpha=10 (L=5) one probe of the loop
    # comes between.
    for alpha in (8, 10):
        cases.append((b"\0" * 8, sigma2[:300] + runs, 1, FilterParams(alpha=alpha, shift_s=2)))
    # k = 2..4 with a hashed set, over more positions than the buffer holds,
    # so the scan resumes: at alpha=24 the filter has a set, 5 of the 12
    # factor hashes are at or above 2**16, and every verified window looks
    # one of them up.
    for k in (2, 3, 4):
        cases.append((b"\x07" * 16, b"\x07" * (cap + 50), k, FilterParams(alpha=24)))
    return cases + [(p, t, k, params) for p, t, k in _run_cases()] + _split_cases()


def _run_cases():
    """(pattern, text, k) cases of runs of one byte value, where the kernel
    does every window that ends inside a run after the first verified one
    at once: the pattern's first t bytes match each such window, with t ==
    m (a position each), 0 < t < m or t == 0. A pattern with a zero byte
    passes every probe inside a zero run, since the hash of 0^r is 0."""
    cap = engine._POSITIONS_PER_CALL
    rng = random.Random(0x5C1D)
    noise = bytes(rng.choices(range(8, 256), k=3000))
    sigma4 = bytes(rng.choices(range(1, 5), k=3000))
    sigma2 = bytes(rng.choices(range(2), k=300))
    seven = noise[:300] + b"\x07" * 100 + noise[300:700] + b"\x07" * 9 + noise[700:900]
    # Runs of 7, 8 and 9 zero bytes, for m = 8, side by side, and windows
    # whose first, last and next bytes are equal with a 5 between them.
    short = noise[:300]
    for r in (7, 8, 9):
        short += bytes(r) + b"\x05" + bytes(r) + noise[16 * r : 16 * r + 16]
    cases = [
        # More positions in one run than the buffer holds: the run is cut where
        # the buffer fills, and the next call resumes inside it.
        (b"\x07" * 8, noise[:300] + b"\x07" * (2 * cap + 100) + noise[:300] + b"\x07" * 50, 1),
        # 0 < t < m: the pattern's first 8 bytes match each window in the run.
        (b"\x07" * 8 + b"\x01\x07", seven, 1),
        # t = 0: the zero byte puts hash 0 in the filter, but x[0] is not 0.
        (b"\x01\0\x02", noise[:500] + bytes(700) + noise[500:900], 1),
        # A run that reaches the end of the text.
        (b"\x07" * 8, noise[:300] + b"\x07" * 300, 1),
        (b"\0" * 8, short, 1),
        (b"\0\x05" + bytes(6), short, 1),
        # The entry's copy of the scan, chosen by the first 256 window ends
        # over a small alphabet, meets a zero run and hands it on as the
        # loop does, with 0 < t < m.
        (bytes(2) + sigma4[1000:1006], sigma4[:300] + bytes(1000) + sigma4[300:600], 1),
        # The same behind 0s and 1s: t == m over more positions than the
        # buffer holds, 0 < t < m, and a run that reaches the end of the text.
        (bytes(8), sigma2 + bytes(2 * cap + 100) + sigma2, 1),
        (bytes(4) + b"\x01" + bytes(3), sigma2 + bytes(1000) + sigma2, 1),
        (bytes(8), sigma2 + bytes(300), 1),
    ]
    # k = 2..4 in runs, with t == m and t < m.
    for k in (2, 3, 4):
        cases.append((b"\x07" * 8, seven, k))
        cases.append((b"\x07" * 8 + b"\x01\x07", seven, k))
    # A run of more positions than two buffers hold that reaches the end of
    # the text: each call is cut where its buffer fills.
    cases.append((b"\x07" * 8, noise[:300] + b"\x07" * (2 * cap + 100), 1))
    return cases


def _split_cases():
    """(pattern, text, k, params) cases of kernel calls with at least 2**15
    windows, (n - m + 1) / m, which scan on two threads where two CPUs are
    usable: a helper, whenever it starts, takes the back half of what the
    calling thread has left and scans it, recording its first window ends,
    and the calling thread takes over the helper's state where its own
    window end meets one of them. Where a call takes the branch-free k=1
    entry, its filter has no hashed set and m <= 64, the calling thread
    scans on two orbits, the second from the midpoint, the helper takes a
    part of each, and all are joined the same way; on one CPU no helper
    starts, and the calling thread's orbits cover the whole call. Between
    them the cases take every path of the joins."""
    rng = random.Random(0x5B17)
    windows = 1 << 15
    acgt = bytes(rng.choices(b"ACGT", k=8 * windows + 7))
    sigma64 = bytes(rng.choices(range(64), k=8 * windows + 7))
    # A 4-byte pattern every 16 to 32 bytes: about 6,000 positions, too many
    # for one buffer.
    planted = bytearray()
    while len(planted) < 4 * windows + 4099:
        planted += acgt[1000:1004] + bytes(rng.choices(b"ACGT", k=rng.randint(12, 28)))
    zero_runs = bytearray()
    while len(zero_runs) < 8 * windows + 7:
        zero_runs += bytes(rng.randint(40, 72)) + bytes(rng.choices(range(1, 256), k=rng.randint(12, 24)))
    # Runs of 7s, which a pattern with t = 8 < m matches in part: no
    # positions, and most part starts fall inside a run.
    sevens = bytearray()
    while len(sevens) < 9 * windows + 8:
        sevens += b"\x07" * rng.randint(2000, 4000) + bytes(rng.choices(range(8, 72), k=rng.randint(100, 300)))
    # Calls that take the branch-free entry scan on two orbits (sequences of
    # window ends), the second from the midpoint, joined as above. With two
    # CPUs the helper takes the back half of what each orbit has left when
    # it starts, so its parts start between n/4 and n/2 and between 3n/4
    # and n; on one CPU the calling thread's two orbits cover the whole
    # text. x8 is planted over spans of acgt given as fractions of n: back
    # to back, more positions than one buffer holds, or every few bytes.
    acgt16 = bytes(rng.choices(b"ACGT", k=16 * windows + 15))
    x8 = acgt[2000:2008]

    def planted_in(spans):
        text = bytearray(acgt)
        for lo, hi, every in spans:
            for at in range(int(lo * len(text)), int(hi * len(text)) - 8, every):
                text[at : at + 8] = x8
        return bytes(text)

    # No pattern byte in 0.24-0.32 n or 0.46-0.56 n: every attempt there
    # shifts by m, so orbits whose window ends differ mod m stay apart.
    apart = bytearray(acgt)
    for lo, hi in ((0.24, 0.32), (0.46, 0.56)):
        lo, hi = int(lo * len(apart)), int(hi * len(apart)) + 5
        apart[lo:hi] = b"N" * (hi - lo)
    cases = [
        # The window ends meet, and the helper's positions fit.
        (acgt[2000:2008], acgt, 1),
        # They meet, and the helper's positions overflow the buffer: the
        # call returns at the join, and the next call scans on from there.
        (acgt[1000:1004], bytes(planted), 1),
        # k = 3 and 4: window ends that differ mod k seldom meet, and the
        # calling thread then scans on alone.
        *((sigma64[5000:5008], sigma64, k) for k in (3, 4)),
        # Both threads skip runs, and parts start inside runs.
        (b"\x07" * 8 + b"\x01", bytes(sevens), 1),
        # Dense: each buffer fills within a few KiB, long before the calling
        # thread reaches a part the helper took.
        (bytes(8), bytes(zero_runs[: 8 * windows + 7]), 1),
        # Zeros past the midpoint fill a part's buffer, and the calling
        # thread takes over its stopped state.
        (bytes(8), acgt[: 5 * windows] + bytes(3 * windows + 7), 1),
        # Zeros before the midpoint fill the calling thread's buffer before
        # it reaches the later parts.
        (bytes(8), acgt[: 5 * windows] + bytes(100_000) + acgt[: 3 * windows], 1),
        # Two orbits per thread. Their window ends meet and the second
        # orbit's positions fit, at m = 4 and 16 (m = 8 is the first case).
        (acgt[3000:3004], acgt, 1),
        (acgt16[5000:5016], acgt16, 1),
        # The first orbit's buffer fills before it reaches the second's start.
        (x8, planted_in([(0.10, 0.25, 8)]), 1),
        # A second orbit's or a part's buffer fills before the join.
        (x8, planted_in([(0.35, 0.48, 8)]), 1),
        # A part of the second orbit fills, and on one CPU the second orbit.
        (x8, planted_in([(0.80, 0.93, 8)]), 1),
        # Positions overflow pos at a join.
        (x8, planted_in([(0.07, 0.53, 20)]), 1),
        (x8, planted_in([(0.0, 1.0, 48)]), 1),
        # The window ends never meet, and the first orbit scans on alone.
        (x8, bytes(apart), 1),
    ]
    cases = [(p, t, k, FilterParams()) for p, t, k in cases]
    # At alpha=24 the filter has a hashed set, so a k=1 call that takes the
    # entry scans on one orbit, as every k=2 call does.
    cases.extend((acgt[3000:3008], acgt, k, FilterParams(alpha=24)) for k in (1, 2))
    # A k=1 pattern longer than 64 bytes on 16 symbols takes the entry on one
    # orbit, with the hashed set (alpha=24) and without it (alpha=16).
    sigma16 = bytes(rng.choices(range(16), k=65 * windows + 64))
    cases.extend((sigma16[7000:7065], sigma16, 1, FilterParams(alpha=alpha)) for alpha in (16, 24))
    # Two orbits at their bound, m = 64: the second orbit's 256 records can
    # span 256 * 64 bytes, one whole 16 KiB split step.
    cases.append((sigma16[9000:9064], sigma16, 1, FilterParams()))
    # Zero runs between stretches of 4 symbols, 0 among them: the call takes
    # the entry, on two orbits, and the scans that finish each orbit's steps
    # hand the zero runs they meet to run_skip, with t = 1.
    zeros4 = bytearray()
    while len(zeros4) < 8 * windows + 7:
        zeros4 += bytes(rng.choices(range(4), k=rng.randint(200, 600))) + bytes(rng.randint(40, 200))
    zeros4 = bytes(zeros4[: 8 * windows + 7])
    cases.append((zeros4[2000:2008], zeros4, 1, FilterParams()))
    return cases


def _long_entry_cases():
    """(pattern, text, k, params) cases of k=1 patterns longer than 64 bytes
    on 16 symbols, where the first 256 window ends make the branch-free entry
    pay, with the hashed set (alpha=24) and without it (alpha=16). Such a
    pattern takes the entry only in a call of at least 2048 windows, and
    each of its attempts prefetches the text ahead, except near the end."""
    rng = random.Random(0x10E7)
    cases = []
    for m in (65, 128, 256):
        text = bytes(rng.choices(range(16), k=2050 * m))
        start = rng.randint(0, len(text) - m)
        cases.extend((text[start : start + m], text, 1, FilterParams(alpha=alpha)) for alpha in (16, 24))
    return cases


def test_native_matches_python_reference(monkeypatch):
    """Positions, all four counters and both filter parts, the bits and the
    hashed set, agree between the two backends over a seeded c1-style sweep
    plus the edge cases."""
    if engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    rng = random.Random(0xD1FF)
    cases = _edge_cases()
    for sigma in (2, 4, 64, 256):
        pool = bytes(rng.choices(range(sigma), k=8000))
        for alpha in (8, 16, 24):
            for shift_s in (1, 2):
                params = FilterParams(alpha=alpha, shift_s=shift_s)
                for _ in range(8):
                    m = rng.randint(1, 64)
                    n = m + int((4000 - m) * rng.random() ** 2)
                    off = rng.randint(0, len(pool) - n)
                    text = pool[off : off + n]
                    if rng.random() < 0.5:
                        start = rng.randint(0, n - m)
                        pattern = text[start : start + m]
                    else:
                        pattern = bytes(rng.choices(range(sigma), k=m))
                    cases.extend((pattern, text, k, params) for k in range(1, min(4, m) + 1))
    cases += _long_entry_cases()
    for pattern, text, k, params in cases:
        native = search(pattern, text, params=params, k=k)
        native_filter = FactorFilter(pattern, params)
        with monkeypatch.context() as patched:
            patched.setattr(engine, "_native", None)
            python = search(pattern, text, params=params, k=k)
            python_filter = FactorFilter(pattern, params)
        assert (native.backend, python.backend) == ("native", "python")
        assert _record(native) == _record(python), (pattern, len(text), k, params)
        assert native_filter.bits == python_filter.bits
        assert native_filter.hashed == python_filter.hashed
    assert len(cases) > 600


def _compare_split_cases(pause=0.0):
    for pattern, text, k, params in _split_cases():
        flt = preprocess(pattern, params)
        time.sleep(pause)
        assert flt.search(text, k) == flt.search(_ShortReads(text, 8192), k), (pattern, k, params)


def test_split_scan_equals_short_calls():
    """A search whose kernel calls scan on two threads, on two orbits of the
    calling thread where the call takes the branch-free entry, its filter
    has no hashed set and m <= 64, gives the positions and counters of the
    same kernel in calls of about 8 KiB, which neither split nor interleave.
    Each case runs back to back and after a 2 ms sleep, which makes the
    helper thread start late, so that it takes part of what the calling
    thread has left rather than half."""
    if engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    _compare_split_cases()
    _compare_split_cases(pause=0.002)


def _run_test_engine_child(code):
    """Run ``code`` in a child interpreter that has imported this module as
    ``test_engine``, and assert that it exits 0."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
    code = (
        f"import os, sys; sys.path[:0] = [{here!r}, {src!r}]; import test_engine; "
        f"assert test_engine.engine._native is not None; {code}"
    )
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr


def test_one_cpu_scan_equals_short_calls():
    """On one usable CPU a long kernel call on two orbits scans in the same
    steps and with the same joins as on two, with no helper thread, and any
    other long call in one scan; both give the positions and counters of
    calls of about 8 KiB. The kernel counts its CPUs once per process, so
    the comparison runs in a child process that first pins itself, and only
    itself, to one CPU."""
    if engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is unavailable on this platform")
    cpu = min(os.sched_getaffinity(0))
    _run_test_engine_child(
        f"os.sched_setaffinity(0, {{{cpu}}}); assert len(os.sched_getaffinity(0)) == 1; "
        "test_engine._compare_split_cases()"
    )


def test_split_pinned_after_count_equals_short_calls():
    """A long call still splits in a process pinned to one CPU after the
    kernel has counted two, but its helper thread runs only when the
    scheduler takes the CPU from the calling thread, mostly after the call
    has ended: it then takes nothing and exits. Positions and counters equal
    those of calls of about 8 KiB."""
    if engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is unavailable on this platform")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs, so that the kernel counts two")
    cpu = min(os.sched_getaffinity(0))
    _run_test_engine_child(
        "pattern, text, k, params = test_engine._split_cases()[0]; "
        "test_engine.preprocess(pattern, params).search(text, k); "
        f"os.sched_setaffinity(0, {{{cpu}}}); assert len(os.sched_getaffinity(0)) == 1; "
        "test_engine._compare_split_cases()"
    )


def test_runs_across_reads(backend):
    """Reads that end inside a run of one byte value, where each kernel call
    stops, give the positions and counters of a whole-text search."""
    for pattern, text, k in _run_cases():
        flt = preprocess(pattern)
        whole = flt.search(text, k)
        for most in (97, 1000):
            assert flt.search(_ShortReads(text, most), k) == whole


def test_edge_cases_against_oracle(backend):
    for pattern, text, k, params in _edge_cases():
        out = search(pattern, text, params, k=k)
        assert out.positions == naive_search(pattern, text)
        assert out.backend == backend
    out = search(b"a", b"a" * 20_000)
    assert out.verification_count == out.check_comparisons == out.attempt_count == 20_000


def test_bytes_like_inputs_searched_as_bytes(backend):
    text = b"xxababab"
    for view in (bytearray(text), memoryview(text), memoryview(b"--" + text)[2:]):
        assert search(b"abab", view) == search(b"abab", text)
        assert search(b"abab", view).positions == [2, 4]
    # Multi-byte items are searched by their bytes, as the kernel reads them.
    wide = array.array("H", [1, 2, 1, 2])
    assert search(array.array("H", [1, 2]), wide).positions == [0, 4]
    assert search(b"\x02\x00\x01", memoryview(wide)).positions == [2]
    assert preprocess(array.array("H", [1, 2])).bits == preprocess(b"\x01\x00\x02\x00").bits
    # Every registry id builds its tables from the pattern's bytes.
    for algo in baselines.ALGORITHMS:
        assert baselines.prepare(algo, array.array("H", [1, 2])).search(wide).positions == [0, 4]


def test_bytearray_text_scanned_in_place(backend):
    """A ``bytearray`` text gives the positions and counters of its ``bytes``
    copy, through ``search`` and ``stream``. It is read in place: a change
    made between two batches of a stream is what the next batch finds."""
    text = bytes(random.Random(0xBA).choices(b"ACGT", k=20_000))
    for pattern, k in ((text[500:508], 1), (text[900:1000], 1), (text[900:1000], 4)):
        flt = preprocess(pattern)
        whole = flt.search(text, k)
        assert flt.search(bytearray(text), k) == whole
        stream = flt.stream(bytearray(text), k)
        assert [p for batch in stream for p in batch] == whole.positions
        counters = (stream.verification_count, stream.attempt_count, stream.total_shift, stream.check_comparisons)
        assert counters == (whole.verification_count, whole.attempt_count, whole.total_shift, whole.check_comparisons)
    cap = engine._POSITIONS_PER_CALL
    live = bytearray(b"a" * (cap + 100))
    stream = preprocess(b"a").stream(live)
    assert next(stream) == list(range(cap))
    live[cap + 50 :] = b"b" * 50
    assert list(stream) == [list(range(cap, cap + 50))]


def test_shared_matcher_concurrent_searches(backend, tmp_path):
    # Each search allocates its own scan buffers, and a file search its own
    # text buffer, so threads sharing one matcher get a serial run's results
    # (the native scan releases the GIL), each thread from its own file too.
    rng = random.Random(5)
    flt = preprocess(b"abab", FilterParams(alpha=12))
    n = 200_000 if backend == "native" else 20_000
    texts = [bytes(rng.choices(b"abc", k=n)) for _ in range(4)]
    paths = [tmp_path / f"text{i}.bin" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_bytes(text)
    ks = (1, 2, 4)
    serial = [[_record(flt.search(text, k)) for k in ks] for text in texts]
    results = [[] for _ in texts]
    errors = []

    def search_path(i, k):
        with open(paths[i], "rb") as fh:
            return flt.search(fh, k)

    def worker(i):
        try:
            for _ in range(3):
                results[i].append([_record(flt.search(texts[i], k)) for k in ks])
                results[i].append([_record(search_path(i, k)) for k in ks])
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(texts))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for got, want in zip(results, serial):
        assert got == [want] * 6


def test_backend_not_part_of_equality():
    assert SearchOutcome([1], backend="native") == SearchOutcome([1], backend="python")


def test_kernel_build_failure_falls_back(tmp_path, monkeypatch):
    # A missing source, a compiler error and a PATH without cc each give None.
    assert engine._load_kernel(str(tmp_path / "missing.c")) is None
    broken = tmp_path / "broken" / "_kernel.c"
    broken.parent.mkdir()
    broken.write_text("this is not C\n")
    assert engine._load_kernel(str(broken)) is None
    assert os.listdir(broken.parent / "__pycache__") == []
    source = tmp_path / "_kernel.c"
    with open(engine.KERNEL_SOURCE, "rb") as fh:
        source.write_bytes(fh.read())
    with monkeypatch.context() as patched:
        patched.setenv("PATH", str(tmp_path))
        lib = engine._load_kernel(str(source))
    assert lib is None
    monkeypatch.setattr(engine, "_native", lib)
    out = search(b"abab", b"xxababab")
    assert out.positions == naive_search(b"abab", b"xxababab") == [2, 4]
    assert out.backend == "python"


def test_kernel_builds_into_pycache(tmp_path, monkeypatch):
    if engine._native is None:
        pytest.skip("native kernel unavailable: cc missing or the build failed")
    source = tmp_path / "_kernel.c"
    with open(engine.KERNEL_SOURCE, "rb") as fh:
        source.write_bytes(fh.read())
    assert engine._load_kernel(str(source)) is not None
    (built,) = os.listdir(tmp_path / "__pycache__")
    assert built.startswith("_kernel-") and built.endswith(".so")
    # A changed source builds beside the old library and removes it; a
    # library of another interpreter's cache tag stays.
    other = tmp_path / "__pycache__" / "_kernel-other-tag-00000000.so"
    other.write_bytes(b"")
    with open(source, "ab") as fh:
        fh.write(b"/* changed */\n")
    assert engine._load_kernel(str(source)) is not None
    rebuilt = sorted(os.listdir(tmp_path / "__pycache__"))
    assert len(rebuilt) == 2 and other.name in rebuilt and built not in rebuilt
    # So does a changed compile command with the same source.
    monkeypatch.setattr(engine, "_KERNEL_CC", (*engine._KERNEL_CC, "-g"))
    assert engine._load_kernel(str(source)) is not None
    reflagged = sorted(os.listdir(tmp_path / "__pycache__"))
    assert len(reflagged) == 2 and other.name in reflagged and reflagged != rebuilt
