"""Weak-factor-recognition exact string search.

The engine finds every (possibly overlapping) occurrence of a byte pattern
``x`` of length ``m`` in a byte text ``y`` of length ``n``. Preprocessing
hashes the nonempty factors (contiguous substrings) of the pattern into a
:class:`FactorFilter`: if ``z`` is a factor of
``x`` then the bit at ``hash_factor(z)`` is set. The converse need not hold,
so the filter recognizes a superset of the factor set: false positives are
possible, false negatives are not.

Searching slides a window of size ``m`` over the text. At each alignment the
window is scanned right to left while the hash of the growing suffix keeps
testing positive in the filter. A scan that fails at cursor position ``c``
proves that ``y[c..j]`` is not a factor of the pattern, so no occurrence can
start at or before ``c`` within the window and the window jumps past it. A
scan that survives all ``m`` characters triggers a direct byte-by-byte
verification. After a verification the window advances by a single character,
which is what makes the worst case (e.g. ``a^m`` in ``a^n``) cost O(n*m).

The suffix hash is built incrementally: folding one more character ``c`` on
the left of a suffix with hash ``v`` costs one shift-add,
``((v << shift_s) + c) mod 2**alpha``. The scan folds ``k`` characters
(fewer at the window's left end) between consecutive filter tests; ``k=1``
probes after every character, and the chained variants (``k > 1``) trade
slightly shorter shifts for fewer table probes. It is one loop for every
``k``, and the hash stream is the same, so no occurrence can be missed for
any ``k``.

Two backends run the same algorithm over the same filter layout and give
identical probe outcomes, positions and counters. The native backend is the
C kernel in ``_kernel.c``. It skips the ``k=1`` probes whose outcome it
already knows: a hash depends only on the first ``L = ceil(alpha/shift_s)``
bytes of its suffix, so after a verified window ``[i, j]`` every probe at or
left of ``j-L+1`` is known to pass, and the next window does not repeat
them. It also verifies a word at a time. The counters, and the inspected
bytes derived from them, stay the algorithm's logical counts: none counts
probes, and ``check_comparisons`` counts bytes. On the first import after
the source changes the kernel is compiled with ``cc -O2 -shared -fPIC``
into ``__pycache__/_kernel-<cache tag>-<crc32 of the source>.so`` beside
this module and loaded with :mod:`ctypes`. When that fails (no compiler, a
read-only package directory, a load error) the pure-Python loops below run
instead; they are also the reference the tests compare the kernel against.
:attr:`SearchOutcome.backend` names the backend that ran.

The algorithm's two phases are two calls: ``preprocess(pattern, params)``
builds the :class:`FactorFilter`, and its ``search(text, k)`` validates
``k``, picks the backend and scans. Module-level :func:`search` composes the
two. A ``bytes`` pattern or text is read in place; any other bytes-like one
is copied once into ``bytes``, so both backends see the same bytes.

The scan is resumable: both backends scan one window of the text at a time
and carry the next window end and the four counters in a 5-slot state. A
window reads only its own ``m`` bytes and the next window end is never
before the end of the scanned bytes, so ``search_file(fh, k)`` reads a file
in 1 MiB chunks, scans the last ``m-1`` bytes of the previous window plus
each chunk, and gets the positions and counters of a whole-text search.
``search(text, k)`` is the same driver with the text as its only window.
"""

from __future__ import annotations

import ctypes
import os
import sys
import zlib
from dataclasses import dataclass, field

from .errors import ConfigurationError, InvalidPatternError

ALPHA_MIN = 8
ALPHA_MAX = 30

K_MIN = 1
K_MAX = 4

KERNEL_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
# Positions the kernel writes per call; bounds the scan buffer for any text.
_POSITIONS_PER_CALL = 4096
# Bytes :meth:`FactorFilter.search_file` reads per call; it bounds the memory.
# 256 KiB, 1 MiB and 4 MiB chunks scanned a 16 MiB sigma=4 file in 28.5-29.7 ms
# on a 2-vCPU VM, so the size is set by memory alone.
_CHUNK_BYTES = 1 << 20


def _build_kernel(source: str, library: str) -> None:
    """Compile ``source`` into ``library``; ``OSError`` on any failure.

    The output goes to a per-process temporary name and is then renamed, so
    concurrent first imports never load a half-written library.
    """
    import subprocess  # only here: most imports find the library cached

    os.makedirs(os.path.dirname(library), exist_ok=True)
    tmp = f"{library}.{os.getpid()}.tmp"
    try:
        subprocess.run(
            ["cc", "-O2", "-shared", "-fPIC", "-o", tmp, source],
            check=True,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=120,
        )
        os.replace(tmp, library)
    except subprocess.SubprocessError as exc:
        raise OSError(f"cc failed on {source}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_kernel(source: str = KERNEL_SOURCE) -> ctypes.CDLL | None:
    """The native kernel built from ``source``, or None when it cannot be
    built or loaded; never raises."""
    try:
        with open(source, "rb") as fh:
            crc = zlib.crc32(fh.read())
        library = os.path.join(
            os.path.dirname(source),
            "__pycache__",
            f"_kernel-{sys.implementation.cache_tag}-{crc:08x}.so",
        )
        if not os.path.exists(library):
            _build_kernel(source, library)
        lib = ctypes.CDLL(library)
        i64, ptr = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64)
        lib.wfr_build.argtypes = [
            ctypes.c_char_p, i64, ctypes.c_char_p, ctypes.c_int, ctypes.c_uint64, i64,
        ]
        lib.wfr_build.restype = None
        lib.wfr_scan.argtypes = [
            ctypes.c_char_p, i64, ctypes.c_char_p, i64, ctypes.c_char_p,
            ctypes.c_int, ctypes.c_uint64, ctypes.c_int, ptr, i64, ptr, i64,
        ]
        lib.wfr_scan.restype = i64
    except (OSError, AttributeError):  # AttributeError: a symbol is missing
        return None
    return lib


_native = _load_kernel()


@dataclass(frozen=True)
class FilterParams:
    """Tunable constants for factor hashing and filter size.

    alpha: bit width of hash values; the filter holds ``2**alpha`` bits.
    shift_s: bits shifted in per character when a hash is extended.
    """

    alpha: int = 16
    shift_s: int = 2

    def __post_init__(self) -> None:
        if not ALPHA_MIN <= self.alpha <= ALPHA_MAX:
            raise ConfigurationError(
                f"alpha must be in [{ALPHA_MIN}, {ALPHA_MAX}], got {self.alpha}"
            )
        if self.shift_s not in (1, 2):
            raise ConfigurationError(f"shift_s must be 1 or 2, got {self.shift_s}")

    @property
    def table_bits(self) -> int:
        """Total number of bits in a filter built with these params."""
        return 1 << self.alpha

    @property
    def hash_mask(self) -> int:
        """Mask reducing an integer modulo ``2**alpha``."""
        return (1 << self.alpha) - 1


DEFAULT_PARAMS = FilterParams()


@dataclass
class SearchOutcome:
    """Occurrence positions plus exact instrumentation of one search run.

    positions: strictly increasing start indices of all occurrences.
    verification_count: number of byte-by-byte window verifications.
    attempt_count: number of window alignments opened.
    total_shift: sum of window advances in bytes, including the final
        advance that moves the window past the end of the text.
    check_comparisons: total byte comparisons spent in verifications.
    backend: ``"native"`` or ``"python"``, the engine that ran; not part of
        equality, because both give the same result.
    """

    positions: list[int] = field(default_factory=list)
    verification_count: int = 0
    attempt_count: int = 0
    total_shift: int = 0
    check_comparisons: int = 0
    backend: str = field(default="python", compare=False)

    @property
    def occurrence_count(self) -> int:
        return len(self.positions)

    @property
    def false_positive_count(self) -> int:
        """Verifications that did not yield an occurrence."""
        return self.verification_count - len(self.positions)

    @property
    def mean_shift(self) -> float:
        """Average window advance in bytes, 0.0 if no attempt was made."""
        if self.attempt_count == 0:
            return 0.0
        return self.total_shift / self.attempt_count


def hash_factor(z: bytes, params: FilterParams = DEFAULT_PARAMS) -> int:
    """Hash a byte sequence to an integer in ``[0, 2**alpha)``.

    The empty sequence hashes to 0 and
    ``hash_factor(z) == ((hash_factor(z[1:]) << shift_s) + z[0]) mod 2**alpha``.
    """
    s = params.shift_s
    mask = params.hash_mask
    v = 0
    for c in reversed(z):
        v = ((v << s) + c) & mask
    return v


def extend_hash(v: int, c: int, params: FilterParams = DEFAULT_PARAMS) -> int:
    """Fold byte ``c`` onto the left end of a sequence with hash ``v``.

    ``extend_hash(hash_factor(z), c) == hash_factor(bytes([c]) + z)``.
    """
    return ((v << params.shift_s) + c) & params.hash_mask


def validate_k(k: int) -> None:
    """:class:`ConfigurationError` unless ``k`` is in ``[K_MIN, K_MAX]``."""
    if not K_MIN <= k <= K_MAX:
        raise ConfigurationError(f"k must be in [{K_MIN}, {K_MAX}], got {k}")


def _as_bytes(arg, name: str) -> bytes:
    """``arg`` itself when it is ``bytes``, else a ``bytes`` copy of its
    buffer (multi-byte items become their bytes); ``TypeError`` when ``arg``
    is not bytes-like."""
    if type(arg) is bytes:
        return arg
    try:
        return memoryview(arg).tobytes()
    except TypeError:
        raise TypeError(f"{name} must be bytes-like, not {type(arg).__name__}") from None


class FactorFilter:
    """The factor filter of one pattern: a ``2**alpha``-bit membership table.

    Built only from its pattern: the constructor sets bit ``hash_factor(z)``
    for every nonempty factor ``z`` of ``pattern``, and the filter is
    immutable afterwards (assigning an attribute raises ``AttributeError``),
    so the table always belongs to ``pattern``. :meth:`search` and
    :meth:`search_file` scan any number of texts with it, and a built filter
    is safe for any number of concurrent searches.

    The table is a ``bytes`` bitset, the one layout both backends read in
    place: bit ``v`` is ``bits[v >> 3] & (1 << (v & 7))``. It costs
    ``2**(alpha-3)`` bytes (8 KiB at alpha=16, 2 MiB at 24, 128 MiB at 30)
    and no per-word objects. Only factors up to ``L = ceil(alpha/shift_s)``
    bytes long are hashed, in O(m*L) time: a hash depends only on the first
    ``L`` bytes of a factor, and that prefix is itself a factor.
    """

    __slots__ = ("params", "bits", "pattern")

    def __init__(self, pattern: bytes, params: FilterParams = DEFAULT_PARAMS) -> None:
        pattern = _as_bytes(pattern, "pattern")
        m = len(pattern)
        if m == 0:
            raise InvalidPatternError("pattern must be at least one byte")
        s = params.shift_s
        mask = params.hash_mask
        longest = -(-params.alpha // s)
        if _native is not None:
            # A fresh object no one else holds yet: the kernel fills it in
            # place, which saves copying the whole table.
            bits = bytes(params.table_bits >> 3)
            _native.wfr_build(pattern, m, bits, s, mask, longest)
        else:
            table = bytearray(params.table_bits >> 3)
            for i in range(m - 1, -1, -1):
                v = 0
                for j in range(i, max(i - longest, -1), -1):
                    v = ((v << s) + pattern[j]) & mask
                    table[v >> 3] |= 1 << (v & 7)
            bits = bytes(table)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FactorFilter is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"FactorFilter is immutable; cannot delete {name!r}")

    def test_bit(self, v: int) -> bool:
        """True iff bit ``v`` is set; ``ValueError`` outside ``[0, 2**alpha)``."""
        if not 0 <= v < self.params.table_bits:
            raise ValueError(f"bit index {v} outside [0, 2**{self.params.alpha})")
        return bool(self.bits[v >> 3] & (1 << (v & 7)))

    def popcount(self) -> int:
        """Number of set bits."""
        bits = self.bits
        step = 1 << 16  # bounds the temporary int at alpha=30
        return sum(
            int.from_bytes(bits[at : at + step], "little").bit_count()
            for at in range(0, len(bits), step)
        )

    def search(self, text: bytes, k: int = 1) -> SearchOutcome:
        """Find all occurrences of this filter's pattern in ``text``.

        ``k`` is the number of characters folded into the window hash per
        filter probe. If ``m > n`` the outcome is empty with zero attempts.
        Raises :class:`ConfigurationError` for ``k`` outside ``[1, 4]`` or
        ``k > m``, and then ``TypeError`` for a text that is not bytes-like.
        A text that is not ``bytes`` is copied once.
        """
        return self._search_chunks((text,), k)

    def search_file(self, fh, k: int = 1) -> SearchOutcome:
        """:meth:`search` over the bytes a binary file ``fh`` yields.

        Reads ``fh`` in chunks of at most 1 MiB until it returns ``b""``, so
        it holds about one chunk plus ``m-1`` bytes of the text at a time;
        a short read (from a pipe) is just a smaller chunk. Positions and
        all four counters equal those of ``search(fh.read(), k)``.
        """
        return self._search_chunks(iter(lambda: fh.read(_CHUNK_BYTES), b""), k)

    def _search_chunks(self, chunks, k: int) -> SearchOutcome:
        """The one scan driver: validate ``k`` and the table, then scan the
        text that ``chunks`` yields in order, as one resumable scan. Each
        chunk must be bytes-like (``TypeError`` otherwise).

        Each window is the last ``m-1`` bytes of the previous window plus
        the next chunk, so every alignment lies whole in some window; a
        lone chunk is scanned in place. The backend state carries the next
        window end and the four counters from one window to the next.
        """
        m = len(self.pattern)
        validate_k(k)
        if k > m:
            raise ConfigurationError(f"k={k} exceeds pattern length m={m}")
        # The scans index the table without bounds checks.
        if len(self.bits) != self.params.table_bits >> 3:
            raise ConfigurationError("filter table size does not match its params")
        if _native is None:
            scan, backend = _scan_python, "python"
        else:
            scan, backend = _scan_native, "native"
        state = (ctypes.c_int64 * 5)(m - 1)  # window end, then the four counters
        positions: list[int] = []
        base = 0  # offset of the window's first byte in the text
        carry = b""
        for chunk in chunks:
            window = carry + _as_bytes(chunk, "text")  # no copy while carry is empty
            scan(self, window, k, state, base, positions)
            # The next window end is at or past len(window), so a window not
            # yet scanned starts in the last m-1 bytes or later.
            dropped = max(len(window) - (m - 1), 0)
            state[0] -= dropped
            base += dropped
            carry = window[dropped:]
        return SearchOutcome(positions, state[1], state[2], state[3], state[4], backend=backend)


def preprocess(pattern: bytes, params: FilterParams = DEFAULT_PARAMS) -> FactorFilter:
    """Build the factor filter of ``pattern``; see :class:`FactorFilter`.

    ``preprocess(pattern, params).search(text, k)`` is the search; the
    filter can be reused across any number of texts.
    """
    return FactorFilter(pattern, params)


def _match_len(x: bytes, y: bytes, i: int) -> int:
    """Length of the longest common prefix of ``x`` and ``y[i:]``, capped at len(x)."""
    t = 0
    m = len(x)
    while t < m and x[t] == y[i + t]:
        t += 1
    return t


def check(pattern: bytes, text: bytes, i: int) -> bool:
    """True iff ``pattern`` occurs in ``text`` at start index ``i``.

    Performs at most ``len(pattern)`` byte comparisons.
    """
    m = len(pattern)
    if m == 0:
        raise InvalidPatternError("pattern must be at least one byte")
    if i < 0 or i + m > len(text):
        raise ValueError(f"alignment {i} out of range for n={len(text)}, m={m}")
    return _match_len(pattern, text, i) == m


def search(
    pattern: bytes,
    text: bytes,
    params: FilterParams | None = None,
    k: int = 1,
    factors: FactorFilter | None = None,
) -> SearchOutcome:
    """``preprocess(pattern, params).search(text, k)``; see
    :meth:`FactorFilter.search`. :class:`InvalidPatternError` for an empty
    pattern.

    ``factors`` may carry a prebuilt filter of this same pattern, whose
    params then govern the run; a filter built from another pattern, or a
    ``params`` that differs from its own, raises :class:`ConfigurationError`.
    """
    if factors is None:
        factors = FactorFilter(pattern, params or DEFAULT_PARAMS)
    elif factors.pattern != _as_bytes(pattern, "pattern") or params not in (None, factors.params):
        raise ConfigurationError("prebuilt filter was not built from this pattern with these params")
    return factors.search(text, k)


def _scan_native(flt: FactorFilter, y: bytes, k: int, state, base: int, positions: list[int]) -> None:
    """Scan window ``y`` in the C kernel from window end ``state[0]`` until
    ``state[0] >= len(y)``, updating ``state`` (the window end, then the four
    counters) and appending each position plus ``base`` to ``positions``."""
    x, bits, params = flt.pattern, flt.bits, flt.params
    m, n = len(x), len(y)
    buf = (ctypes.c_int64 * _POSITIONS_PER_CALL)()
    # A list extends from a slice of this native-format view about twice as
    # fast as from a ctypes slice, which boxes each item through ctypes.
    found_at = memoryview(buf).cast("B").cast("q")
    while state[0] < n:
        found = _native.wfr_scan(
            x, m, y, n, bits, params.shift_s, params.hash_mask, k, buf, _POSITIONS_PER_CALL, state, base
        )
        positions.extend(found_at[:found])


def _scan_python(flt: FactorFilter, y: bytes, k: int, state, base: int, positions: list[int]) -> None:
    """The reference scan: the same loop and state as the kernel, in Python.
    One loop serves every ``k``; ``k=1`` probes after every character."""
    # Hot loop: everything bound to locals, bit test inlined.
    x, bits, params = flt.pattern, flt.bits, flt.params
    s = params.shift_s
    hmask = params.hash_mask
    m = len(x)
    n = len(y)
    j, verifications, attempts, shifts, comparisons = state

    while j < n:
        attempts += 1
        i = j - m + 1
        # Fold up to k characters, probe once; repeat while the probe passes
        # and the window is not used up; verify when the probe at i passes.
        cursor = j + 1
        v = 0
        while True:
            stop = cursor - k
            if stop < i:
                stop = i
            while cursor > stop:
                cursor -= 1
                v = ((v << s) + y[cursor]) & hmask
            if cursor == i or not bits[v >> 3] & (1 << (v & 7)):
                break
        if cursor == i and bits[v >> 3] & (1 << (v & 7)):
            verifications += 1
            t = _match_len(x, y, i)
            comparisons += t if t == m else t + 1
            if t == m:
                positions.append(i + base)
        j = cursor + m
        shifts += cursor + 1 - i

    state[:] = (j, verifications, attempts, shifts, comparisons)
