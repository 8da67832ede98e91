"""CLI tests: golden outputs, exit codes, flag handling."""

import os
import random
import subprocess
import sys

import pytest
from click.testing import CliRunner

import wfr
from wfr import engine, search
from wfr.baselines import ALGORITHMS
from wfr.cli import DEFAULT_M, _parse_m_list, main
from wfr.harness import DEFAULT_PATTERN_LENGTHS


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def aabaab(tmp_path):
    path = tmp_path / "text.bin"
    path.write_bytes(b"aabaab")
    return str(path)


def test_search_golden_match(runner, aabaab):
    result = runner.invoke(main, ["search", "--pattern", "aab", aabaab])
    assert result.stdout == "0\n3\noccurrences=2 verifications=2\n"
    assert result.exit_code == 0


def test_search_golden_no_match(runner, aabaab):
    result = runner.invoke(main, ["search", "--pattern", "zz", aabaab])
    assert result.stdout == "occurrences=0 verifications=0\n"
    assert result.exit_code == 1


def test_search_golden_k_exceeds_m(runner, aabaab):
    result = runner.invoke(main, ["search", "--algo", "wfr", "--k", "9", "--pattern", "abc", aabaab])
    assert result.exit_code == 2


def test_search_naive_and_horspool(runner, aabaab):
    for algo in ("naive", "horspool"):
        result = runner.invoke(main, ["search", "--algo", algo, "--pattern", "aab", aabaab])
        assert result.stdout.splitlines()[:2] == ["0", "3"]
        assert result.exit_code == 0


def test_search_pattern_file_binary(runner, tmp_path):
    text = tmp_path / "text.bin"
    text.write_bytes(b"\x00\x01\x02\x00\x01")
    needle = tmp_path / "pat.bin"
    needle.write_bytes(b"\x00\x01")
    result = runner.invoke(main, ["search", "--pattern-file", str(needle), str(text)])
    assert result.stdout.splitlines()[:2] == ["0", "3"]
    assert result.exit_code == 0


def test_search_pattern_flags_exclusive(runner, aabaab, tmp_path):
    needle = tmp_path / "pat.bin"
    needle.write_bytes(b"aab")
    result = runner.invoke(
        main, ["search", "--pattern", "aab", "--pattern-file", str(needle), aabaab]
    )
    assert result.exit_code == 2
    assert runner.invoke(main, ["search", aabaab]).exit_code == 2


def test_search_empty_pattern_rejected(runner, aabaab):
    assert runner.invoke(main, ["search", "--pattern", "", aabaab]).exit_code == 2


def test_search_unreadable_text(runner, tmp_path):
    result = runner.invoke(main, ["search", "--pattern", "x", str(tmp_path / "missing.bin")])
    assert result.exit_code == 3


def test_search_checks_wfr_arguments_before_opening_text(runner, tmp_path):
    missing = str(tmp_path / "missing.bin")
    assert runner.invoke(main, ["search", "--pattern", "", missing]).exit_code == 2
    assert runner.invoke(main, ["search", "--pattern", "x", "--alpha", "31", missing]).exit_code == 2
    # The baselines, too, are prepared before the text is opened.
    assert runner.invoke(main, ["search", "--algo", "naive", "--pattern", "", missing]).exit_code == 2
    # k is checked, in range and against m, before the text is opened, for every --algo.
    for algo in ALGORITHMS:
        assert runner.invoke(main, ["search", "--algo", algo, "--k", "9", "--pattern", "x", missing]).exit_code == 2
        assert runner.invoke(main, ["search", "--algo", algo, "--k", "3", "--pattern", "ab", missing]).exit_code == 2


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_search_empty_pattern_rejected_before_opening_text(runner, tmp_path, algo):
    missing = str(tmp_path / "missing.bin")
    assert runner.invoke(main, ["search", "--algo", algo, "--pattern", "", missing]).exit_code == 2


@pytest.mark.parametrize("algo", ["wfr", "naive", "horspool"])
def test_search_stdin_equals_path(runner, tmp_path, algo):
    # More than one read chunk, with an occurrence across the chunk boundary.
    rng = random.Random(3)
    data = bytes(rng.choices(b"acgt", k=engine._CHUNK_BYTES + 5000))
    path = tmp_path / "text.bin"
    path.write_bytes(data)
    needle = data[engine._CHUNK_BYTES - 6 : engine._CHUNK_BYTES + 6].decode()
    by_path = runner.invoke(main, ["search", "--algo", algo, "--pattern", needle, str(path)])
    from_stdin = runner.invoke(main, ["search", "--algo", algo, "--pattern", needle, "-"], input=data)
    assert by_path.exit_code == from_stdin.exit_code == 0
    assert str(engine._CHUNK_BYTES - 6) in by_path.stdout.splitlines()
    assert from_stdin.stdout == by_path.stdout


# Runs a command and prints its exit code and peak RSS in KiB. It is spawned
# from this small interpreter because on Linux a child's ru_maxrss starts
# from the RSS of the process that spawned it.
_PEAK_RSS = """
import os, sys
out = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=out)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mib(*argv):
    """Exit code and peak RSS in MiB of ``python argv`` with this wfr."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(wfr.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    code, maxrss_kib = map(int, out.stdout.split())
    return code, maxrss_kib / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="peak RSS is read from ru_maxrss as Linux reports it")
@pytest.mark.parametrize(
    "algo, needle",
    # Horspool shifts the 64 bytes of a pattern without zeros at a time.
    [("wfr", "xyz"), ("horspool", "0123456789abcdef" * 4)],
    ids=["wfr", "horspool"],
)
def test_search_memory_bounded_by_chunk(tmp_path, algo, needle):
    # A 48 MiB text must not be held whole: the search peaks within a few
    # MiB of a bare import of the CLI.
    text = tmp_path / "zeros.bin"
    with open(text, "wb") as fh:
        fh.seek((48 << 20) - len(needle))
        fh.write(needle.encode())
    _, imported = _peak_mib("-c", "import wfr.cli")
    code, searched = _peak_mib("-m", "wfr.cli", "search", "--algo", algo, "--pattern", needle, str(text))
    assert code == 0
    assert searched - imported < 8, (imported, searched)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="peak RSS is read from ru_maxrss as Linux reports it")
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_search_memory_bounded_with_dense_matches(tmp_path, algo):
    # Every alignment of 8 MiB of zeros matches a 4-zero pattern: the
    # 8,388,605 positions are printed as they are found, not held in a list.
    # The Python scans get two chunks, 2 MiB, to keep the test fast.
    native = algo == "wfr" and engine._native is not None
    text = tmp_path / "zeros.bin"
    with open(text, "wb") as fh:
        fh.truncate(8 << 20 if native else 2 * engine._CHUNK_BYTES)
    needle = tmp_path / "needle.bin"
    needle.write_bytes(bytes(4))  # argv cannot carry NUL bytes
    _, imported = _peak_mib("-c", "import wfr.cli")
    code, searched = _peak_mib("-m", "wfr.cli", "search", "--algo", algo, "--pattern-file", str(needle), str(text))
    assert code == 0
    assert searched - imported < 8, (imported, searched)


@pytest.mark.parametrize(
    "data, needle, positions, verifications",
    [
        # The kernel fills its buffer, then finds nothing in the x's.
        (b"a" * 4099 + b"x" * 10, "aaaa", list(range(4096)), 4096),
        # Two read chunks, and no match in the first.
        (b"b" * engine._CHUNK_BYTES + b"xaabaab", "aab", [engine._CHUNK_BYTES + 1, engine._CHUNK_BYTES + 4], 2),
    ],
    ids=["full-buffer-then-none", "no-match-in-first-chunk"],
)
def test_search_golden_no_blank_line(runner, tmp_path, backend, data, needle, positions, verifications):
    path = tmp_path / "text.bin"
    path.write_bytes(data)
    result = runner.invoke(main, ["search", "--pattern", needle, str(path)])
    summary = f"occurrences={len(positions)} verifications={verifications}\n"
    assert result.stdout == "\n".join(map(str, positions)) + "\n" + summary
    assert result.exit_code == 0


def test_search_bad_alpha(runner, aabaab):
    result = runner.invoke(main, ["search", "--pattern", "aab", "--alpha", "31", aabaab])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--algo", "naive", "--alpha", "99"], "alpha must be in"),
        (["--algo", "horspool", "--k", "9"], "k must be in"),
        (["--algo", "horspool", "--shift", "7"], "shift_s must be 1 or 2"),
    ],
)
def test_search_baselines_reject_bad_wfr_options(runner, aabaab, args, message):
    # The baselines ignore the options, but not their invalid values.
    result = runner.invoke(main, ["search", *args, "--pattern", "ab", aabaab])
    assert result.exit_code == 2
    assert message in result.stderr
    assert result.stdout == ""


def test_search_pattern_bytes_taken_verbatim(runner, tmp_path):
    # A non-UTF-8 argv byte reaches the command as a lone surrogate.
    text = tmp_path / "text.bin"
    text.write_bytes(b"ab\xffcd")
    result = runner.invoke(main, ["search", "--pattern", "\udcff", str(text)])
    assert result.stdout == "2\noccurrences=1 verifications=1\n"
    assert result.exit_code == 0


def test_search_unknown_flag_rejected(runner, aabaab):
    assert runner.invoke(main, ["search", "--wat", "1", aabaab]).exit_code == 2


@pytest.mark.parametrize("command", ["bench", "stats"])
def test_header_names_backend(runner, backend, command):
    result = runner.invoke(main, [command, "--synth", "4,4096", "--m", "4", "--runs", "2"])
    assert result.exit_code == 0
    assert result.stderr.splitlines()[0].endswith(f" backend={backend}")


def test_search_does_not_import_harness():
    code = "import sys, wfr.cli; print('wfr.harness' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
    # The --m default stands in for the harness constant it must not import.
    assert _parse_m_list(DEFAULT_M) == DEFAULT_PATTERN_LENGTHS


def test_bench_csv_shape(runner):
    result = runner.invoke(
        main,
        ["bench", "--synth", "4,1048576", "--m", "4,8", "--runs", "5", "--algos", "wfr,naive", "--format", "csv"],
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "algo,m,mean_ms,verifications,occurrences,mean_shift"
    assert len(lines) == 5
    assert {line.split(",")[0] for line in lines[1:]} == {"wfr", "naive"}


def _strip_timing(csv_text):
    rows = []
    for line in csv_text.splitlines()[1:]:
        fields = line.split(",")
        rows.append(fields[:2] + fields[3:])
    return rows


def test_bench_deterministic_modulo_timing(runner):
    args = ["bench", "--synth", "4,65536", "--m", "4,8", "--runs", "3", "--algos", "wfr,horspool", "--seed", "9", "--format", "csv"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert _strip_timing(first.stdout) == _strip_timing(second.stdout)


def test_bench_bad_format(runner):
    result = runner.invoke(main, ["bench", "--synth", "4,1000", "--format", "xml"])
    assert result.exit_code == 2


def test_bench_corpus_flags_exclusive(runner, aabaab):
    assert runner.invoke(main, ["bench", "--m", "2"]).exit_code == 2
    assert runner.invoke(main, ["bench", "--text", aabaab, "--synth", "4,100", "--m", "2"]).exit_code == 2


def test_bench_bad_synth_spec(runner):
    assert runner.invoke(main, ["bench", "--synth", "4", "--m", "2"]).exit_code == 2
    assert runner.invoke(main, ["bench", "--synth", "4,x", "--m", "2"]).exit_code == 2


def test_bench_bad_m_list(runner):
    # Refused before the corpus is built: "" is no integer, 0 no length.
    for spec, message in (("", "--m expects comma-separated integers, got ''"), ("4,0", "--m values must be positive, got '4,0'")):
        result = runner.invoke(main, ["bench", "--synth", "4,4096", "--m", spec, "--runs", "2"])
        assert result.exit_code == 2
        assert message in result.stderr


def test_bench_missing_text_file(runner, tmp_path):
    result = runner.invoke(main, ["bench", "--text", str(tmp_path / "nope"), "--m", "2"])
    assert result.exit_code == 3


def test_bench_bad_alpha_without_wfr(runner):
    # The hash params are checked even when no wfr variant runs.
    args = ["bench", "--synth", "4,4096", "--m", "4", "--runs", "2", "--algos", "naive", "--alpha", "99"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "alpha must be in" in result.stderr


@pytest.mark.parametrize("command", ["bench", "stats"])
def test_repeated_length_rejected(runner, command):
    # A length given twice would be timed twice and reported once.
    result = runner.invoke(main, [command, "--synth", "4,4096", "--m", "4,4", "--runs", "2", "--format", "csv"])
    assert result.exit_code == 2
    assert "pattern_lengths must be distinct" in result.stderr
    assert result.stdout == ""
    if command == "bench":
        # So would an algorithm given twice, as two identical rows.
        result = runner.invoke(main, ["bench", "--synth", "4,4096", "--m", "4", "--runs", "2", "--algos", "wfr,wfr"])
        assert result.exit_code == 2
        assert "algorithms must be distinct" in result.stderr
        assert result.stdout == ""


def test_bench_unknown_algorithm(runner):
    result = runner.invoke(main, ["bench", "--synth", "4,1000", "--m", "4", "--algos", "bndm"])
    assert result.exit_code == 2


def test_search_output_parses_back_to_positions(runner, tmp_path):
    text = b"abracadabra" * 3
    path = tmp_path / "text.bin"
    path.write_bytes(text)
    result = runner.invoke(main, ["search", "--pattern", "abra", str(path)])
    assert result.exit_code == 0
    *position_lines, summary = result.stdout.splitlines()
    assert [int(line) for line in position_lines] == search(b"abra", text).positions
    assert summary.startswith("occurrences=")


def test_stats_density_and_order(runner):
    result = runner.invoke(
        main, ["stats", "--synth", "4,1048576", "--m", "4", "--runs", "20", "--format", "csv"]
    )
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "corpus,m,occurrences_per_mib,verifications_per_mib"
    _, _, occ4, ver4 = lines[1].split(",")
    assert 3000 <= float(occ4) <= 5200
    assert float(ver4) >= float(occ4)


def test_stats_low_false_positives_m16(runner):
    result = runner.invoke(
        main, ["stats", "--synth", "4,262144", "--m", "16", "--runs", "5", "--format", "csv"]
    )
    assert result.exit_code == 0
    _, _, occ16, ver16 = result.stdout.splitlines()[1].split(",")
    assert float(ver16) - float(occ16) <= 5
    assert float(ver16) >= float(occ16)


def test_stats_markdown_rows(runner):
    result = runner.invoke(main, ["stats", "--synth", "4,4096", "--m", "4", "--runs", "2"])
    assert result.exit_code == 0
    assert "| m | 4 |" in result.stdout
    assert "synth-s4-occ" in result.stdout


def test_stats_deterministic(runner):
    args = ["stats", "--synth", "4,65536", "--m", "4,8", "--runs", "3", "--seed", "4", "--format", "csv"]
    assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout


def test_search_prints_positions_across_chunks(runner, tmp_path):
    # More positions than one write holds: the lines stay one per position.
    text = tmp_path / "text.bin"
    text.write_bytes(b"a" * 70_000)
    result = runner.invoke(main, ["search", "--pattern", "a", str(text)])
    expected = "".join(f"{i}\n" for i in range(70_000))
    assert result.stdout == expected + "occurrences=70000 verifications=70000\n"
    assert result.exit_code == 0


# Golden pins: exact outputs of seeded stats and bench runs. They hold the
# harness's counts and means fixed across refactors; bench drops mean_ms.
GOLDEN_STATS_CSV = """\
corpus,m,occurrences_per_mib,verifications_per_mib
synth-s4,4,4006.4,17820.8
synth-s4,8,28.8,307.2
synth-s4,16,16.0,19.2
"""

GOLDEN_STATS_JSON = """\
[
  {
    "corpus": "synth-s64",
    "cells": [
      {
        "m": 2,
        "occurrences_per_mib": 240.0,
        "verifications_per_mib": 8652.8
      },
      {
        "m": 4,
        "occurrences_per_mib": 16.0,
        "verifications_per_mib": 32.0
      },
      {
        "m": 8,
        "occurrences_per_mib": 16.0,
        "verifications_per_mib": 19.2
      },
      {
        "m": 32,
        "occurrences_per_mib": 16.0,
        "verifications_per_mib": 19.2
      }
    ]
  }
]
"""

GOLDEN_BENCH_ROWS = [
    ["wfr", "4", "670.0", "259.6666666666667", "2.9580995628072646"],
    ["wfr", "8", "22.0", "2.3333333333333335", "6.457198980748544"],
    ["wfr3", "4", "1503.0", "259.6666666666667", "1.8654323417441985"],
    ["wfr3", "8", "22.0", "2.3333333333333335", "5.472038477467585"],
    ["naive", "4", "0.0", "259.6666666666667", "0.0"],
    ["naive", "8", "0.0", "2.3333333333333335", "0.0"],
    ["horspool", "4", "24621.333333333332", "259.6666666666667", "2.667055136031308"],
    ["horspool", "8", "17822.0", "2.3333333333333335", "3.998679022421912"],
]


@pytest.mark.parametrize(
    "args, expected",
    [
        (["--synth", "4,65536", "--m", "4,8,16", "--runs", "5", "--seed", "2", "--k", "2", "--format", "csv"], GOLDEN_STATS_CSV),
        (["--synth", "64,65536", "--m", "2,4,8,32", "--runs", "5", "--seed", "3", "--k", "2", "--format", "json"], GOLDEN_STATS_JSON),
    ],
    ids=["sigma4-csv", "sigma64-json"],
)
def test_stats_golden(runner, args, expected):
    result = runner.invoke(main, ["stats", *args])
    assert result.exit_code == 0
    assert result.stdout == expected


def test_bench_golden_modulo_timing(runner):
    args = ["bench", "--synth", "4,65536", "--m", "4,8", "--runs", "3", "--algos", "wfr,wfr3,naive,horspool", "--seed", "2", "--format", "csv"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "algo,m,mean_ms,verifications,occurrences,mean_shift"
    assert _strip_timing(result.stdout) == GOLDEN_BENCH_ROWS
