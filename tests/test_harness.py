"""Tests for the benchmark/statistics harness."""

import pytest

from wfr import ConfigurationError, CorrectnessViolation, SearchOutcome, naive_search
from wfr.harness import (
    Algorithm,
    BenchCell,
    BenchConfig,
    BenchRow,
    Corpus,
    StatsRow,
    emit_table,
    load_corpus,
    make_algorithm,
    run_benchmark,
    sample_patterns,
    synth_corpus,
    time_run,
    verification_stats,
)


# --- corpora -----------------------------------------------------------------


def test_load_corpus_small_file(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"hello")
    corpus = load_corpus(path)
    assert len(corpus) == 5
    assert corpus.data == b"hello"
    assert corpus.name == "c.txt"


def test_load_corpus_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_corpus(tmp_path / "nope.bin")


def test_load_corpus_empty_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(b"")
    with pytest.raises(ConfigurationError):
        load_corpus(path)


def test_load_corpus_binary_mib(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(bytes(1_048_576))
    assert len(load_corpus(path)) == 1_048_576


def test_synth_deterministic():
    assert synth_corpus(4, 100, 7).data == synth_corpus(4, 100, 7).data


def test_synth_alphabet_support():
    corpus = synth_corpus(2, 100_000, 1)
    assert set(corpus.data) == {0, 1}


def test_synth_uniformity():
    corpus = synth_corpus(4, 1 << 20, 1)
    expected = (1 << 20) / 4
    for symbol in range(4):
        assert abs(corpus.data.count(symbol) - expected) <= expected * 0.01


@pytest.mark.parametrize("sigma", [1, 0, 257])
def test_synth_sigma_out_of_range(sigma):
    with pytest.raises(ConfigurationError):
        synth_corpus(sigma, 100, 1)


# --- pattern sampling ---------------------------------------------------------


def test_sample_single_offset():
    corpus = Corpus(name="tiny", data=b"abcdef", source="test")
    assert sample_patterns(corpus, 6, 1, seed=3) == [b"abcdef"]


def test_sample_deterministic(sigma4_mib):
    a = sample_patterns(sigma4_mib, 8, 20, seed=42)
    b = sample_patterns(sigma4_mib, 8, 20, seed=42)
    assert a == b


def test_sample_refound_in_corpus(sigma4_mib):
    patterns = sample_patterns(sigma4_mib, 8, 500, seed=42)
    assert len(patterns) == 500
    assert all(p in sigma4_mib.data for p in patterns)
    for p in patterns[:10]:
        assert naive_search(p, sigma4_mib.data)


def test_sample_m_too_large():
    corpus = synth_corpus(4, 10, 0)
    with pytest.raises(ConfigurationError):
        sample_patterns(corpus, 11, 1, seed=0)


# --- registry and timing --------------------------------------------------------


def test_registry_rejects_unknown():
    with pytest.raises(ConfigurationError):
        make_algorithm("bndm")


def test_time_run_duration_and_agreement():
    wfr = make_algorithm("wfr")
    naive = make_algorithm("naive")
    pattern, text = b"aab", b"aabaab" * 50
    seconds, outcome = time_run(wfr, pattern, text)
    assert seconds > 0
    _, reference = time_run(naive, pattern, text)
    assert outcome.positions == reference.positions
    # The oracle reports positions only, no counters it did not measure.
    assert reference == SearchOutcome(naive_search(pattern, text))


def test_time_run_counters_repeatable():
    algo = make_algorithm("wfr2")
    pattern, text = b"abab", b"ab" * 200
    _, first = time_run(algo, pattern, text)
    _, second = time_run(algo, pattern, text)
    assert first == second


# --- run_benchmark ---------------------------------------------------------------


def test_run_benchmark_smoke():
    corpus = synth_corpus(4, 5000, seed=2)
    config = BenchConfig(
        pattern_lengths=(4, 8), runs_per_length=5, seed=1, algorithms=("wfr", "naive")
    )
    rows = run_benchmark(config, corpus)
    assert [row.algorithm for row in rows] == ["wfr", "naive"]
    wfr_row, naive_row = rows
    for row in rows:
        assert sorted(row.cells) == [4, 8]
        for cell in row.cells.values():
            assert cell.mean_ms > 0
    for m, cell in wfr_row.cells.items():
        assert cell.mean_verifications >= cell.mean_occurrences >= 0
        # The oracle measures positions only, so it reports no verifications.
        assert naive_row.cells[m].mean_occurrences == cell.mean_occurrences
        assert naive_row.cells[m].mean_verifications == 0


def test_run_benchmark_counters_deterministic():
    corpus = synth_corpus(4, 5000, seed=2)
    config = BenchConfig(pattern_lengths=(4,), runs_per_length=5, seed=1, algorithms=("wfr",))
    a = run_benchmark(config, corpus)[0].cells[4]
    b = run_benchmark(config, corpus)[0].cells[4]
    assert (a.mean_verifications, a.mean_occurrences, a.mean_shift) == (
        b.mean_verifications,
        b.mean_occurrences,
        b.mean_shift,
    )


def test_run_benchmark_detects_broken_algorithm():
    corpus = synth_corpus(4, 2000, seed=2)
    config = BenchConfig(pattern_lengths=(4,), runs_per_length=2, seed=1)

    def broken(pattern, text):
        return SearchOutcome(positions=[0])

    algorithms = [make_algorithm("wfr"), Algorithm("broken", broken)]
    with pytest.raises(CorrectnessViolation):
        run_benchmark(config, corpus, algorithms=algorithms)


def test_run_benchmark_m_exceeds_corpus():
    corpus = synth_corpus(4, 100, seed=2)
    config = BenchConfig(pattern_lengths=(4, 128), runs_per_length=2)
    with pytest.raises(ConfigurationError):
        run_benchmark(config, corpus)
    # Every length is sampled before the first timed run, so nothing runs.
    calls = []

    def recording(pattern, text):
        calls.append(pattern)
        return SearchOutcome(naive_search(pattern, text))

    with pytest.raises(ConfigurationError, match="exceeds corpus length"):
        run_benchmark(config, corpus, algorithms=[Algorithm("recording", recording)])
    assert calls == []


def test_run_benchmark_mean_shift_long_pattern(sigma4_mib):
    # Random text, m=64: shifts should stay close to m.
    config = BenchConfig(pattern_lengths=(64,), runs_per_length=3, seed=5, algorithms=("wfr",))
    rows = run_benchmark(config, sigma4_mib)
    assert rows[0].cells[64].mean_shift >= 32


def test_bench_config_validation():
    with pytest.raises(ConfigurationError):
        BenchConfig(runs_per_length=0)
    with pytest.raises(ConfigurationError):
        BenchConfig(pattern_lengths=())
    with pytest.raises(ConfigurationError):
        BenchConfig(algorithms=())


# --- verification_stats -----------------------------------------------------------


def test_stats_occurrence_density(sigma4_mib):
    rows = verification_stats(sigma4_mib, (4, 16), runs=8, seed=3)
    (row,) = rows
    # Uniform sigma=4 text: expect about n / sigma**4 = 4096 occurrences per MiB.
    assert 3000 <= row.occurrences_per_mib[4] <= 5200
    assert row.verifications_per_mib[16] - row.occurrences_per_mib[16] <= 5
    for m in (4, 16):
        assert row.verifications_per_mib[m] >= row.occurrences_per_mib[m]


def test_stats_config_errors(sigma4_mib):
    # Stats run through BenchConfig, which owns the shape checks.
    with pytest.raises(ConfigurationError, match="runs_per_length"):
        verification_stats(sigma4_mib, (4,), runs=0, seed=3)
    with pytest.raises(ConfigurationError, match="pattern_lengths"):
        verification_stats(sigma4_mib, (), runs=2, seed=3)
    with pytest.raises(ConfigurationError, match="pattern_lengths must be distinct"):
        verification_stats(sigma4_mib, (4, 8, 4), runs=2, seed=3)


def test_stats_normalization(sigma4_mib):
    # Per-MiB values survive halving the corpus, within sampling noise.
    half = synth_corpus(4, 524_288, seed=8)
    full_row = verification_stats(sigma4_mib, (4,), runs=8, seed=3)[0]
    half_row = verification_stats(half, (4,), runs=8, seed=3)[0]
    ratio = half_row.occurrences_per_mib[4] / full_row.occurrences_per_mib[4]
    assert 0.75 <= ratio <= 1.25


# --- emit_table ----------------------------------------------------------------


@pytest.fixture
def bench_rows():
    corpus = synth_corpus(4, 3000, seed=2)
    config = BenchConfig(pattern_lengths=(4,), runs_per_length=2, seed=1, algorithms=("wfr",))
    return run_benchmark(config, corpus)


def test_markdown_layout(bench_rows):
    text = emit_table(bench_rows, "markdown")
    lines = text.splitlines()
    assert lines[0] == "| m | 4 |"
    assert lines[2].startswith("| wfr | ")
    assert len(lines) == 3


def test_emit_deterministic(bench_rows):
    assert emit_table(bench_rows, "markdown") == emit_table(bench_rows, "markdown")
    assert emit_table(bench_rows, "csv") == emit_table(bench_rows, "csv")


def test_csv_header(bench_rows):
    lines = emit_table(bench_rows, "csv").splitlines()
    assert lines[0] == "algo,m,mean_ms,verifications,occurrences,mean_shift"
    assert len(lines) == 2
    assert lines[1].startswith("wfr,4,")


def test_json_round_trip():
    assert emit_table(GOLDEN_BENCH_ROWS, "json") == GOLDEN_BENCH_JSON


def test_stats_rows_render_and_round_trip():
    row = StatsRow(corpus="c", occurrences_per_mib={4: 1.5}, verifications_per_mib={4: 2.5})
    text = emit_table([row], "csv")
    assert text.splitlines()[0] == "corpus,m,occurrences_per_mib,verifications_per_mib"
    assert emit_table(GOLDEN_STATS_ROWS, "json") == GOLDEN_STATS_JSON
    markdown = emit_table([row], "markdown")
    assert "| m | 4 |" in markdown
    assert "c-occ" in markdown and "c-ver" in markdown


# Golden pins: hand-set floats, including 1/3 and 1e-9, so that csv and json
# are checked at full repr precision and markdown at its fixed decimals.
GOLDEN_BENCH_ROWS = [
    BenchRow("wfr", {4: BenchCell(1 / 3, 2.0, 1.0, 3.5), 16: BenchCell(1e-9, 0.1, 0.0, 12.25)}),
    BenchRow("naive", {4: BenchCell(12.5, 997.0, 1.0, 1.0), 16: BenchCell(2 / 3, 985.0, 0.0, 1.0)}),
]

GOLDEN_STATS_ROWS = [
    StatsRow("synth-s4", {4: 4096.5, 16: 1 / 3}, {4: 4100.0, 16: 1e-9}),
]

GOLDEN_TEXT = {
    ("bench", "csv"): """\
algo,m,mean_ms,verifications,occurrences,mean_shift
wfr,4,0.3333333333333333,2.0,1.0,3.5
wfr,16,1e-09,0.1,0.0,12.25
naive,4,12.5,997.0,1.0,1.0
naive,16,0.6666666666666666,985.0,0.0,1.0
""",
    ("bench", "markdown"): """\
| m | 4 | 16 |
| --- | --- | --- |
| wfr | 0.333 | 0.000 |
| naive | 12.500 | 0.667 |
""",
    ("stats", "csv"): """\
corpus,m,occurrences_per_mib,verifications_per_mib
synth-s4,4,4096.5,4100.0
synth-s4,16,0.3333333333333333,1e-09
""",
    ("stats", "markdown"): """\
| m | 4 | 16 |
| --- | --- | --- |
| synth-s4-occ | 4096.50 | 0.33 |
| synth-s4-ver | 4100.00 | 0.00 |
""",
}

GOLDEN_BENCH_JSON = """\
[
  {
    "algorithm": "wfr",
    "cells": [
      {
        "m": 4,
        "mean_ms": 0.3333333333333333,
        "mean_verifications": 2.0,
        "mean_occurrences": 1.0,
        "mean_shift": 3.5
      },
      {
        "m": 16,
        "mean_ms": 1e-09,
        "mean_verifications": 0.1,
        "mean_occurrences": 0.0,
        "mean_shift": 12.25
      }
    ]
  },
  {
    "algorithm": "naive",
    "cells": [
      {
        "m": 4,
        "mean_ms": 12.5,
        "mean_verifications": 997.0,
        "mean_occurrences": 1.0,
        "mean_shift": 1.0
      },
      {
        "m": 16,
        "mean_ms": 0.6666666666666666,
        "mean_verifications": 985.0,
        "mean_occurrences": 0.0,
        "mean_shift": 1.0
      }
    ]
  }
]
"""

GOLDEN_STATS_JSON = """\
[
  {
    "corpus": "synth-s4",
    "cells": [
      {
        "m": 4,
        "occurrences_per_mib": 4096.5,
        "verifications_per_mib": 4100.0
      },
      {
        "m": 16,
        "occurrences_per_mib": 0.3333333333333333,
        "verifications_per_mib": 1e-09
      }
    ]
  }
]
"""


@pytest.mark.parametrize("kind, fmt", sorted(GOLDEN_TEXT))
def test_emit_table_golden(kind, fmt):
    rows = GOLDEN_BENCH_ROWS if kind == "bench" else GOLDEN_STATS_ROWS
    assert emit_table(rows, fmt) == GOLDEN_TEXT[kind, fmt]


def test_markdown_ragged_rows_show_dash():
    # A row without a cell for some m renders "-" there, for both row kinds.
    bench = [BenchRow("wfr", {4: BenchCell(1.0, 0, 0, 0)}), BenchRow("naive", {8: BenchCell(2.0, 0, 0, 0)})]
    assert emit_table(bench, "markdown").splitlines()[2:] == [
        "| wfr | 1.000 | - |",
        "| naive | - | 2.000 |",
    ]
    stats = [
        StatsRow("a", {4: 1.0, 8: 2.0}, {4: 3.0, 8: 4.0}),
        StatsRow("b", {4: 5.0}, {4: 6.0}),
    ]
    assert emit_table(stats, "markdown").splitlines()[2:] == [
        "| a-occ | 1.00 | 2.00 |",
        "| a-ver | 3.00 | 4.00 |",
        "| b-occ | 5.00 | - |",
        "| b-ver | 6.00 | - |",
    ]


def test_emit_rejects_bad_input(bench_rows):
    with pytest.raises(ConfigurationError):
        emit_table([], "csv")
    with pytest.raises(ConfigurationError):
        emit_table(bench_rows, "xml")
