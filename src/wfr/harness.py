"""Benchmark and statistics harness.

Reproduces the classic search-benchmark methodology at desk scale: load or
synthesize a corpus, extract seeded random patterns of each length, time each
registered algorithm over many runs (preprocessing included), cross-check
that all algorithms report identical occurrences, and emit the results as
csv, markdown, or json. The statistics mode is a view of one such run: the
mean occurrences and mean verifications of wfr with one ``k``, scaled to
1,048,576 bytes of text, the standard measure of filter false-positive
pressure.

Pattern sampling and statistics are deterministic for a fixed seed; timed
runs execute serially so timings stay honest.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ClassVar, Sequence

from .baselines import ALGORITHMS, naive_search, prepare
from .engine import DEFAULT_PARAMS, K_MAX, FilterParams, SearchOutcome
from .errors import ConfigurationError, CorrectnessViolation

MIB = 1_048_576

DEFAULT_PATTERN_LENGTHS = (4, 8, 16, 32, 64, 128, 256, 512, 1024)

ALGORITHM_NAMES = (*ALGORITHMS, *(f"wfr{k}" for k in range(2, K_MAX + 1)))


@dataclass
class Corpus:
    """A text to search: raw bytes plus a label and provenance string."""

    name: str
    data: bytes
    source: str

    def __len__(self) -> int:
        return len(self.data)


def load_corpus(path: str | Path) -> Corpus:
    """Read a corpus file as raw bytes, no transformation.

    I/O failures propagate as OSError; an empty file is rejected."""
    path = Path(path)
    data = path.read_bytes()
    if not data:
        raise ConfigurationError(f"corpus file {path} is empty")
    return Corpus(name=path.name, data=data, source=f"file:{path}")


def synth_corpus(sigma: int, length: int, seed: int) -> Corpus:
    """Generate ``length`` bytes uniform over the first ``sigma`` byte values.

    Deterministic for a fixed seed."""
    if not 2 <= sigma <= 256:
        raise ConfigurationError(f"sigma must be in [2, 256], got {sigma}")
    if length < 1:
        raise ConfigurationError(f"corpus length must be positive, got {length}")
    rng = random.Random(f"corpus:{seed}")
    data = bytes(rng.choices(range(sigma), k=length))
    return Corpus(
        name=f"synth-s{sigma}",
        data=data,
        source=f"synthetic:sigma={sigma},length={length},seed={seed}",
    )


def sample_patterns(corpus: Corpus, m: int, count: int, seed: int) -> list[bytes]:
    """Extract ``count`` patterns of length ``m`` from seeded-uniform start
    offsets of the corpus, sampled with replacement."""
    n = len(corpus.data)
    if m < 1:
        raise ConfigurationError(f"pattern length must be positive, got {m}")
    if m > n:
        raise ConfigurationError(f"pattern length {m} exceeds corpus length {n}")
    rng = random.Random(f"patterns:{seed}:{m}")
    top = n - m
    return [corpus.data[off : off + m] for off in (rng.randint(0, top) for _ in range(count))]


@dataclass(frozen=True)
class Algorithm:
    """A registered search algorithm: stable id plus a runner.

    The runner takes (pattern, text) and returns a SearchOutcome; any
    preprocessing happens inside the runner so that timed runs include it.
    """

    id: str
    run: Callable[[bytes, bytes], SearchOutcome]


def bench_entry(name: str) -> tuple[str, int]:
    """The (registry id, k) pair that bench name ``name`` runs: ``wfrK`` is
    ``("wfr", K)`` and a registry id is ``(id, 1)``."""
    if name not in ALGORITHM_NAMES:
        raise ConfigurationError(f"unknown algorithm {name!r} (known: {', '.join(ALGORITHM_NAMES)})")
    return (name, 1) if name in ALGORITHMS else ("wfr", int(name[3:]))


def make_algorithm(name: str, params: FilterParams = DEFAULT_PARAMS) -> Algorithm:
    """The Algorithm that bench name ``name`` runs: the ``naive_search``
    oracle for "naive", else its :func:`bench_entry` pair."""
    if name == "naive":
        # The oracle measures positions only; its counters stay 0.
        return Algorithm("naive", lambda pattern, text: SearchOutcome(naive_search(pattern, text)))
    return _registry_algorithm(name, *bench_entry(name), params)


def _registry_algorithm(label: str, algo: str, k: int, params: FilterParams) -> Algorithm:
    """``label``, timed as ``prepare(algo, pattern, params).search(text, k)``."""
    return Algorithm(label, lambda pattern, text: prepare(algo, pattern, params).search(text, k))


@dataclass
class BenchConfig:
    """Benchmark shape: which lengths, how many runs, which algorithms, and
    the hash params of the wfr variants."""

    pattern_lengths: Sequence[int] = DEFAULT_PATTERN_LENGTHS
    runs_per_length: int = 500
    seed: int = 0
    algorithms: Sequence[str] = ("wfr",)
    params: FilterParams = DEFAULT_PARAMS

    def __post_init__(self) -> None:
        if self.runs_per_length < 1:
            raise ConfigurationError(f"runs_per_length must be >= 1, got {self.runs_per_length}")
        if not self.pattern_lengths:
            raise ConfigurationError("pattern_lengths must not be empty")
        if len(set(self.pattern_lengths)) != len(self.pattern_lengths):
            raise ConfigurationError(
                f"pattern_lengths must be distinct, got {tuple(self.pattern_lengths)}"
            )
        if not self.algorithms:
            raise ConfigurationError("algorithms must not be empty")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigurationError(f"algorithms must be distinct, got {tuple(self.algorithms)}")


@dataclass
class BenchCell:
    """Per-(algorithm, m) means over all runs."""

    mean_ms: float
    mean_verifications: float
    mean_occurrences: float
    mean_shift: float


@dataclass
class BenchRow:
    """One benchmark table row: an algorithm with one cell per pattern length."""

    algorithm: str
    cells: dict[int, BenchCell] = field(default_factory=dict)

    # emit_table layout: (csv header, field) for the label and for each value
    # column, then (label suffix, field, number format) per markdown line.
    LABEL: ClassVar = ("algo", "algorithm")
    COLUMNS: ClassVar = (
        ("mean_ms", "mean_ms"),
        ("verifications", "mean_verifications"),
        ("occurrences", "mean_occurrences"),
        ("mean_shift", "mean_shift"),
    )
    MARKDOWN: ClassVar = (("", "mean_ms", ".3f"),)

    def records(self) -> dict[int, dict[str, float]]:
        """Column values per pattern length, in ``COLUMNS`` order."""
        return {
            m: {name: getattr(cell, name) for _, name in self.COLUMNS} for m, cell in self.cells.items()
        }


@dataclass
class StatsRow:
    """Occurrence/verification statistics for one corpus, per pattern length.

    Values are means per run, normalized to a 1,048,576-byte text."""

    corpus: str
    occurrences_per_mib: dict[int, float] = field(default_factory=dict)
    verifications_per_mib: dict[int, float] = field(default_factory=dict)

    # emit_table layout, as for BenchRow; each field maps m to a value.
    LABEL: ClassVar = ("corpus", "corpus")
    COLUMNS: ClassVar = (
        ("occurrences_per_mib", "occurrences_per_mib"),
        ("verifications_per_mib", "verifications_per_mib"),
    )
    MARKDOWN: ClassVar = (
        ("-occ", "occurrences_per_mib", ".2f"),
        ("-ver", "verifications_per_mib", ".2f"),
    )

    def records(self) -> dict[int, dict[str, float]]:
        """Column values per pattern length, in ``COLUMNS`` order."""
        return {
            m: {name: getattr(self, name)[m] for _, name in self.COLUMNS} for m in self.occurrences_per_mib
        }


def time_run(algorithm: Algorithm, pattern: bytes, text: bytes) -> tuple[float, SearchOutcome]:
    """Run once and return (wall-clock seconds including preprocessing, outcome)."""
    start = time.perf_counter()
    outcome = algorithm.run(pattern, text)
    return time.perf_counter() - start, outcome


def run_benchmark(
    config: BenchConfig,
    corpus: Corpus,
    algorithms: Sequence[Algorithm] | None = None,
) -> list[BenchRow]:
    """Time every configured algorithm over seeded patterns of every length.

    All algorithms are cross-checked per pattern: a diverging position list
    aborts the run with CorrectnessViolation. ``algorithms`` may carry
    pre-resolved Algorithm objects, overriding ``config.algorithms``. The
    patterns of every length are sampled before the first timed run, so a
    length the corpus cannot hold fails before anything is timed.
    """
    if algorithms is None:
        algorithms = [make_algorithm(name, config.params) for name in config.algorithms]
    runs = config.runs_per_length
    samples = [(m, sample_patterns(corpus, m, runs, config.seed)) for m in config.pattern_lengths]

    rows = [BenchRow(algorithm=a.id) for a in algorithms]
    for m, patterns in samples:
        sums = [[0.0, 0.0, 0.0, 0.0] for _ in algorithms]
        for pattern in patterns:
            reference: list[int] | None = None
            for algo, acc in zip(algorithms, sums):
                seconds, outcome = time_run(algo, pattern, corpus.data)
                if reference is None:
                    reference = outcome.positions
                elif outcome.positions != reference:
                    raise CorrectnessViolation(
                        f"algorithm {algo.id!r} found {len(outcome.positions)} occurrence(s) "
                        f"but {algorithms[0].id!r} found {len(reference)} for m={m}, "
                        f"pattern={pattern.hex()[:48]}..."
                    )
                acc[0] += seconds
                acc[1] += outcome.verification_count
                acc[2] += outcome.occurrence_count
                acc[3] += outcome.mean_shift
        for row, acc in zip(rows, sums):
            row.cells[m] = BenchCell(
                mean_ms=acc[0] / runs * 1000.0,
                mean_verifications=acc[1] / runs,
                mean_occurrences=acc[2] / runs,
                mean_shift=acc[3] / runs,
            )
    return rows


def verification_stats(
    corpus: Corpus,
    m_values: Sequence[int],
    runs: int,
    seed: int,
    params: FilterParams = DEFAULT_PARAMS,
    k: int = 1,
) -> list[StatsRow]:
    """Mean occurrences and verifications per 1,048,576 bytes, per length.

    The means are those of :func:`run_benchmark` for wfr with ``k`` and
    ``params`` over ``runs`` seeded patterns per length, scaled by
    ``1048576 / len(corpus)``.
    """
    config = BenchConfig(pattern_lengths=m_values, runs_per_length=runs, seed=seed)
    (bench,) = run_benchmark(config, corpus, algorithms=[_registry_algorithm("wfr", "wfr", k, params)])
    scale = MIB / len(corpus.data)
    row = StatsRow(corpus=corpus.name)
    for m, cell in bench.cells.items():
        row.occurrences_per_mib[m] = cell.mean_occurrences * scale
        row.verifications_per_mib[m] = cell.mean_verifications * scale
    return [row]


def emit_table(rows: Sequence[BenchRow] | Sequence[StatsRow], format: str = "markdown") -> str:
    """Render rows as ``csv``, ``markdown``, or ``json``.

    csv and json carry full float precision; markdown mirrors the classic
    layout with algorithms (or corpus-occ/corpus-ver) as rows, pattern
    lengths as columns and ``-`` where a row has no cell. The columns come
    from the row class's ``LABEL``, ``COLUMNS`` and ``MARKDOWN``. Output is
    deterministic for identical rows.
    """
    if not rows:
        raise ConfigurationError("no rows to emit")
    kind = type(rows[0])
    label_header, label_key = kind.LABEL
    table = [(getattr(row, label_key), row.records()) for row in rows]
    if format == "csv":
        lines = [",".join([label_header, "m", *(header for header, _ in kind.COLUMNS)])]
        for label, records in table:
            for m in sorted(records):
                lines.append(",".join([label, str(m), *map(repr, records[m].values())]))
        return "\n".join(lines) + "\n"
    if format == "markdown":
        m_values = sorted({m for _, records in table for m in records})
        header = ["m", *map(str, m_values)]
        lines = [header, ["---"] * len(header)]
        for label, records in table:
            for suffix, name, spec in kind.MARKDOWN:
                cells = [f"{records[m][name]:{spec}}" if m in records else "-" for m in m_values]
                lines.append([label + suffix, *cells])
        return "".join("| " + " | ".join(line) + " |\n" for line in lines)
    if format == "json":
        payload = [
            {label_key: label, "cells": [{"m": m, **records[m]} for m in sorted(records)]}
            for label, records in table
        ]
        return json.dumps(payload, indent=2) + "\n"
    raise ConfigurationError(f"unknown table format {format!r}")
