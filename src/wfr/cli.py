"""Command line entry point: search, bench, and stats subcommands.

Exit codes: 0 success, 1 no match (search only), 2 usage or configuration
error, 3 I/O error.
"""

from __future__ import annotations

import functools
import os
import sys

import click

from .baselines import ALGORITHMS, prepare
from .engine import ALPHA_MIN, FilterParams, preprocess
from .errors import ConfigurationError, CorrectnessViolation, InvalidPatternError

# wfr.harness (json, random, pathlib) is imported only by the commands that
# use it, so `wfr search` does not pay for it.

EXIT_NO_MATCH = 1
EXIT_USAGE = 2
EXIT_IO = 3

# harness.DEFAULT_PATTERN_LENGTHS as an option default, without importing harness.
DEFAULT_M = "4,8,16,32,64,128,256,512,1024"


def _mapped_errors(fn):
    """Map library errors to the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ConfigurationError, InvalidPatternError, CorrectnessViolation) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except OSError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def _read_pattern(pattern: str | None, pattern_file: str | None) -> bytes:
    if (pattern is None) == (pattern_file is None):
        raise ConfigurationError("exactly one of --pattern or --pattern-file is required")
    if pattern is not None:
        return os.fsencode(pattern)
    with open(pattern_file, "rb") as fh:
        return fh.read()


class _TextFile:
    """TEXT_FILE (- for standard input) as a binary file that opens on first
    use, so that a search reports a bad pattern, params or k first."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._fh = None

    def __getattr__(self, name):  # readinto, fileno, tell: those of the opened file
        if self._fh is None:
            self._fh = click.open_file(self._path, "rb")
        return getattr(self._fh, name)

    def __enter__(self) -> _TextFile:
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not None:
            self._fh.__exit__(*exc)  # closes a path, leaves standard input open


def _parse_m_list(raw: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ConfigurationError(f"--m expects comma-separated integers, got {raw!r}") from None
    if any(m < 1 for m in values):
        raise ConfigurationError(f"--m values must be positive, got {raw!r}")
    return values


def _echo_header(corpus, runs: int, seed: int, params: FilterParams, extra: str = "") -> None:
    """The bench and stats stderr header. Its backend is that of a wfr
    matcher built now (a 32-byte table), as each run's will be."""
    backend = preprocess(b"\0", FilterParams(alpha=ALPHA_MIN)).backend
    header = f"corpus={corpus.source} runs={runs} seed={seed} alpha={params.alpha} shift_s={params.shift_s}{extra}"
    click.echo(f"{header} backend={backend}", err=True)


def _resolve_corpus(text_path: str | None, synth: str | None, seed: int):
    from .harness import load_corpus, synth_corpus

    if (text_path is None) == (synth is None):
        raise ConfigurationError("exactly one of --text or --synth is required")
    if text_path is not None:
        return load_corpus(text_path)
    try:
        sigma_part, length_part = synth.split(",")
        sigma, length = int(sigma_part), int(length_part)
    except ValueError:
        raise ConfigurationError(f"--synth expects SIGMA,LENGTH, got {synth!r}") from None
    return synth_corpus(sigma, length, seed)


@click.group()
def main():
    """Exact string search over byte files, with benchmark and stats modes."""


@main.command("search")
@click.argument("text_file", type=click.Path(allow_dash=True))
@click.option("--pattern", default=None, help="Pattern string (bytes taken verbatim).")
@click.option("--pattern-file", default=None, type=click.Path(), help="Read the pattern from a file (binary-safe).")
@click.option("--algo", type=click.Choice(ALGORITHMS), default="wfr", help="Algorithm to run.")
@click.option("--k", type=int, default=1, help="Characters folded per filter probe for wfr (1-4).")
@click.option("--alpha", type=int, default=16, show_default=True, help="Hash bit width for wfr.")
@click.option("--shift", "shift_s", type=int, default=2, help="Hash shift per character for wfr (1 or 2).")
@_mapped_errors
def cmd_search(text_file, pattern, pattern_file, algo, k, alpha, shift_s):
    """Print every occurrence of a pattern in TEXT_FILE (- for standard
    input), one 0-based byte offset per line, then a summary line. Exits 1
    when there is no match. Every --algo reads the text through one buffer
    of at most 1 MiB plus m-1 bytes and prints the positions as they are
    found."""
    needle = _read_pattern(pattern, pattern_file)
    with _TextFile(text_file) as text:
        # The baselines use neither the hash params nor k, but reject the values
        # that wfr rejects. stream_file checks k now, before the text opens.
        stream = prepare(algo, needle, FilterParams(alpha=alpha, shift_s=shift_s)).stream_file(text, k)
        occurrences = 0
        for batch in stream:
            occurrences += len(batch)
            click.echo("\n".join(map(str, batch)))
    click.echo(f"occurrences={occurrences} verifications={stream.verification_count}")
    if occurrences == 0:
        sys.exit(EXIT_NO_MATCH)


@main.command("bench")
@click.option("--text", "text_path", default=None, type=click.Path(), help="Corpus file (raw bytes).")
@click.option("--synth", default=None, metavar="SIGMA,LENGTH", help="Synthetic corpus instead of a file.")
@click.option("--m", "m_spec", default=DEFAULT_M, show_default=True, help="Comma-separated pattern lengths.")
@click.option("--runs", type=int, default=50, show_default=True, help="Patterns sampled per length.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for corpus synthesis and pattern sampling.")
@click.option("--algos", default="wfr,naive", show_default=True, help="Comma-separated algorithm names (wfr, wfr2-wfr4, naive, horspool).")
@click.option("--alpha", type=int, default=16, show_default=True, help="Hash bit width for wfr variants.")
@click.option("--shift", "shift_s", type=int, default=2, help="Hash shift per character for wfr variants.")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown", "json"]), default="markdown", show_default=True, help="Output format.")
@_mapped_errors
def cmd_bench(text_path, synth, m_spec, runs, seed, algos, alpha, shift_s, fmt):
    """Benchmark algorithms over seeded random patterns; timings include
    preprocessing. Means per (algorithm, length) go to standard output."""
    from .harness import BenchConfig, emit_table, run_benchmark

    corpus = _resolve_corpus(text_path, synth, seed)
    config = BenchConfig(
        pattern_lengths=_parse_m_list(m_spec),
        runs_per_length=runs,
        seed=seed,
        algorithms=tuple(name.strip() for name in algos.split(",") if name.strip()),
        params=FilterParams(alpha=alpha, shift_s=shift_s),
    )
    _echo_header(corpus, runs, seed, config.params)
    rows = run_benchmark(config, corpus)
    click.echo(emit_table(rows, fmt), nl=False)


@main.command("stats")
@click.option("--text", "text_path", default=None, type=click.Path(), help="Corpus file (raw bytes).")
@click.option("--synth", default=None, metavar="SIGMA,LENGTH", help="Synthetic corpus instead of a file.")
@click.option("--m", "m_spec", default=DEFAULT_M, show_default=True, help="Comma-separated pattern lengths.")
@click.option("--runs", type=int, default=50, show_default=True, help="Patterns sampled per length.")
@click.option("--seed", type=int, default=0, show_default=True, help="Seed for corpus synthesis and pattern sampling.")
@click.option("--k", type=int, default=1, show_default=True, help="Characters folded per filter probe (1-4).")
@click.option("--alpha", type=int, default=16, show_default=True, help="Hash bit width.")
@click.option("--shift", "shift_s", type=int, default=2, help="Hash shift per character.")
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown", "json"]), default="markdown", show_default=True, help="Output format.")
@_mapped_errors
def cmd_stats(text_path, synth, m_spec, runs, seed, k, alpha, shift_s, fmt):
    """Report the benchmark's mean occurrences and verifications for wfr
    with one --k over seeded random patterns of each length, scaled to
    1,048,576 bytes of text."""
    from .harness import BenchConfig, emit_table, verification_stats

    corpus = _resolve_corpus(text_path, synth, seed)
    # Checked before the header, as bench checks its config.
    config = BenchConfig(
        pattern_lengths=_parse_m_list(m_spec),
        runs_per_length=runs,
        seed=seed,
        params=FilterParams(alpha=alpha, shift_s=shift_s),
    )
    _echo_header(corpus, runs, seed, config.params, f" k={k}")
    rows = verification_stats(corpus, config.pattern_lengths, runs, seed, params=config.params, k=k)
    click.echo(emit_table(rows, fmt), nl=False)


if __name__ == "__main__":
    main()
