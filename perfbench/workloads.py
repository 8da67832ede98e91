"""Seeded input generators and the three workload definitions.

Inputs are made here with the stdlib ``random`` module only, never with
``wfr.harness``: edits to the package's own harness must not change what the
benchmark measures. Every random stream is a ``random.Random`` seeded with a
string built from the workload name, the ``--seed`` argument and the stream's
purpose, so the same seed gives byte-identical inputs on any machine.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator

KIB = 1 << 10
MIB = 1 << 20
SHIFT_S = 2
CLI_K = 1

DNA = b"ACGT"
TEXT64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
NONZERO = range(1, 256)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    mix: ``(m, k, region)`` of every library query in one round. ``region``
        says where the pattern is cut from: ``any`` (uniform offset),
        ``zero`` (inside a zero run), ``edge`` (straddling a run boundary) or
        ``noise`` (inside non-zero bytes).
    cli_bytes: size of the file the CLI searches; 0 means the library text.
    cli_runs: CLI runs per round, each for a fresh pattern; set so the CLI
        part gets about as much time as the library part.
    """

    name: str
    why: str
    alphabet: bytes | None
    alpha: int
    text_bytes: int
    mix: tuple[tuple[int, int, str], ...]
    cli_bytes: int
    cli_m: int
    cli_region: str
    cli_runs: int


def _repeat(n: int, *queries: tuple[int, int, str]) -> tuple[tuple[int, int, str], ...]:
    return tuple(q for q in queries for _ in range(n))


# The mixes are unbalanced on purpose. Query cost depends mostly on m, so
# the counts are set to put the median and the 95th percentile of query time
# inside a dense part of one m's cost distribution, not on the edge between
# two groups or on a group's thin tail (see README.md).
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="dna-short",
            why="short patterns on sigma=4: windows shift about 7 bytes, so the scan loop is the main cost and verification is under 1% of the work",
            alphabet=DNA,
            alpha=16,
            text_bytes=MIB,
            mix=_repeat(3, (4, 1, "any")) + _repeat(14, (8, 1, "any")) + _repeat(13, (16, 1, "any")),
            cli_bytes=16 * MIB,
            cli_m=16,
            cli_region="any",
            cli_runs=2,
        ),
        Workload(
            name="text-long",
            why="long patterns on sigma=64 at alpha=24: O(m^2) preprocessing dominates a sublinear scan",
            alphabet=TEXT64,
            alpha=24,
            text_bytes=MIB,
            mix=_repeat(5, (256, 1, "any"), (256, 4, "any")) + ((1024, 1, "any"), (1024, 4, "any")),
            cli_bytes=16 * MIB,
            cli_m=1024,
            cli_region="any",
            cli_runs=3,
        ),
        Workload(
            name="zero-runs",
            why="zero runs between random bytes: most alignments are verified and shift by 1, the quadratic worst case",
            alphabet=None,
            alpha=16,
            text_bytes=128 * KIB,
            mix=tuple(
                q
                for m in (8, 32)
                for q in ((m, 1, "zero"), (m, 1, "zero"), (m, 1, "edge"), (m, 1, "noise"))
            ),
            cli_bytes=0,
            cli_m=32,
            cli_region="zero",
            cli_runs=2,
        ),
    )
}


def uniform_text(rng: random.Random, alphabet: bytes, n: int) -> bytes:
    """``n`` bytes drawn uniformly from ``alphabet``, whose size divides 256."""
    table = bytes(alphabet[b % len(alphabet)] for b in range(256))
    return rng.randbytes(n).translate(table)


def zero_runs_text(rng: random.Random, n: int) -> tuple[bytes, list[tuple[int, int]]]:
    """Non-zero runs of 384..640 random bytes alternating with zero runs of
    1280..1792 bytes, cut to ``n`` bytes. Returns the text and the
    ``(start, end)`` of every zero run. Narrow uniform run lengths keep the
    total zero share, and so the cost of an all-zero pattern, nearly the
    same for every seed."""
    out = bytearray()
    runs = []
    while len(out) < n:
        out += bytes(rng.choices(NONZERO, k=rng.randint(384, 640)))
        start = len(out)
        out += bytes(rng.randint(1280, 1792))
        runs.append((start, min(len(out), n)))
    del out[n:]
    return bytes(out), [(s, e) for s, e in runs if s < e]


class Text:
    """A generated text plus the zero-run layout that region sampling needs."""

    def __init__(self, data: bytes, runs: list[tuple[int, int]] | None, generator: str):
        self.data = data
        self.generator = generator
        self.sha256 = hashlib.sha256(data).hexdigest()
        runs = runs or []
        n = len(data)
        self._zero = runs
        self._noise = [(e, s) for (_, e), (s, _) in zip(runs, runs[1:])]
        self._bounds = [b for s, e in runs for b in (s, e) if 0 < b < n]

    def sample(self, rng: random.Random, m: int, region: str) -> bytes:
        """Cut a pattern of length ``m`` at a seeded offset in ``region``."""
        if region == "any":
            p = rng.randrange(len(self.data) - m + 1)
        elif region == "zero":
            s, e = rng.choice([r for r in self._zero if r[1] - r[0] >= m])
            p = rng.randint(s, e - m)
        elif region == "noise":
            s, e = rng.choice([r for r in self._noise if r[1] - r[0] >= m])
            p = rng.randint(s, e - m)
        elif region == "edge":
            b = rng.choice([b for b in self._bounds if m <= b <= len(self.data) - m])
            p = b - rng.randint(1, m - 1)
        else:
            raise ValueError(f"unknown region {region!r}")
        return self.data[p : p + m]


def make_text(wl: Workload, seed: int, n: int, purpose: str) -> Text:
    """The seeded text of ``n`` bytes that ``wl`` searches for ``purpose``."""
    label = f"{wl.name}:{seed}:{purpose}"
    rng = random.Random(label)
    if wl.alphabet is None:
        data, runs = zero_runs_text(rng, n)
        return Text(data, runs, f"zero_runs_text(Random({label!r}), {n})")
    data = uniform_text(rng, wl.alphabet, n)
    return Text(data, None, f"uniform_text(Random({label!r}), {wl.alphabet!r}, {n})")


@dataclass(frozen=True)
class Query:
    m: int
    k: int
    region: str
    pattern: bytes


def rounds(wl: Workload, seed: int, text: Text, cli_text: Text) -> Iterator[tuple[list[Query], list[bytes]]]:
    """Endless stream of rounds: the library queries of one round and the
    patterns its CLI runs search for. Fresh patterns every round, so a longer
    run covers more patterns; the stream is the same for a given seed."""
    rng = random.Random(f"{wl.name}:{seed}:queries")
    while True:
        lib = [Query(m, k, region, text.sample(rng, m, region)) for m, k, region in wl.mix]
        yield lib, [cli_text.sample(rng, wl.cli_m, wl.cli_region) for _ in range(wl.cli_runs)]
