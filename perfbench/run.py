"""Layered benchmark of wfr: library queries and the ``wfr search`` CLI.

Usage:
    python3 perfbench/run.py [--workload dna-short|text-long|zero-runs|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from any directory; wfr is imported from ``src/`` of the checkout that
holds this file. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the same queries with spans and prints the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from tracing import Tracer
from workloads import CLI_K, MIB, SHIFT_S, WORKLOADS, Query, Workload, make_text, rounds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

CHILD_TIMEOUT_S = 60
# A bare interpreter peaks near 10-13 MiB. A self-check child above this
# bound inherited memory from its spawner, so every RSS figure is suspect.
BARE_CHILD_MAX_MIB = 24

SPAN_NAMES = (
    "query",
    "engine.preprocess",
    "engine.search",
    "engine.check",
    "baselines.horspool_search",
    "ref.bytes_find",
    "cli.import",
    "cli.run",
    "cli.probe",
    "cli.read",
    "cli.search",
)


def load_wfr():
    """Import wfr from this checkout's ``src/``, never from an installed copy."""
    init = SRC / "wfr" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; the benchmark needs the repository's src/ tree")
    sys.path.insert(0, str(SRC))
    import wfr

    if Path(wfr.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported wfr from {wfr.__file__}, expected {init}")
    return wfr


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def find_all(pattern: bytes, text: bytes) -> list[int]:
    """The oracle: every overlapping occurrence, by a ``bytes.find`` loop."""
    out = []
    i = text.find(pattern)
    while i >= 0:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def counters(out) -> tuple[int, int, int, int]:
    return (out.verification_count, out.attempt_count, out.total_shift, out.check_comparisons)


def inspected(out, m: int) -> int:
    """Bytes folded into window hashes; exact for every k (ROADMAP item 1)."""
    return out.attempt_count * (m + 1) - out.total_shift


def outcome_problems(out, m: int, oracle: list[int]) -> list[str]:
    problems = []
    if out.positions != oracle:
        problems.append(f"{len(out.positions)} positions, oracle has {len(oracle)} and they differ")
    if out.verification_count < len(out.positions):
        problems.append("verification_count < occurrences")
    if inspected(out, m) < 0:
        problems.append("inspected_bytes < 0")
    return problems


def pct(values: list[float], q: float, scale: float = 1.0) -> float | None:
    """Linear-interpolated quantile ``q`` of ``values`` divided by ``scale``;
    None when there are no values."""
    if not values:
        return None
    s = sorted(values)
    x = q * (len(s) - 1)
    lo = int(x)
    hi = min(lo + 1, len(s) - 1)
    return (s[lo] + (s[hi] - s[lo]) * (x - lo)) / scale


def ratio(num: float, den: float) -> float | None:
    return num / den if den else None


class Gate:
    """Counts every checked operation. A failure is counted and kept, never dropped."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(problems)}")


class Launcher:
    """Runs children through launcher.py, a process that holds no large
    buffers, so each child's peak RSS is its own."""

    def __init__(self, err_path: Path) -> None:
        self.err_path = err_path
        self.env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def run(self, args: list[str], stdout: Path | str = os.devnull) -> dict:
        """Run ``python ARGS``; returns the launcher's reply."""
        req = {
            "argv": [sys.executable, *args],
            "env": self.env,
            "stdout": str(stdout),
            "stderr": str(self.err_path),
            "timeout_s": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited unexpectedly")
        return json.loads(line)

    def stderr_tail(self) -> str:
        try:
            return self.err_path.read_text(errors="replace").strip()[-300:]
        except OSError:
            return ""

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    """Inputs, checks and the measured calls of one workload run."""

    def __init__(self, wfr, wl: Workload, seed: int, workdir: Path, launcher: Launcher) -> None:
        self.wfr = wfr
        self.wl = wl
        self.launcher = launcher
        self.gate = Gate()
        self.params = wfr.FilterParams(alpha=wl.alpha, shift_s=SHIFT_S)
        self.text = make_text(wl, seed, wl.text_bytes, "text")
        self.cli_text = self.text if wl.cli_bytes == 0 else make_text(wl, seed, wl.cli_bytes, "cli-text")
        self.cli_file = workdir / "cli-text.bin"
        self.cli_file.write_bytes(self.cli_text.data)
        self.cli_pattern_file = workdir / "cli-pattern.bin"
        self.cli_out = workdir / "cli.out"
        self.cli_args = [
            "-m", "wfr.cli", "search",
            "--pattern-file", str(self.cli_pattern_file),
            "--alpha", str(wl.alpha),
            "--shift", str(SHIFT_S),
            "--k", str(CLI_K),
            str(self.cli_file),
        ]
        self._stream = rounds(wl, seed, self.text, self.cli_text)
        self._digests = {"library": hashlib.sha256(), "cli": hashlib.sha256()}
        self._counts = {"library": 0, "cli": 0}

    def next_round(self):
        lib, clis = next(self._stream)
        for kind, patterns in (("library", [q.pattern for q in lib]), ("cli", clis)):
            for p in patterns:
                self._digests[kind].update(len(p).to_bytes(4, "little") + p)
                self._counts[kind] += 1
        return lib, clis

    def rss_self_check(self) -> float | None:
        reply = self.launcher.run(["-c", "pass"])
        mib = reply["maxrss_kib"] / 1024 if "maxrss_kib" in reply else None
        problems = [reply["error"]] if "error" in reply else []
        if mib is not None and mib > BARE_CHILD_MAX_MIB:
            problems.append(f"bare interpreter child peaked at {mib:.1f} MiB > {BARE_CHILD_MAX_MIB}")
        self.gate.record("rss self-check", problems)
        return mib

    def query(self, q: Query, label: str, expect: tuple | None = None):
        """One timed, checked ``search`` call as a library user makes it.
        Returns ``(ns, outcome)``, or None when the call raised."""
        oracle = find_all(q.pattern, self.text.data)
        start = time.perf_counter_ns()
        try:
            out = self.wfr.search(q.pattern, self.text.data, params=self.params, k=q.k)
        except Exception as exc:  # the program under test failed: count it and go on
            self.gate.record(label, [f"raised {exc!r}"])
            return None
        ns = time.perf_counter_ns() - start
        problems = outcome_problems(out, q.m, oracle)
        if expect is not None and counters(out) != expect:
            problems.append(f"counters {counters(out)} differ from {expect} of the same query")
        self.gate.record(label, problems)
        return ns, out

    def preprocess_mean_ns(self, lib: list[Query], label: str) -> float | None:
        """Mean time of ``preprocess`` over the patterns of one round."""
        times = []
        for q in lib:
            start = time.perf_counter_ns()
            try:
                self.wfr.preprocess(q.pattern, self.params)
            except Exception as exc:  # the program under test failed: count it and go on
                self.gate.record(label, [f"preprocess raised {exc!r}"])
                return None
            times.append(time.perf_counter_ns() - start)
        return statistics.fmean(times)

    def cli_search(self, pattern: bytes, label: str) -> tuple[dict, int]:
        """One checked ``wfr search`` subprocess. Returns the launcher's reply
        and the number of positions printed."""
        self.cli_pattern_file.write_bytes(pattern)
        oracle = find_all(pattern, self.cli_text.data)
        reply = self.launcher.run(self.cli_args, self.cli_out)
        if "error" in reply:
            self.gate.record(label, [reply["error"]])
            return reply, 0
        problems = []
        want = 0 if oracle else 1
        if reply["exit_code"] != want:
            problems.append(f"exit code {reply['exit_code']}, expected {want}: {self.launcher.stderr_tail()}")
        lines = self.cli_out.read_bytes().splitlines()
        printed = lines[:-1]
        summary = lines[-1] if lines else b""
        if not summary.startswith(f"occurrences={len(oracle)} ".encode()):
            problems.append(f"summary line {summary[:80]!r} does not report {len(oracle)} occurrences")
        try:
            positions = [int(x) for x in printed]
        except ValueError:
            positions = None
        if positions != oracle:
            problems.append(f"printed {len(printed)} positions that differ from the oracle's {len(oracle)}")
        self.gate.record(label, problems)
        return reply, len(printed)

    def meta(self) -> dict:
        wl = self.wl
        return {
            "workload": wl.name,
            "why": wl.why,
            "params": {
                "alpha": wl.alpha,
                "shift_s": SHIFT_S,
                "k": sorted({k for _, k, _ in wl.mix}),
                "m": sorted({m for m, _, _ in wl.mix}),
            },
            "mix": [list(q) for q in wl.mix],
            "cli": {"m": wl.cli_m, "k": CLI_K, "alpha": wl.alpha, "region": wl.cli_region, "runs_per_round": wl.cli_runs},
            "inputs": {
                "text": {"generator": self.text.generator, "bytes": len(self.text.data), "sha256": self.text.sha256},
                "cli_text": {
                    "generator": self.cli_text.generator,
                    "bytes": len(self.cli_text.data),
                    "sha256": self.cli_text.sha256,
                },
                "patterns": {
                    kind: {"count": self._counts[kind], "sha256": self._digests[kind].hexdigest()}
                    for kind in self._digests
                },
            },
        }


def counters_digest(outcomes) -> str:
    return hashlib.sha256(json.dumps([counters(o) for o in outcomes]).encode()).hexdigest()


def run_untraced(b: Bench, seconds: float) -> tuple[dict, dict, dict]:
    """End-to-end metrics: a closed loop of rounds, each one pass over fresh
    library queries, one set-up pass and the workload's CLI runs. Returns
    the metrics, run facts for ``meta`` and the raw samples."""
    lib, clis = b.next_round()
    # Warm-up: the first round's queries run once untimed; their counters
    # must repeat exactly when the round is timed.
    warm = [b.query(q, f"warm-up query {i}") for i, q in enumerate(lib)]
    b.cli_search(clis[0], "warm-up cli")
    expect = [counters(w[1]) if w else None for w in warm]
    query_ns, setup_ns, cli_s, cli_rss = [], [], [], []
    searched = 0
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        if r:
            lib, clis = b.next_round()
        for i, q in enumerate(lib):
            res = b.query(q, f"round {r} query {i}", expect[i] if r == 0 else None)
            if res:
                query_ns.append(res[0])
                searched += len(b.text.data)
        mean_ns = b.preprocess_mean_ns(lib, f"round {r} set-up")
        if mean_ns is not None:
            setup_ns.append(mean_ns)
        for j, pattern in enumerate(clis):
            reply, _ = b.cli_search(pattern, f"round {r} cli {j}")
            if "error" not in reply:
                cli_s.append((reply["end_ns"] - reply["start_ns"]) / 1e9)
                cli_rss.append(reply["maxrss_kib"] / 1024)
        r += 1
    metrics = {
        "query_ms_p50": (pct(query_ns, 0.5, 1e6), "ms", len(query_ns)),
        "query_ms_p95": (pct(query_ns, 0.95, 1e6), "ms", len(query_ns)),
        "throughput_mb_s": (ratio(searched * 1e3, sum(query_ns)), "MB/s", len(query_ns)),
        "setup_s": (pct(setup_ns, 0.5, 1e9), "s", len(setup_ns)),
        "cli_s_p50": (pct(cli_s, 0.5), "s", len(cli_s)),
        "cli_peak_rss_mib": (pct(cli_rss, 0.5), "MiB", len(cli_rss)),
    }
    extra = {"rounds": r, "counters_sha256_round0": counters_digest([w[1] for w in warm if w])}
    raw = {"query_ns": query_ns, "setup_ns": setup_ns, "cli_s": cli_s, "cli_peak_rss_mib": cli_rss}
    return metrics, extra, raw


def cli_round(b: Bench, tracer: Tracer, pattern: bytes, qid: str, label: str, printed: list[int]) -> None:
    """The traced CLI part for one pattern: a bare import, the CLI run, and
    the probe that times the CLI's read and search in process."""
    reply = b.launcher.run(["-c", "import wfr.cli"])
    b.gate.record(f"{label} import", [] if reply.get("exit_code") == 0 else [str(reply)])
    if "error" not in reply:
        tracer.add("cli.import", qid, reply["start_ns"], reply["end_ns"])
    reply, count = b.cli_search(pattern, label)
    if "error" not in reply:
        tracer.add("cli.run", qid, reply["start_ns"], reply["end_ns"])
        printed.append(count)
    probe_out = b.cli_out.with_name("probe.out")
    reply = b.launcher.run(
        [str(HERE / "cli_probe.py"), str(b.cli_file), str(b.cli_pattern_file),
         str(b.wl.alpha), str(SHIFT_S), str(CLI_K)],
        probe_out,
    )
    problems = [str(reply)] if reply.get("exit_code") != 0 else []
    if not problems:
        probe = json.loads(probe_out.read_text())
        top = tracer.add("cli.probe", qid, reply["start_ns"], reply["end_ns"])
        tracer.add("cli.read", qid, *probe["read"], parent=top)
        tracer.add("cli.search", qid, *probe["search"], parent=top)
        if probe["occurrences"] != count:
            problems.append(f"probe found {probe['occurrences']} occurrences, the CLI printed {count}")
    b.gate.record(f"{label} probe", problems)


def run_traced(b: Bench, seconds: float, tracer: Tracer) -> tuple[dict, dict, dict]:
    """Per-layer metrics: the same rounds, each query run untraced and then
    with spans around preprocess, search, the check() replay, Horspool and
    the bytes.find oracle; the CLI part adds import, run and probe children."""
    wfr, text, params = b.wfr, b.text.data, b.params
    n = len(text)
    lib, clis = b.next_round()
    alloc = []
    for q in lib:  # outside the loop: tracemalloc slows every allocation
        tracemalloc.start()
        wfr.preprocess(q.pattern, params)
        alloc.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    b.launcher.run(["-c", "import wfr.cli"])  # warm the bytecode cache
    b.cli_search(clis[0], "warm-up cli")

    untraced_ns, fills, inserts, printed, round0 = [], [], [], [], []
    tot = dict.fromkeys(("bytes", "ver", "att", "shift", "cmp", "insp", "fp"), 0)
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        if r:
            lib, clis = b.next_round()
        for i, q in enumerate(lib):
            qid = f"r{r}q{i}"
            res = b.query(q, f"round {r} query {i}")
            if res is None:
                continue
            untraced_ns.append(res[0])
            if r == 0:
                round0.append(res[1])
            try:
                with tracer.span("query", qid) as top:
                    with tracer.span("engine.preprocess", qid, top):
                        flt = wfr.preprocess(q.pattern, params)
                    with tracer.span("engine.search", qid, top):
                        out = wfr.search(q.pattern, text, k=q.k, factors=flt)
                with tracer.span("engine.check", qid):
                    replay_ok = all(wfr.check(q.pattern, text, p) for p in out.positions)
                with tracer.span("baselines.horspool_search", qid):
                    horspool = wfr.horspool_search(q.pattern, text)
                with tracer.span("ref.bytes_find", qid):
                    oracle = find_all(q.pattern, text)
            except Exception as exc:  # the program under test failed: count it and go on
                b.gate.record(f"round {r} traced query {i}", [f"raised {exc!r}"])
                continue
            problems = outcome_problems(out, q.m, oracle)
            if counters(out) != counters(res[1]):
                problems.append(f"traced counters {counters(out)} differ from untraced {counters(res[1])}")
            if not replay_ok:
                problems.append("check() rejected a reported position")
            if horspool.positions != oracle:
                problems.append("horspool positions differ from the oracle")
            b.gate.record(f"round {r} traced query {i}", problems)
            fills.append(flt.popcount() / params.table_bits)
            inserts.append(q.m * (q.m + 1) // 2)
            insp = inspected(out, q.m)
            for key, value in (
                ("bytes", n),
                ("ver", out.verification_count),
                ("att", out.attempt_count),
                ("shift", out.total_shift),
                ("cmp", out.check_comparisons),
                ("insp", insp),
                ("fp", out.false_positive_count),
            ):
                tot[key] += value

        for j, pattern in enumerate(clis):
            cli_round(b, tracer, pattern, f"r{r}cli{j}", f"round {r} cli {j}", printed)
        r += 1

    def med_ns(name: str, scale: float) -> float | None:
        return pct(tracer.durations_ns(name), 0.5, scale)

    q_n = len(fills)
    c_n = len(printed)
    query_med, untraced_med = med_ns("query", 1e6), pct(untraced_ns, 0.5, 1e6)
    parts = (med_ns("cli.run", 1e9), med_ns("cli.import", 1e9), med_ns("cli.search", 1e9))
    self_ns = tracer.self_times_ns()
    metrics = {
        "preprocess.ms_p50": (med_ns("engine.preprocess", 1e6), "ms", q_n),
        "preprocess.factor_inserts": (ratio(sum(inserts), q_n), "count", q_n),
        "filter.fill_ratio": (ratio(sum(fills), q_n), "ratio", q_n),
        "filter.alloc_mib": (max(alloc) / MIB, "MiB", len(alloc)),
        "scan.ms_p50": (med_ns("engine.search", 1e6), "ms", q_n),
        "scan.mb_s": (ratio(tot["bytes"] * 1e3, sum(tracer.durations_ns("engine.search"))), "MB/s", q_n),
        "scan.attempts": (ratio(tot["att"], q_n), "count", q_n),
        "scan.mean_shift": (ratio(tot["shift"], tot["att"]), "bytes", q_n),
        "scan.inspected_per_byte": (ratio(tot["insp"], tot["bytes"]), "ratio", q_n),
        "verify.count": (ratio(tot["ver"], q_n), "count", q_n),
        "verify.false_positive_share": (ratio(tot["fp"], tot["ver"]), "ratio", q_n),
        "verify.comparisons": (ratio(tot["cmp"], q_n), "count", q_n),
        "verify.share": (ratio(tot["cmp"], tot["insp"] + tot["cmp"]), "ratio", q_n),
        "verify.replay_ms": (ratio(sum(tracer.durations_ns("engine.check")), q_n * 1e6), "ms", q_n),
        "cli.import_s": (parts[1], "s", c_n),
        "cli.read_ms": (med_ns("cli.read", 1e6), "ms", c_n),
        "cli.positions_printed": (ratio(sum(printed), c_n), "count", c_n),
        "cli.residual_s": (None if None in parts else parts[0] - parts[1] - parts[2], "s", c_n),
        "baselines.horspool_mb_s": (
            ratio(tot["bytes"] * 1e3, sum(tracer.durations_ns("baselines.horspool_search"))), "MB/s", q_n),
        "ref.bytes_find_mb_s": (ratio(tot["bytes"] * 1e3, sum(tracer.durations_ns("ref.bytes_find"))), "MB/s", q_n),
        "trace.overhead_ms": (
            None if None in (query_med, untraced_med) else query_med - untraced_med, "ms", q_n),
    }
    for name in SPAN_NAMES:
        values = self_ns.get(name, [])
        metrics[f"span.{name}.self_ms"] = (pct(values, 0.5, 1e6), "ms", len(values))
    extra = {"rounds": r, "counters_sha256_round0": counters_digest(round0)}
    return metrics, extra, {"untraced_query_ns": untraced_ns}


def run_workload(wfr, name: str, seed: int, seconds: float, trace: int) -> tuple[Gate, dict]:
    wl = WORKLOADS[name]
    inputs = WORK / f"{name}-seed{seed}-trace{trace}-inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(inputs / "child.err")
    try:
        b = Bench(wfr, wl, seed, inputs, launcher)
        bare_mib = b.rss_self_check()
        tracer = Tracer()
        started = time.perf_counter()
        if trace:
            metrics, extra, raw = run_traced(b, seconds, tracer)
        else:
            metrics, extra, raw = run_untraced(b, seconds)
        elapsed = time.perf_counter() - started
    finally:
        launcher.close()
        shutil.rmtree(inputs, ignore_errors=True)

    meta = {
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": elapsed,
        **extra,
        "python": sys.version.split()[0],
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "load": "closed loop: one process, one CLI subprocess at a time",
        **b.meta(),
        "bare_child_rss_mib": bare_mib,
        "samples": {k: v[2] for k, v in metrics.items()},
        "error_rate": ratio(b.gate.failed, b.gate.attempted),
        "problems": b.gate.problems[:20],
    }
    report = WORK / f"{name}-seed{seed}-trace{trace}"
    report.with_suffix(".json").write_text(json.dumps({"meta": meta, "metrics": metrics, "raw": raw}))
    if trace:
        tracer.dump(report.with_name(report.name + "-spans.json"))

    print(f"# {name} (seed {seed}, trace {trace}): {extra['rounds']} rounds in {elapsed:.1f} s")
    print(f"#   why: {wl.why}")
    rows = dict(metrics)
    if not trace:
        rows["error_rate"] = (meta["error_rate"], "ratio", b.gate.attempted)
    for key, (value, unit, count) in rows.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {key:32s} {shown:>12s} {unit:6s} n={count}")
    for problem in b.gate.problems[:20]:
        print(f"#   FAILED {problem}")
    print(json.dumps({"meta": meta}))
    return b.gate, {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wfr = load_wfr()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        gate, wl_metrics = run_workload(wfr, name, args.seed, args.seconds, args.trace)
        attempted += gate.attempted
        failed += gate.failed
        if len(names) == 1:
            metrics = wl_metrics
        else:
            metrics.update({f"{name}.{k}": v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
