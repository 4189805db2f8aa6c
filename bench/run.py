#!/usr/bin/env python3
"""Benchmark for qser: cold-process workloads with checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--out FILE]

Run from anywhere; the program under test is the ``src`` tree next to this
directory, started as ``python -m qser`` (or through ``probe.py``) in fresh
processes, one at a time.  Every output is checked against digests frozen in
``expected.json``; an operation whose exit code or output is wrong counts as
failed, and its time is left out of the metrics.

``--trace 0`` repeats the workload for about S seconds and reports the
end-to-end metrics: wall_s (median pass), setup_s (median interpreter launch
plus ``import qser``) and peak_rss_mb.  Its details line adds the median
latency per CLI call or query, and the highest percentile that has at least
ten samples beyond it, with the sample count.
``--trace 1`` runs the workload once with spans recorded, between two plain
passes, then the layer sweep, and reports the per-layer metrics.  The last
stdout line is the result as JSON; the line before it records the machine
and the details behind the metrics.

``--all`` runs both modes on every workload, the sweep once, prints every
metric with its unit and writes them to FILE (default BENCH_local.json in
the current directory).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE = str(HERE / "probe.py")
SETUP_LAUNCHES = 16
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@functools.cache
def expected() -> dict:
    """The exit codes and output digests frozen by freeze.py."""
    return json.loads((HERE / "expected.json").read_text())


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Proc:
    code: int
    stdout: bytes
    wall: float
    rss_mb: float


@dataclass
class Pass:
    """One run through a workload's operations."""

    wall: float
    ok: list[bool]
    latency: list[float]
    rss_mb: float
    spans: list = field(default_factory=list)  # one span list per process


def spawn(args, until_line=False) -> Proc:
    """Run ``python ARGS`` against the checkout's src and wait for it.

    wall runs from spawn to exit, or to the first stdout line when
    until_line is set; rss_mb is the child's maximum resident set size.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    with proc.stdout:
        if until_line:
            proc.stdout.readline()
        mark = time.perf_counter()
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, out, (mark if until_line else end) - start, usage.ru_maxrss / 1024)


def load(proc: Proc):
    """The JSON document a probe printed, or None if it printed none."""
    try:
        return json.loads(proc.stdout)
    except ValueError:
        return None


def output_ok(argv, code: int, stdout: bytes) -> bool:
    """True when a CLI call's exit code and stdout digest are the frozen ones."""
    want = expected()["cli"][workloads.cli_key(argv)]
    return code == want["code"] and workloads.sha256(stdout) == want["stdout_sha256"]


def cli_pass(workload: str, traced: bool) -> Pass:
    run = Pass(0.0, [], [], 0.0)
    start = time.perf_counter()
    for argv in workloads.CLI_WORKLOADS[workload]:
        if traced:
            proc = spawn([PROBE, "cli", *argv])
            doc = load(proc) or {"stdout": "", "spans": []}
            stdout = doc["stdout"].encode()
            run.spans.append(doc["spans"])
        else:
            proc = spawn(["-m", "qser", *argv])
            stdout = proc.stdout
        run.ok.append(output_ok(argv, proc.code, stdout))
        run.latency.append(proc.wall)
        run.rss_mb = max(run.rss_mb, proc.rss_mb)
    run.wall = time.perf_counter() - start
    return run


def walk_pass(seed: int, traced: bool) -> Pass:
    """coeff-walk in one process; each answer must match the name's
    coefficient table, and each table its frozen digest."""
    stream = workloads.walk_stream(seed)
    proc = spawn([PROBE, "walk", str(seed), *(["trace"] if traced else [])], until_line=True)
    doc = load(proc)
    if proc.code != 0 or doc is None or len(doc["answers"]) != len(stream):
        return Pass(proc.wall, [False] * len(stream), [proc.wall] * len(stream), proc.rss_mb)
    tables = doc["tables"]
    good = {name: workloads.digest(tables[name]) == expected()["tables"][name] for name in tables}
    ok = [good[name] and answer == tables[name][n] for (name, n), answer in zip(stream, doc["answers"])]
    return Pass(proc.wall, ok, doc["latencies"], proc.rss_mb, [doc["spans"]])


def run_pass(workload: str, seed: int, traced: bool = False) -> Pass:
    if workload == "coeff-walk":
        return walk_pass(seed, traced)
    return cli_pass(workload, traced)


def setup_launches(count: int) -> list[float]:
    """Seconds to launch a fresh interpreter and import qser, count times."""
    times = []
    for _ in range(count):
        proc = spawn(["-c", "import qser"])
        if proc.code != 0:
            raise BenchError(f"`import qser` failed with exit code {proc.code}")
        times.append(proc.wall)
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile at or above the median
    that has at least ten samples beyond it; the maximum when no
    percentile does."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 20:
        return 100.0, ordered[-1]
    return 100.0 * (count - 10) / count, ordered[count - 11]


def latency_per_op(passes: list[Pass]) -> list[float]:
    """Each operation's median latency over the passes where it succeeded."""
    per_op = zip(*([(lat if ok else None) for ok, lat in zip(p.ok, p.latency)] for p in passes))
    out = []
    for samples in per_op:
        good = [s for s in samples if s is not None]
        if good:
            out.append(statistics.median(good))
    return out


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[Pass]]:
    # half the launches before the passes and half after, so that setup_s
    # samples the host over the same stretch as wall_s; the first launch may
    # still be writing bytecode caches and is dropped
    setup = setup_launches(SETUP_LAUNCHES // 2 + 1)[1:]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + statistics.median(p.wall for p in passes) <= seconds:
        passes.append(run_pass(workload, seed))
    setup += setup_launches(SETUP_LAUNCHES // 2)
    timed = [p for p in passes if all(p.ok)] or passes
    latencies = latency_per_op(passes) or [p.wall for p in passes]
    percentile, tail_s = tail(latencies)
    metrics = {
        "wall_s": statistics.median(p.wall for p in timed),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p.rss_mb for p in timed),
    }
    # Recorded, not gated: on a 2-vCPU host whose speed drifts by tenths over
    # minutes, the per-call and per-query latencies spread too widely from run
    # to run to hold any bound (see CHANGES.md).
    details = {
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "latency_unit": "query" if workload == "coeff-walk" else "CLI call",
        "latency_samples": len(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "latency_tail_percentile": percentile,
    }
    return metrics, details, passes


def per_layer(workload: str, seed: int) -> tuple[dict, list[Pass]]:
    """Layer metrics from one traced pass between two plain ones; the
    overhead compares it with their mean, which cancels a steady drift in
    the host's speed."""
    before = run_pass(workload, seed)
    traced = run_pass(workload, seed, traced=True)
    after = run_pass(workload, seed)
    metrics = spans.layer_metrics(traced.spans)
    metrics["trace.overhead"] = 2 * traced.wall / (before.wall + after.wall)
    return metrics, [before, traced, after]


def sweep() -> tuple[dict, list[bool]]:
    proc = spawn([PROBE, "sweep"])
    doc = load(proc)
    if proc.code != 0 or doc is None:
        raise BenchError(f"the layer sweep failed with exit code {proc.code}")
    want = expected()["sweep"]
    ok = [doc["digests"].get(metric) == want[metric] for metric in want]
    return doc["seconds"], ok


def layer_unit(metric: str) -> str:
    if metric.startswith("sweep."):
        return "s"
    if metric == "trace.overhead":
        return "ratio"
    return spans.METRIC_UNITS[metric]


def machine_note() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "flint": importlib.util.find_spec("flint") is not None,
        "commit": commit,
    }


def with_units(metrics: dict, unit) -> dict:
    return {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}


def tally(passes: list[Pass], extra_ok=()) -> tuple[int, int]:
    ok = [flag for p in passes for flag in p.ok] + list(extra_ok)
    return len(ok), ok.count(False)


def run_one(args) -> None:
    note = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine_note()}
    if args.trace:
        metrics, passes = per_layer(args.workload, args.seed)
        sweep_s, sweep_ok = sweep()
        metrics.update(sweep_s)
        attempted, failed = tally(passes, sweep_ok)
        result = with_units(metrics, layer_unit)
    else:
        metrics, note["details"], passes = end_to_end(args.workload, args.seed, args.seconds)
        attempted, failed = tally(passes)
        result = with_units(metrics, END_TO_END_UNITS.get)
    print(json.dumps(note))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))


def run_all(args) -> None:
    report = {"machine": machine_note(), "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        e2e, details, plain = end_to_end(workload, args.seed, args.seconds)
        layers, traced = per_layer(workload, args.seed)
        attempted, failed = tally(plain + traced)
        report["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "details": details,
            "end_to_end": with_units(e2e, END_TO_END_UNITS.get),
            "per_layer": with_units(layers, layer_unit),
        }
    sweep_s, sweep_ok = sweep()
    report["sweep"] = {"failed": sweep_ok.count(False), "metrics": with_units(sweep_s, layer_unit)}
    for workload, res in report["workloads"].items():
        print(f"{workload}: attempted={res['attempted']} failed={res['failed']}")
        for metric, m in {**res["end_to_end"], **res["per_layer"]}.items():
            print(f"  {metric:<36} {m['value']:.6g} {m['unit']}")
        d = res["details"]
        samples = f"per {d['latency_unit']}, {d['latency_samples']} samples"
        print(f"  {'latency_p50_s':<36} {d['latency_p50_s']:.6g} s ({samples})")
        print(f"  {'latency_tail_s':<36} {d['latency_tail_s']:.6g} s (p{d['latency_tail_percentile']:.4g}, {samples})")
    print(f"sweep: failed={report['sweep']['failed']}")
    for metric, m in report["sweep"]["metrics"].items():
        print(f"  {metric:<36} {m['value']:.6g} {m['unit']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=workloads.WORKLOADS)
    mode.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="BENCH_local.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qser" / "__init__.py").is_file():
        print(f"bench: no qser source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_all(args) if args.all else run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
