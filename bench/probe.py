"""Child process of the benchmark; prints what it measured as JSON on stdout.

    probe.py cli ARG...        one qser CLI call with spans recorded
    probe.py walk SEED [trace] the coeff-walk query stream
    probe.py sweep             the per-layer sweep at fixed sizes

Only qser's public surface is called.  The benchmark runs this file with
``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import sys
import time

import qser
import spans
import workloads


def traced_cli(argv) -> int:
    from qser import cli

    rec = spans.install(qser)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    json.dump({"stdout": out.getvalue(), "spans": rec.uninstall()}, sys.stdout)
    return code


def walk(seed: int, trace: bool) -> int:
    stream = workloads.walk_stream(seed)
    rec = spans.install(qser) if trace else None
    coefficient = qser.coefficient
    clock = time.perf_counter
    latencies, answers = [], []
    for name, n in stream:
        start = clock()
        answers.append(coefficient(name, n))
        latencies.append(clock() - start)
    # the benchmark stops the clock at this line; what follows is checking
    print("stream done", flush=True)
    json.dump(
        {
            "latencies": latencies,
            "answers": answers,
            "spans": rec.uninstall() if rec else [],
            "tables": {name: list(qser.build(name, workloads.WALK_END)) for name in workloads.WALK_NAMES},
        },
        sys.stdout,
    )
    return 0


def per_call(fn, budget=0.3):
    """Median seconds per call of fn(), and its last result.

    Calls are batched until a batch takes 10 ms; batches repeat up to three
    times while the total stays within budget seconds.
    """
    clock = time.perf_counter
    k = 1
    while True:
        start = clock()
        for _ in range(k):
            out = fn()
        took = clock() - start
        if took >= 0.01:
            break
        k *= 2
    times = [took / k]
    while len(times) < 3 and (len(times) + 1) * took <= budget:
        start = clock()
        for _ in range(k):
            out = fn()
        times.append((clock() - start) / k)
    return statistics.median(times), out


def sweep() -> int:
    seconds, digests = {}, {}

    def measure(metric, fn):
        seconds[metric], out = per_call(fn)
        digests[metric] = workloads.digest(out)

    r = qser.build("R", max(workloads.SWEEP_MUL_SIZES + workloads.SWEEP_INVERSE_SIZES))
    for n in workloads.SWEEP_INVERSE_SIZES:
        operand = r.truncate(n)
        measure(f"sweep.series.inverse.n{n}_s", operand.inverse)
    rinv = r.inverse()
    for n in workloads.SWEEP_MUL_SIZES:
        a, b = r.truncate(n), rinv.truncate(n)
        measure(f"sweep.series.mul.n{n}_s", lambda: a * b)
    n = workloads.SWEEP_PRODUCT_N
    measure(f"sweep.products.pochhammer_inf.n{n}_s", lambda: qser.pochhammer_inf(1, 5, n))
    measure(f"sweep.products.euler_f.n{n}_s", lambda: qser.euler_f(1, n))
    g_spec = qser.ProductSpec(((1, 5, -1), (4, 5, -1)))
    measure(f"sweep.products.expand_product.n{n}_s", lambda: qser.expand_product(g_spec, n))
    n = workloads.SWEEP_BUILD_N
    for name in workloads.CANONICAL_NAMES:
        def cold_build():
            qser.clear_cache()
            return qser.build(name, n)
        measure(f"sweep.catalog.build.{name}.n{n}_s", cold_build)
    json.dump({"seconds": seconds, "digests": digests}, sys.stdout)
    return 0


def main(argv) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(args)
    if mode == "walk":
        return walk(int(args[0]), args[1:] == ["trace"])
    if mode == "sweep":
        return sweep()
    raise SystemExit(f"probe.py: unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
