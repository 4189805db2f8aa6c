"""Acceptance gate: one test per binding criterion.

Each test prints a PASS/FAIL line through the capture barrier before
asserting, so a plain `pytest -v` run shows one visible line per criterion
with its timing against the stated budget. Timed criteria clear the series
cache first so every measurement is a cold build.
"""

import os
import subprocess
import sys
import time

import oracle
import qser
from qser import catalog, checks
from qser.products import euler_f, pochhammer_inf


def report_line(capsys, ok, number, label, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label} ({detail})")
    assert ok, f"criterion {number}: {label} ({detail})"


def test_criterion_1_known_zeros(capsys):
    catalog.clear_cache()
    t0 = time.monotonic()
    ok = all(catalog.coefficient("c", n) == 0 for n in (2, 4, 9)) and all(
        catalog.coefficient("d", n) == 0 for n in (3, 8, 13, 23)
    )
    elapsed = time.monotonic() - t0
    report_line(capsys, ok and elapsed < 1.0, 1, "known zeros of c and d",
                f"{elapsed:.2f}s, budget 1s")


def test_criterion_2_sign_patterns_c_d(capsys):
    catalog.clear_cache()
    t0 = time.monotonic()
    ok = (
        checks.scan_signs("c", checks.RICHMOND_C, 5000, subject="richmond-c").ok()
        and checks.scan_signs("d", checks.RICHMOND_D, 5000, subject="richmond-d").ok()
    )
    elapsed = time.monotonic() - t0
    report_line(capsys, ok and elapsed < 30.0, 2, "c/d sign patterns to n=5000",
                f"{elapsed:.2f}s, budget 30s")


def test_criterion_3_sign_patterns_A_B_C_D(capsys):
    catalog.clear_cache()
    t0 = time.monotonic()
    scans = [
        checks.scan_signs("A", checks.THM2_A, 2500, subject="thm2"),
        checks.scan_signs("B", checks.THM3_B, 2500, subject="thm3"),
        checks.scan_signs("C", checks.THM4_C, 2500, subject="thm4"),
        checks.scan_signs("D", checks.THM5_D, 2500, subject="thm5"),
    ]
    ok = all(r.ok() for r in scans)
    elapsed = time.monotonic() - t0
    report_line(capsys, ok and elapsed < 60.0, 3, "A/B/C/D sign patterns to n=2500",
                f"{elapsed:.2f}s, budget 60s")


def test_criterion_4_identity_suite(capsys):
    catalog.clear_cache()
    t0 = time.monotonic()
    reports = [
        checks.verify_identity_B20(300),
        checks.verify_identity_R5(300),
        checks.verify_genfun("A_full", 300),
        checks.verify_genfun("B_full", 300),
        checks.verify_genfun("D_full", 300),
        checks.verify_dissection("A0", 300),
        checks.verify_dissection("B0", 300),
        checks.verify_dissection("D1", 300),
        checks.verify_dissection("C0", 300),
    ]
    ok = all(r.ok() for r in reports)
    elapsed = time.monotonic() - t0
    report_line(capsys, ok and elapsed < 60.0, 4, "nine identities exact at order 300",
                f"{elapsed:.2f}s, budget 60s")


def test_criterion_5_counterexample_values(capsys):
    values_ok = (
        catalog.coefficient("A", 0) == 1
        and catalog.coefficient("B", 0) == 1
        and catalog.coefficient("A", 10) == -175
        and catalog.coefficient("A", 15) < 0
        and catalog.coefficient("B", 5) == -26
        and catalog.coefficient("D", 1) == 5
    )
    report_line(capsys, values_ok, 5, "counterexample values A(0),B(0),A(10),A(15),B(5),D(1)",
                "exact")


def test_criterion_6_conjecture13_reproduction(capsys):
    catalog.clear_cache()
    t0 = time.monotonic()
    parts = checks.check_conjecture13(1000)
    elapsed = time.monotonic() - t0
    falsified = {k: list(r.falsified_at or ()) for k, r in parts.items()}
    ok = falsified == {"A": [0], "B": [0], "D": []}
    report_line(capsys, ok and elapsed < 60.0, 6,
                "falsified exactly at A(0), B(0); D clean to n=1000",
                f"falsified_at={falsified}, {elapsed:.2f}s, budget 60s")


def test_criterion_7_oracle_equivalences(capsys):
    sum_ok = all(
        oracle.rr_sum(linear, 200)
        == list(catalog.build(name + "_sum", 200))
        == list(catalog.build(name, 200))
        for linear, name in ((0, "G"), (1, "H"))
    )
    pent_ok = euler_f(1, 500) == pochhammer_inf(1, 1, 500)
    report_line(capsys, sum_ok and pent_ok, 7,
                "sum forms equal product forms at 200; pentagonal path equals naive at 500",
                "exact")


def test_criterion_8_asymptotic_cross_check(capsys):
    catalog.clear_cache()
    report = checks.scan_asymptotic(2000)
    for v in report.violations:
        with capsys.disabled():
            print(f"  asymptotic mismatch at n={v.index}: c(n)={v.value}, "
                  f"predicted {v.expected.value}")
    checked = len(checks.asymptotic_range(2000))
    agreements = checked - len(report.violations)
    ok = report.ok() and checked == 1901
    report_line(capsys, ok, 8, "asymptotic sign agreement on [100,2000]",
                f"checked={checked} agreements={agreements} "
                f"rate={agreements / checked:.4f}, threshold 0.99")


def test_criterion_9_deterministic_output(capsys):
    argv = [sys.executable, "-m", "qser", "verify", "all", "--order", "300", "--format", "json"]
    # the child imports the same qser as this process, installed or not
    src = os.path.dirname(os.path.dirname(qser.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.startswith(b"[")
    )
    report_line(capsys, ok, 9, "verify all --order 300 --format json is byte-identical",
                f"{len(first.stdout)} bytes per run")
