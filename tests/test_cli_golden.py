"""Frozen command-line output: stdout, stderr and exit code of every case.

Each case in ``cli_golden.json`` is an argv list run through ``qser.cli.main``
in-process, with its recorded exit code and its full stdout and stderr text,
stored one line per list entry so a mismatch shows as a readable diff.  The
cases cover every ``expand`` name at orders 1 and 12, every ``verify`` target
and ``all`` at order 30, every ``scan`` target at ``--n-max`` 0, 1, 30 and
150, all in the three formats, the usage errors, and ``verify B20`` and
``scan thm2`` with a substituted VIOLATED report.
Every ``verify`` target and ``all`` also runs at orders 1 and 301.

argparse writes the help and parse-error text itself and rewords it between
Python versions, so those cases compare their text only on the Python version
that recorded them; their exit codes are always compared.

To re-record after a deliberate output change::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from qser import checks, cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

FORMATS = ("table", "csv", "json")
EXPAND_NAMES = (
    "G", "H", "G_sum", "H_sum", "R", "Rinv", "R5", "R5inv", "Rq5", "Cratio",
    "Dratio", "Fratio15", "Fratio51", "A", "B", "C", "D", "c", "d",
)
VERIFY_TARGETS = (
    "B20", "R5", "A_full", "B_full", "D_full",
    "dissect-A0", "dissect-B0", "dissect-D1", "dissect-C0", "all",
)
SCAN_TARGETS = (
    "richmond-c", "richmond-d", "thm2", "thm3", "thm4", "thm5",
    "conjecture13", "asymptotic-c",
)
USAGE_ERRORS = (
    ("expand", "X"),
    ("expand", "d", "--order", "0"),
    ("verify", "B21"),
    ("verify", "B20", "--order", "0"),
    ("scan", "thm6"),
    ("scan", "thm2", "--n-max", "-1"),
)
ARGPARSE_CASES = (
    (),
    ("expand",),
    ("expand", "d", "--format", "xml"),
    ("verify", "B20", "--order", "many"),
    ("scan", "thm2", "--n-max", "1.5"),
    ("--help",),
    ("expand", "--help"),
    ("verify", "--help"),
    ("scan", "--help"),
)

# Reports no real identity or theorem produces: a divergence with values
# past 64 bits, and two violations, one of them a zero.
VIOLATED = {
    "verify_identity_B20": checks.Report(
        "B20", 30, checks.Status.VIOLATED,
        first_divergence=checks.Divergence(17, 2**70 + 3, -(2**65)),
    ),
    "scan_signs": checks.Report(
        "thm2", 30, checks.Status.VIOLATED,
        violations=(
            checks.Violation(4, 12345678901234567890123, checks.Sign.NEG),
            checks.Violation(21, 0, checks.Sign.POS),
        ),
    ),
}


def cases() -> list[dict]:
    """Every recorded case, without its outcome."""
    out = []

    def add(argv, patch=None, argparse=False):
        out.append({"argv": list(argv), "patch": patch, "argparse": argparse})

    for fmt in FORMATS:
        for name in EXPAND_NAMES:
            for order in ("1", "12"):
                add(("expand", name, "--order", order, "--format", fmt))
        for target in VERIFY_TARGETS:
            add(("verify", target, "--order", "30", "--format", fmt))
        for target in SCAN_TARGETS:
            for n_max in ("0", "1", "30", "150"):
                add(("scan", target, "--n-max", n_max, "--format", fmt))
        add(("verify", "B20", "--order", "30", "--format", fmt), patch="verify_identity_B20")
        add(("scan", "thm2", "--n-max", "30", "--format", fmt), patch="scan_signs")
    for fmt in FORMATS:
        for target in VERIFY_TARGETS:
            for order in ("1", "301"):
                add(("verify", target, "--order", order, "--format", fmt))
    for argv in USAGE_ERRORS:
        add(argv)
    for argv in ARGPARSE_CASES:
        add(argv, argparse=True)
    return out


def run_case(case: dict) -> dict:
    """Run one case through cli.main and return its outcome."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        # argparse wraps its help and usage text to the terminal width
        stack.enter_context(mock.patch.dict(os.environ, {"COLUMNS": "80"}))
        if case["patch"] is not None:
            report = VIOLATED[case["patch"]]
            stack.enter_context(
                mock.patch.object(checks, case["patch"], lambda *a, **k: report)
            )
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(case["argv"])
    return {
        "code": code,
        "stdout": out.getvalue().split("\n"),
        "stderr": err.getvalue().split("\n"),
    }


def _case_id(case: dict) -> str:
    return "_".join(case["argv"]) + (f"_[{case['patch']}]" if case["patch"] else "")


# absent only while re-recording from scratch
_DOC = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {"python": None, "cases": []}


def test_golden_covers_every_case():
    recorded = [{k: c[k] for k in ("argv", "patch", "argparse")} for c in _DOC["cases"]]
    assert recorded == cases()


@pytest.mark.parametrize("case", _DOC["cases"], ids=_case_id)
def test_cli_output_matches_golden(case):
    got = run_case(case)
    assert got["code"] == case["code"]
    if case["argparse"] and _DOC["python"] != "%d.%d" % sys.version_info[:2]:
        return
    assert "\n".join(got["stdout"]) == "\n".join(case["stdout"])
    assert "\n".join(got["stderr"]) == "\n".join(case["stderr"])


if __name__ == "__main__":
    recorded = [{**case, **run_case(case)} for case in cases()]
    doc = {"python": "%d.%d" % sys.version_info[:2], "cases": recorded}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN}")
