"""Command-line behavior: formats, exit codes, stream separation, determinism."""

import json
import os
import subprocess
import sys

import pytest

import qser
from qser import catalog, checks
from qser.cli import main

from test_checks import _c_with_bad_signs


@pytest.fixture(autouse=True)
def fresh_cache():
    catalog.clear_cache()
    yield


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- expand ---------------------------------------------------------------------


def test_expand_csv(capsys):
    code, out, err = run(capsys, "expand", "d", "--order", "4", "--format", "csv")
    assert code == 0
    assert out == "n,coefficient\n0,1\n1,-1\n2,1\n3,0\n"
    assert err == ""


def test_expand_json_single_coefficient(capsys):
    code, out, _ = run(capsys, "expand", "C", "--order", "1", "--format", "json")
    assert code == 0
    assert out == '{"name":"C","coeffs":["1"]}\n'


def test_expand_table_single_row(capsys):
    code, out, _ = run(capsys, "expand", "A", "--order", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].split() == ["n", "coefficient"]
    assert lines[1].split() == ["0", "1"]


def test_expand_default_order_is_ten(capsys):
    code, out, _ = run(capsys, "expand", "d", "--format", "csv")
    assert code == 0
    assert len(out.splitlines()) == 11  # header + 10 rows


def test_expand_json_values_are_strings(capsys):
    _, out, _ = run(capsys, "expand", "A", "--order", "25", "--format", "json")
    doc = json.loads(out)
    assert doc["name"] == "A"
    assert all(isinstance(v, str) for v in doc["coeffs"])
    assert doc["coeffs"][10] == "-175"


def test_expand_unknown_name(capsys):
    code, out, err = run(capsys, "expand", "X")
    assert code == 2
    assert out == ""
    assert "unknown series name" in err


def test_expand_invalid_order(capsys):
    code, out, err = run(capsys, "expand", "d", "--order", "0")
    assert code == 2
    assert out == ""
    assert "--order" in err


# -- verify ---------------------------------------------------------------------


def test_verify_single_target(capsys):
    code, out, err = run(capsys, "verify", "B20", "--order", "60")
    assert code == 0
    assert "B20" in out and "verified" in out
    assert err == ""


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "R5", "--order", "40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "subject": "R5",
        "order_checked": 40,
        "status": "verified",
        "first_divergence": None,
        "violations": [],
    }


def test_verify_all_json_lists_nine_reports(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "40", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["subject"] for d in docs] == [
        "B20", "R5", "A_full", "B_full", "D_full",
        "dissect-A0", "dissect-B0", "dissect-D1", "dissect-C0",
    ]
    assert all(d["status"] == "verified" for d in docs)


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "all", "--order", "30", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "subject,order_checked,status,divergence_index,lhs,rhs"
    assert len(lines) == 10
    assert lines[1] == "B20,30,verified,,,"


def test_verify_unknown_target(capsys):
    code, out, err = run(capsys, "verify", "B21")
    assert code == 2
    assert out == ""
    assert "unknown verify target" in err


def test_verify_invalid_order(capsys):
    code, _, err = run(capsys, "verify", "B20", "--order", "0")
    assert code == 2
    assert "--order" in err


# -- scan -----------------------------------------------------------------------


def test_scan_richmond_at_zero(capsys):
    code, out, _ = run(capsys, "scan", "richmond-c", "--n-max", "0")
    assert code == 0
    assert "richmond-c" in out and "verified" in out


def test_scan_thm_targets(capsys):
    for target in ("thm2", "thm3", "thm4", "thm5"):
        code, out, _ = run(capsys, "scan", target, "--n-max", "60")
        assert code == 0, target
        assert "verified" in out


def test_scan_json_schema(capsys):
    code, out, _ = run(capsys, "scan", "richmond-d", "--n-max", "40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "subject": "richmond-d",
        "order_checked": 40,
        "status": "verified",
        "first_divergence": None,
        "violations": [],
    }


def test_scan_conjecture13_json(capsys):
    code, out, _ = run(capsys, "scan", "conjecture13", "--n-max", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["subject"] == "conjecture13"
    assert doc["status"] == "falsified"
    assert doc["falsified_at"] == {"A": [0], "B": [0], "D": []}
    assert doc["violations"] == [
        {"index": 0, "value": "1", "expected": "neg", "series": "A"},
        {"index": 0, "value": "1", "expected": "neg", "series": "B"},
    ]


def test_scan_conjecture13_csv(capsys):
    code, out, _ = run(capsys, "scan", "conjecture13", "--n-max", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "subject,order_checked,status,index,value,expected"
    assert lines[1] == "conjecture13-A,50,falsified,0,1,neg"
    assert lines[2] == "conjecture13-B,50,falsified,0,1,neg"
    assert lines[3] == "conjecture13-D,51,verified,,,"


def test_scan_conjecture13_table_summary(capsys):
    code, out, _ = run(capsys, "scan", "conjecture13", "--n-max", "5")
    assert code == 0
    assert "expectation met" in out
    assert "A=[0] B=[0] D=[]" in out


# the D claim made to fail at every period, so the outcome differs from the
# paper's; stdout recorded at the code before conjecture13 returned a dict
_UNEXPECTED_OUT = {
    "table": (
        "conjecture13-A  falsified order=10  falsified_at=[0]\n"
        "    n=0 value=1 expected=neg\n"
        "conjecture13-B  falsified order=10  falsified_at=[0]\n"
        "    n=0 value=1 expected=neg\n"
        "conjecture13-D  falsified order=11  falsified_at=[0, 1, 2]\n"
        "    n=1 value=5 expected=neg\n"
        "    n=6 value=10 expected=neg\n"
        "    n=11 value=85 expected=neg\n"
        "conjecture13    UNEXPECTED OUTCOME: A=[0] B=[0] D=[0, 1, 2]\n"
    ),
    "csv": (
        "subject,order_checked,status,index,value,expected\n"
        "conjecture13-A,10,falsified,0,1,neg\n"
        "conjecture13-B,10,falsified,0,1,neg\n"
        "conjecture13-D,11,falsified,1,5,neg\n"
        "conjecture13-D,11,falsified,6,10,neg\n"
        "conjecture13-D,11,falsified,11,85,neg\n"
    ),
    "json": (
        '{"subject":"conjecture13","order_checked":2,"status":"falsified",'
        '"first_divergence":null,"violations":['
        '{"index":0,"value":"1","expected":"neg","series":"A"},'
        '{"index":0,"value":"1","expected":"neg","series":"B"},'
        '{"index":1,"value":"5","expected":"neg","series":"D"},'
        '{"index":6,"value":"10","expected":"neg","series":"D"},'
        '{"index":11,"value":"85","expected":"neg","series":"D"}],'
        '"falsified_at":{"A":[0],"B":[0],"D":[0,1,2]}}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(_UNEXPECTED_OUT))
def test_scan_conjecture13_unexpected_outcome(capsys, monkeypatch, fmt):
    wrong_d = checks.SignPattern(5, {1: checks.Sign.NEG})
    monkeypatch.setattr(checks, "CONJ13_D", wrong_d)
    code, out, err = run(capsys, "scan", "conjecture13", "--n-max", "2", "--format", fmt)
    assert code == 1
    assert out == _UNEXPECTED_OUT[fmt]
    assert err == ""


# the A and B claims replaced by the residues of thm2 and thm3, which hold,
# so no claim breaks: verified, yet not the paper's outcome
_VERIFIED_OUT = {
    "table": (
        "conjecture13-A  verified  order=10\n"
        "conjecture13-B  verified  order=10\n"
        "conjecture13-D  verified  order=11\n"
        "conjecture13    UNEXPECTED OUTCOME: A=[] B=[] D=[]\n"
    ),
    "csv": (
        "subject,order_checked,status,index,value,expected\n"
        "conjecture13-A,10,verified,,,\n"
        "conjecture13-B,10,verified,,,\n"
        "conjecture13-D,11,verified,,,\n"
    ),
    "json": (
        '{"subject":"conjecture13","order_checked":2,"status":"verified",'
        '"first_divergence":null,"violations":[],'
        '"falsified_at":{"A":[],"B":[],"D":[]}}\n'
    ),
}


@pytest.mark.parametrize("fmt", sorted(_VERIFIED_OUT))
def test_scan_conjecture13_no_claim_breaks(capsys, monkeypatch, fmt):
    pos = checks.Sign.POS
    monkeypatch.setattr(checks, "CONJ13_A", checks.SignPattern(5, {1: pos}))
    monkeypatch.setattr(checks, "CONJ13_B", checks.SignPattern(5, {2: pos}))
    code, out, err = run(capsys, "scan", "conjecture13", "--n-max", "2", "--format", fmt)
    assert code == 1
    assert out == _VERIFIED_OUT[fmt]
    assert err == ""


def test_scan_asymptotic_streams(capsys):
    code, out, err = run(capsys, "scan", "asymptotic-c", "--n-max", "150", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["subject"] == "asymptotic-c"
    assert doc["status"] == "verified"
    assert doc["agreements"] == doc["checked"] > 0
    assert "checked" in err  # diagnostics stay on stderr


def _printed_violations(fmt, out):
    # (subject or "", index) of each violation printed, in print order
    if fmt == "json":
        doc = json.loads(out)
        return [(v.get("series", ""), v["index"]) for v in doc["violations"]]
    if fmt == "csv":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        return [(row[0], int(row[3])) for row in rows if row[3]]
    found, subject = [], None
    for line in out.splitlines():
        if line.startswith("    n="):
            found.append((subject, int(line.split()[0][2:])))
        else:
            subject = line.split()[0]
    return found


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_scan_conjecture13_prints_at_most_twenty_violations(capsys, monkeypatch, fmt):
    # the A claim turned to A(5n) > 0 breaks at every period from 1 to 40
    monkeypatch.setattr(checks, "CONJ13_A", checks.SignPattern(5, {0: checks.Sign.POS}))
    code, out, err = run(capsys, "scan", "conjecture13", "--n-max", "40", "--format", fmt)
    assert code == 1
    assert err == "qser: conjecture13-A: 40 violations, the first 20 printed\n"
    a = {"table": "conjecture13-A", "csv": "conjecture13-A", "json": "A"}[fmt]
    b = {"table": "conjecture13-B", "csv": "conjecture13-B", "json": "B"}[fmt]
    assert _printed_violations(fmt, out) == [(a, 5 * n) for n in range(1, 21)] + [(b, 0)]
    if fmt == "json":
        assert json.loads(out)["falsified_at"]["A"] == list(range(1, 41))
    elif fmt == "table":
        assert f"falsified_at={list(range(1, 41))}" in out.splitlines()[0]
        assert out.endswith(f"UNEXPECTED OUTCOME: A={list(range(1, 41))} B=[0] D=[]\n")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_scan_asymptotic_prints_at_most_twenty_violations(capsys, monkeypatch, fmt):
    _c_with_bad_signs(monkeypatch, set(range(401)), 100)
    code, out, err = run(capsys, "scan", "asymptotic-c", "--n-max", "400", "--format", fmt)
    assert code == 1
    assert err == (
        "qser: asymptotic-c checked 301 indices, 0 sign agreements\n"
        "qser: asymptotic-c: 301 violations, the first 20 printed\n"
    )
    subject = "" if fmt == "json" else "asymptotic-c"
    assert _printed_violations(fmt, out) == [(subject, n) for n in range(100, 120)]
    if fmt == "json":
        assert '"checked":301,"agreements":0}' in out
    elif fmt == "table":
        assert out.endswith("asymptotic-c    checked=301 agreements=0\n")


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_capped_scan_states_its_total_on_stderr(capsys, monkeypatch, fmt):
    # both residues the pattern constrains are wrong, so every n = 1, 4
    # (mod 5) up to 300 is a violation: 120, of which 20 are printed
    pos, neg = checks.Sign.POS, checks.Sign.NEG
    wrong = checks.SignPattern(5, {1: neg, 4: pos})
    monkeypatch.setitem(checks.SIGN_SCANS, "thm2", ("A", wrong))
    code, out, err = run(capsys, "scan", "thm2", "--n-max", "300", "--format", fmt)
    assert code == 1
    assert err == "qser: thm2: 120 violations, the first 20 printed\n"
    subject = "" if fmt == "json" else "thm2"
    printed = [n for n in range(301) if n % 5 in (1, 4)][:20]
    assert _printed_violations(fmt, out) == [(subject, n) for n in printed]


def test_uncapped_scan_prints_nothing_on_stderr(capsys, monkeypatch):
    # exactly at the cap every violation is printed, so no total follows
    wrong = checks.SignPattern(5, {1: checks.Sign.NEG})
    monkeypatch.setitem(checks.SIGN_SCANS, "thm2", ("A", wrong))
    code, out, err = run(capsys, "scan", "thm2", "--n-max", "99", "--format", "csv")
    assert code == 1
    assert err == ""
    assert len(_printed_violations("csv", out)) == 20


def test_scan_unknown_target(capsys):
    code, out, err = run(capsys, "scan", "thm6")
    assert code == 2
    assert out == ""
    assert "unknown scan target" in err


def test_scan_negative_n_max(capsys):
    code, _, err = run(capsys, "scan", "thm2", "--n-max", "-1")
    assert code == 2
    assert "--n-max" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "A", "--order", "100000000"),
        ("expand", "d", "--order", str(catalog.MAX_PREC + 1)),
        ("scan", "thm2", "--n-max", str(catalog.MAX_PREC)),
        ("scan", "asymptotic-c", "--n-max", str(catalog.MAX_PREC)),
        ("scan", "conjecture13", "--n-max", str(catalog.MAX_PREC // 5)),
        ("verify", "dissect-A0", "--order", str(catalog.MAX_PREC // 5)),
        # the dissections' 5*order+4 builds are refused before B20 computes
        ("verify", "all", "--order", str(catalog.MAX_PREC // 5)),
    ],
)
def test_precision_ceiling_is_a_usage_error(capsys, monkeypatch, argv):
    def refuse(key, prec):
        raise AssertionError(f"computed {key} at {prec}")

    monkeypatch.setattr(catalog, "_compute", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qser: ") and f"ceiling of {catalog.MAX_PREC}" in err


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    # a request below MAX_PREC can still exhaust memory; it ends in one
    # line and exit 2, not in a traceback and exit 1
    def exhaust(key, prec):
        raise MemoryError

    monkeypatch.setattr(catalog, "_compute", exhaust)
    code, out, err = run(capsys, "expand", "Fratio51", "--order", "100000")
    assert (code, out) == (2, "")
    assert err == (
        f"qser: out of memory in 'expand Fratio51 --order 100000' (MAX_PREC is {catalog.MAX_PREC})\n"
    )


def test_out_of_memory_in_a_limited_child_is_a_usage_error():
    # a real MemoryError: the child caps its own address space a few MiB
    # above its size after the import, so building D at 100,000 runs out
    # of memory, whichever step makes the first large allocation
    pytest.importorskip("resource")
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the child's size from")
    child = (
        "import resource, sys\n"
        "from qser import cli\n"
        "with open('/proc/self/status') as f:\n"
        "    size = next(int(s.split()[1]) for s in f if s.startswith('VmSize:')) << 10\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (4 << 20), hard))\n"
        "sys.exit(cli.main(['expand', 'Dratio', '--order', '100000']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.count("\n") == 1 and "MAX_PREC" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


# -- shared behavior ---------------------------------------------------------------


def test_runs_are_deterministic(capsys):
    first = run(capsys, "verify", "all", "--order", "50", "--format", "json")
    catalog.clear_cache()
    second = run(capsys, "verify", "all", "--order", "50", "--format", "json")
    assert first == second


def test_output_uses_lf_only(capsys):
    for argv in (
        ("expand", "d", "--format", "csv"),
        ("verify", "B20", "--order", "30", "--format", "csv"),
        ("scan", "thm2", "--n-max", "20", "--format", "csv"),
    ):
        _, out, _ = run(capsys, *argv)
        assert "\r" not in out


def test_invalid_format_rejected(capsys):
    code, _, err = run(capsys, "expand", "d", "--format", "xml")
    assert code == 2
    assert "invalid choice" in err


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 2
    assert err != ""


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "expand" in out and "verify" in out and "scan" in out


def test_non_integer_order_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "B20", "--order", "many")
    assert code == 2
    assert "invalid int value" in err


def _child_env():
    # the child imports the same qser as this process, installed or not
    src = os.path.dirname(os.path.dirname(qser.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def test_broken_pipe_dies_quietly():
    # 4000 table rows overflow a 64 KiB pipe buffer, so the writer hits
    # EPIPE once the reader hangs up early, exactly like piping into head.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qser", "expand", "d", "--order", "4000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err


def test_broken_pipe_with_buffered_stdout():
    # the reader is gone before the child starts and stdout is block
    # buffered, so nothing reaches the pipe until main flushes it; without
    # that flush the interpreter's exit flush fails and exits 120. Help
    # text, printed while the arguments are parsed, takes the same flush.
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    for argv in (["expand", "d", "--order", "5"], ["--help"], ["scan", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qser", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (argv, proc.returncode, proc.stderr) == (argv, 1, b"")
