"""Mutation run: every mutant below must make its tests fail.

    python tests/mutants.py

Copies the repository to a temporary directory, applies one mutant at a
time to the copy, runs only that mutant's test files with ``pytest -x -q``
and prints killed or survived for each. Exits 1 if any mutant survives or
its run ends in an error. A survivor marks a missing test: add the test
rather than dropping the mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CATALOG = "src/qser/catalog.py"
CHECKS = "src/qser/checks.py"
CLI = "src/qser/cli.py"
PRODUCTS = "src/qser/products.py"
SERIES = "src/qser/series.py"
ORACLE = "tests/oracle.py"

T_CATALOG = "tests/test_catalog.py"
T_CHECKS = "tests/test_checks.py"
T_CLI = "tests/test_cli.py"
T_GOLDEN = "tests/test_cli_golden.py"
T_PRODUCTS = "tests/test_products.py"
T_SERIES = "tests/test_series.py"

# (path, old text, new text, test files); each old text occurs exactly once
# in its file
MUTANTS = [
    # the multiply's decimal pack, its width and its int/str conversions,
    # and the division recurrence
    (SERIES, "Decimal((2 * n) << bits)", "Decimal(n << bits)", (T_SERIES,)),
    (
        SERIES,
        "list(accumulate(map(int.bit_length, b), max))",
        "list(map(int.bit_length, b))",
        (T_SERIES,),
    ),
    (SERIES, "reversed(bhat)", "bhat", (T_SERIES,)),
    (SERIES, '"1E%d" % (2 * n * w)', '"1E%d" % (n * w)', (T_SERIES,)),
    (
        SERIES,
        "pa if b is a else pack(b))",
        "pa if b is a else _EXACT.add(pack(b), bias))",
        (T_SERIES,),
    ),
    (SERIES, "pa if b is a else pack(b))", "pa)", (T_SERIES,)),
    (SERIES, ".zfill(n * w)", "", (T_SERIES,)),
    # the packed bias, doubled over the bits of n
    (
        SERIES,
        "            bias, m = _EXACT.add(_EXACT.scaleb(bias, w), half), m + 1\n",
        "            pass\n",
        (T_SERIES,),
    ),
    (SERIES, "_EXACT.scaleb(bias, m * w)", "_EXACT.scaleb(bias, (m - 1) * w)", (T_SERIES,)),
    (SERIES, "from _decimal import", "from decimal import", (T_SERIES,)),
    (
        SERIES,
        'if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < w:',
        "if False:",
        (T_SERIES,),
    ),
    (SERIES, "(lambda v: str(Decimal(v)))", "str", (T_SERIES,)),
    (SERIES, "(lambda s: int(Decimal(s)))", "int", (T_SERIES,)),
    (SERIES, "if i > k:", "if i >= k:", (T_SERIES,)),
    (SERIES, "groups.setdefault(-a0 * v, [])", "groups.setdefault(-v, [])", (T_SERIES,)),
    (SERIES, "s += c * t", "s += t", (T_SERIES,)),
    (SERIES, "return self + -other", "return self + other", (T_SERIES,)),
    (SERIES, "if not 0 <= n < len(self.coeffs):", "if not n < len(self.coeffs):", (T_SERIES,)),
    (
        SERIES,
        'f"<Series of {self.prec} terms: {head}, ...>"',
        'f"Series([{head}, ...], prec={self.prec})"',
        (T_SERIES,),
    ),
    # the checks of inverse() and `/`; the tests pin each message
    (SERIES, "self.prec == 0 or ", "", (T_SERIES, T_CHECKS)),
    (
        SERIES,
        "self.coeffs[0] not in (1, -1)",
        "self.coeffs[0] not in (1, -1, 2)",
        (T_SERIES, T_CHECKS),
    ),
    (
        SERIES,
        "other.coeffs[v] not in (1, -1)",
        "other.coeffs[v] not in (1, -1, 2)",
        (T_SERIES, T_CHECKS),
    ),
    (SERIES, "if v is None:", "if v is None and False:", (T_SERIES, T_CHECKS)),
    (SERIES, "if va < v:", "if va < v - 1:", (T_SERIES, T_CHECKS)),
    (SERIES, "if va is None:", "if va is None and False:", (T_SERIES, T_CHECKS)),
    (
        SERIES,
        "max(min(self.prec, other.prec) - v, 0)",
        "min(self.prec, other.prec)",
        (T_SERIES, T_CHECKS),
    ),
    (
        SERIES,
        'raise ValueError("divisor is zero to its precision")',
        'raise TypeError("divisor is zero to its precision")',
        (T_SERIES, T_CHECKS),
    ),
    # the product forms, the oracle's sum forms and the recipes that equal them
    (PRODUCTS, "for k in range(t, prec, t):", "for k in range(t + 1, prec, t):", (T_PRODUCTS,)),
    (
        PRODUCTS,
        "zip(c[k:k + t], c[k - t:k])",
        "zip(c[k:k + t], c[k - t + 1:k + 1])",
        (T_PRODUCTS,),
    ),
    (PRODUCTS, "for _ in range(abs(e)):", "for _ in range(1):", (T_PRODUCTS,)),
    (PRODUCTS, "zip(c[t:], c)", "zip(c[t:], c[1:])", (T_PRODUCTS,)),
    (ORACLE, "for i in range(k, n):", "for i in range(k + 1, n):", (T_CATALOG,)),
    (
        CATALOG,
        '"G_sum": lambda p: build("G", p),',
        '"G_sum": lambda p: build("H", p),',
        (T_CATALOG,),
    ),
    (
        CATALOG,
        '"H_sum": lambda p: build("H", p),',
        '"H_sum": lambda p: build("G", p),',
        (T_CATALOG,),
    ),
    # the Euler-product ratios power one quotient of two theta series;
    # dividing by a dense sixth power gives equal values, so only the
    # sparse-divisor test kills the first two
    (
        CATALOG,
        '"Fratio15": lambda p: (euler_f(1, p) / euler_f(5, p)) ** 6,',
        '"Fratio15": lambda p: euler_f(1, p) ** 6 / euler_f(5, p) ** 6,',
        (T_CATALOG,),
    ),
    (
        CATALOG,
        '"Fratio51": lambda p: (euler_f(5, p) / euler_f(1, p)) ** 6,',
        '"Fratio51": lambda p: euler_f(5, p) ** 6 / euler_f(1, p) ** 6,',
        (T_CATALOG,),
    ),
    (
        CATALOG,
        "(euler_f(1, p) / euler_f(5, p)) ** 6",
        "(euler_f(1, p) / euler_f(5, p)) ** 5",
        (T_CATALOG,),
    ),
    # the precision ceiling and the cache growth
    (
        CATALOG,
        'exact_int(prec, "precision", 0) > MAX_PREC:',
        'exact_int(prec, "precision", 0) > 10 * MAX_PREC:',
        (T_CATALOG, T_CLI),
    ),
    (
        CATALOG,
        "min(MAX_PREC, max(64, 2 * (hit.prec if hit is not None else 0)))",
        "max(64, 2 * (hit.prec if hit is not None else 0))",
        (T_CATALOG,),
    ),
    # sizes are exact ints, bools refused: one check, exact_int, which each
    # site calls; per site, the call is deleted, or its argument is coerced
    # to an int first so that a bool or a float passes
    (SERIES, " or isinstance(value, bool)", "", (T_CATALOG, T_SERIES)),
    (SERIES, "value < least:", "value < least - 1:", (T_CATALOG, T_SERIES)),
    (
        CATALOG,
        'if exact_int(prec, "precision", 0) > MAX_PREC:',
        "if prec > MAX_PREC:",
        (T_CATALOG,),
    ),
    (
        CATALOG,
        'exact_int(prec, "precision", 0) > MAX_PREC:',
        'exact_int(int(prec), "precision", 0) > MAX_PREC:',
        (T_CATALOG,),
    ),
    (CATALOG, '    exact_int(n, "coefficient index", 0)\n', "", (T_CATALOG,)),
    (CATALOG, 'exact_int(n, "coefficient index", 0)', 'exact_int(int(n), "coefficient index", 0)', (T_CATALOG,)),
    (SERIES, '        for v in t:\n            exact_int(v, "coefficient")\n', "", (T_CATALOG, T_SERIES)),
    (SERIES, '(0,) * exact_int(prec, "precision", 0))', "(0,) * prec)", (T_CATALOG, T_SERIES)),
    (SERIES, '        exact_int(coeff, "coefficient")\n', "", (T_CATALOG, T_SERIES)),
    (SERIES, 'if exact_int(exponent, "exponent", 0) >=', "if exponent >=", (T_CATALOG, T_SERIES)),
    (SERIES, '>= exact_int(prec, "precision", 0):', ">= prec:", (T_CATALOG, T_SERIES)),
    (SERIES, 'if not 0 <= exact_int(prec, "precision") <=', "if not 0 <= prec <=", (T_CATALOG, T_SERIES)),
    (SERIES, 'if exact_int(k, "exponent", 0) == 0:', "if k == 0:", (T_CATALOG, T_SERIES)),
    (SERIES, '(0,) * exact_int(k, "shift", 0) +', "(0,) * k +", (T_CATALOG, T_SERIES)),
    (SERIES, '        exact_int(c, "scale factor")\n', "", (T_CATALOG, T_SERIES)),
    (SERIES, 'if exact_int(m, "substitution power", 1) == 1:', "if m == 1:", (T_CATALOG, T_SERIES)),
    (SERIES, '        exact_int(m, "dissection modulus", 1)\n', "", (T_CATALOG, T_SERIES)),
    (SERIES, 'exact_int(j, "residue") < m:', "j < m:", (T_CATALOG, T_SERIES)),
    (
        PRODUCTS,
        '            exact_int(a, "factor offset", 1)\n',
        "",
        (T_CATALOG, T_PRODUCTS),
    ),
    (
        PRODUCTS,
        '            exact_int(m, "factor modulus", 1)\n',
        "",
        (T_CATALOG, T_PRODUCTS),
    ),
    (PRODUCTS, 'if exact_int(e, "factor exponent") == 0:', "if e == 0:", (T_CATALOG, T_PRODUCTS)),
    (PRODUCTS, '    exact_int(m, "m")\n', "", (T_CATALOG, T_PRODUCTS)),
    (PRODUCTS, 'exact_int(a, "a") < m:', "a < m:", (T_CATALOG, T_PRODUCTS)),
    (PRODUCTS, '[0] * exact_int(prec, "precision", 0)', "[0] * prec", (T_CATALOG, T_PRODUCTS)),
    (PRODUCTS, 'theta(exact_int(k, "k", 1), 3 * k, prec)', "theta(k, 3 * k, prec)", (T_CATALOG, T_PRODUCTS)),
    (
        PRODUCTS,
        'range(exact_int(prec, "precision", 0))',
        "range(prec)",
        (T_CATALOG, T_PRODUCTS),
    ),
    # every verifier's order and every scan's n_max
    (
        CHECKS,
        '    exact_int(prec, "order", 1)\n    lhs = catalog.build("R5inv", prec)',
        '    lhs = catalog.build("R5inv", prec)',
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(prec, "order", 1)\n    x = catalog.build("Rq5", prec)\n    lhs',
        '    x = catalog.build("Rq5", prec)\n    lhs',
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(prec, "order", 1)\n    name, power, weights',
        "    name, power, weights",
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(prec, "order", 1)\n    name, j = ',
        "    name, j = ",
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(n_max, "n_max", 0)\n    if subject is None:',
        "    if subject is None:",
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(n_max, "n_max", 0)\n    # B first',
        "    # B first",
        (T_CATALOG, T_CHECKS),
    ),
    (
        CHECKS,
        '    exact_int(n_max, "n_max", 0)\n    series = catalog.build("c"',
        '    series = catalog.build("c"',
        (T_CATALOG, T_CHECKS),
    ),
    # a smaller build never replaces a larger cache entry, and a cached
    # coefficient is read without a build
    (CATALOG, "if hit is None or hit.prec < out.prec:", "if True:", (T_CATALOG,)),
    (CATALOG, "if hit is not None and hit.prec > n:", "if False:", (T_CATALOG,)),
    (CLI, "except catalog.PrecisionTooLarge as exc:", "except ZeroDivisionError as exc:", (T_CLI,)),
    (CLI, "except MemoryError:", "except ZeroDivisionError:", (T_CLI,)),
    (CLI, "        sys.stdout.flush()\n", "", (T_CLI,)),
    (
        CLI,
        'first = sorted(targets, key=lambda t: not t.startswith("dissect-"))',
        "first = targets",
        (T_CLI,),
    ),
    # identity checks
    (CHECKS, "qx = x.shift(1).truncate(x.prec)", "qx = x", (T_CHECKS,)),
    (CHECKS, "for w in reversed(weights[1:-1]):", "for w in weights[1:-1]:", (T_CHECKS,)),
    (CHECKS, "lhs, lhs - gap, prec)", "lhs, lhs + gap, prec)", (T_CHECKS,)),
    (
        CHECKS,
        "lhs * _powers_times_q(x, _PLUS_QUARTIC) - x * _powers_times_q(x, _MINUS_QUARTIC)",
        "lhs * _powers_times_q(x, _MINUS_QUARTIC) - x * _powers_times_q(x, _PLUS_QUARTIC)",
        (T_CHECKS,),
    ),
    (
        CHECKS,
        "- x * _powers_times_q(x, _MINUS_QUARTIC)",
        "- _powers_times_q(x, _MINUS_QUARTIC)",
        (T_CHECKS,),
    ),
    (CHECKS, "x_inv ** power *", "x_inv ** (power - 1) *", (T_CHECKS,)),
    (
        CHECKS,
        '"D1": ("Dratio", 1), "C0": ("Cratio", 0)}',
        '"C0": ("Cratio", 0), "D1": ("Dratio", 1)}',
        (T_CHECKS,),
    ),
    (
        CHECKS,
        '"B20": lambda p: verify_identity_B20(p),',
        '"B20": verify_identity_B20,',
        (T_CHECKS,),
    ),
    # sign scans and the conjecture13 outcome
    (CHECKS, "want is not None", "want is None", (T_CHECKS,)),
    # a sign pattern takes only Sign members and exact int exception values,
    (CHECKS, "if not isinstance(sign, Sign):", "if False:", (T_CHECKS,)),
    (CHECKS, '            exact_int(value, f"exception value at index {i}")\n', "", (T_CHECKS,)),
    (
        CHECKS,
        'exact_int(value, f"exception value at index {i}")',
        'exact_int(int(value), f"exception value at index {i}")',
        (T_CHECKS,),
    ),
    # and only exact int residues and nonnegative exact int exception indices
    (CHECKS, 'exact_int(r, "residue") < modulus', "r < modulus", (T_CHECKS,)),
    (CHECKS, 'exact_int(r, "residue") < modulus', 'exact_int(int(r), "residue") < modulus', (T_CHECKS,)),
    (CHECKS, '            exact_int(i, "exception index", 0)\n', "", (T_CHECKS,)),
    (CHECKS, 'exact_int(i, "exception index", 0)', 'exact_int(int(i), "exception index", 0)', (T_CHECKS,)),
    (CHECKS, 'exact_int(i, "exception index", 0)', 'exact_int(i, "exception index")', (T_CHECKS,)),
    # and only an exact int modulus
    (CHECKS, '        exact_int(modulus, "modulus", 1)\n', "", (T_CHECKS,)),
    (CHECKS, 'exact_int(modulus, "modulus", 1)', 'exact_int(int(modulus), "modulus", 1)', (T_CHECKS,)),
    # _replace runs each class's checks through its _make
    (
        CHECKS,
        "checks in __new__\n    _make = classmethod(lambda cls, fields: cls(*fields))\n",
        "checks in __new__\n",
        (T_CHECKS,),
    ),
    (
        CHECKS,
        "    _make = classmethod(lambda cls, fields: cls(*fields))\n\n    def __new__(cls, *args",
        "\n    def __new__(cls, *args",
        (T_CHECKS,),
    ),
    (PRODUCTS, "    _make = classmethod(lambda cls, fields: cls(*fields))\n", "", (T_PRODUCTS,)),
    # scans keep every violation; a broken claim is FALSIFIED at all its periods
    (
        CHECKS,
        "return Report(subject, n_max, status, violations=tuple(violations))",
        "return Report(subject, n_max, status, violations=tuple(violations[:20]))",
        (T_CHECKS,),
    ),
    (
        CHECKS,
        "falsified_at=periods) if periods else report",
        "falsified_at=periods) if False else report",
        (T_CHECKS,),
    ),
    (CHECKS, "v.index // pattern.modulus", "v.index // (pattern.modulus + 1)", (T_CHECKS,)),
    (
        CHECKS,
        'return {"A": a, "B": b, "D": d}',
        'return {"A": b, "B": a, "D": d}',
        (T_CHECKS,),
    ),
    (
        CHECKS,
        'CONJ13_FALSIFIED_AT = {"A": [0], "B": [0], "D": []}',
        'CONJ13_FALSIFIED_AT = {"A": [0], "B": [0], "D": [0]}',
        (T_CHECKS,),
    ),
    (
        CLI,
        "ok = falsified == checks.CONJ13_FALSIFIED_AT",
        "ok = falsified != checks.CONJ13_FALSIFIED_AT",
        (T_CLI,),
    ),
    (CLI, '{**v, "series": k}', "{**v}", (T_CLI,)),
    (
        CLI,
        '"falsified" if any(falsified.values()) else "verified"',
        '"falsified" if True else "verified"',
        (T_CLI,),
    ),
    (
        CLI,
        'line += f"  falsified_at={list(r.falsified_at)}"',
        'line += ""',
        (T_CLI,),
    ),
    (
        CLI,
        'for row in rows or [("", "", "")]:',
        'for row in (rows or [("", "", "")])[:1]:',
        (T_CLI,),
    ),
    (CLI, '"divergence_index,lhs,rhs", 12)', '"divergence_index,lhs,rhs", 15)', (T_GOLDEN,)),
    # the CLI caps what each report prints, in json, csv and table
    (CLI, "for v in report.violations[:MAX_VIOLATIONS]", "for v in report.violations", (T_CLI,)),
    (
        CLI,
        "(v.index, v.value, v.expected.value) for v in r.violations[:MAX_VIOLATIONS]",
        "(v.index, v.value, v.expected.value) for v in r.violations",
        (T_CLI,),
    ),
    (CLI, "for v in r.violations[:MAX_VIOLATIONS]:", "for v in r.violations:", (T_CLI,)),
    # and states the total on stderr when it cuts
    (
        CLI,
        'print(f"qser: {total}, the first {MAX_VIOLATIONS} printed", file=sys.stderr)',
        "pass",
        (T_CLI,),
    ),
    (CLI, "if len(r.violations) > MAX_VIOLATIONS:", "if len(r.violations) >= MAX_VIOLATIONS:", (T_CLI,)),
    # help text reaches a closed pipe through the same flush as any output
    (
        CLI,
        "            code = exc.code if isinstance(exc.code, int) else 2\n",
        "            return exc.code if isinstance(exc.code, int) else 2\n",
        (T_CLI,),
    ),
    # the asymptotic cross-check
    (
        CHECKS,
        "agreements / len(indices) >= ASYMPTOTIC_MIN_AGREEMENT",
        "agreements / len(indices) > ASYMPTOTIC_MIN_AGREEMENT",
        (T_CHECKS,),
    ),
    (CHECKS, "(predicted > 0) or exact == 0:", "(predicted > 0):", (T_CHECKS,)),
    (
        CLI,
        "checked = len(checks.asymptotic_range(args.n_max))",
        "checked = args.n_max - checks.ASYMPTOTIC_N_MIN",
        (T_CLI,),
    ),
    (CHECKS, "range(ASYMPTOTIC_N_MIN, n_max + 1)", "range(ASYMPTOTIC_N_MIN, n_max)", (T_CHECKS,)),
    (CHECKS, "_sign_of(1 if predicted > 0 else -1)", "_sign_of(exact)", (T_CHECKS,)),
    (CHECKS, "growth = math.inf", "growth = 0.0", (T_CHECKS,)),
    (
        CHECKS,
        'return Report("asymptotic-c", n_max, status, violations=tuple(violations))',
        'return Report("asymptotic-c", n_max, status, violations=tuple(violations[:20]))',
        (T_CHECKS,),
    ),
]


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "repo")
        skip = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache")
        shutil.copytree(ROOT, tree, ignore=skip)
        for path, old, new, tests in MUTANTS:
            target = os.path.join(tree, path)
            with open(target) as f:
                original = f.read()
            if original.count(old) != 1:
                print(f"error     {path}: {old!r} does not occur exactly once")
                failed += 1
                continue
            with open(target, "w") as f:
                f.write(original.replace(old, new))
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                    cwd=tree,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            finally:
                with open(target, "w") as f:
                    f.write(original)
            # pytest exits 1 when a test failed; 0 means every test passed
            verdict = {0: "survived", 1: "killed"}.get(run.returncode, f"error {run.returncode}")
            failed += verdict != "killed"
            print(f"{verdict:<9} {path}: {old!r} -> {new!r}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
