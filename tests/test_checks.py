"""Identity verification, sign scans, and the asymptotic cross-check."""

import math
from collections import Counter

import pytest

from qser import catalog, checks
from qser.series import Series

from test_catalog import C_PREFIX


@pytest.fixture(autouse=True)
def fresh_cache():
    catalog.clear_cache()
    yield


VERIFIERS = [
    ("B20", lambda p: checks.verify_identity_B20(p)),
    ("R5", lambda p: checks.verify_identity_R5(p)),
    ("A_full", lambda p: checks.verify_genfun("A_full", p)),
    ("B_full", lambda p: checks.verify_genfun("B_full", p)),
    ("D_full", lambda p: checks.verify_genfun("D_full", p)),
    ("dissect-A0", lambda p: checks.verify_dissection("A0", p)),
    ("dissect-B0", lambda p: checks.verify_dissection("B0", p)),
    ("dissect-D1", lambda p: checks.verify_dissection("D1", p)),
    ("dissect-C0", lambda p: checks.verify_dissection("C0", p)),
]


@pytest.mark.parametrize("subject,run", VERIFIERS, ids=[s for s, _ in VERIFIERS])
@pytest.mark.parametrize("order", [60, 120])
def test_identities_verify_at_two_orders(subject, run, order):
    report = run(order)
    assert report.status is checks.Status.VERIFIED, report.first_divergence
    assert report.subject == subject
    assert report.order_checked == order
    assert report.first_divergence is None
    assert report.violations == ()


@pytest.mark.parametrize("subject,run", VERIFIERS, ids=[s for s, _ in VERIFIERS])
def test_verifiers_reject_order_zero(subject, run):
    with pytest.raises(ValueError):
        run(0)


def test_unknown_verify_names_rejected():
    with pytest.raises(ValueError):
        checks.verify_genfun("E_full", 10)
    with pytest.raises(ValueError):
        checks.verify_dissection("A1", 10)


def test_warm_verify_needs_no_division(monkeypatch):
    # the checks use ring operations only: with every series cached (1/x of
    # the genfun checks is Rinv(q**5)), no check divides or inverts
    for check in checks.VERIFY_CHECKS.values():
        check(300)

    def no_division(*args):
        raise AssertionError("a warm verify check divided a series")

    monkeypatch.setattr(Series, "inverse", no_division)
    monkeypatch.setattr(Series, "__truediv__", no_division)
    for target, check in checks.VERIFY_CHECKS.items():
        assert check(300).ok(), target


def _r5_by_division(prec):
    # the R5 report as the quotient form of the identity gives it
    x = catalog.build("Rq5", prec)
    minus = checks._powers_times_q(x, checks._MINUS_QUARTIC)
    plus = checks._powers_times_q(x, checks._PLUS_QUARTIC)
    return checks._compare("R5", catalog.build("R5", prec), x * minus / plus, prec)


_QUARTIC_WEIGHTS = {
    f"{sign}{k}": (f"_{sign.upper()}_QUARTIC", k) for sign in ("plus", "minus") for k in range(5)
}


@pytest.mark.parametrize("weight", list(_QUARTIC_WEIGHTS))
@pytest.mark.parametrize("order", [1, 7, 30, 300])
def test_r5_report_matches_quotient_with_a_wrong_weight(monkeypatch, weight, order):
    table, k = _QUARTIC_WEIGHTS[weight]
    weights = list(getattr(checks, table))
    weights[k] += 1
    monkeypatch.setattr(checks, table, tuple(weights))
    report = checks.verify_identity_R5(order)
    if weight == "plus0":
        # plus = 2 + ... leaves x*minus/plus without integer coefficients,
        # so `/` refuses it; the products already differ at q**0
        with pytest.raises(
            ValueError, match=r"^divisor's lowest coefficient must be \+1 or -1, got 2 at q\^0$"
        ):
            _r5_by_division(order)
        assert report.first_divergence.index == 0
        return
    assert report == _r5_by_division(order)
    # weight k first acts on coefficient k
    assert report.ok() == (order <= k)


_R5_PERTURBATIONS = {
    "first": lambda p: (0,),
    "last": lambda p: (p - 1,),
    "middle-and-last": lambda p: (p // 2, p - 1),
}


@pytest.mark.parametrize("where", list(_R5_PERTURBATIONS))
@pytest.mark.parametrize("order", [30, 300])
def test_r5_report_matches_quotient_with_a_wrong_r5(monkeypatch, where, order):
    real_build = catalog.build

    def build(name, prec):
        s = real_build(name, prec)
        if name != "R5":
            return s
        coeffs = list(s)
        for i in _R5_PERTURBATIONS[where](prec):
            coeffs[i] += 1
        return Series(coeffs)

    monkeypatch.setattr(catalog, "build", build)
    report = checks.verify_identity_R5(order)
    assert report.status is checks.Status.VIOLATED
    assert report == _r5_by_division(order)


def test_verify_checks_reach_the_module_functions_at_call_time(monkeypatch):
    # bench/spans.py and the golden test replace these four by name
    calls = []
    for fn in ("verify_identity_B20", "verify_identity_R5", "verify_genfun", "verify_dissection"):
        monkeypatch.setattr(checks, fn, lambda *a, fn=fn: calls.append((fn, *a)))
    for check in checks.VERIFY_CHECKS.values():
        check(7)
    assert list(checks.VERIFY_CHECKS) == [s for s, _ in VERIFIERS]
    assert calls == [
        ("verify_identity_B20", 7),
        ("verify_identity_R5", 7),
        *(("verify_genfun", t, 7) for t in ("A_full", "B_full", "D_full")),
        *(("verify_dissection", t, 7) for t in ("A0", "B0", "D1", "C0")),
    ]


def test_target_tables_stay_out_of_the_package_root():
    import qser

    for table in ("VERIFY_CHECKS", "SIGN_SCANS"):
        assert table not in checks.__all__
        assert not hasattr(qser, table)


def test_b20_first_order_arithmetic():
    # q^1 on both sides: A(1) - 0 = 5 and 11 + (f1^6/f5^6)[1] = 11 - 6 = 5
    assert catalog.coefficient("A", 1) == 5
    assert catalog.build("Fratio15", 2)[1] == -6


def test_dissection_slice_value():
    # the q^2 coefficient of the A-slice is A(10), a convolution of c and C
    a10 = sum(
        catalog.coefficient("c", i) * catalog.coefficient("C", 5 * (2 - i))
        for i in range(3)
    )
    assert a10 == -175
    assert catalog.coefficient("A", 10) == -175


def test_compare_reports_first_divergence():
    report = checks._compare("probe", Series([1, 2, 3]), Series([1, 9, 3]), 3)
    assert report.status is checks.Status.VIOLATED
    assert report.first_divergence == checks.Divergence(1, 2, 9)


# -- sign scans ----------------------------------------------------------------


def test_richmond_patterns_verify_on_small_range():
    assert checks.scan_signs("c", checks.RICHMOND_C, 29).ok()
    assert checks.scan_signs("d", checks.RICHMOND_D, 29).ok()


def test_scan_agrees_with_manual_sign_check():
    report = checks.scan_signs("c", checks.RICHMOND_C, 29)
    assert report.ok()
    expected_sign = {0: 1, 1: 1, 2: -1, 3: -1, 4: -1}
    for n, value in enumerate(C_PREFIX):
        if n in (2, 4, 9):
            assert value == 0
        else:
            assert value * expected_sign[n % 5] > 0


def test_strict_zero_rule():
    # dropping the exception list must surface the known zeros as violations
    bare = checks.SignPattern(5, checks.RICHMOND_C.expected)
    report = checks.scan_signs("c", bare, 100)
    assert report.status is checks.Status.VIOLATED
    assert [v.index for v in report.violations] == [2, 4, 9]
    assert all(v.value == 0 for v in report.violations)


def test_exception_indices_check_exact_values():
    pattern = checks.SignPattern(5, {}, {0: 2})
    report = checks.scan_signs("d", pattern, 10, subject="probe")
    assert report.status is checks.Status.VIOLATED
    assert report.violations == (checks.Violation(0, 1, checks.Sign.POS),)


def test_unconstrained_residues_are_skipped():
    # residue 0 carries no expectation for this family below the first period
    report = checks.scan_signs("A", checks.THM2_A, 10)
    assert report.ok()


def test_scan_result_independent_of_cached_precision():
    baseline = checks.scan_signs("c", checks.RICHMOND_C, 50)
    catalog.clear_cache()
    catalog.build("c", 400)
    assert checks.scan_signs("c", checks.RICHMOND_C, 50) == baseline


def test_scan_validation():
    with pytest.raises(ValueError):
        checks.scan_signs("c", checks.RICHMOND_C, -1)
    with pytest.raises(ValueError):
        checks.SignPattern(0, {})
    with pytest.raises(ValueError):
        checks.SignPattern(5, {5: checks.Sign.POS})


def test_sign_pattern_rejects_values_of_the_wrong_type():
    # a sign that is not a Sign member compares unequal to every
    # coefficient's sign, so a scan would report a true claim as violated
    with pytest.raises(TypeError, match=r"^expected sign at residue 0 must be a Sign, got 'pos'$"):
        checks.SignPattern(5, {0: "pos"})
    for value in (True, 1.0, "0", None):
        with pytest.raises(TypeError) as exc:
            checks.SignPattern(5, {0: checks.Sign.POS}, {2: value})
        assert str(exc.value) == f"exception value at index 2 must be an exact int, got {value!r}"
    assert checks.SignPattern(5, {0: checks.Sign.ZERO}, {2: -(10**40)}).exceptions == {2: -(10**40)}


def test_sign_pattern_rejects_keys_of_the_wrong_type():
    # no index n has n % 5 == 0.5, so such a pattern would check nothing and
    # verify; a key True would act as residue 1
    for key in (0.5, True, "0", None):
        with pytest.raises(TypeError) as exc:
            checks.SignPattern(5, {key: checks.Sign.NEG})
        assert str(exc.value) == f"residue must be an exact int, got {key!r}"
        with pytest.raises(TypeError) as exc:
            checks.SignPattern(5, {}, {key: 0})
        assert str(exc.value) == f"exception index must be an exact int, got {key!r}"
    with pytest.raises(ValueError, match=r"^exception index must be >= 0, got -1$"):
        checks.SignPattern(5, {}, {-1: 0})
    assert checks.SignPattern(5, {}, {0: 7}).exceptions == {0: 7}


def test_violations_capped_but_falsification_periods_complete(monkeypatch):
    # reports keep every violation; only the CLI caps what it prints
    always_wrong = checks.SignPattern(5, {0: checks.Sign.NEG})
    report = checks.scan_signs("c", always_wrong, 150)
    assert report.status is checks.Status.VIOLATED
    assert [v.index for v in report.violations] == list(range(0, 151, 5))
    assert report.falsified_at is None
    # the A claim turned to A(5n) > 0 breaks at every period from 1 on
    monkeypatch.setattr(checks, "CONJ13_A", checks.SignPattern(5, {0: checks.Sign.POS}))
    parts = checks.check_conjecture13(30)
    assert parts["A"].status is checks.Status.FALSIFIED
    assert [v.index for v in parts["A"].violations] == list(range(5, 151, 5))
    assert parts["A"].falsified_at == tuple(range(1, 31))
    assert parts["B"].falsified_at == (0,)


def test_report_invariant():
    with pytest.raises(ValueError):
        checks.Report("x", 5, checks.Status.VIOLATED)
    ok = checks.Report("x", 5, checks.Status.VERIFIED)
    assert ok.ok()


def test_enum_wire_values():
    assert checks.Status.VERIFIED.value == "verified"
    assert checks.Status.VIOLATED.value == "violated"
    assert checks.Status.FALSIFIED.value == "falsified"
    assert checks.Sign.POS.value == "pos"
    assert checks.Sign.NEG.value == "neg"
    assert checks.Sign.ZERO.value == "zero"


# -- the claimed-for-all-n patterns ---------------------------------------------


def test_conjecture13_falsified_exactly_at_zero():
    parts = checks.check_conjecture13(40)
    assert list(parts) == ["A", "B", "D"]
    assert checks.CONJ13_FALSIFIED_AT == {"A": [0], "B": [0], "D": []}
    assert {k: r.falsified_at for k, r in parts.items()} == {"A": (0,), "B": (0,), "D": None}
    assert parts["A"].status is checks.Status.FALSIFIED
    assert parts["B"].status is checks.Status.FALSIFIED
    assert parts["D"].status is checks.Status.VERIFIED
    assert parts["A"].violations == (checks.Violation(0, 1, checks.Sign.NEG),)
    assert parts["B"].violations == (checks.Violation(0, 1, checks.Sign.NEG),)


def test_conjecture13_scan_bounds():
    parts = checks.check_conjecture13(12)
    assert parts["A"].order_checked == 60
    assert parts["B"].order_checked == 60
    assert parts["D"].order_checked == 61
    assert [r.subject for r in parts.values()] == [
        "conjecture13-A", "conjecture13-B", "conjecture13-D"
    ]


def test_conjecture13_computes_each_name_once(monkeypatch):
    counts = Counter()
    compute = catalog._compute

    def counting(key, prec):
        counts[key] += 1
        return compute(key, prec)

    monkeypatch.setattr(catalog, "_compute", counting)
    checks.check_conjecture13(20)
    assert counts and max(counts.values()) == 1, counts


def test_conjecture13_at_period_zero():
    parts = checks.check_conjecture13(0)
    assert parts["D"].ok()
    assert catalog.coefficient("D", 1) == 5
    assert {k: r.falsified_at for k, r in parts.items()} == {"A": (0,), "B": (0,), "D": None}
    with pytest.raises(ValueError):
        checks.check_conjecture13(-1)


# -- asymptotic cross-check -------------------------------------------------------


def test_cos_factor_sign_matches_residue_two():
    assert math.cos((2 * math.pi / 5) * (2 - 0.4)) < 0


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        checks.asymptotic_c(0)
    with pytest.raises(ValueError):
        checks.scan_asymptotic(-1)


def test_asymptotic_signs_match_exact_coefficients():
    series = catalog.build("c", 140)
    for n in range(100, 140):
        predicted = checks.asymptotic_c(n)
        assert (predicted > 0) == (series[n] > 0), n


def test_asymptotic_scan_agreement():
    report = checks.scan_asymptotic(400)
    assert report.ok()
    assert checks.asymptotic_range(400) == range(100, 401)
    assert report.violations == ()


def _c_with_bad_signs(monkeypatch, flipped, zero):
    # c(n) with the sign of each index in flipped reversed and c(zero) set to 0
    real_build = catalog.build

    def build(name, prec):
        series = real_build(name, prec)
        if name != "c":
            return series
        coeffs = [-v if n in flipped else v for n, v in enumerate(series)]
        coeffs[zero] = 0
        return Series(coeffs)

    monkeypatch.setattr(catalog, "build", build)
    return real_build("c", 401)


# the zero sits where the main term is negative, so only the zero rule flags it
@pytest.mark.parametrize("n_max,flipped,status", [
    (199, (), checks.Status.VERIFIED),  # 99 of 100 agree: exactly 99%
    (400, (150, 221), checks.Status.VERIFIED),  # 298 of 301: 99.0%
    (400, (150, 221, 303), checks.Status.VIOLATED),  # 297 of 301: 98.7%
])
def test_asymptotic_scan_lists_disagreements_at_the_agreement_floor(
    monkeypatch, n_max, flipped, status
):
    c = _c_with_bad_signs(monkeypatch, set(flipped), 152)
    report = checks.scan_asymptotic(n_max)
    checked = len(checks.asymptotic_range(n_max))
    assert checked == n_max - 99
    assert checked - len(report.violations) == checked - len(flipped) - 1
    assert report.status is status
    sign = {True: checks.Sign.POS, False: checks.Sign.NEG}
    assert report.violations == tuple(
        checks.Violation(n, 0 if n == 152 else -c[n], sign[c[n] > 0])
        for n in sorted((*flipped, 152))
    )


def test_asymptotic_scan_caps_violations(monkeypatch):
    _c_with_bad_signs(monkeypatch, set(range(401)), 100)
    report = checks.scan_asymptotic(400)
    checked = len(checks.asymptotic_range(400))
    assert checked == 301
    assert checked - len(report.violations) == 0
    assert report.status is checks.Status.VIOLATED
    # every disagreement is listed; only the CLI caps what it prints
    assert [v.index for v in report.violations] == list(range(100, 401))


def test_asymptotic_main_term_overflows_to_a_signed_infinity():
    # exp overflows past n of about 4.0e5; n = 0 and 2 mod 5 have cos > 0 and < 0
    assert checks.asymptotic_c(10**6) == math.inf
    assert checks.asymptotic_c(10**6 + 2) == -math.inf


def test_asymptotic_scan_empty_range_is_verified():
    report = checks.scan_asymptotic(50)  # below the sampling floor of 100
    assert len(checks.asymptotic_range(50)) == 0
    assert report.ok()
    assert report.violations == ()


def test_scan_toolkit_reachable_from_package_root():
    import qser

    assert qser.RICHMOND_C is checks.RICHMOND_C
    assert qser.CONJ13_D is checks.CONJ13_D
    assert qser.asymptotic_range is checks.asymptotic_range
    report = qser.scan_signs("d", qser.RICHMOND_D, 30)
    assert report.ok()
