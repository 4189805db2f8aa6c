"""Series arithmetic: exactness, precision propagation, and error paths."""

import os
import random
import subprocess
import sys

import pytest

import oracle
import qser
from qser.products import euler_f, theta
from qser.series import Series, _mul_lists


def rand_series(rng, prec, lo=-9, hi=9):
    return Series([rng.randint(lo, hi) for _ in range(prec)])


def rand_unit_series(rng, prec, lo=-9, hi=9):
    coeffs = [rng.choice((1, -1))] + [rng.randint(lo, hi) for _ in range(prec - 1)]
    return Series(coeffs)


# -- construction and inspection ---------------------------------------------


def test_empty_series_has_no_known_coefficients():
    s = Series([])
    assert s.prec == 0
    assert len(s) == 0
    assert s == Series.zero(0)
    assert s.valuation() is None


def test_constructor_takes_no_prec():
    # the constructor takes coefficients only; padding is written out
    with pytest.raises(TypeError):
        Series([1, 2], prec=5)
    assert list(Series([1, 2] + [0] * 3)) == [1, 2, 0, 0, 0]


def test_coefficients_must_be_ints():
    with pytest.raises(TypeError):
        Series([1.0])
    with pytest.raises(TypeError):
        Series([True])
    # monomial too, also where its exponent lies past the precision
    for coeff, exponent, prec in ((1.5, 0, 3), (True, 1, 3), (2.0, 5, 3), (False, 3, 3)):
        with pytest.raises(TypeError):
            Series.monomial(coeff, exponent, prec)


def test_zero_one_monomial():
    assert list(Series.zero(3)) == [0, 0, 0]
    assert list(Series.one(3)) == [1, 0, 0]
    assert list(Series.monomial(7, 2, 5)) == [0, 0, 7, 0, 0]
    assert Series.one(0).prec == 0


def test_negative_precision_rejected():
    with pytest.raises(ValueError, match="precision must be >= 0, got -2"):
        Series.zero(-2)
    with pytest.raises(ValueError, match="precision must be >= 0, got -3"):
        Series.one(-3)
    with pytest.raises(ValueError, match="precision must be >= 0, got -1"):
        Series.monomial(5, 0, -1)


def test_monomial_beyond_prec_is_zero_series():
    s = Series.monomial(7, 5, 3)
    assert s == Series.zero(3)


def test_monomial_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Series.monomial(1, -1, 4)


def test_getitem_bounds():
    s = Series([4, 5, 6])
    assert s[0] == 4 and s[2] == 6
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


def test_valuation_finds_lowest_nonzero():
    assert Series([0, 0, 3, 1]).valuation() == 2
    assert Series([0, 0, 0]).valuation() is None
    assert Series([5]).valuation() == 0


def test_equality_is_strict_about_precision():
    assert Series([1, 2]) == Series([1, 2])
    assert Series([1, 2]) != Series([1, 2, 0])
    assert hash(Series([1, 2])) == hash(Series((1, 2)))


def test_series_is_immutable():
    s = Series([1, 2])
    with pytest.raises(AttributeError):
        s.coeffs = (9,)
    with pytest.raises(AttributeError):
        s.prec = 99


def test_truncate():
    s = Series([1, 2, 3, 4])
    assert list(s.truncate(2)) == [1, 2]
    assert s.truncate(4) is s
    with pytest.raises(ValueError):
        s.truncate(5)
    with pytest.raises(ValueError):
        s.truncate(-1)


# -- addition, subtraction, scaling -------------------------------------------


def test_add_sub_take_min_precision():
    a = Series([1, 2, 3, 4])
    b = Series([10, 20])
    assert list(a + b) == [11, 22]
    assert list(a - b) == [-9, -18]
    assert (a + b).prec == 2


def test_int_operands_promote_at_own_precision():
    a = Series([1, 2, 3])
    assert list(a + 5) == [6, 2, 3]
    assert list(a - 1) == [0, 2, 3]
    # an int on the left, or as a factor, is not a series operand: scalar
    # multiples are written a.scale(c)
    for op in (lambda: 5 + a, lambda: 1 - a, lambda: 3 * a, lambda: a * 3):
        with pytest.raises(TypeError):
            op()


def test_bool_operands_rejected():
    with pytest.raises(TypeError):
        Series([1, 2]) + True
    with pytest.raises(TypeError):
        Series([1, 2]).scale(True)


def test_neg():
    assert list(-Series([1, -2, 0])) == [-1, 2, 0]


def test_scale():
    assert list(Series([1, -2, 3]).scale(-4)) == [-4, 8, -12]
    with pytest.raises(TypeError):
        Series([1]).scale(1.5)


# -- multiplication ------------------------------------------------------------


def test_known_product():
    # (1 + q)(1 - q) = 1 - q^2
    assert list(Series([1, 1, 0]) * Series([1, -1, 0])) == [1, 0, -1]


def test_mul_truncates_to_min_precision():
    a = Series([1, 1, 1, 1, 1])
    b = Series([1, 1])
    p = a * b
    assert p.prec == 2
    assert list(p) == [1, 2]


def test_mul_against_oracle():
    rng = random.Random(20240)
    for _ in range(60):
        n = rng.randint(1, 40)
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.randint(-9, 9) for _ in range(n)]
        assert list(Series(a) * Series(b)) == oracle.mul(a, b, n)
    # every pair of operand shapes at sizes around 32, 64 and 224 and beyond
    shapes = {  # sparsest first: the oracle skips the zero terms of its first operand
        "zero": lambda n: [0] * n,
        "one term": lambda n: list(Series.monomial(rng.choice((-3, 1)), rng.randrange(n), n)) if n else [],
        "theta(1,5)": lambda n: list(theta(1, 5, n)),
        "theta(2,5)": lambda n: list(theta(2, 5, n)),
        "q5-sparse": lambda n: [rng.randint(-9, 9) if i % 5 == 0 else 0 for i in range(n)],
        "dense": lambda n: [rng.randint(-9, 9) for _ in range(n)],
        "positive": lambda n: [rng.randint(0, 9) for _ in range(n)],
        "huge": lambda n: [rng.randint(-(10**40), 10**40) for _ in range(n)],
        "negative huge": lambda n: [-rng.randint(10**39, 10**40) for _ in range(n)],
    }
    names = list(shapes)
    for n in (0, 1, 2, 31, 32, 63, 64, 223, 224, 1000):
        for i, x in enumerate(names):
            for y in names[i:]:
                a, b = shapes[x](n), shapes[y](n)
                assert list(Series(a) * Series(b)) == oracle.mul(a, b, n), (x, y, n)
    # past CPython's 4,300-digit limit on int/str conversion: one digit of
    # these products has more than 4,300 decimal digits, so the digits pass
    # through Decimal
    for n in (0, 1, 2, 64):
        a = [rng.randint(-(10**2500), 10**2500) for _ in range(n)]
        b = [-rng.randint(10**2499, 10**2500) for _ in range(n)]
        assert list(Series(a) * Series(b)) == oracle.mul(a, b, n), n


def test_oracle_returns_n_terms():
    for n in (0, 1, 2):
        for terms in (
            oracle.mul([1, 2], [3], n),
            oracle.inv([1, 1], n),
            oracle.power([1, 1], 0, n),
            oracle.power([1, 1], 2, n),
            oracle.poch(1, 5, n),
            oracle.product(((1, 5, 1), (2, 5, -2)), n),
            oracle.subst([1, 1], 5, n),
        ):
            assert len(terms) == n


@pytest.mark.parametrize("lo,hi", [(-9, 9), (-1, 1), (-(10**40), 10**40)])
def test_mul_lists_matches_oracle_mul(lo, hi):
    rng = random.Random(hash((lo, hi)) & 0xFFFF)
    for _ in range(25):
        n = rng.randint(64, 200)
        a = tuple(rng.randint(lo, hi) for _ in range(n))
        b = tuple(rng.randint(lo, hi) for _ in range(n))
        assert _mul_lists(a, b, n) == oracle.mul(a, b, n)


def test_kronecker_handles_sparse_and_negative():
    a = tuple([0] * 63 + [-(10**30)])
    b = tuple([7] + [0] * 62 + [10**30])
    assert _mul_lists(a, b, 64) == oracle.mul(a, b, 64)


def _bits(a, b):
    # the multiply's width rule: its digit width w is the digit count of
    # 2 * n * 2**bits, bits = max_i (bit_length(a_i) + max_(j <= n-1-i) bit_length(b_j))
    n = len(a)
    return max(a[i].bit_length() + max(v.bit_length() for v in b[: n - i]) for i in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 200])
def test_mul_width_from_running_maxima(n):
    rng = random.Random(n)
    huge = 10**40 + 7
    cases = [
        # one huge term at n - 1 in both operands: every product term below
        # q^n is 0, yet each operand's digit must still hold the huge term
        ([0] * (n - 1) + [huge], [0] * (n - 1) + [-huge]),
        ([0] * (n - 1) + [-huge], [1] + [0] * (n - 2) + [huge] if n > 1 else [huge]),
        # and at 0 in one of them, so term n - 1 is huge**2
        ([huge] + [0] * (n - 1), [0] * (n - 1) + [huge]),
        # decreasing: the largest coefficients come first
        (
            [rng.choice((-1, 1)) * (huge >> 8 * i) for i in range(n)],
            [rng.choice((-1, 1)) * (huge >> 8 * i) for i in range(n)],
        ),
    ]
    # every coefficient 2**k - 1: the top product term is n * (2**k - 1)**2,
    # within a factor (1 - 2**-k)**2 of the bound n * 2**bits
    for k in (1, 7, 64, 133):
        cases.append(([2**k - 1] * n, [2**k - 1] * n))
        cases.append(([2**k - 1] * n, [-(2**k - 1)] * n))
    for a, b in cases:
        assert _mul_lists(tuple(a), tuple(b), n) == oracle.mul(a, b, n)


def test_mul_on_both_sides_of_the_int_digit_limit():
    # below CPython's int/str digit limit digits are converted as str and
    # int, above it through Decimal; 640 is the lowest limit CPython accepts
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int/str digit limit")
    cases = [((2**k - 1,) * n, (-(2**k - 1),) * n, n) for n in (1, 3) for k in range(1030, 1090, 2)]
    widths = {len(str(2 * n << _bits(a, b))) for a, b, n in cases}
    assert {639, 640, 641, 642} <= widths
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        products = [_mul_lists(a, b, n) for a, b, n in cases]
    finally:
        sys.set_int_max_str_digits(old)
    assert products == [oracle.mul(a, b, n) for a, b, n in cases]


def test_mul_digit_with_leading_zero():
    # bits = 11 + 10, so w is the digit count of 2 * 2 * 2**21 = 8388608,
    # 7; coefficient 1, -2 * 2047 * 1023 = -4188162, is stored as
    # 0811838, and the string of the product's low digits starts with a
    # zero that str() drops
    a, b = (2047, 2047), (-1023, -1023)
    assert len(str(2 * 2 << _bits(a, b))) == 7
    assert len(str(-4188162 + 5 * 10**6)) == 6
    assert _mul_lists(a, b, 2) == oracle.mul(a, b, 2) == [-2094081, -4188162]


def test_import_needs_the_c_decimal_module():
    # the pure-Python decimal fallback converts ints through str and fails
    # past 4,300 digits, so qser refuses it at import, not in a multiply
    src = os.path.dirname(os.path.dirname(qser.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = (
        "import sys, traceback\n"
        "sys.modules['_decimal'] = None\n"
        "try:\n"
        "    import qser\n"
        "except ImportError as exc:\n"
        "    traceback.print_exc()\n"
        "    print(exc.name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "_decimal\n")
    assert "_mul_lists" not in proc.stderr and "__mul__" not in proc.stderr


def test_import_loads_only_the_stdlib_modules_qser_names():
    # under -S no .pth file can preload a module (typing, say) and hide an
    # import of it; past the modules qser names, importing the CLI may load
    # only __future__ and qser's own modules
    src = os.path.dirname(os.path.dirname(qser.__file__))
    child = (
        "import sys\n"
        "import argparse, json, os, math, threading, enum, collections\n"
        "import itertools, operator, _decimal\n"
        "floor = set(sys.modules)\n"
        f"sys.path.insert(0, {src!r})\n"
        "import qser.cli\n"
        "print(*sorted(set(sys.modules) - floor))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", child], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "qser.cli" in loaded
    assert {m for m in loaded if not m.startswith("qser.")} <= {"__future__", "qser"}


def test_mul_zero_operand():
    for a, b in ((Series.zero(80), Series([1] * 80)), (Series([1, 2, 3]), Series.zero(0))):
        product = a * b
        assert product == Series.zero(min(a.prec, b.prec))


# -- powers ----------------------------------------------------------------------


def test_pow_zero_is_one():
    s = Series([3, 1, 4])
    assert s**0 == Series.one(3)


@pytest.mark.parametrize("k", range(1, 9))
def test_pow_matches_repeated_multiplication(k):
    rng = random.Random(k)
    s = rand_series(rng, 30)
    expected = Series.one(30)
    for _ in range(k):
        expected = expected * s
    assert s**k == expected


def test_pow_keeps_precision():
    assert (Series([1, 2, 3]) ** 5).prec == 3


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        Series([1, 1]) ** -1


# -- inversion and division -------------------------------------------------------


def test_inverse_of_one_minus_q_is_geometric():
    s = Series([1, -1] + [0] * 38)
    assert list(s.inverse()) == [1] * 40


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ValueError, match=r"^constant term must be \+1 or -1, got 2$"):
        Series([2, 1]).inverse()
    with pytest.raises(ValueError, match=r"^constant term must be \+1 or -1, got 0$"):
        Series([0, 1]).inverse()
    with pytest.raises(ValueError, match=r"^constant term must be \+1 or -1, got unknown$"):
        Series([]).inverse()


def test_inverse_is_involution():
    rng = random.Random(7)
    for _ in range(20):
        s = rand_unit_series(rng, 50)
        assert s.inverse().inverse() == s
        assert s * s.inverse() == Series.one(50)


def test_dense_unit_inverse_matches_oracle():
    # the inputs that once split between a Newton iteration (prec > 32) and
    # the plain recurrence: dense random unit series of size 33..128.  The
    # division recurrence must give the oracle's inverse and multiply back
    # to one
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(33, 128)
        coeffs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(n - 1)]
        s = Series(coeffs)
        assert list(s.inverse()) == oracle.inv(coeffs, n)
        assert s * s.inverse() == Series.one(n)


def test_inverse_against_oracle():
    # every size to 128: dense random inputs with either unit constant
    # term, and sparse divisors (theta series, 1 - q**k) of either sign
    rng = random.Random(11)
    for n in range(1, 129):
        inputs = [
            [a0] + [rng.randint(-5, 5) for _ in range(n - 1)] for a0 in (1, -1)
        ]
        for sparse in (
            theta(1, 5, n),
            theta(2, 5, n),
            Series.one(n) - Series.monomial(1, 1 + n % 7, n),
        ):
            inputs += [list(sparse), list(-sparse)]
        for coeffs in inputs:
            assert list(Series(coeffs).inverse()) == oracle.inv(coeffs, n)


def test_theta_inverse_at_scan_size():
    # the richmond scans divide by both theta series at this size; the
    # product runs through the Kronecker multiply
    for a in (1, 2):
        t = theta(a, 5, 5001)
        assert t * t.inverse() == Series.one(5001)


def test_division_examples():
    q2_plus_q3 = Series([0, 0, 1, 1, 0])
    q = Series([0, 1, 0, 0, 0])
    assert list(q2_plus_q3 / q) == [0, 1, 1, 0]
    one = Series.one(6)
    assert list(one / Series([1, -1] + [0] * 4)) == [1] * 6


def test_division_precision_drops_by_divisor_valuation():
    a = Series([0, 0, 1, 1, 1, 1])
    b = Series([0, 0, 1, 0, 0, 0])
    assert (a / b).prec == 4


def test_division_zero_numerator():
    q = Series([0, 1, 0, 0])
    out = Series.zero(4) / q
    assert out == Series.zero(3)
    assert out.prec == 3


def test_division_errors():
    with pytest.raises(ValueError, match=r"^divisor is zero to its precision$"):
        Series([1, 1]) / Series([0, 0])
    with pytest.raises(
        ValueError, match=r"^divisor's lowest coefficient must be \+1 or -1, got 2 at q\^0$"
    ):
        Series([1, 1]) / Series([2, 1])
    with pytest.raises(ValueError, match=r"^numerator valuation 0 is below divisor valuation 1$"):
        Series([1, 1]) / Series([0, 1])


def test_division_against_oracle():
    # the quotient by a divisor of valuation v is num[v:] * inverse(den[v:]),
    # with n = prec - v terms; operands are built at n + v so every quotient
    # has n terms
    rng = random.Random(17)
    for n in (1, 2, 31, 64, 224):
        unit = rand_unit_series(rng, n)
        divisors = [
            theta(1, 5, n),
            theta(2, 5, n),
            euler_f(1, n),
            Series([1] + [rng.randint(-9, 9) for _ in range(n - 1)]),
            Series([-1] + [rng.randint(-9, 9) for _ in range(n - 1)]),
            Series.one(n) - Series.monomial(1, 1 + n % 7, n),
            unit.shift(1),
            unit.shift(3),
        ]
        for den in divisors:
            v = den.valuation()
            expected_inv = oracle.inv(list(den)[v:], n)
            numerators = [
                rand_series(rng, n).shift(v),
                Series.zero(n + v),
                rand_series(rng, n - 1).shift(v + 1),
            ]
            for num in numerators:
                out = num / den
                assert out.prec == n
                assert list(out) == oracle.mul(list(num)[v:], expected_inv, n)
    for a, b in ((1, 2), (2, 1)):
        num, den = theta(a, 5, 1000), theta(b, 5, 1000)
        assert list(num / den) == oracle.mul(list(num), oracle.inv(list(den), 1000), 1000)


def test_division_self_is_one():
    rng = random.Random(123)
    for _ in range(10):
        s = rand_unit_series(rng, 30)
        assert s / s == Series.one(30)


# -- shift, substitute, dissect -----------------------------------------------------


def test_shift_positive_raises_precision():
    s = Series([1, 2])
    out = s.shift(3)
    assert list(out) == [0, 0, 0, 1, 2]
    assert out.prec == 5


def test_negative_shift_is_rejected():
    # only multiplication by q**k with k >= 0 is a shift; dividing by q**k is
    # written as division by Series.monomial(1, k, prec)
    with pytest.raises(ValueError):
        Series([0, 0, 5, 6]).shift(-1)


def test_substitute_qm_spreads_support():
    s = Series([1, 2, 3])
    out = s.substitute_qm(3)
    assert out.prec == 9
    assert list(out) == [1, 0, 0, 2, 0, 0, 3, 0, 0]
    assert s.substitute_qm(1) is s
    with pytest.raises(ValueError):
        s.substitute_qm(0)


@pytest.mark.parametrize("prec,m,j", [(10, 5, 0), (10, 5, 4), (11, 5, 2), (1, 3, 0), (7, 2, 1)])
def test_dissect_precision_formula(prec, m, j):
    s = Series(list(range(prec)))
    out = s.dissect(m, j)
    assert out.prec == (prec - j + m - 1) // m
    assert list(out) == list(range(prec))[j::m]


def test_dissect_validation():
    s = Series([1, 2, 3])
    with pytest.raises(ValueError):
        s.dissect(0, 0)
    with pytest.raises(ValueError):
        s.dissect(3, 3)
    with pytest.raises(ValueError):
        s.dissect(3, -1)


def test_substitute_then_dissect_round_trip():
    rng = random.Random(5)
    s = rand_series(rng, 17)
    for m in (2, 3, 5):
        up = s.substitute_qm(m)
        assert up.dissect(m, 0) == s
        for j in range(1, m):
            assert not any(up.dissect(m, j))


def test_dissections_reassemble_series():
    rng = random.Random(6)
    s = rand_series(rng, 40)
    m = 5
    total = Series.zero(40)
    for j in range(m):
        total = total + s.dissect(m, j).substitute_qm(m).shift(j).truncate(40)
    assert total == s


# -- algebra laws and precision stability -------------------------------------------


def test_ring_axioms_on_random_series():
    rng = random.Random(424242)
    for _ in range(30):
        prec = rng.randint(1, 64)
        a, b, c = (rand_series(rng, prec) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * Series.one(prec) == a
        assert a + Series.zero(prec) == a


def test_operations_are_prefix_stable():
    rng = random.Random(31415)
    for _ in range(10):
        a80, b80 = rand_series(rng, 80), rand_series(rng, 80)
        u80 = rand_unit_series(rng, 80)
        a40, b40, u40 = a80.truncate(40), b80.truncate(40), u80.truncate(40)
        assert (a80 * b80).truncate(40) == a40 * b40
        assert u80.inverse().truncate(40) == u40.inverse()
        assert (a80**3).truncate(40) == a40**3


def test_repr():
    # a short series reads back as itself; a long one names its length and
    # cannot be read as a constructor call
    short = Series([1, -1] + [0] * 14)
    assert eval(repr(short), {"Series": Series}) == short
    long = Series([1, -1] + [0] * 30)
    assert repr(long) == "<Series of 32 terms: 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ...>"
    assert "prec=" not in repr(long)
    assert str(long) == repr(long)
