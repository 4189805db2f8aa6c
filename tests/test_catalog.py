"""Named series registry: recipes, aliases, cache behavior, frozen values."""

import math
import re
import threading

import pytest

import oracle
import qser
from qser import catalog, checks, products, series
from qser.products import ProductSpec, expand_product
from qser.series import Series

# brute-force reference prefixes, frozen from tests/oracle.py
D_PREFIX = [1, -1, 1, 0, -1, 1, -1, 1, 0, -1, 2, -3, 2, 0, -2,
            4, -4, 3, -1, -3, 6, -7, 5, 0, -5, 9, -10, 7, -1, -7]
C_PREFIX = [1, 1, 0, -1, 0, 1, 1, -1, -2, 0, 2, 2, -1, -3, -1,
            3, 3, -2, -5, -1, 6, 5, -3, -8, -2, 8, 7, -5, -12, -2]
A_PREFIX = [1, 5, 10, 5, -15, -24, 15, 70, 30, -125, -175,
            95, 420, 180, -615, -826, 410, 1760, 705, -2415, -3100]
B_PREFIX = [1, -5, 15, -30, 40, -26, -30, 125, -220, 245, -124]
CC_PREFIX = [1, -5, 15, -30, 40, -25, -35, 140, -250, 285, -150,
             -210, 740, -1230, 1330, -675]
DD_PREFIX = [1, 5, 10, 5, -15, -25, 10]
G_PREFIX = [1, 1, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 9]
H_PREFIX = [1, 0, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 6]

# tiny sizes; both sides of 32 and 64 and the size 224, where the engine once
# switched between inverse and multiply paths (it has one of each now); 1000;
# and sizes not divisible by 5 for the q**5 series
SIZES = (1, 2, 31, 32, 33, 64, 65, 224, 1000)

# product forms of R, G, H and the Euler-product ratios, independent of the
# catalog recipes: expand_product multiplies and divides a plain list by
# (1 - q**t) and calls neither theta nor Series arithmetic
# (test_product_forms_share_no_engine_code)
PRODUCT_FORMS = {
    "R": ProductSpec(((1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1))),
    "G": ProductSpec(((1, 5, -1), (4, 5, -1))),
    "H": ProductSpec(((2, 5, -1), (3, 5, -1))),
    "Fratio15": ProductSpec(((1, 1, 6), (5, 5, -6))),
    "Fratio51": ProductSpec(((5, 5, 6), (1, 1, -6))),
}

# f25**6/f5**6, the base of the genfun checks, which read it as Fratio51(q**5)
GENFUN_BASE = ProductSpec(((25, 25, 6), (5, 5, -6)))


@pytest.fixture(autouse=True)
def fresh_cache():
    catalog.clear_cache()
    yield


def test_every_name_builds():
    for name in catalog.NAMES:
        s = catalog.build(name, 25)
        assert s.prec == 25
        assert s[0] == 1, name


@pytest.mark.parametrize(
    "name,prefix",
    [
        ("d", D_PREFIX),
        ("c", C_PREFIX),
        ("A", A_PREFIX),
        ("B", B_PREFIX),
        ("C", CC_PREFIX),
        ("D", DD_PREFIX),
        ("G", G_PREFIX),
        ("H", H_PREFIX),
    ],
)
def test_frozen_prefixes(name, prefix):
    assert list(catalog.build(name, len(prefix))) == prefix


@pytest.mark.parametrize("alias,canonical", sorted(catalog.ALIASES.items()))
def test_aliases_build_the_same_series(alias, canonical):
    assert catalog.build(alias, 30) == catalog.build(canonical, 30)


def test_families_match_oracle():
    assert list(catalog.build("d", 30)) == oracle.rr_d(30)
    assert list(catalog.build("c", 30)) == oracle.rr_c(30)
    assert list(catalog.build("A", 21)) == oracle.rr_A(21)
    assert list(catalog.build("B", 11)) == oracle.rr_B(11)
    assert list(catalog.build("C", 16)) == oracle.rr_C(16)
    assert list(catalog.build("D", 7)) == oracle.rr_D(7)


def test_sum_forms_equal_product_forms():
    # the Rogers-Ramanujan identities: the oracle's sums, the sum-form names
    # and the theta recipes of G and H agree
    for linear, name in ((0, "G"), (1, "H")):
        want = oracle.rr_sum(linear, 200)
        assert list(catalog.build(name + "_sum", 200)) == want, name
        assert list(catalog.build(name, 200)) == want, name


def test_sum_form_small_prefixes():
    for linear, name, want in ((0, "G", [1]), (1, "H", [1, 0])):
        n = len(want)
        assert oracle.rr_sum(linear, n) == want, name
        assert list(catalog.build(name + "_sum", n)) == want, name
        assert list(catalog.build(name, n)) == want, name


@pytest.mark.parametrize("a,b", [("R", "Rinv"), ("R5", "R5inv"), ("Cratio", "Dratio")])
def test_inverse_pairs_multiply_to_one(a, b):
    assert catalog.build(a, 150) * catalog.build(b, 150) == Series.one(150)


def test_fifth_powers():
    for n in SIZES:
        r = catalog.build("R", n)
        assert catalog.build("R5", n) == r**5, n
        assert catalog.build("R5inv", n) == (r**5).inverse(), n


def test_rq5_is_r_with_spread_support():
    rq5 = catalog.build("Rq5", 101)
    assert all(v == 0 for i, v in enumerate(rq5) if i % 5)
    assert rq5.dissect(5, 0) == catalog.build("R", 21)


def test_r_equals_its_four_factor_product_form():
    # and G, H, Fratio15, Fratio51 and Fratio51(q**5) against theirs
    for n in SIZES:
        for name, spec in PRODUCT_FORMS.items():
            assert catalog.build(name, n) == expand_product(spec, n), (name, n)
        assert catalog.at_q5("Fratio51", n) == expand_product(GENFUN_BASE, n), n


def test_every_recipe_divides_by_a_theta_series(monkeypatch):
    # the division recurrence sums over the divisor's nonzero terms, so a
    # dense divisor would cost O(n**2); theta(a, m) and euler_f(k) have at
    # most 2 * isqrt(2 * prec) + 2 nonzero terms below q**prec.  It adds up
    # the terms of each value before it multiplies, and every divisor has at
    # most two values
    prec = 1000
    real_inverse = Series.inverse
    inverted = []

    def spy(self):
        inverted.append((sum(1 for v in self if v), len(set(self) - {0})))
        return real_inverse(self)

    monkeypatch.setattr(Series, "inverse", spy)
    for name in catalog._RECIPES:
        catalog.clear_cache()
        inverted.clear()
        catalog.build(name, prec)
        for terms, values in inverted:
            assert terms <= 2 * math.isqrt(2 * prec) + 2, (name, inverted)
            assert values <= 2, (name, inverted)


def test_product_forms_share_no_engine_code(monkeypatch):
    def engine(*args):
        raise AssertionError("a product form reached the engine")

    for attr in ("__mul__", "__pow__", "__truediv__", "inverse"):
        monkeypatch.setattr(Series, attr, engine)
    monkeypatch.setattr(products, "theta", engine)
    monkeypatch.setattr(products, "euler_f", engine)
    for spec in (*PRODUCT_FORMS.values(), GENFUN_BASE):
        want = oracle.product(spec.factors, 64)
        for n in range(65):
            assert list(expand_product(spec, n)) == want[:n], (spec, n)


def test_r_is_h_over_g():
    for n in SIZES:
        assert catalog.build("R", n) == catalog.build("H", n) / catalog.build("G", n), n


def test_cratio_times_rq5_recovers_r5():
    # and Dratio against the quotient Rq5 / R5
    for n in SIZES:
        rq5, r5 = catalog.build("Rq5", n), catalog.build("R5", n)
        assert catalog.build("Cratio", n) * rq5 == r5, n
        assert catalog.build("Dratio", n) == rq5 / r5, n


def test_coefficient_values():
    assert catalog.coefficient("C", 0) == 1
    assert catalog.coefficient("D", 0) == 1
    assert catalog.coefficient("B", 5) == -26
    assert catalog.coefficient("c", 9) == 0
    assert catalog.coefficient("d", 23) == 0
    assert catalog.coefficient("A", 0) == 1
    assert catalog.coefficient("A", 10) == -175
    assert catalog.coefficient("D", 1) == 5


def test_coefficient_grows_cache_geometrically():
    catalog.coefficient("d", 0)
    with catalog._cache_lock:
        first = catalog._cache["R"].prec  # "d" is an alias of "R"
    assert first >= 64
    catalog.coefficient("d", first)  # one past the cache forces a regrow
    with catalog._cache_lock:
        second = catalog._cache["R"].prec
    assert second >= 2 * first
    assert catalog.coefficient("d", 500) == catalog.build("d", 501)[500]


def test_coefficient_validation():
    with pytest.raises(ValueError):
        catalog.coefficient("d", -1)
    with pytest.raises(ValueError):
        catalog.coefficient("nope", 3)


def test_build_validation():
    with pytest.raises(ValueError):
        catalog.build("nope", 5)
    with pytest.raises(ValueError):
        catalog.build("R", -1)
    assert catalog.build("R", 0).prec == 0


def _refuse_to_compute(key, prec):
    raise AssertionError(f"computed {key} at {prec}")


def test_sizes_must_be_exact_ints(monkeypatch):
    # checked before any work, so a bool or a float never reaches a recipe;
    # every scan and verifier builds through build
    monkeypatch.setattr(catalog, "_compute", _refuse_to_compute)
    for bad in (True, False, 2.0, 2.5, "3", None):
        with pytest.raises(TypeError, match=rf"^precision must be an exact int, got {re.escape(repr(bad))}$"):
            catalog.build("R", bad)
        with pytest.raises(
            TypeError, match=rf"^coefficient index must be an exact int, got {re.escape(repr(bad))}$"
        ):
            catalog.coefficient("A", bad)
    with pytest.raises(TypeError, match=r"^n_max must be an exact int, got 2\.5$"):
        checks.scan_signs("c", checks.RICHMOND_C, 2.5)
    with pytest.raises(TypeError, match=r"^order must be an exact int, got 2\.5$"):
        checks.verify_identity_B20(2.5)


_S = Series([1, 2, 3])

# every size, index and count argument: (call with the argument, its name in
# the message, its floor or None); all go through series.exact_int
EXACT_INT_ARGS = [
    (lambda v: catalog.build("R", v), "precision", 0),
    (lambda v: catalog.coefficient("A", v), "coefficient index", 0),
    (Series.zero, "precision", 0),
    (lambda v: Series.monomial(1, v, 3), "exponent", 0),
    (lambda v: Series.monomial(1, 0, v), "precision", 0),
    (lambda v: _S ** v, "exponent", 0),
    (_S.shift, "shift", 0),
    (_S.substitute_qm, "substitution power", 1),
    (lambda v: _S.dissect(v, 0), "dissection modulus", 1),
    (lambda v: products.theta(1, 5, v), "precision", 0),
    (lambda v: expand_product(ProductSpec(), v), "precision", 0),
    (lambda v: products.euler_f(v, 3), "k", 1),
    (lambda v: ProductSpec(((v, 5, 1),)), "factor offset", 1),
    (lambda v: ProductSpec(((1, v, 1),)), "factor modulus", 1),
    (lambda v: checks.SignPattern(v, {}), "modulus", 1),
    (lambda v: checks.SignPattern(5, {}, {v: 0}), "exception index", 0),
    (checks.verify_identity_B20, "order", 1),
    (checks.verify_identity_R5, "order", 1),
    (lambda v: checks.verify_genfun("A_full", v), "order", 1),
    (lambda v: checks.verify_dissection("A0", v), "order", 1),
    (lambda v: checks.scan_signs("c", checks.RICHMOND_C, v), "n_max", 0),
    (checks.check_conjecture13, "n_max", 0),
    (checks.scan_asymptotic, "n_max", 0),
    # type only; a range check with its own message may follow
    (lambda v: Series([1, v]), "coefficient", None),
    (lambda v: Series.monomial(v, 0, 3), "coefficient", None),
    (_S.scale, "scale factor", None),
    (_S.truncate, "precision", None),
    (lambda v: _S.dissect(5, v), "residue", None),
    (lambda v: products.theta(v, 5, 3), "a", None),
    (lambda v: products.theta(1, v, 3), "m", None),
    (lambda v: ProductSpec(((1, 5, v),)), "factor exponent", None),
    (lambda v: checks.SignPattern(5, {v: checks.Sign.POS}), "residue", None),
    (lambda v: checks.SignPattern(5, {}, {2: v}), "exception value at index 2", None),
]


@pytest.mark.parametrize(
    "call, what, least", EXACT_INT_ARGS, ids=[f"{i}-{w}" for i, (_, w, _) in enumerate(EXACT_INT_ARGS)]
)
def test_every_size_index_and_count_is_an_exact_int(monkeypatch, call, what, least):
    # a bool is refused like a float, a str or None, before any build: True
    # once ran a scan as n_max = 1 and reported order_checked=True
    monkeypatch.setattr(catalog, "_compute", _refuse_to_compute)
    for bad in (True, 2.5, "3", None):
        with pytest.raises(TypeError) as exc:
            call(bad)
        assert str(exc.value) == f"{what} must be an exact int, got {bad!r}"
    if least is not None:
        with pytest.raises(ValueError) as exc:
            call(least - 1)
        assert str(exc.value) == f"{what} must be >= {least}, got {least - 1}"


def test_precision_ceiling_fails_before_computing(monkeypatch):
    monkeypatch.setattr(catalog, "_compute", _refuse_to_compute)
    with pytest.raises(catalog.PrecisionTooLarge, match=str(catalog.MAX_PREC + 1)):
        catalog.build("R", catalog.MAX_PREC + 1)
    with pytest.raises(catalog.PrecisionTooLarge):
        catalog.build("A", 10**8)
    with pytest.raises(catalog.PrecisionTooLarge):
        catalog.coefficient("A", catalog.MAX_PREC)


def test_coefficient_growth_stops_at_the_ceiling(monkeypatch):
    # zero series stand in for the real ones, in a cache of this test's own
    built = []

    def record(key, prec):
        built.append(prec)
        return Series.zero(prec)

    monkeypatch.setattr(catalog, "_compute", record)
    monkeypatch.setattr(catalog, "_cache", {})
    half = catalog.MAX_PREC // 2
    catalog.coefficient("d", half)
    catalog.coefficient("d", half + 1)  # doubling would pass the ceiling
    assert catalog.coefficient("d", catalog.MAX_PREC - 1) == 0
    assert built == [half + 1, catalog.MAX_PREC]


def test_rebuild_preserves_prefix():
    for name in catalog.NAMES:
        small = catalog.build(name, 30)
        assert catalog.build(name, 90).truncate(30) == small, name


def test_cache_returns_truncations_of_one_build():
    big = catalog.build("Cratio", 200)
    assert catalog.build("Cratio", 50) == big.truncate(50)


def test_concurrent_builds_agree():
    results = {}

    def worker(tag, name, prec):
        results[tag] = catalog.build(name, prec)

    threads = [
        threading.Thread(target=worker, args=(i, name, 120))
        for i, name in enumerate(["A", "A", "B", "B", "Cratio", "Dratio", "R", "Rinv"])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == results[1]
    assert results[2] == results[3]
    assert results[0] == catalog.build("A", 120)
    assert results[4] * results[5] == Series.one(120)


def test_precision_too_large_is_the_only_exception_class():
    # the CLI turns PrecisionTooLarge into exit 2; every other misuse raises
    # ValueError, or TypeError for a coefficient or a size that is not an int
    exported = [getattr(qser, name) for name in qser.__all__]
    errors = [v for v in exported if isinstance(v, type) and issubclass(v, BaseException)]
    assert errors == [catalog.PrecisionTooLarge]
    assert series.__all__ == ["Series"]


def test_smaller_build_never_shrinks_the_cache(monkeypatch):
    # R at 200 is built while the outer build at 50 is still computing, as a
    # concurrent caller's build would be; the outer result must not replace
    # the larger entry
    real = catalog._compute

    def compute(key, prec):
        if (key, prec) == ("R", 50):
            catalog.build("R", 200)
        return real(key, prec)

    monkeypatch.setattr(catalog, "_compute", compute)
    assert catalog.build("R", 50) == real("R", 50)
    monkeypatch.setattr(catalog, "_compute", _refuse_to_compute)
    assert catalog.build("R", 200) == real("R", 200)


def test_cached_coefficient_reads_compute_nothing(monkeypatch):
    want = catalog.coefficient("A", 100)
    monkeypatch.setattr(catalog, "_compute", _refuse_to_compute)
    assert catalog.coefficient("A", 100) == want
    assert catalog.coefficient("A", 0) == 1
    assert catalog.coefficient("A", 7) == A_PREFIX[7]
