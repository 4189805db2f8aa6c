"""q-Pochhammer product expansion: factor handling and the pentagonal path."""

import random

import pytest

import oracle
from qser.products import ProductSpec, euler_f, expand_product, pochhammer_inf, theta
from qser.series import Series

R_FACTORS = ((1, 5, 1), (4, 5, 1), (2, 5, -1), (3, 5, -1))


def test_pentagonal_prefix():
    assert list(euler_f(1, 8)) == [1, -1, -1, 0, 0, 1, 0, 1]


def test_pochhammer_truncates_unused_factors():
    # below q^5 only the k=0 factor (1 - q) of (q; q^5) matters
    assert list(pochhammer_inf(1, 5, 3)) == [1, -1, 0]


def test_zero_precision():
    assert pochhammer_inf(1, 5, 0).prec == 0
    assert euler_f(1, 0).prec == 0
    assert theta(1, 5, 0).prec == 0
    assert expand_product(ProductSpec(R_FACTORS), 0).prec == 0


def test_precision_one_is_constant_term():
    assert list(pochhammer_inf(3, 7, 1)) == [1]
    assert list(euler_f(4, 1)) == [1]
    assert list(theta(2, 5, 1)) == [1]


@pytest.mark.parametrize("k", [1, 2, 5, 25])
def test_pentagonal_path_equals_naive_product(k):
    assert euler_f(k, 300) == pochhammer_inf(k, k, 300)


def test_pentagonal_path_equals_naive_product_deep():
    assert euler_f(1, 1200) == pochhammer_inf(1, 1, 1200)


def test_pochhammer_against_oracle():
    rng = random.Random(88)
    for _ in range(20):
        a = rng.randint(1, 6)
        m = rng.randint(1, 6)
        assert list(pochhammer_inf(a, m, 30)) == oracle.poch(a, m, 30)
    # theta is the Jacobi triple product of three Pochhammer factors; with
    # m = 2a, as in (1, 2), the terms j and -j share an exponent
    for a, m in ((1, 5), (2, 5), (5, 15), (1, 3), (2, 7), (1, 2)):
        for n in range(61):
            triple = oracle.mul(oracle.mul(oracle.poch(a, m, n), oracle.poch(m - a, m, n), n),
                                oracle.poch(m, m, n), n)
            assert list(theta(a, m, n)) == triple, (a, m, n)


def test_euler_f5_support_is_multiples_of_five():
    f5 = euler_f(5, 120)
    assert any(f5)
    assert all(v == 0 for i, v in enumerate(f5) if i % 5)


def test_known_ratio_prefixes():
    ratio51 = expand_product(ProductSpec(((5, 5, 6), (1, 1, -6))), 8)
    assert list(ratio51) == [1, 6, 27, 98, 315, 912, 2456, 6210]
    ratio15 = expand_product(ProductSpec(((1, 1, 6), (5, 5, -6))), 8)
    assert list(ratio15) == [1, -6, 9, 10, -30, 6, -25, 96]


def test_four_factor_ratio_prefix():
    assert list(expand_product(ProductSpec(R_FACTORS), 4)) == [1, -1, 1, 0]


def test_empty_product_is_one():
    assert expand_product(ProductSpec(), 5) == Series.one(5)


def test_constant_term_is_always_one():
    rng = random.Random(17)
    for _ in range(15):
        factors = tuple(
            (rng.randint(1, 5), rng.randint(1, 5), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(1, 4))
        )
        assert expand_product(ProductSpec(factors), 12)[0] == 1


def test_exponents_add():
    one_factor = expand_product(ProductSpec(((2, 3, 2),)), 40)
    squared = expand_product(ProductSpec(((2, 3, 1),)), 40) ** 2
    assert one_factor == squared
    split = expand_product(ProductSpec(((2, 3, 1), (2, 3, 1))), 40)
    assert split == one_factor


def test_inverse_factor_cancels():
    both = expand_product(ProductSpec(((1, 2, 3), (1, 2, -3))), 50)
    assert both == Series.one(50)


def test_ratio_against_oracle():
    assert list(expand_product(ProductSpec(((5, 5, 6), (1, 1, -6))), 20)) == oracle.f_ratio(
        5, 1, 6, 20
    )
    # random specs at every size up to 40: factors (1 - q**t) with t = 1, with
    # t past n/2 (a partial last slice when dividing) and n = 0; a truncated
    # oracle product is a prefix of the longer one
    rng = random.Random(40)
    for _ in range(40):
        factors = tuple(
            (rng.randint(1, 6), rng.randint(1, 6), rng.choice((-3, -2, -1, 1, 2, 3)))
            for _ in range(rng.randint(1, 3))
        )
        want = oracle.product(factors, 40)
        for n in range(41):
            assert list(expand_product(ProductSpec(factors), n)) == want[:n], (factors, n)


def test_spec_validation():
    with pytest.raises(ValueError):
        ProductSpec(((0, 5, 1),))
    with pytest.raises(ValueError):
        ProductSpec(((1, 0, 1),))
    with pytest.raises(ValueError):
        ProductSpec(((1, 5, 0),))
    with pytest.raises(ValueError):
        pochhammer_inf(0, 5, 10)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 0, 10)
    with pytest.raises(ValueError):
        pochhammer_inf(1, 1, -1)
    with pytest.raises(ValueError):
        euler_f(0, 10)
    for a, m in ((0, 5), (-1, 5), (5, 5), (6, 5)):
        with pytest.raises(ValueError):
            theta(a, m, 10)
    with pytest.raises(ValueError):
        theta(1, 5, -1)
    with pytest.raises(ValueError):
        expand_product(ProductSpec(), -1)


def test_spec_accepts_any_sequence_of_triples():
    spec = ProductSpec([[1, 5, 1], (4, 5, 1)])
    assert spec.factors == ((1, 5, 1), (4, 5, 1))
