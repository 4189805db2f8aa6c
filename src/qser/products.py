"""Truncated expansions of q-Pochhammer infinite products.

Building blocks:

* ``theta(a, m, prec)``: (q**a; q**m)_inf (q**(m-a); q**m)_inf (q**m; q**m)_inf
  for 0 < a < m, as the sparse sum given by the Jacobi triple product.
* ``euler_f(k, prec)``: (q**k; q**k)_inf = theta(k, 3k, prec), Euler's
  pentagonal number theorem.
* ``expand_product(spec, prec)``: a product of factors (q**a; q**m)_inf with
  integer exponents, e.g. f5**6 / f1**6, multiplied into a dense list of ints
  one (1 - q**t) at a time; ``pochhammer_inf(a, m, prec)`` is one factor.
  It uses no theta series and no Series arithmetic, so the tests hold the
  theta recipes of ``catalog`` against it as an independent product form.

Offsets a >= 1 guarantee constant term 1, so negative exponents stay in the
integers.
"""

from __future__ import annotations

from collections import namedtuple

from .series import Series, exact_int

__all__ = ["ProductSpec", "pochhammer_inf", "theta", "euler_f", "expand_product"]


class ProductSpec(namedtuple("ProductSpec", "factors")):
    """A formal product of factors (q**a; q**m)_inf ** e.

    ``factors`` is a sequence of (a, m, e) triples with a >= 1, m >= 1 and
    e a nonzero integer.  The empty product is the constant series 1.
    """

    __slots__ = ()
    # _replace calls _make, whose tuple.__new__ would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, factors=()):
        factors = tuple(tuple(f) for f in factors)
        for a, m, e in factors:
            exact_int(a, "factor offset", 1)
            exact_int(m, "factor modulus", 1)
            if exact_int(e, "factor exponent") == 0:
                raise ValueError("factor exponent must be nonzero")
        return super().__new__(cls, factors)


def theta(a: int, m: int, prec: int) -> Series:
    """Sum of (-1)**j q**(m*j*(j-1)/2 + a*j) over all integers j, for 0 < a < m.

    By the Jacobi triple product this equals the expanded product
    (q**a; q**m)_inf (q**(m-a); q**m)_inf (q**m; q**m)_inf, with only
    O(sqrt(prec/m)) nonzero terms.  The exponents grow with |j| on both
    sides of j = 0, and they coincide in pairs when m = 2a, hence ``+=``.
    """
    exact_int(m, "m")
    if not 0 < exact_int(a, "a") < m:
        raise ValueError(f"need 0 < a < m, got a={a}, m={m}")
    coeffs = [0] * exact_int(prec, "precision", 0)
    for j, step in ((0, 1), (-1, -1)):
        while (e := m * j * (j - 1) // 2 + a * j) < prec:
            coeffs[e] += -1 if j & 1 else 1
            j += step
    return Series(coeffs)


def euler_f(k: int, prec: int) -> Series:
    """(q**k; q**k)_inf, the same value as pochhammer_inf(k, k, prec).

    Euler's pentagonal number theorem is the triple product with a = k, m = 3k:
    (q**k; q**3k)(q**2k; q**3k)(q**3k; q**3k) = (q**k; q**k).
    """
    return theta(exact_int(k, "k", 1), 3 * k, prec)


def expand_product(spec: ProductSpec, prec: int) -> Series:
    """Expand a ProductSpec to the given precision.

    A dense list of ints, starting at 1, is multiplied in place |e| times by
    (1 - q**t), or divided when e < 0, for each factor (a, m, e) and each
    t = a + k*m < prec.  No theta series and no Series arithmetic is used.
    """
    c = [1 if k == 0 else 0 for k in range(exact_int(prec, "precision", 0))]
    for a, m, e in spec.factors:
        for t in range(a, prec, m):
            for _ in range(abs(e)):
                if e > 0:
                    # c_k -= c_(k-t); the right side is built from old values
                    c[t:] = [x - y for x, y in zip(c[t:], c)]
                else:
                    # c_k += c_(k-t) for ascending k reads new values, so
                    # one slice of t terms at a time, the last one partial
                    for k in range(t, prec, t):
                        c[k:k + t] = [x + y for x, y in zip(c[k:k + t], c[k - t:k])]
    return Series(c)


def pochhammer_inf(a: int, m: int, prec: int) -> Series:
    """Expansion of prod_{k>=0} (1 - q**(a + k*m)) to the given precision.

    Only the finitely many factors with a + k*m < prec contribute.
    """
    return expand_product(ProductSpec(((a, m, 1),)), prec)
