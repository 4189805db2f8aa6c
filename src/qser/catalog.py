"""Registry of named series built from q-Pochhammer products.

Every series the package knows by name lives here, each with a single
canonical recipe.  With T(a, m) = theta(a, m), the sparse Jacobi triple
product (q**a;q**m)(q**(m-a);q**m)(q**m;q**m):

* ``G = T(5,15)/T(1,5)`` and ``H = T(5,15)/T(2,5)``, the two
  sum-equals-product series 1/((q;q5)(q4;q5)) and 1/((q2;q5)(q3;q5)).
* ``R = T(1,5)/T(2,5)``, which is H/G, and its inverse
  ``Rinv = T(2,5)/T(1,5)``.
* ``G_sum``, ``H_sum``: G and H via partial sums of q**(n*n) / (q;q)_n
  (resp. q**(n*n+n)); kept as an independent cross-check of the theta
  recipes.
* Fifth powers ``R5 = R**5``, ``R5inv = Rinv**5``; ``Rq5 = R(q**5)``; the
  ratios ``Cratio = R5 * Rinv(q**5)`` and ``Dratio = Rq5 * R5inv``; the
  Euler-product ratios ``Fratio15 = f1**6/f5**6`` and
  ``Fratio51 = f5**6/f1**6``.
* Single-letter aliases for the coefficient families: ``A`` (R5inv),
  ``B`` (R5), ``C`` (Cratio), ``D`` (Dratio), ``c`` (Rinv), ``d`` (R).

Recipes divide only in the four theta quotients and in the sum forms.

Builds are cached per canonical name at the largest precision seen, with
shorter requests answered by truncation, so every earlier coefficient is
stable under rebuilding at higher precision.  No build goes past MAX_PREC
coefficients.
"""

from __future__ import annotations

import threading

from .products import ProductSpec, expand_product, theta
from .series import Series

__all__ = [
    "NAMES",
    "ALIASES",
    "MAX_PREC",
    "PrecisionTooLarge",
    "build",
    "coefficient",
    "clear_cache",
]

NAMES = (
    "G",
    "H",
    "G_sum",
    "H_sum",
    "R",
    "Rinv",
    "R5",
    "R5inv",
    "Rq5",
    "Cratio",
    "Dratio",
    "Fratio15",
    "Fratio51",
    "A",
    "B",
    "C",
    "D",
    "c",
    "d",
)

ALIASES = {
    "A": "R5inv",
    "B": "R5",
    "C": "Cratio",
    "D": "Dratio",
    "c": "Rinv",
    "d": "R",
}

# numerator and denominator (a, m) of theta(a, m, prec)
_THETA_QUOTIENTS = {
    "G": ((5, 15), (1, 5)),
    "H": ((5, 15), (2, 5)),
    "R": ((1, 5), (2, 5)),
    "Rinv": ((2, 5), (1, 5)),
}

_PRODUCT_SPECS = {
    "Fratio15": ProductSpec(((1, 1, 6), (5, 5, -6))),
    "Fratio51": ProductSpec(((5, 5, 6), (1, 1, -6))),
}

# The precision ceiling: four times the deepest scans (n = 25,000, or
# conjecture13 to n_max = 5,000 at 5*n_max + 2).  A cold build of A took
# 32 s and 57 MB at 25,001 and 183 s and 133 MB at 50,001 (CPython 3.11,
# 2-vCPU Xeon); cost grows faster than n**2, so 10**8 would never finish.
MAX_PREC = 100_000


class PrecisionTooLarge(ValueError):
    """A build asked for more than MAX_PREC coefficients."""


_cache: dict[str, Series] = {}
_cache_lock = threading.Lock()


def clear_cache() -> None:
    """Drop all cached builds (mainly for timing runs in tests)."""
    with _cache_lock:
        _cache.clear()


def _canonical(name: str) -> str:
    if name not in NAMES:
        raise ValueError(f"unknown series name {name!r}")
    return ALIASES.get(name, name)


def _sum_form(name: str, prec: int) -> Series:
    # partial sum of q**e(n) / (q;q)_n with e = n*n (G) or n*n + n (H);
    # terms with e >= prec vanish below the truncation order.  `recip` holds
    # 1/(q;q)_n, extended to n + 1 by dividing once more by (1 - q**(n+1)).
    total = Series.zero(prec)
    recip = [1] + [0] * (prec - 1)
    n = 0
    while (e := n * n + (n if name == "H_sum" else 0)) < prec:
        total = total + Series(recip[:prec - e]).shift(e)
        n += 1
        for k in range(n, prec):
            recip[k] += recip[k - n]
    return total


def _at_q5(name: str, prec: int) -> Series:
    # the named series with q replaced by q**5
    return build(name, -(-prec // 5)).substitute_qm(5).truncate(prec)


def _compute(key: str, prec: int) -> Series:
    if key in _THETA_QUOTIENTS:
        num, den = _THETA_QUOTIENTS[key]
        return theta(*num, prec) / theta(*den, prec)
    if key in _PRODUCT_SPECS:
        return expand_product(_PRODUCT_SPECS[key], prec)
    if key in ("G_sum", "H_sum"):
        return _sum_form(key, prec)
    if key == "R5":
        return build("R", prec) ** 5
    if key == "R5inv":
        return build("Rinv", prec) ** 5
    if key == "Rq5":
        return _at_q5("R", prec)
    if key == "Cratio":
        return build("R5", prec) * _at_q5("Rinv", prec)
    if key == "Dratio":
        return build("Rq5", prec) * build("R5inv", prec)
    raise AssertionError(f"no recipe for {key!r}")


def build(name: str, prec: int) -> Series:
    """The named series truncated to prec, from the largest-prec cache.

    Concurrent builds of the same name may race, but every recipe is
    deterministic, so a lost update only recomputes identical values.
    """
    key = _canonical(name)
    if prec < 0:
        raise ValueError(f"precision must be >= 0, got {prec}")
    if prec > MAX_PREC:
        raise PrecisionTooLarge(
            f"{name} needs {prec} coefficients, past the precision ceiling of {MAX_PREC}"
        )
    if prec == 0:
        return Series.zero(0)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is None or hit.prec < prec:
        out = _compute(key, prec)
        with _cache_lock:
            hit = _cache.get(key)
            if hit is None or hit.prec < out.prec:
                _cache[key] = out
                hit = out
    return hit.truncate(prec)


def coefficient(name: str, n: int) -> int:
    """Exact coefficient of q**n in the named series.

    Grows the cache geometrically, up to MAX_PREC, so sequential queries
    for increasing n cost amortized O(1) builds rather than one build per
    query.
    """
    key = _canonical(name)
    if n < 0:
        raise ValueError(f"coefficient index must be >= 0, got {n}")
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit.prec > n:
        return hit[n]
    target = max(n + 1, min(MAX_PREC, max(64, 2 * (hit.prec if hit is not None else 0))))
    return build(key, target)[n]
