"""Registry of named series, one canonical recipe each.

Every series the package knows by name lives here, with its recipe in
``_RECIPES``.  With T(a, m) = theta(a, m), the sparse Jacobi triple
product (q**a;q**m)(q**(m-a);q**m)(q**m;q**m), and f_k = euler_f(k) =
T(k, 3k):

* ``G = T(5,15)/T(1,5)`` and ``H = T(5,15)/T(2,5)``, the two
  sum-equals-product series 1/((q;q5)(q4;q5)) and 1/((q2;q5)(q3;q5)).
* ``R = T(1,5)/T(2,5)``, which is H/G, and its inverse
  ``Rinv = T(2,5)/T(1,5)``.
* ``G_sum``, ``H_sum``: the sum sides of the Rogers-Ramanujan identities,
  sum of q**(n*n) / (q;q)_n (resp. q**(n*n+n)), built as G and H; the
  tests hold the sums from ``tests/oracle.py`` against them.
* Fifth powers ``R5 = R**5``, ``R5inv = Rinv**5``; ``Rq5 = R(q**5)``; the
  ratios ``Cratio = R5 * Rinv(q**5)`` and ``Dratio = Rq5 * R5inv``; the
  Euler-product ratios ``Fratio15 = (f1/f5)**6`` and
  ``Fratio51 = (f5/f1)**6``.
* Single-letter aliases for the coefficient families: ``A`` (R5inv),
  ``B`` (R5), ``C`` (Cratio), ``D`` (Dratio), ``c`` (Rinv), ``d`` (R).

Every division is by one sparse theta series: T(1,5) or T(2,5) in the
four theta quotients, f5 or f1 in the two Euler-product ratios, so each
costs O(n) per nonzero divisor term.  The dense product expansions of
``products`` (``expand_product``, ``pochhammer_inf``) build none of these
and use no theta series and no Series arithmetic; the tests compare the
recipes against them.

Builds are cached per canonical name at the largest precision seen, with
shorter requests answered by truncation, so every earlier coefficient is
stable under rebuilding at higher precision.  No build goes past MAX_PREC
coefficients.
"""

from __future__ import annotations

import threading

from .products import euler_f, theta
from .products import expand_product  # noqa: F401 -- bench/spans.py wraps this binding by name
from .series import Series, exact_int

__all__ = [
    "NAMES",
    "ALIASES",
    "MAX_PREC",
    "PrecisionTooLarge",
    "build",
    "coefficient",
    "clear_cache",
]

ALIASES = {
    "A": "R5inv",
    "B": "R5",
    "C": "Cratio",
    "D": "Dratio",
    "c": "Rinv",
    "d": "R",
}

# The precision ceiling: four times the deepest scans (n = 25,000, or
# conjecture13 to n_max = 5,000 at 5*n_max + 2).  Single cold builds in a
# fresh process took 1.58 s and 45.0 MiB for A at 25,002, and for Fratio51
# 1.87 s and 50.0 MiB at 20,000 and 26.7 s and 436 MiB at 100,000 (2-vCPU
# Xeon, CPython 3.11.7, libmpdec 2.5.1), so 10**8 would never finish.
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


def at_q5(name: str, prec: int) -> Series:
    """The named series with q replaced by q**5, truncated to prec."""
    return build(name, -(-prec // 5)).substitute_qm(5).truncate(prec)


# canonical name -> recipe of prec; recipes reach `build` through this
# module's global at call time
_RECIPES = {
    "G": lambda p: theta(5, 15, p) / theta(1, 5, p),
    "H": lambda p: theta(5, 15, p) / theta(2, 5, p),
    "G_sum": lambda p: build("G", p),
    "H_sum": lambda p: build("H", p),
    "R": lambda p: theta(1, 5, p) / theta(2, 5, p),
    "Rinv": lambda p: theta(2, 5, p) / theta(1, 5, p),
    "R5": lambda p: build("R", p) ** 5,
    "R5inv": lambda p: build("Rinv", p) ** 5,
    "Rq5": lambda p: at_q5("R", p),
    "Cratio": lambda p: build("R5", p) * at_q5("Rinv", p),
    "Dratio": lambda p: build("Rq5", p) * build("R5inv", p),
    "Fratio15": lambda p: (euler_f(1, p) / euler_f(5, p)) ** 6,
    "Fratio51": lambda p: (euler_f(5, p) / euler_f(1, p)) ** 6,
}

NAMES = (*_RECIPES, *ALIASES)


def _compute(key: str, prec: int) -> Series:
    return _RECIPES[key](prec)


def build(name: str, prec: int) -> Series:
    """The named series truncated to prec, from the largest-prec cache.

    Concurrent builds of the same name may race, but every recipe is
    deterministic, so a lost update only recomputes identical values.
    """
    key = _canonical(name)
    if exact_int(prec, "precision", 0) > MAX_PREC:
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
    exact_int(n, "coefficient index", 0)
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None and hit.prec > n:
        return hit.coeffs[n]
    target = max(n + 1, min(MAX_PREC, max(64, 2 * (hit.prec if hit is not None else 0))))
    return build(key, target).coeffs[n]
