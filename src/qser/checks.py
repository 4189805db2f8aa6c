"""Identity verification and coefficient-sign scanning.

Identity checks compare exact integer coefficients of two independently
built series; there is no tolerance anywhere. Sign scans test each
coefficient against a periodic pattern of strict signs, with finitely many
enumerated exception indices that carry exact expected values instead.

Every report lists all the violations its scan found. The conjecture 13
scan marks a broken claim FALSIFIED, with the pattern periods where it
breaks, rather than as an error in this package.

The one numeric routine, ``asymptotic_c``, evaluates a closed-form main
term in double precision; it is compared with exact coefficients only
through signs, never through equality.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from . import catalog
from .products import expand_product  # noqa: F401 -- bench/spans.py wraps this binding by name
from .series import Series, exact_int

__all__ = [
    "Sign",
    "Status",
    "Divergence",
    "Violation",
    "SignPattern",
    "Report",
    "RICHMOND_C",
    "RICHMOND_D",
    "THM2_A",
    "THM3_B",
    "THM4_C",
    "THM5_D",
    "CONJ13_A",
    "CONJ13_B",
    "CONJ13_D",
    "CONJ13_FALSIFIED_AT",
    "verify_identity_B20",
    "verify_identity_R5",
    "verify_genfun",
    "verify_dissection",
    "scan_signs",
    "check_conjecture13",
    "asymptotic_c",
    "asymptotic_range",
    "scan_asymptotic",
]

ASYMPTOTIC_N_MIN = 100
ASYMPTOTIC_MIN_AGREEMENT = 0.99


class Sign(Enum):
    POS = "pos"
    NEG = "neg"
    ZERO = "zero"


class Status(Enum):
    VERIFIED = "verified"
    VIOLATED = "violated"
    FALSIFIED = "falsified"


def _sign_of(value: int) -> Sign:
    if value > 0:
        return Sign.POS
    if value < 0:
        return Sign.NEG
    return Sign.ZERO


class Divergence(namedtuple("Divergence", "index lhs rhs")):
    """First index where two series disagree, with both exact values."""

    __slots__ = ()


class Violation(namedtuple("Violation", "index value expected")):
    """A coefficient that broke the expected sign (or exception value)."""

    __slots__ = ()


class SignPattern(namedtuple("SignPattern", "modulus expected exceptions")):
    """Periodic sign expectations by residue class, plus exact exceptions.

    ``expected`` maps residue mod ``modulus`` to a Sign; residues absent
    from the map are unconstrained. ``exceptions`` maps individual indices
    to the exact coefficient value required there, overriding the pattern.
    A zero coefficient at a non-exception index with expected POS or NEG is
    a violation: the patterns assert strict signs.
    """

    __slots__ = ()
    # _replace calls _make, whose tuple.__new__ would skip the checks in __new__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, modulus, expected, exceptions=None):
        exceptions = {} if exceptions is None else exceptions
        exact_int(modulus, "modulus", 1)
        for r, sign in expected.items():
            if not 0 <= exact_int(r, "residue") < modulus:
                raise ValueError(f"residue {r} out of range for modulus {modulus}")
            if not isinstance(sign, Sign):
                raise TypeError(f"expected sign at residue {r} must be a Sign, got {sign!r}")
        for i, value in exceptions.items():
            exact_int(i, "exception index", 0)
            exact_int(value, f"exception value at index {i}")
        return super().__new__(cls, modulus, expected, exceptions)


class Report(namedtuple("Report", "subject order_checked status first_divergence "
                        "violations falsified_at", defaults=(None, (), None))):
    """Outcome of one identity check or sign scan."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.status is not Status.VERIFIED:
            if self.first_divergence is None and not self.violations:
                raise ValueError("non-verified report needs divergence or violations")
        return self

    def ok(self) -> bool:
        return self.status is Status.VERIFIED


P, N = Sign.POS, Sign.NEG

RICHMOND_C = SignPattern(5, {0: P, 1: P, 2: N, 3: N, 4: N}, {2: 0, 4: 0, 9: 0})
RICHMOND_D = SignPattern(5, {0: P, 1: N, 2: P, 3: N, 4: N}, {3: 0, 8: 0, 13: 0, 23: 0})
THM2_A = SignPattern(5, {1: P, 2: P, 3: P, 4: N})
THM3_B = SignPattern(5, {1: N, 2: P, 3: N, 4: P})
THM4_C = SignPattern(5, {0: N, 1: N, 2: P, 3: N, 4: P}, {0: 1})
THM5_D = SignPattern(5, {0: N, 2: P, 3: P, 4: N}, {0: 1})

# the claimed-for-all-n patterns, and the paper's outcome: the periods where
# each claim breaks (n = 0 for A and B; the D claim holds)
CONJ13_A = SignPattern(5, {0: N})
CONJ13_B = SignPattern(5, {0: N})
CONJ13_D = SignPattern(5, {1: P})
CONJ13_FALSIFIED_AT = {"A": [0], "B": [0], "D": []}

del P, N

# sign-scan target -> (series scanned, pattern)
SIGN_SCANS = {
    "richmond-c": ("c", RICHMOND_C),
    "richmond-d": ("d", RICHMOND_D),
    "thm2": ("A", THM2_A),
    "thm3": ("B", THM3_B),
    "thm4": ("C", THM4_C),
    "thm5": ("D", THM5_D),
}


# -- identity checks --------------------------------------------------------


def _compare(subject: str, lhs: Series, rhs: Series, prec: int) -> Report:
    for i in range(prec):
        if lhs[i] != rhs[i]:
            return Report(
                subject,
                prec,
                Status.VIOLATED,
                first_divergence=Divergence(i, lhs[i], rhs[i]),
            )
    return Report(subject, prec, Status.VERIFIED)


def verify_identity_B20(prec: int) -> Report:
    """1/R**5 - q**2 * R**5 == 11q + f1**6/f5**6, coefficient-wise."""
    exact_int(prec, "order", 1)
    lhs = catalog.build("R5inv", prec) - catalog.build("R5", prec).shift(2)
    rhs = Series.monomial(11, 1, prec) + catalog.build("Fratio15", prec)
    return _compare("B20", lhs, rhs, prec)


def _powers_times_q(x: Series, weights) -> Series:
    # sum_k weights[k] * (q*x)**k at the precision of x, by Horner's rule
    qx = x.shift(1).truncate(x.prec)
    total = qx.scale(weights[-1])
    for w in reversed(weights[1:-1]):
        total = (total + w) * qx
    return total + weights[0]


# weights of the quartics sum_k w_k * q**k * x**k in the R5 identity
_MINUS_QUARTIC = (1, -2, 4, -3, 1)
_PLUS_QUARTIC = (1, 3, 4, 2, 1)


def verify_identity_R5(prec: int) -> Report:
    """R**5 == x * (1-2qx+4q2x2-3q3x3+q4x4) / (1+3qx+4q2x2+2q3x3+q4x4)
    with x = R(q**5), checked as R**5 * plus == x * minus."""
    exact_int(prec, "order", 1)
    x = catalog.build("Rq5", prec)
    lhs = catalog.build("R5", prec)
    gap = lhs * _powers_times_q(x, _PLUS_QUARTIC) - x * _powers_times_q(x, _MINUS_QUARTIC)
    # plus has constant term 1, so gap first differs from zero where R**5 - x*minus/plus
    # does, by the same value: lhs - gap is that quotient up to and including the index
    return _compare("R5", lhs, lhs - gap, prec)


# target -> (series checked, power p of x in the denominator, quartic weights)
_GENFUNS = {
    "A_full": ("R5inv", 5, _PLUS_QUARTIC),
    "B_full": ("R5", 3, _MINUS_QUARTIC),
    "D_full": ("Dratio", 4, _PLUS_QUARTIC),
}


def verify_genfun(which: str, prec: int) -> Report:
    """The A, B, D families against their closed product-times-quartic forms.

    Each right-hand side is f25**6/(f5**6 * x**p) * quartic(x)**2 *
    (1/x - q - q**2 * x) with x = R(q**5); p is 5, 3, 4 and the quartic has
    plus signs for A and D, minus signs for B.  f25**6/f5**6 is Fratio51(q**5)
    and 1/x is Rinv(q**5).
    """
    if which not in _GENFUNS:
        raise ValueError(f"unknown generating-function target {which!r}")
    exact_int(prec, "order", 1)
    name, power, weights = _GENFUNS[which]
    x = catalog.build("Rq5", prec)
    x_inv = catalog.at_q5("Rinv", prec)
    base = catalog.at_q5("Fratio51", prec)
    quartic = _powers_times_q(x, weights)
    tail = x_inv - Series.monomial(1, 1, prec) - x.shift(2)
    rhs = base * x_inv ** power * quartic * quartic * tail
    lhs = catalog.build(name, prec)
    return _compare(which, lhs, rhs, prec)


_DISSECTIONS = {"A0": ("R5inv", 0), "B0": ("R5", 0), "D1": ("Dratio", 1), "C0": ("Cratio", 0)}


def verify_dissection(which: str, prec: int) -> Report:
    """Arithmetic-progression slices of A, B, C, D against closed forms.

    The sliced series is built to 5*prec + 4 so every compared coefficient
    of the dissection is fully determined.
    """
    if which not in _DISSECTIONS:
        raise ValueError(f"unknown dissection target {which!r}")
    exact_int(prec, "order", 1)
    name, j = _DISSECTIONS[which]
    lhs = catalog.build(name, 5 * prec + 4).dissect(5, j)
    bracket = Series.one(prec) - catalog.build("Fratio51", prec).scale(25).shift(1)
    if which == "A0":
        rhs = catalog.build("Rinv", prec) * bracket
    elif which == "B0":
        rhs = catalog.build("R", prec) * bracket
    elif which == "C0":
        rhs = bracket
    else:
        five_a = catalog.build("R5inv", prec).scale(5) - Series.monomial(40, 1, prec)
        rhs = catalog.build("Fratio51", prec) * catalog.build("R", prec) * five_a
    return _compare(f"dissect-{which}", lhs, rhs, prec)


# verify target -> check of the order, in report order; each entry looks its
# verify_* function up on this module at call time, so a wrapper installed
# by name sees the call
VERIFY_CHECKS = {
    "B20": lambda p: verify_identity_B20(p),
    "R5": lambda p: verify_identity_R5(p),
    **{t: lambda p, t=t: verify_genfun(t, p) for t in _GENFUNS},
    **{f"dissect-{t}": lambda p, t=t: verify_dissection(t, p) for t in _DISSECTIONS},
}


# -- sign scans --------------------------------------------------------------


def scan_signs(
    name: str,
    pattern: SignPattern,
    n_max: int,
    subject: str | None = None,
) -> Report:
    """Check coefficients 0..n_max of the named series against a pattern.

    Exception indices are compared with their exact recorded values; all
    other indices must match the strict sign for their residue class. A
    failed scan comes back VIOLATED with every violation found.
    """
    exact_int(n_max, "n_max", 0)
    if subject is None:
        subject = f"scan-{name}"
    series = catalog.build(name, n_max + 1)
    violations = []
    for n in range(n_max + 1):
        value = series[n]
        if n in pattern.exceptions:
            want_value = pattern.exceptions[n]
            if value != want_value:
                violations.append(Violation(n, value, _sign_of(want_value)))
            continue
        want = pattern.expected.get(n % pattern.modulus)
        if want is not None and _sign_of(value) is not want:
            violations.append(Violation(n, value, want))
    status = Status.VIOLATED if violations else Status.VERIFIED
    return Report(subject, n_max, status, violations=tuple(violations))


def _scan_claim(name: str, pattern: SignPattern, n_max: int) -> Report:
    report = scan_signs(name, pattern, n_max, subject=f"conjecture13-{name}")
    periods = tuple(sorted({v.index // pattern.modulus for v in report.violations}))
    return report._replace(status=Status.FALSIFIED, falsified_at=periods) if periods else report


def check_conjecture13(n_max: int) -> dict[str, Report]:
    """Scan the all-n sign claims for A(5n), B(5n), D(5n+1) up to n_max.

    Returns the three reports keyed by the series scanned, in the order A,
    B, D; a broken claim is FALSIFIED at the periods (index div modulus) of
    all its violations. n_max counts pattern periods: the A and B scans
    cover coefficients up to 5*n_max, the D scan up to 5*n_max + 1.
    """
    exact_int(n_max, "n_max", 0)
    # B first builds R to 5*n_max + 1; D then needs R only to n_max + 1 (for
    # R(q**5)) and builds R5inv to 5*n_max + 2, which A reads as a prefix.
    # Any other order computes R or R5inv twice.
    b = _scan_claim("B", CONJ13_B, 5 * n_max)
    d = _scan_claim("D", CONJ13_D, 5 * n_max + 1)
    a = _scan_claim("A", CONJ13_A, 5 * n_max)
    return {"A": a, "B": b, "D": d}


# -- asymptotic cross-check --------------------------------------------------


def asymptotic_c(n: int) -> float:
    """Main term of the growth formula for c(n), in double precision:
    sqrt(2) * (5n)**(-3/4) * exp((4*pi/25)*sqrt(5n)) * cos((2*pi/5)*(n - 2/5)).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    amplitude = math.sqrt(2.0) / (5.0 * n) ** 0.75
    try:
        growth = math.exp((4.0 * math.pi / 25.0) * math.sqrt(5.0 * n))
    except OverflowError:
        growth = math.inf  # the sign is still decided by the cosine factor
    return amplitude * growth * math.cos((2.0 * math.pi / 5.0) * (n - 0.4))


def asymptotic_range(n_max: int) -> range:
    """The indices that scan_asymptotic(n_max) checks."""
    return range(ASYMPTOTIC_N_MIN, n_max + 1)


def scan_asymptotic(n_max: int) -> Report:
    """Compare sign(asymptotic_c(n)) with sign(c(n)) for each n in
    asymptotic_range(n_max).

    The cosine factor depends only on n mod 5 and is at least 0.18 in
    absolute value, so every index in the range is checked. VERIFIED means
    the agreement rate is at least ASYMPTOTIC_MIN_AGREEMENT; disagreements
    are reported as violations either way.
    """
    exact_int(n_max, "n_max", 0)
    series = catalog.build("c", n_max + 1)
    indices = asymptotic_range(n_max)
    violations = []
    for n in indices:
        exact = series[n]
        predicted = asymptotic_c(n)
        if (exact > 0) != (predicted > 0) or exact == 0:
            violations.append(Violation(n, exact, _sign_of(1 if predicted > 0 else -1)))
    agreements = len(indices) - len(violations)
    ok = not indices or agreements / len(indices) >= ASYMPTOTIC_MIN_AGREEMENT
    status = Status.VERIFIED if ok else Status.VIOLATED
    return Report("asymptotic-c", n_max, status, violations=tuple(violations))
