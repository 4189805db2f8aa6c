"""Identity verification and coefficient-sign scanning.

Identity checks compare exact integer coefficients of two independently
built series; there is no tolerance anywhere. Sign scans test each
coefficient against a periodic pattern of strict signs, with finitely many
enumerated exception indices that carry exact expected values instead.

A scan over a pattern flagged ``conjecture=True`` reports violations as a
falsification (the indices where the claimed pattern breaks) rather than as
an error in this package.

The one numeric routine, ``asymptotic_c``, evaluates a closed-form main
term in double precision; it is compared with exact coefficients only
through signs, never through equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from . import catalog
from .products import expand_product  # noqa: F401 -- bench/spans.py wraps this binding by name
from .series import Series

__all__ = [
    "Sign",
    "Status",
    "Divergence",
    "Violation",
    "SignPattern",
    "Report",
    "Conjecture13Result",
    "AsymptoticScan",
    "MAX_VIOLATIONS",
    "RICHMOND_C",
    "RICHMOND_D",
    "THM2_A",
    "THM3_B",
    "THM4_C",
    "THM5_D",
    "CONJ13_A",
    "CONJ13_B",
    "CONJ13_D",
    "verify_identity_B20",
    "verify_identity_R5",
    "verify_genfun",
    "verify_dissection",
    "scan_signs",
    "check_conjecture13",
    "asymptotic_c",
    "scan_asymptotic",
]

# Reports keep at most this many violations; falsification indices are
# still computed from the full set before capping.
MAX_VIOLATIONS = 20

ASYMPTOTIC_N_MIN = 100
ASYMPTOTIC_MIN_AGREEMENT = 0.99


class Sign(Enum):
    POS = "pos"
    NEG = "neg"
    ZERO = "zero"
    UNCONSTRAINED = "unconstrained"


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


@dataclass(frozen=True)
class Divergence:
    """First index where two series disagree, with both exact values."""

    index: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Violation:
    """A coefficient that broke the expected sign (or exception value)."""

    index: int
    value: int
    expected: Sign


@dataclass(frozen=True)
class SignPattern:
    """Periodic sign expectations by residue class, plus exact exceptions.

    ``expected`` maps residue mod ``modulus`` to a Sign; residues absent
    from the map are unconstrained. ``exceptions`` maps individual indices
    to the exact coefficient value required there, overriding the pattern.
    A zero coefficient at a non-exception index with expected POS or NEG is
    a violation: the patterns assert strict signs.
    """

    modulus: int
    expected: dict
    exceptions: dict = field(default_factory=dict)
    conjecture: bool = False

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")
        for r in self.expected:
            if not 0 <= r < self.modulus:
                raise ValueError(f"residue {r} out of range for modulus {self.modulus}")


@dataclass(frozen=True)
class Report:
    """Outcome of one identity check or sign scan."""

    subject: str
    order_checked: int
    status: Status
    first_divergence: Divergence | None = None
    violations: tuple[Violation, ...] = ()
    falsified_at: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.status is not Status.VERIFIED:
            if self.first_divergence is None and not self.violations:
                raise ValueError("non-verified report needs divergence or violations")

    def ok(self) -> bool:
        return self.status is Status.VERIFIED


P, N = Sign.POS, Sign.NEG

RICHMOND_C = SignPattern(5, {0: P, 1: P, 2: N, 3: N, 4: N}, {2: 0, 4: 0, 9: 0})
RICHMOND_D = SignPattern(5, {0: P, 1: N, 2: P, 3: N, 4: N}, {3: 0, 8: 0, 13: 0, 23: 0})
THM2_A = SignPattern(5, {1: P, 2: P, 3: P, 4: N})
THM3_B = SignPattern(5, {1: N, 2: P, 3: N, 4: P})
THM4_C = SignPattern(5, {0: N, 1: N, 2: P, 3: N, 4: P}, {0: 1})
THM5_D = SignPattern(5, {0: N, 2: P, 3: P, 4: N}, {0: 1})

# the claimed-for-all-n patterns that the engine is expected to falsify at
# n = 0 for the A and B families (and to uphold for D)
CONJ13_A = SignPattern(5, {0: N}, conjecture=True)
CONJ13_B = SignPattern(5, {0: N}, conjecture=True)
CONJ13_D = SignPattern(5, {1: P}, conjecture=True)

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


def _require_order(prec: int) -> None:
    if prec < 1:
        raise ValueError(f"order must be >= 1, got {prec}")


def verify_identity_B20(prec: int) -> Report:
    """1/R**5 - q**2 * R**5 == 11q + f1**6/f5**6, coefficient-wise."""
    _require_order(prec)
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
    with x = R(q**5)."""
    _require_order(prec)
    x = catalog.build("Rq5", prec)
    rhs = x * _powers_times_q(x, _MINUS_QUARTIC) / _powers_times_q(x, _PLUS_QUARTIC)
    lhs = catalog.build("R5", prec)
    return _compare("R5", lhs, rhs, prec)


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
    _require_order(prec)
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
    _require_order(prec)
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
    conjecture pattern that fails comes back FALSIFIED with the sorted list
    of pattern periods (index div modulus) where it broke; a plain pattern
    that fails comes back VIOLATED.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
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
        want = pattern.expected.get(n % pattern.modulus, Sign.UNCONSTRAINED)
        if want is not Sign.UNCONSTRAINED and _sign_of(value) is not want:
            violations.append(Violation(n, value, want))
    if not violations:
        return Report(subject, n_max, Status.VERIFIED)
    if pattern.conjecture:
        falsified = tuple(sorted({v.index // pattern.modulus for v in violations}))
        return Report(
            subject,
            n_max,
            Status.FALSIFIED,
            violations=tuple(violations[:MAX_VIOLATIONS]),
            falsified_at=falsified,
        )
    return Report(subject, n_max, Status.VIOLATED, violations=tuple(violations[:MAX_VIOLATIONS]))


@dataclass(frozen=True)
class Conjecture13Result:
    """Three sub-scans of the claimed all-n patterns for A, B and D.

    The recorded expectation is that the A and B claims break exactly at
    period 0 and the D claim holds everywhere tested.
    """

    n_max: int
    a: Report
    b: Report
    d: Report

    EXPECTED = {"A": (0,), "B": (0,), "D": ()}

    @property
    def falsified_at(self) -> dict:
        return {
            "A": list(self.a.falsified_at or ()),
            "B": list(self.b.falsified_at or ()),
            "D": list(self.d.falsified_at or ()),
        }

    def matches_expected(self) -> bool:
        got = self.falsified_at
        return all(tuple(got[k]) == v for k, v in self.EXPECTED.items())


def check_conjecture13(n_max: int) -> Conjecture13Result:
    """Scan the all-n sign claims for A(5n), B(5n), D(5n+1) up to n_max.

    n_max counts pattern periods: the A and B scans cover coefficients up
    to 5*n_max, the D scan up to 5*n_max + 1.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    # B first builds R to 5*n_max + 1; D then needs R only to n_max + 1 (for
    # R(q**5)) and builds R5inv to 5*n_max + 2, which A reads as a prefix.
    # Any other order computes R or R5inv twice.
    b = scan_signs("B", CONJ13_B, 5 * n_max, subject="conjecture13-B")
    d = scan_signs("D", CONJ13_D, 5 * n_max + 1, subject="conjecture13-D")
    a = scan_signs("A", CONJ13_A, 5 * n_max, subject="conjecture13-A")
    return Conjecture13Result(n_max, a, b, d)


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


@dataclass(frozen=True)
class AsymptoticScan:
    """Sign agreement between exact c(n) and its asymptotic main term."""

    report: Report
    checked: int
    agreements: int

    @property
    def agreement(self) -> float:
        return self.agreements / self.checked if self.checked else 1.0


def scan_asymptotic(n_max: int) -> AsymptoticScan:
    """Compare sign(asymptotic_c(n)) with sign(c(n)) over
    [ASYMPTOTIC_N_MIN, n_max].

    The cosine factor depends only on n mod 5 and is at least 0.18 in
    absolute value, so every index in the range is checked. VERIFIED means
    the agreement rate is at least ASYMPTOTIC_MIN_AGREEMENT; disagreements
    are reported as violations either way.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    series = catalog.build("c", n_max + 1)
    violations = []
    for n in range(ASYMPTOTIC_N_MIN, n_max + 1):
        exact = series[n]
        predicted = asymptotic_c(n)
        if (exact > 0) != (predicted > 0) or exact == 0:
            violations.append(Violation(n, exact, _sign_of(1 if predicted > 0 else -1)))
    checked = max(n_max + 1 - ASYMPTOTIC_N_MIN, 0)
    agreements = checked - len(violations)
    ok = checked == 0 or agreements / checked >= ASYMPTOTIC_MIN_AGREEMENT
    report = Report(
        "asymptotic-c",
        n_max,
        Status.VERIFIED if ok else Status.VIOLATED,
        violations=tuple(violations[:MAX_VIOLATIONS]),
    )
    return AsymptoticScan(report, checked, agreements)
