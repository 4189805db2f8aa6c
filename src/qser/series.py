"""Truncated formal power series in q with exact integer coefficients.

A :class:`Series` stores the first ``prec`` coefficients of a power series;
index ``n`` holds the coefficient of ``q**n``.  Coefficients are plain Python
ints, so every operation is exact; there is no floating-point path anywhere.
Multiplication runs through the C ``decimal`` module as exact integer
arithmetic, in a context that raises on any rounding.
``prec`` is the number of *known* coefficients: everything from ``q**prec``
up is unknown, and arithmetic propagates precision conservatively
(min of the operands, adjusted by shifts and dissections).

Series are immutable; all operations return new values and are safe to share
between threads.  Misuse raises ValueError, and an index past the precision
raises IndexError.  Every coefficient, size, index and count argument in qser
passes through one check, ``exact_int``: a value that is not an int, or is a
bool, raises ``TypeError("<what> must be an exact int, got <value!r>")``, and
one below its floor raises ``ValueError("<what> must be >= <least>, got
<value>")``.
"""

from __future__ import annotations

import sys
from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from collections.abc import Iterable, Iterator
from itertools import accumulate
from operator import add

__all__ = ["Series"]

# Exact integer arithmetic on any number of digits: an operation that would
# round raises instead.  The C module is imported by name: the pure-Python
# fallback converts ints through str, which CPython refuses past its digit limit.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])


def exact_int(value, what: str, least: int | None = None):
    """value, if it is an int but not a bool, and not below least if given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an exact int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _mul_lists(a: tuple, b: tuple, n: int) -> list:
    """Truncated product of coefficient sequences, first n terms."""
    # Kronecker substitution in base 10: pack each operand as
    # sum(coeff[i] * 10**(w*i)) with w digits per coefficient, multiply once
    # in libmpdec (a number-theoretic transform on large operands, where
    # CPython's ints use Karatsuba), then read the signed digits back out of
    # the decimal string.  Each digit is stored as coeff + half, so the string
    # holds no negative digit, and the packed bias sum(half * 10**(w*i)) is
    # then subtracted as one number.  Let bits = max_i(bit_length(a_i) +
    # bhat_(n-1-i)), where bhat_j is the largest bit length of b_0..b_j.  As
    # bhat never decreases, every |c_k| <= n * 2**bits, and the terms i = 0
    # and n-1 bound every |a_i| and |b_i| by 2**bits.  w is the digit count
    # of 2 * n * 2**bits, so every coeff + half lies in [0, 10**w) and digits
    # never overlap.  Exact for any integer coefficients.  Digits cross
    # between ints and strings through Decimal only past CPython's int/str
    # digit limit (0, or no limit before 3.10.7, means none).
    if not n:
        return []  # Decimal("") is no number
    a = a[:n]
    b = b[:n]
    bhat = list(accumulate(map(int.bit_length, b), max))
    bits = max(map(add, map(int.bit_length, a), reversed(bhat)))
    w = len(str(Decimal((2 * n) << bits)))
    half = 5 * 10 ** (w - 1)
    # B(m) = sum(half * 10**(w*i)) over i < m, by doubling over the bits of n:
    # B(2m) = B(m) * 10**(m*w) + B(m) and B(m+1) = B(m) * 10**w + half
    bias, m = Decimal(0), 0
    for bit in bin(n)[2:]:
        bias, m = _EXACT.add(_EXACT.scaleb(bias, m * w), bias), 2 * m
        if bit == "1":
            bias, m = _EXACT.add(_EXACT.scaleb(bias, w), half), m + 1
    if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < w:
        to_str, to_int = (lambda v: str(Decimal(v))), (lambda s: int(Decimal(s)))
    else:
        to_str, to_int = str, int

    def pack(values: tuple) -> Decimal:
        digits = "".join([to_str(v + half) for v in reversed(values)])
        return _EXACT.subtract(Decimal(digits), bias)

    pa = pack(a)
    # the same Decimal on both sides lets libmpdec square it; pa goes once
    # multiplied, so the bias kept for the rebias does not raise the peak
    prod = _EXACT.multiply(pa, pa if b is a else pack(b))
    del pa
    # Only the low n of the product's 2n digits are read.  Adding the bias
    # at those n digits, and 10**(2nw) above the top one, leaves them as if
    # the bias were added at every digit: each is coeff + half, with no
    # borrow across digit boundaries.  The sum is nonnegative, so a shift by
    # 0 in precision n * w keeps exactly those n digits.  top joins the bias
    # before the product does, and each step rebinds prod, so at most three
    # values of 2n digits are alive at once, and none once the string is made.
    top = Decimal("1E%d" % (2 * n * w))
    prod = _EXACT.add(prod, _EXACT.add(bias, top))
    prod = Context(prec=n * w, Emax=MAX_EMAX).shift(prod, 0)
    raw = str(prod).zfill(n * w)
    del prod
    return [to_int(raw[o - w:o]) - half for o in range(n * w, 0, -w)]


def _inverse(a: tuple) -> list:
    # Power-series division (Knuth, TAOCP vol. 2, 4.7): b_0 = a_0 and
    # b_k = -a_0 * sum(a_i * b_(k-i)) over the nonzero a_i with 1 <= i <= k
    # (a_0 = +-1 is its own inverse).  O(n * nnz), so a sparse theta divisor
    # is cheap.  The terms are grouped by value c = -a_0 * a_i, so each k adds
    # up a group's b_(k-i), offsets ascending, and multiplies by c once.
    a0 = a[0]
    groups = {}
    for i, v in enumerate(a):
        if i and v:
            groups.setdefault(-a0 * v, []).append(i)
    b = [a0] + [0] * (len(a) - 1)
    for k in range(1, len(a)):
        s = 0
        for c, offsets in groups.items():
            t = 0
            for i in offsets:
                if i > k:
                    break
                t += b[k - i]
            s += c * t
        b[k] = s
    return b


class Series:
    """Immutable truncated power series with exact integer coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple

    def __init__(self, coeffs: Iterable[int] = ()):
        t = tuple(coeffs)
        for v in t:
            exact_int(v, "coefficient")
        object.__setattr__(self, "coeffs", t)

    @classmethod
    def _make(cls, coeffs: tuple) -> "Series":
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", coeffs)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def zero(cls, prec: int) -> "Series":
        return cls._make((0,) * exact_int(prec, "precision", 0))

    @classmethod
    def one(cls, prec: int) -> "Series":
        return cls.monomial(1, 0, prec)

    @classmethod
    def monomial(cls, coeff: int, exponent: int, prec: int) -> "Series":
        """coeff * q**exponent, truncated to prec (zero if exponent >= prec)."""
        exact_int(coeff, "coefficient")
        if exact_int(exponent, "exponent", 0) >= exact_int(prec, "precision", 0):
            return cls.zero(prec)
        return cls._make((0,) * exponent + (coeff,) + (0,) * (prec - exponent - 1))

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.coeffs)

    prec = property(__len__, doc="The number of known coefficients, read-only.")

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self.coeffs):
            raise IndexError(f"coefficient {n} is beyond precision {len(self.coeffs)}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None if zero to prec."""
        for i, v in enumerate(self.coeffs):
            if v:
                return i
        return None

    def truncate(self, prec: int) -> "Series":
        """Drop precision down to the first `prec` coefficients."""
        if not 0 <= exact_int(prec, "precision") <= self.prec:
            raise ValueError(f"cannot truncate prec {self.prec} to {prec}")
        if prec == self.prec:
            return self
        return Series._make(self.coeffs[:prec])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.prec <= 16:
            return f"Series({list(self.coeffs)!r})"
        head = ", ".join(map(str, self.coeffs[:12]))
        return f"<Series of {self.prec} terms: {head}, ...>"

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> "Series":
        if isinstance(other, int) and not isinstance(other, bool):
            other = Series.monomial(other, 0, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        return Series._make(tuple(a[i] + b[i] for i in range(n)))

    def __sub__(self, other) -> "Series":
        if isinstance(other, (int, Series)) and not isinstance(other, bool):
            return self + -other
        return NotImplemented

    def __neg__(self) -> "Series":
        return Series._make(tuple(-v for v in self.coeffs))

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.prec, other.prec)
        return Series._make(tuple(_mul_lists(self.coeffs, other.coeffs, n)))

    def __pow__(self, k: int) -> "Series":
        """k-th power by repeated squaring, precision unchanged."""
        if exact_int(k, "exponent", 0) == 0:
            return Series.one(self.prec)
        # left to right over the bits of k, starting from the base itself
        result = self
        for bit in bin(k)[3:]:
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse to precision.

        The constant term must be +1 or -1 so the inverse has integer
        coefficients; anything else raises ValueError.
        """
        if self.prec == 0 or self.coeffs[0] not in (1, -1):
            head = self.coeffs[0] if self.prec else "unknown"
            raise ValueError(f"constant term must be +1 or -1, got {head}")
        return Series._make(tuple(_inverse(self.coeffs)))

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise ValueError("divisor is zero to its precision")
        if other.coeffs[v] not in (1, -1):
            raise ValueError(
                f"divisor's lowest coefficient must be +1 or -1, got {other.coeffs[v]} at q^{v}"
            )
        va = self.valuation()
        if va is None:
            # zero numerator: quotient is zero to the shared precision
            return Series.zero(max(min(self.prec, other.prec) - v, 0))
        if va < v:
            raise ValueError(
                f"numerator valuation {va} is below divisor valuation {v}"
            )
        n = min(self.prec, other.prec) - v
        num = Series._make(self.coeffs[v:v + n])
        den = Series._make(other.coeffs[v:v + n])
        return num * den.inverse()

    # -- reindexing -------------------------------------------------------

    def shift(self, k: int) -> "Series":
        """Multiply by q**k for k >= 0; precision grows by k."""
        return Series._make((0,) * exact_int(k, "shift", 0) + self.coeffs)

    def scale(self, c: int) -> "Series":
        """Multiply every coefficient by the integer c."""
        exact_int(c, "scale factor")
        return Series._make(tuple(c * v for v in self.coeffs))

    def substitute_qm(self, m: int) -> "Series":
        """Replace q by q**m; precision grows to prec*m."""
        if exact_int(m, "substitution power", 1) == 1:
            return self
        out = [0] * (self.prec * m)
        out[::m] = self.coeffs
        return Series._make(tuple(out))

    def dissect(self, m: int, j: int) -> "Series":
        """Extract the arithmetic progression: coefficient n of the result
        is coefficient m*n + j of self."""
        exact_int(m, "dissection modulus", 1)
        if not 0 <= exact_int(j, "residue") < m:
            raise ValueError(f"residue must satisfy 0 <= j < {m}, got {j}")
        return Series._make(self.coeffs[j::m])
