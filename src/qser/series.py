"""Truncated formal power series in q with exact integer coefficients.

A :class:`Series` stores the first ``prec`` coefficients of a power series;
index ``n`` holds the coefficient of ``q**n``.  Coefficients are plain Python
ints, so every operation is exact; there is no floating-point path anywhere.
``prec`` is the number of *known* coefficients: everything from ``q**prec``
up is unknown, and arithmetic propagates precision conservatively
(min of the operands, adjusted by shifts and dissections).

Series are immutable; all operations return new values and are safe to share
between threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Series",
    "SeriesError",
    "NonUnitConstantTerm",
    "NonUnitLeadingCoefficient",
    "ValuationMismatch",
    "ZeroDivisor",
]


class SeriesError(ValueError):
    """Base class for series arithmetic errors."""


class NonUnitConstantTerm(SeriesError):
    """inverse() needs a constant term of +1 or -1 to stay in the integers."""


class NonUnitLeadingCoefficient(SeriesError):
    """Division needs a divisor whose lowest nonzero coefficient is +1 or -1."""


class ValuationMismatch(SeriesError):
    """Division would produce negative powers of q."""


class ZeroDivisor(SeriesError):
    """Division by a series that is zero to its precision."""


def _mul_lists(a: tuple, b: tuple, n: int) -> list:
    """Truncated product of coefficient sequences, first n terms."""
    # Kronecker substitution: pack each operand as sum(coeff[i] * 2**(8*w*i))
    # with w wide enough that the product's digits never overlap, multiply
    # once, then read the signed digits back out of the byte string.  Each
    # digit is stored as coeff + half, so the bytes hold no negative digit,
    # and the packed bias sum(half * 2**(8*w*i)) is then subtracted as one
    # integer.  Exact for any integer coefficients.
    a = a[:n]
    b = b[:n]
    amax = max(map(abs, a), default=0)
    bmax = max(map(abs, b), default=0)
    bits = amax.bit_length() + bmax.bit_length() + n.bit_length() + 1
    w = (bits + 7) // 8
    half = 1 << (8 * w - 1)
    bias = bytes(w - 1) + b"\x80"  # the digit `half`, little-endian
    from_bytes = int.from_bytes

    def pack(values: tuple) -> int:
        buf = bytearray(bias * len(values))
        for off, v in zip(range(0, len(buf), w), values):
            if v:
                buf[off:off + w] = (v + half).to_bytes(w, "little")
        return from_bytes(buf, "little") - from_bytes(bias * len(values), "little")

    # adding the bias back at every digit of the 2n-digit product makes it
    # nonnegative with digits in [0, 2**(8w)), so no borrows cross digit
    # boundaries
    ndigits = 2 * n
    raw = (pack(a) * pack(b) + from_bytes(bias * ndigits, "little")).to_bytes(
        ndigits * w, "little"
    )
    return [from_bytes(raw[o:o + w], "little") - half for o in range(0, n * w, w)]


def _inverse(a: tuple) -> list:
    # Power-series division (Knuth, TAOCP vol. 2, 4.7): b_0 = a_0 and
    # b_k = -a_0 * sum(a_i * b_(k-i)) over the nonzero a_i with 1 <= i <= k
    # (a_0 = +-1 is its own inverse).  O(n * nnz), so a sparse theta divisor
    # is cheap.
    a0 = a[0]
    terms = [(i, -a0 * v) for i, v in enumerate(a) if i and v]
    b = [a0] + [0] * (len(a) - 1)
    for k in range(1, len(a)):
        s = 0
        for i, c in terms:
            if i > k:
                break
            s += c * b[k - i]
        b[k] = s
    return b


class Series:
    """Immutable truncated power series with exact integer coefficients."""

    __slots__ = ("coeffs", "prec")

    coeffs: tuple
    prec: int

    def __init__(self, coeffs: Iterable[int] = (), prec: int | None = None):
        t = tuple(coeffs)
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"coefficients must be exact ints, got {v!r}")
        if prec is not None:
            if prec < len(t):
                raise ValueError(f"prec {prec} smaller than {len(t)} given coefficients")
            t = t + (0,) * (prec - len(t))
        object.__setattr__(self, "coeffs", t)
        object.__setattr__(self, "prec", len(t))

    @classmethod
    def _make(cls, coeffs: tuple) -> "Series":
        s = object.__new__(cls)
        object.__setattr__(s, "coeffs", coeffs)
        object.__setattr__(s, "prec", len(coeffs))
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @classmethod
    def zero(cls, prec: int) -> "Series":
        if prec < 0:
            raise ValueError(f"precision must be >= 0, got {prec}")
        return cls._make((0,) * prec)

    @classmethod
    def one(cls, prec: int) -> "Series":
        return cls.monomial(1, 0, prec)

    @classmethod
    def monomial(cls, coeff: int, exponent: int, prec: int) -> "Series":
        """coeff * q**exponent, truncated to prec (zero if exponent >= prec)."""
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise TypeError(f"coefficients must be exact ints, got {coeff!r}")
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if exponent >= prec:
            # also the only path for prec < 0, which zero() rejects
            return cls.zero(prec)
        return cls._make((0,) * exponent + (coeff,) + (0,) * (prec - exponent - 1))

    # -- inspection -------------------------------------------------------

    def __len__(self) -> int:
        return self.prec

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.prec:
            raise IndexError(f"coefficient {n} is beyond precision {self.prec}")
        return self.coeffs[n]

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def is_zero(self) -> bool:
        """True if every known coefficient is zero."""
        return not any(self.coeffs)

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None if zero to prec."""
        for i, v in enumerate(self.coeffs):
            if v:
                return i
        return None

    def truncate(self, prec: int) -> "Series":
        """Drop precision down to the first `prec` coefficients."""
        if not 0 <= prec <= self.prec:
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
        return f"Series([{head}, ...], prec={self.prec})"

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
        if isinstance(other, int) and not isinstance(other, bool):
            other = Series.monomial(other, 0, self.prec)
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.prec, other.prec)
        a, b = self.coeffs, other.coeffs
        return Series._make(tuple(a[i] - b[i] for i in range(n)))

    def __neg__(self) -> "Series":
        return Series._make(tuple(-v for v in self.coeffs))

    def __mul__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.prec, other.prec)
        return Series._make(tuple(_mul_lists(self.coeffs, other.coeffs, n)))

    def __pow__(self, k: int) -> "Series":
        """k-th power by repeated squaring, precision unchanged."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
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
        coefficients; anything else raises NonUnitConstantTerm.
        """
        if self.prec == 0 or self.coeffs[0] not in (1, -1):
            head = self.coeffs[0] if self.prec else "unknown"
            raise NonUnitConstantTerm(f"constant term must be +1 or -1, got {head}")
        return Series._make(tuple(_inverse(self.coeffs)))

    def __truediv__(self, other) -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        v = other.valuation()
        if v is None:
            raise ZeroDivisor("divisor is zero to its precision")
        if other.coeffs[v] not in (1, -1):
            raise NonUnitLeadingCoefficient(
                f"divisor's lowest coefficient must be +1 or -1, got {other.coeffs[v]} at q^{v}"
            )
        va = self.valuation()
        if va is None:
            # zero numerator: quotient is zero to the shared precision
            return Series.zero(max(min(self.prec, other.prec) - v, 0))
        if va < v:
            raise ValuationMismatch(
                f"numerator valuation {va} is below divisor valuation {v}"
            )
        n = min(self.prec, other.prec) - v
        num = Series._make(self.coeffs[v:v + n])
        den = Series._make(other.coeffs[v:v + n])
        return num * den.inverse()

    # -- reindexing -------------------------------------------------------

    def shift(self, k: int) -> "Series":
        """Multiply by q**k for k >= 0; precision grows by k."""
        if k < 0:
            raise ValueError("shift must be nonnegative")
        return Series._make((0,) * k + self.coeffs)

    def scale(self, c: int) -> "Series":
        """Multiply every coefficient by the integer c."""
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError("scale factor must be an exact int")
        return Series._make(tuple(c * v for v in self.coeffs))

    def substitute_qm(self, m: int) -> "Series":
        """Replace q by q**m; precision grows to prec*m."""
        if m < 1:
            raise ValueError("substitution power must be >= 1")
        if m == 1:
            return self
        out = [0] * (self.prec * m)
        out[::m] = self.coeffs
        return Series._make(tuple(out))

    def dissect(self, m: int, j: int) -> "Series":
        """Extract the arithmetic progression: coefficient n of the result
        is coefficient m*n + j of self."""
        if m < 1:
            raise ValueError("dissection modulus must be >= 1")
        if not 0 <= j < m:
            raise ValueError(f"residue must satisfy 0 <= j < {m}, got {j}")
        return Series._make(self.coeffs[j::m])
