"""Residue check of every canonical series against its defining product.

Each canonical name is a quotient of theta series.  Multiplied by its
divisor, the build must equal the dividend:

    theta(1,5) * G = theta(2,5) * H = f5, and G_sum, H_sum the same
    theta(2,5) * R = theta(1,5)           theta(1,5) * Rinv = theta(2,5)
    theta(2,5)^5 * R5 = theta(1,5)^5      theta(1,5)^5 * R5inv = theta(2,5)^5
    theta(10,25) * Rq5 = theta(5,25)
    theta(2,5)^5 theta(5,25) * Cratio = theta(1,5)^5 theta(10,25)
    theta(1,5)^5 theta(10,25) * Dratio = theta(2,5)^5 theta(5,25)
    f5^6 * Fratio15 = f1^6                f1^6 * Fratio51 = f5^6

with theta(a, m) = (q^a;q^m)(q^(m-a);q^m)(q^m;q^m) and f_k = theta(k, 3k).
Both sides are compared modulo the prime P = 2^61 - 1.  Each divisor has
constant term 1, so a wrong coefficient at index k shows first at index k,
unless the error is a multiple of P.

Nothing here shares code with the package: theta comes from the triple
product sum, and a product is one multiplication of CPython's binary ints
by Kronecker substitution, with the packed digits crossing as hex strings.
Only the build under test is imported.
"""

from functools import lru_cache

from qser.catalog import build

P = (1 << 61) - 1

# name -> (divisor, dividend), each a tuple of theta factors (a, m, exponent)
DEFINING = {
    "G": (((1, 5, 1),), ((5, 15, 1),)),
    "H": (((2, 5, 1),), ((5, 15, 1),)),
    "G_sum": (((1, 5, 1),), ((5, 15, 1),)),
    "H_sum": (((2, 5, 1),), ((5, 15, 1),)),
    "R": (((2, 5, 1),), ((1, 5, 1),)),
    "Rinv": (((1, 5, 1),), ((2, 5, 1),)),
    "R5": (((2, 5, 5),), ((1, 5, 5),)),
    "R5inv": (((1, 5, 5),), ((2, 5, 5),)),
    "Rq5": (((10, 25, 1),), ((5, 25, 1),)),
    "Cratio": (((2, 5, 5), (5, 25, 1)), ((1, 5, 5), (10, 25, 1))),
    "Dratio": (((1, 5, 5), (10, 25, 1)), ((2, 5, 5), (5, 25, 1))),
    "Fratio15": (((5, 15, 6),), ((1, 3, 6),)),
    "Fratio51": (((1, 3, 6),), ((5, 15, 6),)),
}


def theta(a: int, m: int, n: int) -> list:
    """theta(a, m) mod P to n terms, for 0 < a < m, by the triple product:
    the sum over all integers k of (-1)**k * q**(m*k*(k-1)/2 + a*k)."""
    out = [0] * n
    # the exponent is at least |k|, so |k| < n covers every term below q**n
    for k in range(1 - n, n):
        e = m * k * (k - 1) // 2 + a * k
        if e < n:
            out[e] += -1 if k % 2 else 1
    return [v % P for v in out]


def mul(x: list, y: list, n: int) -> list:
    """First n terms of x * y mod P, for residues in [0, P)."""
    # a product term is below n * P**2 < 2**(122 + n.bit_length()), so
    # slots of that many bits, in whole hex digits, never carry into each other
    digits = (122 + n.bit_length() + 3) // 4

    def pack(v: list) -> int:
        return int("".join([f"{c:0{digits}x}" for c in reversed(v)]), 16)

    low = pack(x) * pack(y) & ((1 << (4 * n * digits)) - 1)
    text = f"{low:0{n * digits}x}"
    return [int(text[o - digits:o], 16) % P for o in range(n * digits, 0, -digits)]


@lru_cache(maxsize=None)
def theta_product(factors: tuple, n: int) -> list:
    """The product of theta(a, m)**e over the factors, mod P to n terms."""
    out = [1] + [0] * (n - 1)
    for a, m, e in factors:
        t = theta(a, m, n)
        for _ in range(e):
            out = mul(out, t, n)
    return out


def sides(name: str, n: int) -> tuple:
    """(divisor * build(name, n), dividend), both mod P to n terms."""
    divisor, dividend = DEFINING[name]
    built = [c % P for c in build(name, n)]
    return mul(theta_product(divisor, n), built, n), theta_product(dividend, n)
