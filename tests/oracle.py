"""Brute-force reference expansions used to freeze expected test values.

Everything here is deliberately naive: dense schoolbook convolutions,
term-by-term inversion, products multiplied factor by factor at full
precision.  Nothing is shared with the package under test, so these
routines stay usable as an independent cross-check at small orders.
"""


def one(n):
    """The series 1 as a length-n list."""
    return [1] + [0] * (n - 1) if n else []


def mul(a, b, n):
    """Truncated product of coefficient lists a and b, first n terms."""
    out = [0] * n
    for i in range(min(len(a), n)):
        ai = a[i]
        if ai:
            for j in range(min(len(b), n - i)):
                out[i + j] += ai * b[j]
    return out


def inv(a, n):
    """Term-by-term inverse; requires a[0] in {1, -1} unless n is 0."""
    b = [0] * n
    if n:
        assert a and a[0] in (1, -1)
        b[0] = a[0]
    for k in range(1, n):
        s = 0
        for i in range(1, min(k, len(a) - 1) + 1):
            s += a[i] * b[k - i]
        b[k] = -a[0] * s
    return b


def power(a, e, n):
    out = one(n)
    for _ in range(e):
        out = mul(out, a, n)
    return out


def poch(a, m, n):
    """Product of (1 - q^(a+km)) over a+km < n, as a length-n list."""
    out = one(n)
    for e in range(a, n, m):
        factor = [1] + [0] * (e - 1) + [-1]
        out = mul(out, factor, n)
    return out


def product(factors, n):
    """Product of (q^a; q^m)_inf^e over (a, m, e) triples, as a length-n list."""
    out = one(n)
    for a, m, e in factors:
        part = power(poch(a, m, n), abs(e), n)
        out = mul(out, part if e > 0 else inv(part, n), n)
    return out


def subst(a, m, n):
    """Replace q by q^m, truncated to n terms."""
    out = [0] * n
    for i, ai in enumerate(a):
        if i * m >= n:
            break
        out[i * m] = ai
    return out


def rr_sum(linear, n):
    """Sum of q^(k*k + linear*k) / (q;q)_k over k, first n terms.

    linear = 0 gives the sum side of G, linear = 1 that of H. `recip` holds
    1/(q;q)_k, extended to k + 1 by dividing once more by (1 - q^(k+1)).
    """
    out = [0] * n
    recip = one(n)
    k = 0
    while (e := k * k + linear * k) < n:
        for i in range(e, n):
            out[i] += recip[i - e]
        k += 1
        for i in range(k, n):
            recip[i] += recip[i - k]
    return out


def rr_d(n):
    """Coefficients of (q;q5)(q4;q5)/[(q2;q5)(q3;q5)]."""
    num = mul(poch(1, 5, n), poch(4, 5, n), n)
    den = mul(poch(2, 5, n), poch(3, 5, n), n)
    return mul(num, inv(den, n), n)


def rr_c(n):
    return inv(rr_d(n), n)


def rr_A(n):
    return inv(power(rr_d(n), 5, n), n)


def rr_B(n):
    return power(rr_d(n), 5, n)


def rr_C(n):
    rq5 = subst(rr_d(n // 5 + 1), 5, n)
    return mul(rr_B(n), inv(rq5, n), n)


def rr_D(n):
    rq5 = subst(rr_d(n // 5 + 1), 5, n)
    return mul(rq5, rr_A(n), n)


def f_ratio(num_k, den_k, e, n):
    """Coefficients of (f_{num_k} / f_{den_k})^e."""
    num = power(poch(num_k, num_k, n), e, n)
    den = power(poch(den_k, den_k, n), e, n)
    return mul(num, inv(den, n), n)


def prodmake(b, n):
    """Exponents a[1..n-1] with b = prod (1 - q^k)^a[k] to n terms; b[0] == 1.

    With c_k = sum of d * a_d over d | k, the logarithmic derivative gives
    c_k = -k*b_k - sum_{j<k} c_j * b_{k-j}; a_k is then c_k less the proper
    divisors' share, over k. a[0] is 0; every division must be exact.
    """
    assert b[0] == 1
    c = [0] * n
    a = [0] * n
    for k in range(1, n):
        c[k] = -k * b[k] - sum(c[j] * b[k - j] for j in range(1, k))
        rest = c[k] - sum(d * a[d] for d in range(1, k // 2 + 1) if k % d == 0)
        assert rest % k == 0, (k, rest)
        a[k] = rest // k
    return a
