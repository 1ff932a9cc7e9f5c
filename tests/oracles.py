"""Independent brute-force oracles used to freeze expected test values.

Nothing here shares code with the library's computation paths: binomials
come from product formulas, partition counts from explicit enumeration,
Gaussian binomials from box-partition counting.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction


def falling_binomial(n: int, k: int) -> Fraction:
    """Generalized binomial coefficient n(n-1)...(n-k+1)/k! for any integer n."""
    if k < 0:
        return Fraction(0)
    num = 1
    for t in range(k):
        num *= n - t
    den = 1
    for t in range(1, k + 1):
        den *= t
    return Fraction(num, den)


def laurent_coeff_one_plus_inv_z(n: int, m: int) -> int:
    """Coefficient of z^(-m) in the expansion of (1 + 1/z)^n around z = 0.

    (1 + 1/z)^n = z^(-n) (1+z)^n with (1+z)^n expanded binomially; the
    z^(-m) slot is the (n-m)-th term.
    """
    value = falling_binomial(n, n - m)
    assert value.denominator == 1
    return int(value)


def partitions_upto(max_size: int) -> list[int]:
    """Partition numbers p(0..max_size) by direct recursive enumeration."""

    def count(remaining: int, largest: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(1, min(largest, remaining) + 1)
        )

    return [count(size, size) for size in range(max_size + 1)]


def gaussian_binomial_by_boxes(n: int, m: int) -> dict[int, int]:
    """Gaussian binomial via partition-in-a-box counting: the q^j coefficient
    is the number of partitions of j fitting in an m x (n-m) box."""
    if not n >= m >= 0:
        return {}
    width = n - m
    out: dict[int, int] = {}

    def rec(rows_left: int, cap: int, size: int):
        out[size] = out.get(size, 0) + 1
        if rows_left == 0:
            return
        for row in range(1, cap + 1):
            rec(rows_left - 1, row, size + row)

    rec(m, width, 0)
    return {k: v for k, v in out.items() if v}


def product_gf_coeff(widths: list[int], a: int) -> int:
    """Coefficient of x^a in prod (1 + x + ... + x^w) over the given widths,
    by direct convolution."""
    coeffs = {0: 1}
    for w in widths:
        nxt: dict[int, int] = {}
        for deg, c in coeffs.items():
            for t in range(w + 1):
                nxt[deg + t] = nxt.get(deg + t, 0) + c
        coeffs = nxt
    return coeffs.get(a, 0)


def widths_from_multiplicities(mult) -> list[int]:
    out = []
    for idx, count in enumerate(mult):
        out.extend([idx + 1] * count)
    return out


def second_diff_matrix(m: int) -> tuple[tuple[int, ...], ...]:
    """Tridiagonal m x m matrix with 2 on the diagonal (1 in the last slot)
    and -1 off-diagonal; its inverse has entries min(i, j).  A profile
    times it is the multiplicity vector, the independent route for
    qchar's multiplicities."""
    if m < 1:
        raise ValueError("matrix size must be >= 1")
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] = 2 if i < m - 1 else 1
        if i > 0:
            row[i - 1] = -1
        if i < m - 1:
            row[i + 1] = -1
        rows.append(tuple(row))
    return tuple(rows)


def brute_elementary_count(p: int, i: int, j: int, r: int) -> int:
    """#{n : 0 <= p*n + j + r <= i} by scanning a wide window."""
    span = (abs(i) + abs(j) + abs(r)) // p + 3
    return sum(1 for n in range(-span, span + 1) if 0 <= p * n + j + r <= i)


def brute_root_of_unity_dims(p: int, pairs) -> tuple[int, ...]:
    """Expand prod_s (x^(-j) + ... + x^(-j+i)) in Z[x]/(x^p - 1) by direct
    term-by-term multiplication over exponent residues."""
    acc = {0: 1}
    for i, j in pairs:
        nxt: dict[int, int] = {}
        for e, c in acc.items():
            for t in range(i + 1):
                k = (e + t - j) % p
                nxt[k] = nxt.get(k, 0) + c
        acc = nxt
    return tuple(acc.get(r, 0) for r in range(p))


def monotone_levels(d: int, top: int):
    """Weakly increasing level tuples of length d with values in [0, top]."""
    return itertools.combinations_with_replacement(range(top + 1), d)


def poly_mul_brute(a: dict, b: dict) -> dict:
    """Product of two {exponent: coefficient} dicts by the nested loop over
    all term pairs, with zero coefficients dropped."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def supernomial_brute(entries, a: int) -> dict:
    """The q-supernomial of L = entries at a as an {exponent: coefficient}
    dict, straight from its definition: the sum over every composition
    (n_1, ..., n_k) of a into k nonnegative parts of

        q^(sum_{i=2..k} n_{i-1} (S_i - n_i)) prod_i [L_i + n_{i+1} choose n_i]

    with S_i = L_i + ... + L_k and n_{k+1} = 0, each Gaussian binomial
    counted by partitions in a box and the products taken term by term."""
    k = len(entries)
    suffix = [sum(entries[i:]) for i in range(k)]  # suffix[i] = S_{i+1}
    binomials: dict = {}

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out: dict = {}
    if a < 0:
        return out
    for n in compositions(a, k):
        factors = []
        for i in range(k - 1, -1, -1):  # last first: each top stays <= S_i
            key = (entries[i] + (n[i + 1] if i + 1 < k else 0), n[i])
            if key not in binomials:
                binomials[key] = gaussian_binomial_by_boxes(*key)
            if not binomials[key]:
                break
            factors.append(binomials[key])
        else:
            poly = {sum(n[i - 1] * (suffix[i] - n[i]) for i in range(1, k)): 1}
            for f in factors:
                poly = poly_mul_brute(poly, f)
            for e, c in poly.items():
                out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def lattice_support_brute(matrix, eff, box, extended: bool) -> list[tuple]:
    """Every n in the box whose lattice summand has no vanishing factor, by
    a plain scan of the whole box.

    The factor of coordinate a is the binomial with bottom b = n_a and top
    t = eff_a + n_a - (nA)_a.  It is nonzero exactly when 0 <= b <= t, or,
    for extended binomials, when b <= t < 0.
    """
    columns = list(zip(*matrix))
    out = []
    for n in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        for b, e, col in zip(n, eff, columns):
            t = e + b - sum(map(operator.mul, n, col))
            if not (0 <= b <= t or (extended and b <= t < 0)):
                break
        else:
            out.append(n)
    return out


def ext_binomial_brute(t: int, b: int) -> dict[int, int]:
    """The extended q-binomial [t choose b] as {exponent: coefficient}: the
    box-partition count for t >= 0, and for b <= t < 0 the reflection
    (-1)^(t-b) q^(-((t-b)^2 + (t-b))/2) [-b-1 choose -t-1](1/q)."""
    if t >= 0:
        return gaussian_binomial_by_boxes(t, b)
    if b > t:
        return {}
    d = t - b
    sign = -1 if d % 2 else 1
    shift = -((d * d + d) // 2)
    reflected = gaussian_binomial_by_boxes(-b - 1, -t - 1)
    return {shift - e: sign * c for e, c in reflected.items()}


def lattice_sum_brute(matrix, u, v, eff, box, extended: bool) -> dict:
    """The lattice sum as {(q_exp, z_exp): coeff}, one summand at a time
    over lattice_support_brute: z^(u.n) q^(nAn/2 + v.n) times the product
    of the binomials [t_a choose n_a], t = eff + n - nA, multiplied out by
    poly_mul_brute.  q exponents are Fractions."""
    m = len(matrix)
    out: dict = {}
    for n in lattice_support_brute(matrix, eff, box, extended):
        s = [sum(n[b] * matrix[b][a] for b in range(m)) for a in range(m)]
        qexp = Fraction(sum(map(operator.mul, n, s)), 2) + sum(
            Fraction(x) * b for x, b in zip(v, n)
        )
        zexp = sum(map(operator.mul, u, n))
        poly = {0: 1}
        for a in range(m):
            factor = ext_binomial_brute(eff[a] + n[a] - s[a], n[a])
            poly = poly_mul_brute(poly, factor)
        for e, c in poly.items():
            key = (qexp + e, zexp)
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def quadratic_points_brute(matrix, v2, bound: int) -> set[tuple]:
    """Every n >= 0 with n A n + v2.n <= bound, by a scan of a box, for a
    matrix with n A n >= |n|^2 on n >= 0 (true when each diagonal entry
    exceeds the absolute sum of the rest of its row).

    The box: with c = max |v2_a|, the form is at least sum_a (n_a^2 - c n_a),
    and each term is at least -c^2/4, so n_a^2 - c n_a <= bound + m c^2/4 for
    every a, and n_a <= c/2 + sqrt(bound + (m+1) c^2/4)
    <= c + isqrt(bound + m c^2) + 1.
    """
    m = len(matrix)
    c = max(map(abs, v2), default=0)
    if bound + m * c * c < 0:
        return set()
    top = c + math.isqrt(bound + m * c * c) + 1
    return {
        n
        for n in itertools.product(range(top + 1), repeat=m)
        if quadratic_form(matrix, n) + sum(map(operator.mul, v2, n)) <= bound
    }


def quadratic_form(matrix, n) -> int:
    """n A n, as the dot product of n with the rows of A applied to n."""
    return sum(n_i * sum(map(operator.mul, row, n)) for n_i, row in zip(n, matrix))


def gordon_series_brute(p: int, d: int, r: int, qmax: int, zwin: int) -> dict:
    """The Gordon-type series as {(q_exp, z_exp): coeff} with q_exp a
    Fraction, truncated to q_exp <= qmax and |z_exp| <= zwin: the sum over
    n >= 0 of z^(n_+ - n_-) q^((n A n + v2.n)/2) prod_a 1/(q)_(n_a), with
    v2 = (p-2r-2)(1, -1, 0, ..., 0) and 1/(q)_k counted as partitions into
    parts <= k.

    The matrix is restated here.  For d <= p-1 and n >= 0 it satisfies
    n A n = (p-d-1)(n_+ - n_-)^2 + (d+1)(n_+^2 + n_-^2)
            + 2(n_+ + n_-) sum_k M_k + 2 sum_k M_k^2,  M_k = sum_(i>=k) n_i,
    so n A n >= |n|^2, and quadratic_points_brute's box holds every vector.
    """
    m = d + 2
    matrix = [[0] * m for _ in range(m)]
    matrix[0][0] = matrix[1][1] = p
    matrix[0][1] = matrix[1][0] = d + 1 - p
    for i in range(d):
        for s in (0, 1):
            matrix[s][2 + i] = matrix[2 + i][s] = i + 1
        for j in range(d):
            matrix[2 + i][2 + j] = 2 * (min(i, j) + 1)
    shift = p - 2 * r - 2
    v2 = [shift, -shift] + [0] * d

    def parts_at_most(k: int, size: int, largest: int) -> int:
        if size == 0:
            return 1
        return sum(
            parts_at_most(k, size - part, part)
            for part in range(1, min(k, largest, size) + 1)
        )

    out: dict = {}
    for n in quadratic_points_brute(matrix, v2, 2 * qmax):
        zexp = n[0] - n[1]
        if abs(zexp) > zwin:
            continue
        qexp = Fraction(quadratic_form(matrix, n) + sum(map(operator.mul, v2, n)), 2)
        poly = {0: 1}
        for k in n:
            weight = {
                e: parts_at_most(k, e, e) for e in range(int(qmax - qexp) + 1)
            }
            poly = {
                e: c
                for e, c in poly_mul_brute(poly, weight).items()
                if qexp + e <= qmax
            }
        for e, coef in poly.items():
            key = (qexp + e, zexp)
            out[key] = out.get(key, 0) + coef
    return {key: coef for key, coef in out.items() if coef}
