"""Fermionic lattice sums: the coupling matrix, certified support boxes,
the general quadratic-form sum engine, and the Gordon-type series.

The central object is

    lattice_sum(data, nvec, box) =
        sum over n in box of
            z^(u.n) q^(n A n / 2 + v.n) *
            prod_a qbinomial_ext(e_a.(N + w + n - nA), e_a.n)

Support and sign rules.  A factor X(t_a, n_a) vanishes unless n_a <= t_a,
for both signs of n_a and both binomial kinds, and t_a = N_a + w_a + n_a -
(nA)_a.  It also vanishes when n_a < 0 <= t_a, and for standard binomials
whenever n_a < 0.  Every other factor is nonzero.  Once the sign of each
n_a is fixed, both rules are linear: every nonzero summand satisfies the
upper rows

    (nA)_a <= N_a + w_a                  for every a,

and, for each a with n_a < 0, the sign row

    (nA)_a - n_a >= N_a + w_a + 1.

_leaves splits each coordinate's range at 0 and cuts both branches by
these rows, so it yields exactly the summands in the box.

For the coupling matrix of a SiteVector whose multiplicity vector is
nonnegative, support_box computes a finite box that provably contains
every nonzero summand, so the sum is an exact Laurent polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .laurent import (
    BiLaurent,
    bounded_partition_counts,
    norm_exp,
    _half_iadd,
    _qdict_prod,
    _unpack_qdict,
    _width,
)
from .qbinom import _packed_binomials, ext_min_qexp
from .supernomial import SiteVector, multiplicities

__all__ = [
    "NonFiniteSupportError",
    "QuadraticData",
    "coupling_matrix",
    "fermionic_sum",
    "gordon_series",
    "lattice_sum",
    "lattice_support",
    "standard_flow_vector",
    "support_box",
]


class NonFiniteSupportError(ValueError):
    """The lattice sum has no certified finite support.

    `index` is the 1-based position of the offending multiplicity entry.
    """

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(
            f"multiplicity L[{index}] = {value} is negative; support not finite"
        )


def coupling_matrix(p: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The (d+2) x (d+2) symmetric coupling matrix over indices (+, -, 0..d-1):
    p on the (+,+) and (-,-) slots, -p+d+1 between + and -, i+1 between a
    sign and level i, and 2(min(i,j)+1) between levels."""
    if p < 2:
        raise ValueError("p must be >= 2")
    if not 0 <= d <= 2 * p - 3:
        raise ValueError("need 0 <= d <= 2p-3")
    size = d + 2
    a = [[0] * size for _ in range(size)]
    a[0][0] = a[1][1] = p
    a[0][1] = a[1][0] = -p + d + 1
    for i in range(d):
        a[0][2 + i] = a[2 + i][0] = i + 1
        a[1][2 + i] = a[2 + i][1] = i + 1
        for j in range(d):
            a[2 + i][2 + j] = 2 * (min(i, j) + 1)
    return tuple(tuple(row) for row in a)


def standard_flow_vector(size: int) -> tuple[int, ...]:
    """(1, -1, 0, ..., 0): the z-grading direction."""
    if size < 2:
        raise ValueError("need at least the two sign coordinates")
    return (1, -1) + (0,) * (size - 2)


@dataclass(frozen=True)
class QuadraticData:
    """Parameters of a lattice sum: symmetric integer matrix plus the
    z-grading vector u, the linear exponent shift v, and the cutoff shift w.

    Every entry of v must lie in (1/2)Z (ValueError otherwise), so that each
    summand's exponent n A n / 2 + v.n does too."""

    matrix: tuple[tuple[int, ...], ...]
    u: tuple[int, ...]
    v: tuple = ()
    w: tuple[int, ...] = ()

    def __post_init__(self):
        m = tuple(tuple(int(x) for x in row) for row in self.matrix)
        size = len(m)
        if any(len(row) != size for row in m):
            raise ValueError("matrix must be square")
        if any(m[i][j] != m[j][i] for i in range(size) for j in range(size)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "matrix", m)
        u = tuple(int(x) for x in self.u)
        v = tuple(norm_exp(Fraction(x)) for x in self.v) or (0,) * size
        if any((2 * x).denominator != 1 for x in v):
            raise ValueError("exponent shift v must lie in (1/2)Z")
        w = tuple(int(x) for x in self.w) or (0,) * size
        if not (len(u) == len(v) == len(w) == size):
            raise ValueError("vector lengths must match the matrix size")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @classmethod
    def for_site(cls, p: int, d: int, r: int = 0) -> "QuadraticData":
        """Coupling data of the weight-r coinvariant character: exponent
        shift v = (p/2-r-1)u and cutoff shift w = -r*u over the standard
        matrix.  (The sign of w follows the shifted balance conditions
        2N_+ - N_{d-1} - 2r and 2N_- - N_{d-1} + 2r, and is the one that
        reproduces the weight-r dimension counts.)"""
        u = standard_flow_vector(d + 2)
        shift = Fraction(p, 2) - r - 1
        return cls(
            coupling_matrix(p, d),
            u,
            tuple(shift * x for x in u),
            tuple(-r * x for x in u),
        )


def support_box(site: SiteVector, w=None) -> list[tuple[int, int]]:
    """Finite per-coordinate bounds containing every nonzero summand of the
    lattice sum at site + w.

    Requires every multiplicity entry of the shifted site to be nonnegative
    (raises NonFiniteSupportError otherwise).  Level coordinates are bounded
    below by 0; the sign coordinates by min(0, floor(C) + 1) with
    C = (2*N_eff - N_eff[d-1]) / (2p - d - 2); upper bounds come from the
    sum of the two sign rows of the support rule,
    (d+1)(n_+ + n_-) + sum_i 2(i+1) n_i <= N_+ + N_-, with the opposite sign
    coordinate at its worst-case lower bound.
    """
    p, d = site.p, site.d
    eff = site if w is None else site.shifted_by(w)
    mult = multiplicities(eff)
    for i, v in enumerate(mult):
        if v < 0:
            raise NonFiniteSupportError(i + 1, v)
    last_level = eff.levels[-1] if d > 0 else 0
    denom = 2 * p - d - 2
    lows = []
    for side in (eff.plus, eff.minus):
        c = (2 * side - last_level) // denom  # floor of the critical ratio
        lows.append(min(0, c + 1))
    budget = eff.plus + eff.minus
    coeff_sign = d + 1
    box = []
    # sign coordinates: the other sign sits at its lower bound, levels at 0
    for a in range(2):
        other_low = lows[1 - a]
        hi = (budget - coeff_sign * other_low) // coeff_sign
        box.append((lows[a], max(lows[a] - 1, hi)))
    slack = budget - coeff_sign * (lows[0] + lows[1])
    for i in range(d):
        hi = slack // (2 * (i + 1))
        box.append((0, max(-1, hi)))
    return box


def _range(step, s, negs, n):
    """The values one coordinate can take, given the partial sums s of nA
    over the coordinates fixed before it and those of them that are
    negative (negs).

    step holds the coordinate's box (lo, hi), its row of A, its own sign row
    (A[i][i] - 1, i), and room / need: eff (+ 1) less the least / greatest
    contribution of the later coordinates over the box.
    """
    lo, hi, row, own, room, need = step
    for a, c in enumerate(row):
        r = room[a] - s[a]
        if c > 0:
            if r < c * hi:
                hi = r // c
        elif c < 0:
            if r < c * lo:
                lo = -(r // -c)
        elif r < 0:
            return ()
    for a in negs:
        c = row[a]
        r = need[a] + n[a] - s[a]
        if c > 0:
            lo = max(lo, -(-r // c))
        elif c < 0:
            hi = min(hi, r // c)
        elif r > 0:
            return ()
    if lo >= 0 or lo > hi:
        return range(lo, hi + 1)
    # the negative branch is cut by the coordinate's own sign row
    neg_hi = min(hi, -1)
    c, i = own
    r = need[i] - s[i]
    if c > 0:
        lo = max(lo, -(-r // c))
    elif c < 0:
        neg_hi = min(neg_hi, r // c)
    elif r > 0:
        neg_hi = lo - 1
    if hi < 0:
        return range(lo, neg_hi + 1)
    return chain(range(lo, neg_hi + 1), range(hi + 1))


def _leaves(box, rows, eff, extended=True):
    """Yield (n, nA) for every n in the box whose summand has no vanishing
    factor; with extended=False, only n >= 0.

    Each coordinate's range is split at 0.  Both branches are cut by every
    upper row (nA)_a <= eff_a and by the sign row (nA)_a - n_a >= eff_a + 1
    of every fixed negative coordinate; the negative branch also by the
    coordinate's own sign row.  The later coordinates enter each row at
    their least (upper rows) or greatest (sign rows) contribution over the
    box, so at the last coordinate every row is exact and every leaf is a
    summand.  The walk is iterative and takes the coordinates last to
    first, which puts the levels of a coupling matrix before the signs.
    """
    m = len(box)
    if m == 0:
        yield (), ()
        return
    order = range(m - 1, -1, -1)
    steps = []
    for i in order:
        lo, hi = box[i]
        if not extended:
            lo = max(lo, 0)  # an empty negative branch
        if lo > hi:
            return
        steps.append((lo, hi, rows[i], (rows[i][i] - 1, i)))
    tmin = tmax = (0,) * m  # least / greatest contribution of the tail
    for k in range(m - 1, -1, -1):
        lo, hi, row, _ = steps[k]
        steps[k] += ([e - t for e, t in zip(eff, tmin)],
                     [e + 1 - t for e, t in zip(eff, tmax)])
        tmin = [t + (c * lo if c > 0 else c * hi) for t, c in zip(tmin, row)]
        tmax = [t + (c * hi if c > 0 else c * lo) for t, c in zip(tmax, row)]
    n = [0] * m
    sums = [[0] * m] + [None] * (m - 1)  # partial sums of nA per position
    negs = [()] * m  # the fixed negative coordinates per position
    values = [iter(_range(steps[0], sums[0], (), n))] + [None] * (m - 1)
    last = m - 1
    k = 0
    while k >= 0:
        i = order[k]
        row = steps[k][2]
        for v in values[k]:
            n[i] = v
            s = [x + v * c for x, c in zip(sums[k], row)] if v else sums[k]
            if k == last:
                yield tuple(n), tuple(s)
                continue
            neg = negs[k] + (i,) if v < 0 else negs[k]
            k += 1
            sums[k] = s
            negs[k] = neg
            values[k] = iter(_range(steps[k], s, neg, n))
            break
        else:
            n[i] = 0
            k -= 1


def _summands(data: QuadraticData, nvec, box, extended=True):
    """Yield (n, zdeg, e2, tops) over the nonzero summands in the box.

    e2 = sum_a n_a ((nA)_a + 2 v_a) is twice the summand's q-exponent, an
    int.  The tops are e_a.(N + w + n - nA).  _leaves applies both the
    support and the sign rule, so every vector it yields is a summand.
    """
    m = data.size
    nvec = tuple(nvec)
    if len(nvec) != m:
        raise ValueError("site vector length must match the matrix size")
    eff = tuple(nvec[a] + data.w[a] for a in range(m))
    u = data.u
    v2 = tuple(int(2 * x) for x in data.v)
    for n, s in _leaves(box, data.matrix, eff, extended):
        tops = tuple(eff[a] + n[a] - s[a] for a in range(m))
        e2 = sum(n[a] * (s[a] + v2[a]) for a in range(m))
        zdeg = sum(u[a] * n[a] for a in range(m))
        yield n, zdeg, e2, tops


def lattice_sum(
    data: QuadraticData,
    nvec,
    box,
    *,
    qmax=None,
    zwin=None,
    extended: bool = True,
) -> BiLaurent:
    """Evaluate the lattice sum over an explicit finite box.

    With extended=False the factors are standard Gaussian binomials, so
    negative bottoms vanish.  The sum is accumulated in packed ints (see
    laurent), one per part (z-degree, e2 & 1), at one byte width.  A first
    pass keeps the surviving summands and the least exponent of each part,
    and sums over them the product of their factors' absolute coefficient
    sums, which bounds every coefficient and fixes the width.  The second
    pass packs each distinct binomial once and adds each product into its
    part at its exponent.

    qmax / zwin truncate the result to q-degree <= qmax and |z-degree| <=
    zwin, exactly.  A summand is skipped only when its z-degree lies outside
    zwin or the closed-form lowest exponents of its factors (ext_min_qexp)
    already put it above qmax.  Other products are added whole, and each
    part is cut at qmax once, when it is unpacked.
    """
    survivors = []
    base: dict = {}  # least exponent of each part
    bound = 0
    for n, zdeg, e2, tops in _summands(data, nvec, box, extended):
        if zwin is not None and abs(zdeg) > zwin:
            continue
        pairs = tuple(zip(tops, n))
        lo = sum(ext_min_qexp(t, b) for t, b in pairs)
        # an int s has s <= qmax - e2/2 exactly when s <= (2*qmax - e2) // 2
        if qmax is not None and lo > (2 * qmax - e2) // 2:
            continue
        key = (zdeg, e2 & 1)
        lo += e2 >> 1
        if base.get(key, lo) >= lo:
            base[key] = lo
        # |value at q = 1| of each factor, the sum of its absolute
        # coefficients: comb(t, b), or comb(-b-1, -t-1) when reflected
        bound += math.prod(
            [math.comb(t if t >= 0 else -b - 1, t - b) for t, b in pairs]
        )
        survivors.append((key, lo, pairs))
    width = _width(bound)
    bits = 8 * width
    packed = _packed_binomials(width)
    parts: dict = {}
    for key, lo, pairs in survivors:
        prod = math.prod([packed[pair] for pair in pairs])
        parts[key] = parts.get(key, 0) + (prod << bits * (lo - base[key]))
    acc = {}
    for key, value in parts.items():
        cap = None if qmax is None else (2 * qmax - key[1]) // 2
        acc[key] = _unpack_qdict(value, width, base[key], cap)
    return BiLaurent._from_halves(acc)


def lattice_support(data: QuadraticData, nvec, box, *, extended=True):
    """Vectors in the box whose summand is not identically zero.

    These are the vectors the support and sign rules leave: each of their
    factors is nonzero, and Z[q, 1/q] has no zero divisors.
    """
    return [n for n, *_ in _summands(data, nvec, box, extended)]


def fermionic_sum(site: SiteVector, w=None, *, qmax=None, zwin=None) -> BiLaurent:
    """The certified lattice sum of a site vector: coupling matrix from
    (p, d), z-grading (1, -1, 0, ...), cutoff shift w, no linear exponent
    shift.  Finiteness requires the multiplicity vector of site + w to be
    nonnegative."""
    p, d = site.p, site.d
    w = tuple(w) if w is not None else (0,) * (d + 2)
    data = _site_data(p, d, w)
    return lattice_sum(
        data, site.components(), support_box(site, w), qmax=qmax, zwin=zwin
    )


@lru_cache(maxsize=256)
def _site_data(p: int, d: int, w: tuple) -> QuadraticData:
    """The QuadraticData of fermionic_sum at (p, d) and cutoff shift w,
    validated once per (p, d, w); the bound keeps the cache small."""
    return QuadraticData(coupling_matrix(p, d), standard_flow_vector(d + 2), (), w)


def gordon_series(p: int, d: int, r: int, qmax: int, zwin: int) -> BiLaurent:
    """Gordon-type character series: the lattice sum with inverse-Pochhammer
    weights 1/(q)_{n_a} over n >= 0, truncated to q-degree <= qmax and
    |z-degree| <= zwin.

    The truncation is certified: enumeration stops only after a full shell
    of constant |n| has minimal exponent beyond qmax, and the next shell is
    checked as well.
    """
    if not 0 <= d <= p - 1:
        raise ValueError("need 0 <= d <= p-1")
    if not 0 <= r < p:
        raise ValueError("need 0 <= r < p")
    if qmax < 0 or zwin < 0:
        raise ValueError("cutoffs must be nonnegative")
    data = QuadraticData.for_site(p, d, r)
    m = data.size
    rows = data.matrix
    u = data.u
    v2 = tuple(int(2 * x) for x in data.v)
    acc: dict = {}
    shell = 0
    clear_shells = 0
    max_shell = 4 * (qmax + zwin + m + 8)
    while clear_shells < 2:
        if shell > max_shell:
            raise RuntimeError("shell pruning did not certify the cutoff")
        shell_min = None  # least doubled exponent e2 on the shell
        for n in _shell_vectors(m, shell):
            s = [sum(n[b] * rows[b][a] for b in range(m)) for a in range(m)]
            e2 = sum(n[a] * (s[a] + v2[a]) for a in range(m))
            if shell_min is None or e2 < shell_min:
                shell_min = e2
            if e2 > 2 * qmax:
                continue
            zdeg = sum(u[a] * n[a] for a in range(m))
            if abs(zdeg) > zwin:
                continue
            room = (2 * qmax - e2) // 2
            factors = [
                {j: c for j, c in enumerate(bounded_partition_counts(na, room)) if c}
                for na in n
            ]
            _half_iadd(acc, zdeg, e2, _qdict_prod(factors, room))
        if shell_min is not None and shell_min > 2 * qmax:
            clear_shells += 1
        else:
            clear_shells = 0
        shell += 1
    return BiLaurent._from_halves(acc)


def _shell_vectors(m: int, total: int):
    """All n >= 0 in Z^m with sum(n) == total."""
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _shell_vectors(m - 1, total - first):
            yield (first,) + rest
