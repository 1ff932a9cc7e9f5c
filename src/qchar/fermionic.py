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

Factoring.  Split n into the sign block n_S (the first two coordinates)
and the level block n_L.  The factors and the exponent terms of the sign
block see the level block only through y = n_L A_LS, and those of the
level block see the sign block only through x = n_S A_SL.  So the
summands with one (x, y) are all pairs of a sign part and a level part,
and lattice_sum multiplies the two sums once per group instead of the
factors once per summand.  In coupling_matrix the sign/level block has
rank one: y is a multiple of sum_i (i+1) n_i and x of n_+ + n_-, the
chain structure of Andrews' multiple-sum Gordon identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub

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
    @lru_cache(maxsize=256)
    def for_site(cls, p: int, d: int, r: int = 0) -> "QuadraticData":
        """Coupling data of the weight-r coinvariant character: exponent
        shift v = (p/2-r-1)u and cutoff shift w = -r*u over the standard
        matrix.  (The sign of w follows the shifted balance conditions
        2N_+ - N_{d-1} - 2r and 2N_- - N_{d-1} + 2r, and is the one that
        reproduces the weight-r dimension counts.)  Built and validated
        once per (p, d, r); the bound keeps the cache small."""
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


def _steps(box, rows, eff, extended=True):
    """The steps of the walk over a box, one per coordinate, last coordinate
    first: (lo, hi, row, own, room, need) as _range reads them.  None when
    a coordinate's range is empty; with extended=False the ranges start at 0.
    need is read only below 0, so it is left None when no range reaches
    below 0.
    """
    m = len(box)
    steps = []
    for i in range(m - 1, -1, -1):
        lo, hi = box[i]
        if not extended:
            lo = max(lo, 0)  # an empty negative branch
        if lo > hi:
            return None
        steps.append((lo, hi, rows[i], (rows[i][i] - 1, i)))
    signed = any(step[0] < 0 for step in steps)
    tmin = tmax = (0,) * m  # least / greatest contribution of the tail
    for k in range(m - 1, -1, -1):
        lo, hi, row, _ = steps[k]
        lows = [c * lo for c in row]
        highs = [c * hi for c in row]
        need = None
        if signed:
            need = [e + 1 - t for e, t in zip(eff, tmax)]
            tmax = list(map(add, tmax, map(max, lows, highs)))
        steps[k] += (list(map(sub, eff, tmin)), need)
        tmin = list(map(add, tmin, map(min, lows, highs)))
    return steps


def _walk(steps, n, s):
    """Walk the coordinates of the steps in order, writing each value into
    n, and yield (s, negs) at every leaf: s is the start sums plus the
    walked coordinates' contribution to the rows, negs the walked
    coordinates that are negative.  With no steps, yield (s, ()) once.
    """
    m = len(steps)
    if m == 0:
        yield s, ()
        return
    sums = [s] + [None] * (m - 1)  # partial sums of the rows per position
    negs = [()] * m  # the walked negative coordinates per position
    values = [iter(_range(steps[0], s, (), n))] + [None] * (m - 1)
    last = m - 1
    k = 0
    while k >= 0:
        _, _, row, (_, i), _, _ = steps[k]
        for v in values[k]:
            n[i] = v
            s = [x + v * c for x, c in zip(sums[k], row)] if v else sums[k]
            neg = negs[k] + (i,) if v < 0 else negs[k]
            if k == last:
                yield s, neg
                continue
            k += 1
            sums[k] = s
            negs[k] = neg
            values[k] = iter(_range(steps[k], s, neg, n))
            break
        else:
            n[i] = 0
            k -= 1


def _sign_leaves(steps, n, s, negs, out):
    """Append (copy of n, s) to out at every leaf of the walk of two steps
    that starts from the sums s and the negative coordinates negs: _walk
    for the two sign coordinates below a leaf of the level block, without
    the set-up of a generator."""
    first, last = steps
    i, j = first[3][1], last[3][1]
    for v in _range(first, s, negs, n):
        n[i] = v
        s1 = [x + v * c for x, c in zip(s, first[2])] if v else s
        neg = negs + (i,) if v < 0 else negs
        for w in _range(last, s1, neg, n):
            n[j] = w
            s0 = [x + w * c for x, c in zip(s1, last[2])] if w else s1
            out.append((n[:], s0))
        n[j] = 0
    n[i] = 0


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
    steps = _steps(box, rows, eff, extended)
    if steps is None:
        return
    n = [0] * len(box)
    for s, _ in _walk(steps, n, [0] * len(box)):
        yield tuple(n), tuple(s)


def _summands(data: QuadraticData, nvec, box, extended=True):
    """Yield (n, zdeg, e2, tops) over the nonzero summands in the box.

    e2 = sum_a n_a ((nA)_a + 2 v_a) is twice the summand's q-exponent, an
    int.  The tops are e_a.(N + w + n - nA).  _leaves applies both the
    support and the sign rule, so every vector it yields is a summand.
    """
    m = data.size
    eff = _eff(data, nvec)
    u = data.u
    v2 = tuple(int(2 * x) for x in data.v)
    for n, s in _leaves(box, data.matrix, eff, extended):
        tops = tuple(eff[a] + n[a] - s[a] for a in range(m))
        e2 = sum(n[a] * (s[a] + v2[a]) for a in range(m))
        zdeg = sum(u[a] * n[a] for a in range(m))
        yield n, zdeg, e2, tops


def _eff(data: QuadraticData, nvec) -> list:
    """N + w, the cutoffs the rows of the support rule compare with."""
    nvec = tuple(nvec)
    if len(nvec) != data.size:
        raise ValueError("site vector length must match the matrix size")
    return [x + w for x, w in zip(nvec, data.w)]


def _factor_data(tops, bottoms, e2):
    """(e2 & 1, least integer exponent, |value at q = 1|) of q^(e2/2) times
    the product of the nonzero binomials [t choose b].  The least exponent
    adds ext_min_qexp's, which is 0 for every standard binomial; the value
    at q = 1 of a factor is the sum of its absolute coefficients, comb(t, b),
    or comb(-b-1, t-b) when it is reflected."""
    if min(bottoms, default=0) >= 0:
        return e2 & 1, e2 >> 1, math.prod(map(math.comb, tops, bottoms))
    lo = e2 >> 1
    bound = 1
    for t, b in zip(tops, bottoms):
        if b < 0:
            lo += ext_min_qexp(t, b)
            bound *= math.comb(-b - 1, t - b)
        else:
            bound *= math.comb(t, b)
    return e2 & 1, lo, bound


# lattice_sum keeps up to this many summands of a sum in groups of one
# before it groups the rest: grouping has a fixed cost per sign tail and
# per group that a small sum does not win back.  Measured per call on the
# lattice sums of `qchar verify all`, `verify char-eq --entry-max 6` and
# `verify tb --nmax 7` (2 vCPUs, Python 3.11.7), grouping from the first
# summand took 1.21-1.23x the time of no grouping at 4-7 summands,
# 1.07-1.08x at 12-15, 0.98x at 16-23, 0.93-0.94x at 24-31 and 0.63x at
# 128-511.
_FACTOR_MIN = 16


def _groups(data, eff, v2, steps):
    """The summands in the walk of the steps, as groups (sign vectors,
    level sums): every sign vector of a group pairs with every level part
    of its level sums.

    The level block (all but the first two coordinates) is walked once.
    Until the sum has more than _FACTOR_MIN summands, each leaf of that walk
    walks its own sign vectors with every row, and each summand is a group
    of its own, n paired with an empty level part.  The later leaves are
    grouped by the cross contributions (x, y) of the sign and the level
    block: the sign vectors at each y are walked once, with the sign rows
    alone, and grouped by x, and each leaf adds its level part
    z^(u.n) q^(e2/2) times its binomials to the level sum of each x group
    its own rows allow, keyed by (z-degree, e2 & 1).  A level sum is
    [least exponent, |value at q = 1|, [(exponent, pairs)], packed value
    or None].
    """
    m = len(steps)
    ns = 2
    n = [0] * m
    leaves = []
    # the summands one by one, each paired with the empty level part:
    # exponent 0, value 1 at q = 1, no binomials
    groups = [(leaves, {(0, 0): [0, 1, [(0, ())], None]})]
    if m <= ns:  # no level block
        leaves += [(n[:], s) for s, _ in _walk(steps, n, [0] * m)]
        return groups
    walk = _walk(steps[: m - ns], n, [0] * m)
    sign_steps = steps[m - ns:]
    for s, negs in walk:
        _sign_leaves(sign_steps, n, s, negs, leaves)
        if len(leaves) > _FACTOR_MIN:
            break
    else:
        return groups
    rows, u = data.matrix, data.u
    eff_l, u_l, v2_l = eff[ns:], u[ns:], v2[ns:]
    cross = list(zip(*[row[ns:] for row in rows[:ns]]))  # A_LS, row by row
    cut = [(lo, hi, row[:ns], own, room[:ns], need and need[:ns])
           for lo, hi, row, own, room, need in sign_steps]  # sign rows only
    tails: dict = {}  # y -> {x: (sign vectors, {(z-degree, e2 & 1): level sum})}
    for s, negs in walk:
        y = tuple(s[:ns])
        tail = tails.get(y)
        if tail is None:
            tail = tails[y] = {}
            signs = []
            _sign_leaves(cut, n, list(y), (), signs)
            for n_s, s_s in signs:
                n_s = n_s[:ns]
                x = tuple([sum(map(mul, row, n_s)) for row in cross])
                group = tail.get(x)
                if group is None:
                    group = tail[x] = ([], {})
                group[0].append((n_s, s_s))
        n_l = n[ns:]
        s_l = s[ns:]
        room = [e + b - t for e, b, t in zip(eff_l, n_l, s_l)]
        z_l = sum(map(mul, u_l, n_l))
        e2_l = sum(map(mul, n_l, map(add, s_l, v2_l)))
        for x, group in tail.items():
            tops = list(map(sub, room, x))  # eff + n - nA at this x
            if negs:  # b <= t, and t < 0 for every negative bottom b
                if any(b > t or t >= 0 > b for t, b in zip(tops, n_l)):
                    continue
            elif min(map(sub, tops, n_l)) < 0:
                continue
            e2 = e2_l + sum(map(mul, n_l, x))
            par, lo, bound = _factor_data(tops, n_l, e2)
            key = (z_l, par)
            level = group[1].get(key)
            if level is None:
                level = group[1][key] = [lo, 0, [], None]
            elif lo < level[0]:
                level[0] = lo
            level[1] += bound
            level[2].append((lo, tuple(zip(tops, n_l))))
    groups += [g for tail in tails.values() for g in tail.values() if g[1]]
    return groups


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
    negative bottoms vanish.

    The sum factors through the coupling of the first two coordinates, the
    sign block S, with the rest, the level block L.  The factors of S
    depend on n only through n_S and y = n_L A_LS, those of L only through
    n_L and x = n_S A_SL, and twice the exponent splits as
    e2 = e2_S(n_S, y) + e2_L(n_L, x), each half holding the cross term
    n_S.y = n_L.x once.  So the summands with one key (x, y) are exactly
    the pairs of a sign part (n_S at y) and a level part (n_L at x), and

        lattice_sum = sum over (x, y) of (sum of sign parts) * (sum of level parts).

    For a coupling matrix y = (S, S) with S = sum_i (i+1) n_i, and
    x_i = (i+1)(n_+ + n_-).  The split is exact for every matrix; at worst
    each group holds one summand.  _groups forms the groups from one walk
    of the level block; until a sum has more than _FACTOR_MIN summands it
    keeps them in groups of one, since grouping costs more than it saves
    on a small sum.  Within a group the level parts are summed per
    (z-degree, e2 & 1), and each sign part is multiplied by each of those
    sums once.

    The sum is accumulated in packed ints (see laurent), one per part
    (z-degree, e2 & 1), at one byte width.  Every coefficient is at most
    the sum over the summands of the product of their factors' absolute
    coefficient sums, which fixes the width; a group adds (sign total)
    times (level total), so the bound is the one a summand-by-summand sum
    gives.  Each binomial, sign part and level sum is packed or multiplied
    once.

    qmax / zwin truncate the result to q-degree <= qmax and |z-degree| <=
    zwin, exactly.  A product of a sign part and a level sum is skipped
    only when its z-degree lies outside zwin or the closed-form lowest
    exponents of its factors (ext_min_qexp) already put it above qmax.
    Other products are added whole, and each part is cut at qmax once,
    when it is unpacked.
    """
    eff = _eff(data, nvec)
    steps = _steps(box, data.matrix, eff, extended)
    if steps is None:
        return BiLaurent.zero()
    v2 = [int(2 * x) for x in data.v]
    groups = _groups(data, eff, v2, steps)
    u = data.u
    # pair every sign part of a group with each of its level sums
    base: dict = {}  # least exponent of each part
    bound = 0
    products = []
    for signs, levels in groups:
        for n_s, s_s in signs:
            tops = [e + b - t for e, b, t in zip(eff, n_s, s_s)]
            e2 = sum(map(mul, n_s, map(add, s_s, v2)))
            par_s, lo_s, bound_s = _factor_data(tops, n_s, e2)
            z_s = sum(map(mul, u, n_s))
            sign = [tuple(zip(tops, n_s)), None]
            for (z_l, par_l), level in levels.items():
                zdeg = z_s + z_l
                if zwin is not None and abs(zdeg) > zwin:
                    continue
                par = par_s ^ par_l
                lo = lo_s + level[0] + (par_s & par_l)
                # an int s has s <= qmax - par/2 iff s <= (2*qmax - par) // 2
                if qmax is not None and lo > (2 * qmax - par) // 2:
                    continue
                key = (zdeg, par)
                if base.get(key, lo) >= lo:
                    base[key] = lo
                bound += bound_s * level[1]
                products.append((key, lo, sign, level))
    width = _width(bound)
    bits = 8 * width
    packed = _packed_binomials(width)
    parts: dict = {}
    for key, lo, sign, level in products:
        if sign[1] is None:
            sign[1] = math.prod([packed[pair] for pair in sign[0]])
        if level[3] is None:
            low = level[0]
            level[3] = sum(
                math.prod([packed[pair] for pair in pairs]) << bits * (e - low)
                for e, pairs in level[2]
            )
        prod = sign[1] * level[3] << bits * (lo - base[key])
        parts[key] = parts.get(key, 0) + prod
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

    The truncation rests on a stopping rule, not on a proof: the shells of
    constant |n|_1 are scanned in order, and the scan stops after two
    shells in a row whose least exponent exceeds qmax.  A summand beyond
    them with exponent <= qmax would be missed; none is known.  After
    max_shell shells without two clear ones it raises RuntimeError.
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
