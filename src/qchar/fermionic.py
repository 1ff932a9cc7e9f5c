"""Fermionic lattice sums: the coupling matrix, certified support boxes,
the general quadratic-form sum engine, and the Gordon-type series.

The central object is

    lattice_sum(data, nvec, box) =
        sum over n in box of
            z^(u.n) q^(n A n / 2 + v.n) *
            prod_a qbinomial_ext(e_a.(N + n - nA), e_a.n)

Support and sign rules.  A factor X(t_a, n_a) vanishes unless n_a <= t_a,
for both signs of n_a and both binomial kinds, and t_a = N_a + n_a - (nA)_a.
It also vanishes when n_a < 0 <= t_a, and for standard binomials whenever
n_a < 0.  Every other factor is nonzero.  Once the sign of each n_a is
fixed, both rules are linear: every nonzero summand satisfies the upper
rows

    (nA)_a <= N_a                        for every a,

and, for each a with n_a < 0, the sign row

    (nA)_a - n_a >= N_a + 1.

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
chain structure of Andrews' multiple-sum Gordon identities.  The level
table and the level sums read neither the sign cutoffs nor v on the signs,
so lattice_sum keeps them by their level key (see _groups), and the
weights r of one coinvariant character walk the level block once and
build each level sum once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import add, mul, sub

from .laurent import (
    BiLaurent,
    bounded_partition_counts,
    norm_exp,
    _Record,
    _exact_int,
    _pack,
    _qdict_iadd,
    _unpack_qdict,
    _width,
)
from .qbinom import _ext_min_qexp, _packed
from .supernomial import SiteVector, _shift, _weight, multiplicities

__all__ = [
    "NonFiniteSupportError",
    "QuadraticData",
    "coupling_matrix",
    "fermionic_sum",
    "gordon_series",
    "lattice_sum",
    "lattice_support",
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
    sign and level i, and 2(min(i,j)+1) between levels.  p and d must be
    exact integers (ValueError otherwise)."""
    p, d = _exact_int(p), _exact_int(d)
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


class QuadraticData(_Record):
    """Parameters of a lattice sum: symmetric integer matrix plus the
    z-grading vector u and the linear exponent shift v.

    Every entry of the matrix and of u must be an exact integer, and every
    entry of v must lie in (1/2)Z (ValueError otherwise), so that each
    summand's exponent n A n / 2 + v.n does too."""

    __slots__ = ("matrix", "u", "v")

    def __init__(self, matrix: tuple, u: tuple, v: tuple = ()):
        m = tuple(tuple(map(_exact_int, row)) for row in matrix)
        size = len(m)
        if any(len(row) != size for row in m):
            raise ValueError("matrix must be square")
        if any(m[i][j] != m[j][i] for i in range(size) for j in range(size)):
            raise ValueError("matrix must be symmetric")
        u = tuple(map(_exact_int, u))
        v = tuple(v) or (0,) * size
        if any(not isinstance(x, (int, Fraction)) or x * 2 % 1 for x in v):
            raise ValueError("exponent shift v must be exact and lie in (1/2)Z")
        v = tuple(map(norm_exp, v))
        if not (len(u) == len(v) == size):
            raise ValueError("vector lengths must match the matrix size")
        self._set(m, u, v)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @classmethod
    @lru_cache(maxsize=256)
    def for_site(cls, p: int, d: int, shift=0) -> "QuadraticData":
        """Coupling matrix of (p, d), z-grading u = (1, -1, 0, ...) and
        exponent shift v = shift*u.  Built and validated once per
        (p, d, shift); the bound keeps the cache small."""
        u = (1, -1) + (0,) * d
        return cls(coupling_matrix(p, d), u, tuple(shift * x for x in u))


def support_box(site: SiteVector) -> list[tuple[int, int]]:
    """Finite per-coordinate bounds containing every nonzero summand of the
    lattice sum at the site.

    Requires every multiplicity entry of the site to be nonnegative (raises
    NonFiniteSupportError otherwise).  Level coordinates are bounded below
    by 0; the sign coordinates by min(0, floor(C) + 1) with
    C = (2*N - N[d-1]) / (2p - d - 2) for N = N_+ and N = N_-; upper bounds
    come from the sum of the two sign rows of the support rule,
    (d+1)(n_+ + n_-) + sum_i 2(i+1) n_i <= N_+ + N_-, with the opposite sign
    coordinate at its worst-case lower bound.

    Since d <= 2p - 3, 2p - d - 2 >= 1, so a sign lower bound is 0 exactly
    when C >= -1, i.e. 2*N - N[d-1] >= -(2p - d - 2): the balance condition.
    The box has no negative coordinate exactly at the balanced sites, where
    the lattice sum needs only standard binomials.
    """
    p, d = site.p, site.d
    mult = multiplicities(site)
    for i, v in enumerate(mult):
        if v < 0:
            raise NonFiniteSupportError(i + 1, v)
    last_level = site.levels[-1] if d > 0 else 0
    denom = 2 * p - d - 2
    lows = []
    for side in (site.plus, site.minus):
        c = (2 * side - last_level) // denom  # floor of the critical ratio
        lows.append(min(0, c + 1))
    budget = site.total
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

    The sign row of a fixed negative coordinate a asks c * v >= r of this
    coordinate's value v, c = row[a] and r = need[a] + n[a] - s[a].  A
    coordinate with c = 0 in that row is never cut by it, since then
    r <= 0.  The invariant: r is at most the greatest c * v over the box.
    It holds at the step after a, whose own sign row cut its negative
    branch to keep row a satisfiable by the greatest contribution of the
    coordinates after it; a step with c != 0 cuts its range to c * v >= r,
    which keeps it at the next step; and a step with c = 0 adds 0 to r and
    to that greatest contribution.
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


def _steps(box, rows, eff):
    """The steps of the walk over a box, one per coordinate, last coordinate
    first: (lo, hi, row, own, room, need) as _range reads them.  None when
    a coordinate's range is empty.  _range reads need only for negative
    coordinates, so on a box with none it is computed and never read.
    """
    m = len(box)
    steps = []
    for i in range(m - 1, -1, -1):
        lo, hi = box[i]
        if lo > hi:
            return None
        steps.append((lo, hi, rows[i], (rows[i][i] - 1, i)))
    tmin = tmax = (0,) * m  # least / greatest contribution of the tail
    for k in range(m - 1, -1, -1):
        lo, hi, row, _ = steps[k]
        lows = [c * lo for c in row]
        highs = [c * hi for c in row]
        steps[k] += (list(map(sub, eff, tmin)),
                     [e + 1 - t for e, t in zip(eff, tmax)])
        tmin = list(map(add, tmin, map(min, lows, highs)))
        tmax = list(map(add, tmax, map(max, lows, highs)))
    return steps


def _walk(steps, start):
    """The leaves (n, s, negs) of a walk of the steps in order from the
    list of start leaves: n the vector, s the start sums plus the walked
    coordinates' contribution to the rows, negs the start negative
    coordinates plus the walked negative ones.  With no steps, the start.

    Each step extends every partial vector in turn by each value that
    _range gives its coordinate, in a copy of n.  So the leaves come in the
    order of a depth-first walk, and the walk holds one depth of partial
    vectors at a time, with no frame per step.
    """
    leaves = start
    for step in steps:
        row, i = step[2], step[3][1]
        grown = []
        for n, s, negs in leaves:
            for v in _range(step, s, negs, n):
                m = n[:]
                m[i] = v
                grown.append((m, [x + v * c for x, c in zip(s, row)] if v else s,
                              negs + (i,) if v < 0 else negs))
        leaves = grown
    return leaves


def _leaves(box, rows, eff):
    """Yield (n, nA) for every n in the box whose summand has no vanishing
    factor.

    Each coordinate's range is split at 0.  Both branches are cut by every
    upper row (nA)_a <= eff_a and by the sign row (nA)_a - n_a >= eff_a + 1
    of every fixed negative coordinate; the negative branch also by the
    coordinate's own sign row.  The later coordinates enter each row at
    their least (upper rows) or greatest (sign rows) contribution over the
    box, so at the last coordinate every row is exact and every leaf is a
    summand.  _walk takes the coordinates last to first, which puts the
    levels of a coupling matrix before the signs.
    """
    steps = _steps(box, rows, eff)
    if steps is None:
        return
    for n, s, _ in _walk(steps, [([0] * len(box), [0] * len(box), ())]):
        yield tuple(n), tuple(s)


def _summands(data: QuadraticData, nvec, box):
    """Yield (n, zdeg, e2, tops) over the nonzero summands in the box.

    e2 = sum_a n_a ((nA)_a + 2 v_a) is twice the summand's q-exponent, an
    int.  The tops are e_a.(N + n - nA).  _leaves applies both the
    support and the sign rule, so every vector it yields is a summand.
    """
    m = data.size
    eff, box = _eff(data, nvec, box)
    u = data.u
    v2 = tuple(int(2 * x) for x in data.v)
    for n, s in _leaves(box, data.matrix, eff):
        tops = tuple(eff[a] + n[a] - s[a] for a in range(m))
        e2 = sum(n[a] * (s[a] + v2[a]) for a in range(m))
        zdeg = sum(u[a] * n[a] for a in range(m))
        yield n, zdeg, e2, tops


def _eff(data: QuadraticData, nvec, box, qmax=None, zwin=None):
    """(N, box) as lists, N the cutoffs the rows of the support rule compare
    with: the one check of a lattice sum's inputs.  ValueError unless N has
    one exact integer per coordinate, the box one (lo, hi) pair of exact
    integers per coordinate, and qmax and zwin are each None or an exact
    number in (1/2)Z (an int or a Fraction)."""
    eff = list(map(_exact_int, nvec))
    if len(eff) != data.size:
        raise ValueError("site vector length must match the matrix size")
    try:
        box = [(_exact_int(lo), _exact_int(hi)) for lo, hi in box]
    except (TypeError, ValueError):  # not pairs, or not exact integers
        box = None
    if box is None or len(box) != len(eff):
        raise ValueError("the box needs one (lo, hi) pair of exact integers "
                         "per coordinate")
    for cut in (qmax, zwin):
        if cut is not None and not (isinstance(cut, (int, Fraction))
                                    and (2 * cut).denominator == 1):
            raise ValueError(f"cutoff {cut!r} is not an exact number in (1/2)Z")
    return eff, box


def _factor_data(tops, bottoms, e2):
    """(e2 & 1, least integer exponent, |value at q = 1|) of q^(e2/2) times
    the product of the nonzero binomials [t choose b].  The least exponent
    adds _ext_min_qexp's, which is 0 for every standard binomial; the value
    at q = 1 of a factor is the sum of its absolute coefficients, comb(t, b),
    or comb(-b-1, t-b) when it is reflected."""
    if min(bottoms, default=0) >= 0:
        return e2 & 1, e2 >> 1, math.prod(map(math.comb, tops, bottoms))
    lo = e2 >> 1
    bound = 1
    for t, b in zip(tops, bottoms):
        if b < 0:
            lo += _ext_min_qexp(t, b)
            bound *= math.comb(-b - 1, t - b)
        else:
            bound *= math.comb(t, b)
    return e2 & 1, lo, bound


# lattice_sum keeps up to this many summands of a sum in groups of one
# before it groups the rest: grouping has a fixed cost per sign tail and
# per group that a small sum does not win back.  Measured per call on the
# lattice sums of `qchar verify all`, `verify char-eq --entry-max 6` and
# `verify tb --nmax 7` (2 vCPUs, Python 3.11.7), grouping from the first
# summand took 1.2-1.4x the time of no grouping below 12 summands,
# 0.95-1.05x at 16-31 and 0.8-0.95x at 32-127.  Timed in one process on
# the sums of the default tb and char-eq sweeps (two runs of 15 alternating
# reps in opposite orders, min and median against 16): threshold 0 took
# 1.03-1.18x on tb and 1.30-1.37x on char-eq; 8 and 32 took 0.93-1.05x,
# within the spread of the runs, so 16 stays.
_FACTOR_MIN = 16


# the level table and the level sums of the last level key that grouped,
# {key: (level table, {(y, x): level sums})}; see _groups.  One entry is
# enough for a loop over the weights r of a site.
_LEVELS: dict = {}


def _groups(data, eff, v2, box, steps):
    """The sign parts of the summands in the walk of the steps, each as
    (tops, bottoms, z-degree, e2 & 1, least exponent, |value at q = 1|,
    level sums): every sign part pairs with every level part of its level
    sums.

    Until a sum has more than _FACTOR_MIN summands, each summand is a sign
    part of its own, over every coordinate, paired with an empty level
    part: the level block (all but the first two coordinates) is walked
    with every row into a list, and each of its leaves in turn walks its
    sign vectors.  Past that, every summand is grouped by the cross
    contributions (x, y) of the sign and the level block.  The sign
    vectors at each y of the level table (see _level_table) are walked
    with the sign rows alone; a grouped sign part has the two coordinates
    (n_+, n_-), and its level sums at (y, x) are read from _LEVELS, or
    summed from the table's leaves at y and added to it.  A sign vector
    that passes the sign rows pairs with a level leaf exactly when that
    leaf's binomials are nonzero at its x, so _level_sums drops every leaf
    that forms no summand.

    The level table comes from a walk of the level block with the level
    rows only, made once per level key and kept with the level sums in
    _LEVELS.  That walk sets each sign cutoff N_a to
    1 + sum_j |A_aj| max(|lo_j|, |hi_j|) over the box.  _range reads a sign
    row there only as an upper row, room - s against c * v at the walked
    coordinate's bounds v: it reads the need of a sign row only at a
    negative sign coordinate, and the level walk fixes none.  And
    room - s - c * v is N_a less a sum of terms A_aj n_j, one per
    coordinate j, each n_j in its box, so it is at least 1 and the row
    cuts nothing.  The level rows cut as in the walk of every row, with the
    sign coordinates anywhere in their box.  So the table holds every level
    vector in the box that forms a summand with some sign vector in the box,
    whatever the sign cutoffs, and it reads the matrix, u and v2 on the
    levels, the level cutoffs and the whole box: the key of _LEVELS.

    The sharing is exact.  The level sum at (y, x) runs over every level
    leaf of the table at y whose binomials are nonzero at x.  A level
    vector at y whose binomials are nonzero at the x of a sign vector in
    the box passes every level row at that sign vector, so it is a leaf of
    the table.  So the sum is over every such vector in the level box and
    reads neither the sign cutoffs, v on the signs, qmax nor zwin.  The
    weight r of a coinvariant character moves only the sign cutoffs and v
    on the signs (v2 is 0 on the levels), and coinv_char_fermionic passes
    one box for every r, so the calls of a loop over r share one key: a
    grouped call on a kept key walks no level block and builds no table.
    """
    m = len(steps)
    ns = 2
    start = [([0] * m, [0] * m, ())]
    if m <= ns:  # no level block
        return _one_by_one(data, eff, v2, _walk(steps, start))
    key = (data.matrix, data.u[ns:], tuple(v2[ns:]), tuple(eff[ns:]),
           tuple(box))
    kept = _LEVELS.get(key)
    if kept is None:
        leaves = []
        for leaf in _walk(steps[: m - ns], start):
            leaves += _walk(steps[m - ns:], [leaf])
            if len(leaves) > _FACTOR_MIN:
                break
        else:
            return _one_by_one(data, eff, v2, leaves)
        free = [1 + sum(abs(c) * max(abs(lo), abs(hi))
                        for c, (lo, hi) in zip(row, box))
                for row in data.matrix[:ns]]  # sign cutoffs that cut nothing
        block = _walk(_steps(box, data.matrix, free + eff[ns:])[: m - ns],
                      start)
        _LEVELS.clear()
        kept = _LEVELS[key] = (_level_table(data, eff, v2, block), {})
    table, sums = kept
    e0, e1 = eff[:ns]
    u0, u1 = data.u[:ns]
    w0, w1 = v2[:ns]
    cross = list(zip(*[row[ns:] for row in data.matrix[:ns]]))  # A_LS by rows
    cut = [(lo, hi, row[:ns], own, room[:ns], need[:ns])
           for lo, hi, row, own, room, need in steps[m - ns:]]  # sign rows
    parts = []
    for y, at_y in table.items():
        for (b0, b1), (s0, s1), _ in _walk(cut, [([0] * ns, list(y), ())]):
            x = tuple([c0 * b0 + c1 * b1 for c0, c1 in cross])
            levels = sums.get((y, x))
            if levels is None:
                levels = sums[y, x] = _level_sums(at_y, x)
            if not levels:
                continue
            t0, t1 = e0 + b0 - s0, e1 + b1 - s1
            e2 = b0 * (s0 + w0) + b1 * (s1 + w1)
            if b0 >= 0 and b1 >= 0:
                bound = math.comb(t0, b0) * math.comb(t1, b1)
                par, lo = e2 & 1, e2 >> 1
            else:
                par, lo, bound = _factor_data((t0, t1), (b0, b1), e2)
            parts.append(((t0, t1), (b0, b1), u0 * b0 + u1 * b1, par, lo,
                          bound, levels))
    return parts


def _one_by_one(data, eff, v2, leaves):
    """The summands of the leaves (n, nA, negative coordinates) as sign
    parts over every coordinate, each paired with the empty level part:
    exponent 0, value 1 at q = 1, no binomials."""
    u = data.u
    levels = {(0, 0): [0, 1, [(0, ())], None]}
    parts = []
    for n, s, _ in leaves:
        tops = [e + b - t for e, b, t in zip(eff, n, s)]
        e2 = sum(map(mul, n, map(add, s, v2)))
        parts.append((tops, n, sum(map(mul, u, n)),
                      *_factor_data(tops, n, e2), levels))
    return parts


def _level_table(data, eff, v2, walked):
    """The leaves of a level block, popped from the list of the leaves
    (n, nA, negative coordinates) of its walk, which ends empty: a dict
    from y = n_L A_LS to the leaves at y, each as (n_L, its binomials' tops
    before x is taken off, whether some n_a < 0, z-degree, e2 before the
    cross term)."""
    ns = 2
    eff_l, u_l, v2_l = eff[ns:], data.u[ns:], v2[ns:]
    leaves: dict = {}
    walked.reverse()  # pop in walk order, freeing each leaf once read
    while walked:
        n, s, negs = walked.pop()
        n_l, y, s_l = n[ns:], tuple(s[:ns]), s[ns:]
        leaf = (n_l, tuple([e + b - t for e, b, t in zip(eff_l, n_l, s_l)]),
                bool(negs), sum(map(mul, u_l, n_l)),
                sum(map(mul, n_l, map(add, s_l, v2_l))))
        leaves.setdefault(y, []).append(leaf)
    return leaves


def _level_sums(leaves, x):
    """The level parts z^(u.n) q^(e2/2) times the binomials of the leaves
    at the cross contribution x, summed per (z-degree, e2 & 1), over the
    leaves whose binomials are all nonzero at x.  A level sum is
    [least exponent, |value at q = 1|, [(exponent, pairs)], (width, packed
    value) or None]; _level_value packs it."""
    sums: dict = {}
    for n_l, room, negs, z_l, e2_l in leaves:
        tops = list(map(sub, room, x))  # eff + n - nA at this x
        if negs:  # b <= t, and t < 0 for every negative bottom b
            if any(b > t or t >= 0 > b for t, b in zip(tops, n_l)):
                continue
        elif min(map(sub, tops, n_l)) < 0:
            continue
        e2 = e2_l + sum(map(mul, n_l, x))
        par, lo, bound = _factor_data(tops, n_l, e2)
        key = (z_l, par)
        level = sums.get(key)
        if level is None:
            level = sums[key] = [lo, 0, [], None]
        elif lo < level[0]:
            level[0] = lo
        level[1] += bound
        level[2].append((lo, tuple(zip(tops, n_l))))
    return sums


def _level_value(level, width):
    """The level sum packed at `width` bytes, kept with its width, for a
    lattice sum that found no value kept at that width.  The first packing
    reads the (exponent, pairs) list and then drops it; another width
    repacks the kept value digit by digit.  Every coefficient fits at any
    width a lattice sum picks for a product with this level sum.  The kept
    pair is stored before the list is dropped, so a reader that finds no
    list finds the pair."""
    pairs = level[2]
    if pairs is not None:
        bits, low = 8 * width, level[0]
        value = sum(
            math.prod([_packed(t, b, width) for t, b in factors])
            << bits * (e - low)
            for e, factors in pairs
        )
    else:
        old, kept = level[3]
        digits = _unpack_qdict(kept, old, 0)
        dense = [digits.get(k, 0) for k in range(max(digits, default=-1) + 1)]
        value = _pack(dense, width) if dense else 0
    level[3] = (width, value)
    level[2] = None
    return value


def lattice_sum(
    data: QuadraticData,
    nvec,
    box,
    *,
    qmax=None,
    zwin=None,
) -> BiLaurent:
    """Evaluate the lattice sum over an explicit finite box.  N needs one
    exact integer and the box one (lo, hi) pair of exact integers per
    coordinate (ValueError otherwise).

    A box with no negative coordinate gives the standard-binomial sum: for
    n >= 0 every nonzero factor has 0 <= n_a <= t_a, where the extended and
    the standard Gaussian binomial agree.

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
    each group holds one summand.  _groups yields the sign parts with
    their level sums; until a sum has more than _FACTOR_MIN summands it
    keeps them in groups of one, each summand a sign part over every
    coordinate, since grouping costs more than it saves on a small sum.
    Past that a sign part has the two sign coordinates.  The level table
    and the level sums of the last level key are kept for the calls that
    share it (see _groups).  Within a group the level parts are summed per
    (z-degree, e2 & 1), and each sign part is multiplied by each of those
    sums once: one row (part key, least exponent, tops, bottoms, level sum)
    per sign part and level sum.

    The sum is accumulated in packed ints (see laurent), one per part
    (z-degree, e2 & 1), at one byte width.  Every coefficient is at most
    the sum over the summands of the product of their factors' absolute
    coefficient sums, which fixes the width; a group adds (sign total)
    times (level total), so the bound is the one a summand-by-summand sum
    gives.  Each binomial is packed once per process and width, in the
    memo keyed by (n, m, width) (qbinom._packed), and each level sum once
    per width, so a loop over the weights r of a coinvariant character
    packs each level sum of its site once, not once per r.  A row
    multiplies its level sum by its packed binomials.

    qmax / zwin truncate the result to q-degree <= qmax and |z-degree| <=
    zwin, exactly; each is None or an exact number in (1/2)Z (ValueError
    otherwise).  A product of a sign part and a level sum is skipped
    only when its z-degree lies outside zwin or the closed-form lowest
    exponents of its factors (_ext_min_qexp) already put it above qmax.
    Other products are added whole, and each part is cut at qmax once,
    when it is unpacked.
    """
    eff, box = _eff(data, nvec, box, qmax, zwin)
    steps = _steps(box, data.matrix, eff)
    if steps is None:
        return BiLaurent.zero()
    v2 = [int(2 * x) for x in data.v]
    # one row per sign part and level key: (key, lo, tops, bottoms, level)
    rows = []
    base: dict = {}  # least exponent of each part
    bound = 0
    for tops, bottoms, z_s, par_s, lo_s, bound_s, levels in _groups(
            data, eff, v2, box, steps):
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
            rows.append((key, lo, tops, bottoms, level))
    width = _width(bound)
    bits = 8 * width
    parts: dict = {}
    for key, lo, tops, bottoms, level in rows:
        kept = level[3]
        if kept is None or kept[0] != width:
            value = _level_value(level, width)
        else:
            value = kept[1]
        for t, b in zip(tops, bottoms):
            value *= _packed(t, b, width)
        parts[key] = parts.get(key, 0) + (value << bits * (lo - base[key]))
    acc = {}
    for key, value in parts.items():
        cap = None if qmax is None else (2 * qmax - key[1]) // 2
        acc[key] = _unpack_qdict(value, width, base[key], cap)
    return BiLaurent._from_halves(acc)


def lattice_support(data: QuadraticData, nvec, box):
    """Vectors in the box whose summand is not identically zero.

    These are the vectors the support and sign rules leave: each of their
    factors is nonzero, and Z[q, 1/q] has no zero divisors.
    """
    return [n for n, *_ in _summands(data, nvec, box)]


def fermionic_sum(site: SiteVector) -> BiLaurent:
    """The certified lattice sum of a site vector: coupling matrix from
    (p, d), z-grading (1, -1, 0, ...), no linear exponent shift.
    Finiteness requires the multiplicity vector of the site to be
    nonnegative."""
    data = QuadraticData.for_site(site.p, site.d)
    return lattice_sum(data, site.components(), support_box(site))


def gordon_series(p: int, d: int, r: int, qmax: int, zwin: int) -> BiLaurent:
    """Gordon-type character series: the lattice sum with inverse-Pochhammer
    weights 1/(q)_{n_a} over n >= 0, truncated to q-degree <= qmax and
    |z-degree| <= zwin.

    The truncation is exact: every weight starts at q^0, so a term of
    q-degree <= qmax needs n A n + v2.n <= 2 qmax (v2 = 2v), and _ellipsoid
    yields exactly those n; for d <= p-1, n A n >= |n|^2 on n >= 0.
    p, d, r and the cutoffs must be exact integers (ValueError otherwise).
    """
    p, d, qmax, zwin = map(_exact_int, (p, d, qmax, zwin))
    if not 0 <= d <= p - 1:
        raise ValueError("need 0 <= d <= p-1")
    r = _weight(r, p)
    if qmax < 0 or zwin < 0:
        raise ValueError("cutoffs must be nonnegative")
    data = QuadraticData.for_site(p, d, _shift(p, r))
    v2 = tuple(int(2 * x) for x in data.v)
    acc: dict = {}
    for n in _ellipsoid(data.matrix, v2, 2 * qmax):
        zdeg = sum(map(mul, data.u, n))
        if abs(zdeg) > zwin:
            continue
        s = [sum(map(mul, row, n)) for row in data.matrix]  # nA
        e2 = sum(map(mul, n, map(add, s, v2)))
        room = (2 * qmax - e2) // 2
        counts = [bounded_partition_counts(na, room) for na in n]
        width = _width(math.prod(map(sum, counts)))
        value = math.prod([_pack(c, width) for c in counts])
        part = acc.setdefault((zdeg, e2 & 1), {})
        _qdict_iadd(part, _unpack_qdict(value, width, 0, room), e2 >> 1)
    return BiLaurent._from_halves(acc)


def _ellipsoid(rows, v2, bound):
    """Every n >= 0 with n A n + v2.n <= bound (an int >= 0) for A = rows,
    and no other vector (Fincke-Pohst).  With b = v2/2, elimination over
    Fraction writes the form as sum_k piv_k (n_k + t_k)^2 - sum_k b_k^2/piv_k,
    where t_k depends only on n_{>k}; the walk fixes n from last to first,
    each coordinate within the budget the later ones leave.  Raises
    ValueError on a pivot <= 0, that is when A is not positive definite."""
    m = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x, 2) for x in v2]
    steps = []  # (pivot, its row past k over the pivot, b_k / pivot)
    for k in range(m):
        piv = a[k][k]
        if piv <= 0:
            raise ValueError("the quadratic form is not positive definite")
        steps.append((piv, [x / piv for x in a[k][k + 1 :]], b[k] / piv))
        bound += b[k] ** 2 / piv
        for i in range(k + 1, m):
            f = a[k][i] / piv
            b[i] -= f * b[k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]

    def walk(k, tail, budget):
        if k < 0:
            yield tail
            return
        piv, row, offset = steps[k]
        t = offset + sum(map(mul, row, tail))
        r = math.isqrt(budget // piv)  # floor(sqrt(budget / piv))
        c = math.floor(-t)
        for v in range(max(0, c - r), c + r + 2):
            left = budget - piv * (v + t) ** 2
            if left >= 0:
                yield from walk(k - 1, (v,) + tail, left)

    yield from walk(m - 1, (), bound)
