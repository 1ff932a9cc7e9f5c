"""Fermionic lattice sums: the coupling matrix, certified support boxes,
the general quadratic-form sum engine, and the Gordon-type series.

The central object is

    lattice_sum(data, nvec, box) =
        sum over n in box of
            z^(u.n) q^(n A n / 2 + v.n) *
            prod_a qbinomial_ext(e_a.(N + w + n - nA), e_a.n)

For the coupling matrix of a SiteVector whose multiplicity vector is
nonnegative, support_box computes a finite box that provably contains
every nonzero summand, so the sum is an exact Laurent polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import (
    BiLaurent,
    bounded_partition_counts,
    norm_exp,
    _qdict_iadd,
    _qdict_mul,
    _qdict_prod,
)
from .qbinom import _ext_qdict, ext_min_qexp
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
    z-grading vector u, the linear exponent shift v (integer or
    half-integer), and the cutoff shift w."""

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
    budget inequality (d+1)(n_+ + n_-) + sum_i 2(i+1) n_i <= N_+ + N_- with
    the opposite sign coordinate at its worst-case lower bound.
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


def _budget(site: SiteVector, w=None) -> tuple[tuple[int, ...], int]:
    """The linear inequality sum_b coeffs[b]*n_b <= limit satisfied by every
    nonzero summand (the two sign rows of the coupling matrix added)."""
    eff = site if w is None else site.shifted_by(w)
    d = site.d
    coeffs = (d + 1, d + 1) + tuple(2 * (i + 1) for i in range(d))
    return coeffs, eff.plus + eff.minus


def _leaves(box, rows, budget):
    """Yield (n, nA) for n in the box, pruned by the optional budget
    constraint; nA is maintained incrementally."""
    m = len(box)
    if budget is not None:
        coeffs, limit = budget
        suffmin = [0] * (m + 1)
        for i in range(m - 1, -1, -1):
            lo, hi = box[i]
            c = coeffs[i]
            suffmin[i] = suffmin[i + 1] + min(c * lo, c * hi)
    n = [0] * m
    s = [0] * m

    def rec(idx, used):
        if idx == m:
            yield tuple(n), tuple(s)
            return
        lo, hi = box[idx]
        row = rows[idx]
        if budget is not None:
            c = coeffs[idx]
            tail = suffmin[idx + 1]
        for v in range(lo, hi + 1):
            if budget is not None:
                part = used + c * v
                if part + tail > limit:
                    if c > 0:
                        break
                    continue
            else:
                part = 0
            n[idx] = v
            if v:
                for j in range(m):
                    s[j] += v * row[j]
            yield from rec(idx + 1, part)
            if v:
                for j in range(m):
                    s[j] -= v * row[j]
        n[idx] = 0

    yield from rec(0, 0)


def _summands(data: QuadraticData, nvec, box, budget=None, extended=True):
    """Yield (n, zdeg, exponent, tops) over nonzero candidate summands.

    The tops are e_a.(N + w + n - nA); candidates whose extended binomial
    factors vanish by the support rules (top < bottom, or bottom < 0 <= top)
    are skipped here.  With extended=False, bottoms must be nonnegative.
    """
    m = data.size
    nvec = tuple(nvec)
    if len(nvec) != m:
        raise ValueError("site vector length must match the matrix size")
    eff = tuple(nvec[a] + data.w[a] for a in range(m))
    u, v = data.u, data.v
    for n, s in _leaves(box, data.matrix, budget):
        tops = []
        ok = True
        for a in range(m):
            na = n[a]
            t = eff[a] + na - s[a]
            if t < na or (na < 0 and (t >= 0 or not extended)):
                ok = False
                break
            tops.append(t)
        if not ok:
            continue
        dot = sum(n[a] * s[a] for a in range(m))
        exponent = Fraction(dot, 2) + sum(
            v[a] * n[a] for a in range(m) if n[a] and v[a]
        )
        zdeg = sum(u[a] * n[a] for a in range(m))
        yield n, zdeg, norm_exp(Fraction(exponent)), tuple(tops)


def lattice_sum(
    data: QuadraticData,
    nvec,
    box,
    *,
    qmax=None,
    zwin=None,
    extended: bool = True,
    budget=None,
) -> BiLaurent:
    """Evaluate the lattice sum over an explicit finite box.

    qmax / zwin truncate the result to q-degree <= qmax and |z-degree| <=
    zwin.  The truncation is exact: each summand's factor product is cut at
    qmax only once it is complete, and a summand is skipped only when the
    closed-form lowest exponents of its factors (ext_min_qexp) already put
    it above qmax.  With extended=False the factors are standard Gaussian
    binomials, so negative bottoms vanish.
    """
    # one int-keyed qdict per (z-degree, fractional part of the q-exponent)
    acc: dict = {}
    for n, zdeg, exponent, tops in _summands(data, nvec, box, budget, extended):
        if zwin is not None and abs(zdeg) > zwin:
            continue
        cap = None
        if qmax is not None:
            cap = qmax - exponent
            if sum(ext_min_qexp(t, b) for t, b in zip(tops, n)) > cap:
                continue
        prod = _qdict_prod([_ext_qdict(t, b) for t, b in zip(tops, n)], cap)
        if prod:
            base = math.floor(exponent)
            key = (zdeg, exponent - base)
            part = acc.get(key)
            if part is None:
                part = acc[key] = {}
            _qdict_iadd(part, prod, base)
    return BiLaurent._raw(
        {
            (e + frac, zdeg): c  # frac is 0 or not an integer
            for (zdeg, frac), part in acc.items()
            for e, c in part.items()
        }
    )


def lattice_support(data: QuadraticData, nvec, box, *, extended=True, budget=None):
    """Vectors in the box whose summand is not identically zero."""
    return [
        n
        for n, _, _, tops in _summands(data, nvec, box, budget, extended)
        if _qdict_prod([_ext_qdict(t, b) for t, b in zip(tops, n)])
    ]


def fermionic_sum(site: SiteVector, w=None, *, qmax=None, zwin=None) -> BiLaurent:
    """The certified lattice sum of a site vector: coupling matrix from
    (p, d), z-grading (1, -1, 0, ...), cutoff shift w, no linear exponent
    shift.  Finiteness requires the multiplicity vector of site + w to be
    nonnegative."""
    p, d = site.p, site.d
    size = d + 2
    w = tuple(w) if w is not None else (0,) * size
    data = QuadraticData(coupling_matrix(p, d), standard_flow_vector(size), (), w)
    box = support_box(site, w)
    return lattice_sum(
        data,
        site.components(),
        box,
        qmax=qmax,
        zwin=zwin,
        budget=_budget(site, w),
    )


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
    u, v = data.u, data.v
    acc: dict = {}
    shell = 0
    clear_shells = 0
    max_shell = 4 * (qmax + zwin + m + 8)
    while clear_shells < 2:
        if shell > max_shell:
            raise RuntimeError("shell pruning did not certify the cutoff")
        shell_min = None
        for n in _shell_vectors(m, shell):
            s = [sum(n[b] * rows[b][a] for b in range(m)) for a in range(m)]
            dot = sum(n[a] * s[a] for a in range(m))
            exponent = norm_exp(
                Fraction(dot, 2) + sum(v[a] * n[a] for a in range(m) if n[a])
            )
            if shell_min is None or exponent < shell_min:
                shell_min = exponent
            if exponent > qmax:
                continue
            zdeg = sum(u[a] * n[a] for a in range(m))
            if abs(zdeg) > zwin:
                continue
            room = qmax - exponent
            prod = {0: 1}
            for a in range(m):
                counts = bounded_partition_counts(n[a], int(room))
                factor = {j: c for j, c in enumerate(counts) if c}
                prod = _qdict_mul(prod, factor, room)
            for e, c in prod.items():
                k = (norm_exp(exponent + e), zdeg)
                acc[k] = acc.get(k, 0) + c
        if shell_min is not None and shell_min > qmax:
            clear_shells += 1
        else:
            clear_shells = 0
        shell += 1
    return BiLaurent({k: c for k, c in acc.items() if c})


def _shell_vectors(m: int, total: int):
    """All n >= 0 in Z^m with sum(n) == total."""
    if m == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _shell_vectors(m - 1, total - first):
            yield (first,) + rest
