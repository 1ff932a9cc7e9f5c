"""q-supernomial coefficients and the site-vector bookkeeping behind them.

A SiteVector packages the data (N_+, N_-; N_0, ..., N_{d-1}) of a graded
subalgebra cutoff.  Its profile (N_0, ..., N_{d-1}, N_+ + N_-) is turned
into the multiplicity vector L by the tridiagonal second-difference matrix;
L counts how many elementary constituents of each width the cutoff fuses,
and it indexes the supernomial coefficients.

supernomial(L, a) generalizes the Gaussian binomial: at q = 1 it is the
coefficient of x^a in prod_j (1 + x + ... + x^j)^(L_j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .laurent import BiLaurent, _exact_int, _unpack_qdict, _width
from .qbinom import _packed_binomials

__all__ = [
    "SiteVector",
    "multiplicities",
    "supernomial",
    "supernomial_at1",
    "supernomial_lattice_side",
]


@dataclass(frozen=True)
class SiteVector:
    """Cutoff vector (N_+, N_-; N_0, ..., N_{d-1}) for the rank-p lattice
    algebra, with d = len(levels) and 0 <= d <= 2p-3.  p and every component
    must be exact integers (ValueError otherwise)."""

    p: int
    plus: int
    minus: int
    levels: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", _exact_int(self.p))
        object.__setattr__(self, "plus", _exact_int(self.plus))
        object.__setattr__(self, "minus", _exact_int(self.minus))
        object.__setattr__(self, "levels", tuple(map(_exact_int, self.levels)))
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if len(self.levels) > 2 * self.p - 3:
            raise ValueError("too many levels: need d <= 2p-3")

    @property
    def d(self) -> int:
        return len(self.levels)

    @property
    def total(self) -> int:
        return self.plus + self.minus

    def components(self) -> tuple[int, ...]:
        """(N_+, N_-, N_0, ..., N_{d-1}) in enumeration order."""
        return (self.plus, self.minus) + self.levels

    def profile(self) -> tuple[int, ...]:
        """(N_0, ..., N_{d-1}, N_+ + N_-), the input of the L-transform."""
        return self.levels + (self.total,)

    def is_monotone(self) -> bool:
        """0 <= N_0 <= ... <= N_{d-1} <= N_+ + N_-."""
        seq = (0,) + self.levels + (self.total,)
        return all(a <= b for a, b in zip(seq, seq[1:]))


def multiplicities(site: SiteVector) -> tuple[int, ...]:
    """The multiplicity vector L = profile * T of length d+1.

    L_j = 2P_j - P_{j-1} - P_{j+1} is a second difference of the profile P
    (with P_{-1} = 0), and the last entry is the first difference
    P_last - P_{last-1}; elementary sites of width i have L = e_i.
    """
    prof = (0,) + site.profile()
    last = len(prof) - 1
    return tuple(
        2 * prof[j] - prof[j - 1] - prof[j + 1] for j in range(1, last)
    ) + (prof[last] - prof[last - 1],)


# -- supernomials ----------------------------------------------------------

_SUP: dict[tuple[tuple[int, ...], int], BiLaurent] = {}
_SUP1: dict[tuple[tuple[int, ...], int], int] = {}


def _check_entries(entries) -> tuple[int, ...]:
    entries = tuple(map(_exact_int, entries))
    if not entries:
        raise ValueError("need at least one entry")
    if min(entries) < 0:
        raise ValueError(f"negative entry in L = {entries}")
    return entries


def _full_site(r: int, site: SiteVector) -> tuple[int, ...]:
    """L of a full site vector at weight r: the one check of the full-site
    routes (ValueError unless 0 <= r < p, d = p-1 and L >= 0)."""
    if not 0 <= r < site.p:
        raise ValueError("need 0 <= r < p")
    if site.d != site.p - 1:
        raise ValueError("need a full site vector (d = p-1)")
    return _check_entries(multiplicities(site))


def supernomial(entries, a: int) -> BiLaurent:
    """q-supernomial coefficient for the nonnegative vector (L_1, ..., L_k).

    The sum over compositions n_1 + ... + n_k = a of

        q^(sum_{i=2..k} n_{i-1} (S_i - n_i)) *
        qbin(L_k, n_k) qbin(L_{k-1} + n_k, n_{k-1}) ... qbin(L_1 + n_2, n_1)

    with S_i = L_i + ... + L_k.  Zero outside 0 <= a <= sum_j j*L_j.

    The sum is accumulated in one packed int (see laurent).  Every
    coefficient is nonnegative and at most the value at q = 1 summed over
    all a, prod_j (j+1)^(L_j), which fixes the byte width of the call.
    The binomial factors come packed at that width from one process-wide
    table (see qbinom), so each is packed once per process and width.
    """
    # stored keys hold ints, yet (2.0, 1) == (2, 1) hits one: a hit counts
    # only when the entries sum to an int, as only a sum of ints does
    entries = tuple(entries)
    poly = _SUP.get((entries, a))
    if poly is None or type(sum(entries)) is not int:
        entries = _check_entries(entries)
        width = _width(math.prod((j + 1) ** v for j, v in enumerate(entries, 1)))
        packed = _packed_binomials(width)
        acc = 0
        for exp, value in _compositions(entries, a, lambda t, n: packed[t, n]):
            acc += value << 8 * width * exp
        poly = BiLaurent.from_qdict(_unpack_qdict(acc, width, 0))
        _SUP[entries, a] = poly
    return poly


def supernomial_at1(entries, a: int) -> int:
    """The supernomial evaluated at q = 1: the coefficient of x^a in
    prod_j (1 + x + ... + x^j)^(L_j).  It is the composition sum of
    supernomial with each Gaussian binomial at q = 1 (math.comb)."""
    entries = tuple(entries)  # as in supernomial
    val = _SUP1.get((entries, a))
    if val is None or type(sum(entries)) is not int:
        entries = _check_entries(entries)
        val = sum(value for _, value in _compositions(entries, a, math.comb))
        _SUP1[entries, a] = val
    return val


def _compositions(entries: tuple[int, ...], a: int, binom):
    """Enumerate contributing compositions (n_1, ..., n_k) of a, yielding
    (exponent, product of the composition's binomials) for each.

    binom(top, bottom) gives each binomial factor in the ring of the caller
    (packed ints for supernomial, ints at q = 1 for supernomial_at1), and
    the products are folded along the composition tree, so a prefix shared
    by several compositions is multiplied once.  Bounds follow the
    vanishing of the binomial factors: n_k in [0, L_k], then n_{i} in
    [0, L_i + n_{i+1}]."""
    k = len(entries)
    if a < 0 or a > _top(entries):
        return
    suffix = [0] * (k + 2)
    for i in range(k, 0, -1):
        suffix[i] = suffix[i + 1] + entries[i - 1]

    # Assign n_k, ..., n_2 recursively; n_1 is forced by the total.  At
    # pos = k, next_n = 0 and suffix[k + 1] = 0.
    def rec(pos: int, remaining: int, next_n: int, exp: int, factors):
        top = entries[pos - 1] + next_n
        if pos == 1:
            if remaining <= top:
                exp += remaining * (suffix[2] - next_n)
                yield exp, factors * binom(top, remaining)
            return
        for n in range(0, min(top, remaining) + 1):
            e = exp + n * (suffix[pos + 1] - next_n)
            yield from rec(pos - 1, remaining - n, n, e, factors * binom(top, n))

    yield from rec(k, a, 0, 0, 1)


def _top(entries) -> int:
    """sum_j j*L_j, the largest argument with a nonzero supernomial."""
    return sum((i + 1) * v for i, v in enumerate(entries))


def _residue_class(p: int, entries, c: int):
    """Yield (a, p*a + c) for exactly the a with 0 <= p*a + c <= sum_j j*L_j,
    the arguments of the residue class of c mod p where supernomial(L, .)
    can be nonzero."""
    for a in range(-(c // p), (_top(entries) - c) // p + 1):
        yield a, p * a + c


def supernomial_lattice_side(site: SiteVector) -> BiLaurent:
    """sum_a z^a q^(p a^2 / 2) supernomial(L, p*a + N_-) with L the
    multiplicity vector of the site: the supernomial side of the lattice-sum
    identities.  ValueError when some entry of L is negative."""
    p, mult = site.p, _check_entries(multiplicities(site))
    out = BiLaurent.zero()
    for a, arg in _residue_class(p, mult, site.minus):
        piece = supernomial(mult, arg)
        if piece:
            out = out + piece.shift(Fraction(p * a * a, 2), a)
    return out
