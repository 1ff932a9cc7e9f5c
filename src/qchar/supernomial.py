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
from functools import lru_cache

from .laurent import BiLaurent, _exact_int, _unpack_qdict, _width
from .qbinom import _packed

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

# supernomial keeps the chains of this many L: a serial verify all builds
# 1,866 chains at 4, 1,188 at 8 and 935 at 16 (cpu 1.13, 1.04 and 0.98 s)
_CHAINS = 8


def _check_entries(entries) -> tuple[int, ...]:
    entries = tuple(map(_exact_int, entries))
    if not entries:
        raise ValueError("need at least one entry")
    if min(entries) < 0:
        raise ValueError(f"negative entry in L = {entries}")
    return entries


def _weight(r, p: int) -> int:
    """r as an int: the one weight check of the weight-r routes (ValueError
    unless r is an exact integer with 0 <= r < p)."""
    r = _exact_int(r)
    if not 0 <= r < p:
        raise ValueError("need 0 <= r < p")
    return r


def _shift(p: int, r: int) -> Fraction:
    """p/2 - r - 1, the exponent shift of the weight-r routes: z -> z q^shift
    in supernomial_char_poly and v = shift*u in coinv_char_fermionic and
    gordon_series."""
    return Fraction(p, 2) - r - 1


def _full_site(r: int, site: SiteVector) -> tuple[int, ...]:
    """L of a full site vector at weight r: the one check of the full-site
    routes (ValueError unless _weight(r, p) passes, d = p-1 and L >= 0)."""
    _weight(r, site.p)
    if site.d != site.p - 1:
        raise ValueError("need a full site vector (d = p-1)")
    return _check_entries(multiplicities(site))


def supernomial(entries, a: int) -> BiLaurent:
    """q-supernomial coefficient for the nonnegative vector (L_1, ..., L_k).

    The sum over compositions n_1 + ... + n_k = a of

        q^(sum_{i=2..k} n_{i-1} (S_i - n_i)) *
        qbin(L_k, n_k) qbin(L_{k-1} + n_k, n_{k-1}) ... qbin(L_1 + n_2, n_1)

    with S_i = L_i + ... + L_k.  Zero outside 0 <= a <= sum_j j*L_j.  L
    and a must be exact integers (ValueError otherwise).

    The value is read off the memoised chain of L (see _chain), which every
    argument a shares and which keeps the value of each a.
    """
    entries, a = _check_entries(entries), _exact_int(a)
    if not 0 <= a <= _top(entries):
        return BiLaurent.zero()
    return _chain(entries).value(a)


def supernomial_at1(entries, a: int) -> int:
    """The supernomial evaluated at q = 1: the coefficient of x^a in
    prod_j (1 + x + ... + x^j)^(L_j).  It is the composition sum of
    supernomial with each Gaussian binomial at q = 1, summed over the tree
    of _compositions on every call, independently of the packed chain.  L
    and a must be exact integers (ValueError otherwise)."""
    return sum(_compositions(_check_entries(entries), _exact_int(a)))


class _Chain:
    """The memoised chain behind supernomial for a checked vector
    L = entries; _chain keeps the chains of the last _CHAINS vectors.

    total(pos, remaining, next_n) is the sum, over the choices of n_pos,
    ..., n_1 with n_pos + ... + n_1 = remaining and n_{pos+1} = next_n, of
    q^(sum_{i<=pos} n_i (S_{i+1} - n_{i+1})) times their binomials, as
    (low, value): a packed int (see laurent) and the exponent of its first
    digit, the least exponent of the sum, so no stored int holds low zero
    digits.  supernomial(L, a) is total(k, a, 0), unpacked by value(a).

    The sum under a node does not depend on the path to it, so every child
    node, at positions 0..k-1, is memoised and summed once for every a.  A
    position-k node serves one a, whose value is kept in `values`, so it is
    not stored.  Every step exponent n (S_{i+1} - n_{i+1}) is >= 0, since
    n_{i+1} <= S_{i+1}.  n_pos runs up to L_pos + next_n, past which its
    binomial vanishes, and from what the positions below cannot take up:
    they take at most W_{pos-1} + (pos-1) n_pos with W_i = sum_{j<=i}
    j*L_j.  So every node visited is nonzero, and a position-1 node has one
    term.

    Every coefficient is nonnegative and at most the value at q = 1 summed
    over all a, prod_j (j+1)^(L_j), which fixes one byte width for every
    node of L.  The binomials come packed at that width from one
    process-wide memo keyed by (n, m, width) (qbinom._packed), so each is
    packed once per width.
    The memos are plain dicts of the instance, so an evicted chain is freed
    at once with its values, without a reference cycle.
    """

    def __init__(self, entries: tuple[int, ...]):
        k = len(entries)
        self.entries = entries
        bound = math.prod((j + 1) ** v for j, v in enumerate(entries, 1))
        self.width = _width(bound)
        self.suffix = [0] * (k + 2)  # suffix[i] = S_i
        for i in range(k, 0, -1):
            self.suffix[i] = self.suffix[i + 1] + entries[i - 1]
        self.below = [0] * (k + 1)  # below[i] = W_i
        for i in range(1, k + 1):
            self.below[i] = self.below[i - 1] + i * entries[i - 1]
        self.memo: dict = {}
        self.values: dict[int, BiLaurent] = {}

    def value(self, a: int) -> BiLaurent:
        """supernomial(L, a) for 0 <= a <= sum_j j*L_j, unpacked once."""
        poly = self.values.get(a)
        if poly is None:
            low, packed = self.total(len(self.entries), a, 0)
            terms = _unpack_qdict(packed, self.width, low)  # canonical ints
            poly = self.values[a] = BiLaurent._raw(
                {(e, 0): c for e, c in terms.items()})
        return poly

    def total(self, pos: int, remaining: int, next_n: int) -> tuple[int, int]:
        if pos == 0:
            return 0, 1
        bits, width, memo = 8 * self.width, self.width, self.memo
        top = self.entries[pos - 1] + next_n
        step = bits * (self.suffix[pos + 1] - next_n)
        least = max(0, -((self.below[pos - 1] - remaining) // pos))
        acc = 0
        for n in range(least, min(top, remaining) + 1):
            key = (pos - 1, remaining - n, n)
            child = memo.get(key)
            if child is None:
                child = memo[key] = self.total(*key)
            low, value = child
            acc += _packed(top, n, width) * value << step * n + bits * low
        low = ((acc & -acc).bit_length() - 1) // bits
        return low, acc >> bits * low


_chain = lru_cache(maxsize=_CHAINS)(_Chain)


def _compositions(entries: tuple[int, ...], a: int):
    """The tree of supernomial_at1: yield, once for each composition
    (n_1, ..., n_k) of a whose Gaussian binomials are all nonzero, the
    product of those binomials at q = 1 (math.comb).

    The products are folded along the composition tree, so a prefix shared
    by several compositions is multiplied once.  Bounds follow the
    vanishing of the binomial factors: n_k in [0, L_k], then n_i in
    [0, L_i + n_{i+1}].  supernomial sums the same tree, with its
    exponents, as a memoised chain (see _chain) instead."""
    if a < 0 or a > _top(entries):
        return

    # Assign n_k, ..., n_2 recursively; n_1 is forced by the total.
    def rec(pos: int, remaining: int, next_n: int, factors: int):
        top = entries[pos - 1] + next_n
        if pos == 1:
            if remaining <= top:
                yield factors * math.comb(top, remaining)
            return
        for n in range(0, min(top, remaining) + 1):
            yield from rec(pos - 1, remaining - n, n, factors * math.comb(top, n))

    yield from rec(len(entries), a, 0, 1)


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
    chain = _chain(mult)  # L is checked, and every arg is in 0..top
    # each a has its own z-degree, and p a^2 has the parity of p a
    return BiLaurent._from_halves({
        (a, p * a & 1): {e + (p * a * a >> 1): c
                         for e, c in chain.value(arg).qdict().items()}
        for a, arg in _residue_class(p, mult, site.minus)
    })
