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
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .laurent import BiLaurent, _Record, _exact_int, _unpack_qdict, _width
from .qbinom import _packed

__all__ = [
    "SiteVector",
    "multiplicities",
    "supernomial",
    "supernomial_at1",
    "supernomial_lattice_side",
]


class SiteVector(_Record):
    """Cutoff vector (N_+, N_-; N_0, ..., N_{d-1}) for the rank-p lattice
    algebra, with d = len(levels) and 0 <= d <= 2p-3.  p and every component
    must be exact integers (ValueError otherwise)."""

    __slots__ = ("p", "plus", "minus", "levels")

    def __init__(self, p: int, plus: int, minus: int, levels: tuple = ()):
        p, plus, minus = _exact_int(p), _exact_int(plus), _exact_int(minus)
        levels = tuple(map(_exact_int, levels))
        if p < 2:
            raise ValueError("p must be >= 2")
        if len(levels) > 2 * p - 3:
            raise ValueError("too many levels: need d <= 2p-3")
        self._set(p, plus, minus, levels)

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
    argument a shares.
    """
    entries, a = _check_entries(entries), _exact_int(a)
    if not 0 <= a <= _top(entries):
        return BiLaurent.zero()
    return BiLaurent._raw(
        {(e, 0): c for e, c in _chain(entries).value(a).items()})


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

    The node (pos, remaining, next_n) holds the sum, over the choices of
    n_pos, ..., n_1 with n_pos + ... + n_1 = remaining and n_{pos+1} =
    next_n, of q^(sum_{i<=pos} n_i (S_{i+1} - n_{i+1})) times their
    binomials, as (low, value): a packed int (see laurent) and the exponent
    of its first digit, the least exponent of the sum, so no stored int
    holds low zero digits.  supernomial(L, a) is the node (k, a, 0),
    unpacked by value(a).

    The sum under a node does not depend on the path to it, so every node is
    memoised and summed once: a child node, at positions 0..k-1, for every
    a, and a position-k node (k, a, 0) for every read of a.  A node sums
    only nodes one position below it, over the n_pos of _children.  So
    value fills a missing top node in two passes, with no frame per
    position: from the top down it collects the nodes under it that the
    memo lacks, one layer per position, and then it sums them layer by
    layer from position 1 up.  The packed node is the one form of a value
    the chain keeps; value(a) unpacks it on each read.  Every step exponent
    n (S_{i+1} - n_{i+1}) is >= 0, since n_{i+1} <= S_{i+1}.  n_pos runs
    over _children, the n under which some composition completes, so every
    node visited is nonzero, and a position-1 node has one term.

    Every coefficient is nonnegative and at most the value at q = 1 summed
    over all a, prod_j (j+1)^(L_j), which fixes one byte width for every
    node of L.  The binomials come packed at that width from one
    process-wide memo keyed by (n, m, width) (qbinom._packed), so each is
    packed once per width.
    The memo is a plain dict of the instance, so an evicted chain is freed
    at once with all its nodes, without a reference cycle.

    The mirror.  supernomial(L, a) = supernomial(L, t - a) with t = W_k,
    so value(a) reads the node of min(a, t - a): a top node (k, a, 0)
    reaches only children with remaining <= a.  Proof, writing S(L, a) for
    supernomial(L, a) at every integer a (zero outside 0..t), e_i for the
    unit vectors and e_0 = 0.  Summing over n_k last,
    S(L, a) = sum_n qbin(L_k, n) q^((L_k - n)(a - n)) S(L', a - n) with
    L' = (L_1, ..., L_{k-1} + n), and q-Pascal, qbin(N + 1, n) =
    q^n qbin(N, n) + qbin(N, n - 1), turns this into rec's recurrence
      (R) S(L + e_k, a) = q^a S(L, a) + S(L + e_{k-1}, a - 1).
    Its mirror image
      (M) S(L + e_k, a) = S(L + e_{k-1}, a) + q^(t+k-a) S(L, a - k)
    holds by induction on k and then L_k.  At k = 1 it is the other
    q-Pascal rule, qbin(N + 1, n) = qbin(N, n) + q^(N+1-n) qbin(N, n - 1).
    Given (R), (M) for L is equivalent to
      (D) S(L + e_{k-1}, a) - S(L + e_{k-1}, a - 1)
          = q^a S(L, a) - q^(t+k-a) S(L, a - k).
    A trailing zero entry does not change S, so at L_k = 0, (D) is (R) at a
    minus (M) at a - 1 for (L_1, ..., L_{k-1}).  For L = P + e_k, write the
    left side of (D) with (M) at a and (R) at a - 1 for A = P + e_{k-1},
    then with (D) for A at a and at a - 1; write its right side with (M) at
    a and (R) at a - k for P.  Both give
    q^a S(A, a) - q^(t+k-a) S(A, a - k - 1).  The mirror then follows by
    induction on t and k: at k = 1 it is qbin(N, a) = qbin(N, N - a), a
    trailing zero entry changes neither S nor t, and for L = P + e_k, (R)
    for P at t - a, the mirror for P and for P + e_{k-1} (of tops t - k
    and t - 1) and (M) for P give S(L, t - a) = S(L, a).
    """

    def __init__(self, entries: tuple[int, ...]):
        self.entries = entries
        bound = math.prod((j + 1) ** v for j, v in enumerate(entries, 1))
        self.width = _width(bound)
        # suffix[i] = S_{i+1} for i in 0..k, and below[i] = W_i
        self.suffix = [*accumulate(reversed(entries), initial=0)][::-1]
        self.below = [0, *accumulate(j * v for j, v in enumerate(entries, 1))]
        self.memo: dict = {}

    def value(self, a: int) -> dict:
        """The {q_exp: coefficient} dict of supernomial(L, a) for
        0 <= a <= sum_j j*L_j, read at the mirror min(a, top - a) and
        unpacked from its node on each read."""
        memo, width, bits = self.memo, self.width, 8 * self.width
        key = (len(self.entries), min(a, self.below[-1] - a), 0)
        if key not in memo:
            # from the top down, the nodes under key that memo lacks, each
            # with its values of n_pos, one layer per position
            entries, below = self.entries, self.below
            layers = [{key: _children(entries, below, *key)}]
            for pos in range(key[0], 0, -1):
                layers.append({child: _children(entries, below, *child)
                               for (_, rest, _), kids in layers[-1].items()
                               for n in kids
                               if (child := (pos - 1, rest - n, n)) not in memo})
            memo.update(dict.fromkeys(layers.pop(), (0, 1)))
            for layer in reversed(layers):  # filled from position 1 up
                for (pos, rest, next_n), kids in layer.items():
                    top = self.entries[pos - 1] + next_n
                    step = bits * (self.suffix[pos] - next_n)
                    acc = 0
                    for n in kids:
                        low, value = memo[pos - 1, rest - n, n]
                        acc += _packed(top, n, width) * value << step * n + bits * low
                    low = ((acc & -acc).bit_length() - 1) // bits
                    memo[pos, rest, next_n] = low, acc >> bits * low
        low, packed = memo[key]
        return _unpack_qdict(packed, width, low)  # canonical ints


_chain = lru_cache(maxsize=_CHAINS)(_Chain)


def _children(entries, below, pos: int, remaining: int, next_n: int) -> range:
    """The values of n_pos under the node (pos, remaining, next_n) of the
    tree of L = entries, with below[i] = W_i = sum_{j<=i} j*L_j: exactly
    the n under which some composition completes, and none under a
    position-0 node (the empty sum 1).  n runs up to L_pos + next_n, past
    which its binomial vanishes, and up to remaining.  The positions below
    take every total from 0 up to W_{pos-1} + (pos-1) n, so n runs from the
    least n with remaining - n <= W_{pos-1} + (pos-1) n."""
    if not pos:
        return range(0)
    top = entries[pos - 1] + next_n
    least = max(0, -((below[pos - 1] - remaining) // pos))
    return range(least, min(top, remaining) + 1)


def _compositions(entries: tuple[int, ...], a: int):
    """The tree of supernomial_at1: yield, once for each composition
    (n_1, ..., n_k) of a whose Gaussian binomials are all nonzero, the
    product of those binomials at q = 1 (math.comb).

    The products are folded along the composition tree, so a prefix shared
    by several compositions is multiplied once.  The tree is walked depth
    first from a stack, not a frame per entry, so the yields come in the
    lexicographic order of (n_k, ..., n_2).  Each node pushes only the n of
    _children, the range rule of the chain, so every node pushed completes
    some composition, and a outside 0..sum_j j*L_j pushes none.
    supernomial sums the same tree, with its exponents, as a memoised chain
    (see _chain) instead."""
    below = [0, *accumulate(j * v for j, v in enumerate(entries, 1))]
    # (pos, remaining, next_n, factors) with n_k, ..., n_{pos+1} assigned;
    # at position 1 the range holds at most n_1 = remaining
    stack = [(len(entries), a, 0, 1)]
    while stack:
        pos, remaining, next_n, factors = stack.pop()
        top = entries[pos - 1] + next_n
        kids = _children(entries, below, pos, remaining, next_n)
        if pos > 1:  # children pushed last first, so popped in order
            stack += [(pos - 1, remaining - n, n, factors * math.comb(top, n))
                      for n in reversed(kids)]
        else:
            for n in kids:
                yield factors * math.comb(top, n)


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
                         for e, c in chain.value(arg).items()}
        for a, arg in _residue_class(p, mult, site.minus)
    })
