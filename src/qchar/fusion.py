"""Fusion-ring arithmetic and coinvariant dimension counts.

The fusion ring of the rank-p lattice algebra is the group ring of Z/pZ:
a FusionVector lists the multiplicity of each weight r = 0..p-1 and the
product is cyclic convolution.  Elementary cutoffs are parametrized by a
pair (i, j) with 0 <= i <= p; their dimension vectors generate, under the
fusion product, the dimensions of all decomposable cutoffs.  The same
numbers come out of three other routes (supernomial sums at q = 1, the
q = 1 value of the graded character, and a closed-form product), which the
test-suite plays against each other.
"""

from __future__ import annotations

from .laurent import BiLaurent, _Record, _exact_int
from .supernomial import SiteVector, _full_site, _residue_class, supernomial_at1

__all__ = [
    "FusionVector",
    "closed_form_dims",
    "decompose_site",
    "dims_via_supernomial",
    "elementary_dims",
    "elementary_site",
    "fuse",
    "fusion_dims",
]


class FusionVector(_Record):
    """Element of the fusion ring of Z/pZ with nonnegative multiplicities.
    p and every multiplicity must be exact integers (ValueError otherwise)."""

    __slots__ = ("p", "dims")

    def __init__(self, p: int, dims: tuple[int, ...]):
        p, dims = _exact_int(p), tuple(map(_exact_int, dims))
        if p < 1:
            raise ValueError("p must be positive")
        if len(dims) != p:
            raise ValueError("need exactly p multiplicities")
        if any(x < 0 for x in dims):
            raise ValueError("multiplicities must be nonnegative")
        self._set(p, dims)

    def __getitem__(self, r: int) -> int:
        return self.dims[r % self.p]


def fuse(a: FusionVector, b: FusionVector) -> FusionVector:
    """Fusion product: cyclic convolution of the multiplicity vectors."""
    if not isinstance(a, FusionVector) or not isinstance(b, FusionVector):
        raise TypeError("fuse expects FusionVectors")
    if a.p != b.p:
        raise ValueError("mismatched ring sizes")
    p = a.p
    out = [0] * p
    for i, x in enumerate(a.dims):
        if x:
            for j, y in enumerate(b.dims):
                if y:
                    out[(i + j) % p] += x * y
    return FusionVector(p, tuple(out))


def elementary_dims(p: int, i: int, j: int) -> FusionVector:
    """Dimension vector of the elementary cutoff (i, j):
    dims[r] = #{n : 0 <= p*n + j + r <= i}.  p, i and j must be exact
    integers (ValueError otherwise)."""
    p, i, j = map(_exact_int, (p, i, j))
    if not 0 <= i <= p:
        raise ValueError("need 0 <= i <= p")
    dims = []
    for r in range(p):
        hi = (i - j - r) // p
        lo = -((j + r) // p)  # ceil((-j - r) / p)
        dims.append(max(0, hi - lo + 1))
    return FusionVector(p, tuple(dims))


def fusion_dims(p: int, pairs) -> FusionVector:
    """Dimension vector of a fused family of elementary cutoffs.

    Expands the product over pairs (i, j) of z^(-j) + z^(-j+1) + ... + z^(-j+i)
    in the ring Z[z]/(z^p - 1); the empty product is the unit.  p and every
    i and j must be exact integers (ValueError otherwise).
    """
    p, poly = _exact_int(p), BiLaurent.one()
    for pair in pairs:
        i, j = map(_exact_int, pair)
        if not 0 <= i <= p:
            raise ValueError("need 0 <= i <= p in every pair")
        poly = poly * BiLaurent({(0, t - j): 1 for t in range(i + 1)})
    return FusionVector(p, poly.cyclotomic(p))


def elementary_site(p: int, i: int, j: int) -> SiteVector:
    """The site vector of the elementary cutoff (i, j):
    (i-j, j; 1, 2, ..., i-1, i, ..., i) with d = p-1 level entries.  p, i
    and j must be exact integers (ValueError otherwise)."""
    p, i, j = map(_exact_int, (p, i, j))
    if not 0 <= i <= p:
        raise ValueError("need 0 <= i <= p")
    levels = tuple(min(m + 1, i) for m in range(p - 1))
    return SiteVector(p, i - j, j, levels)


def decompose_site(site: SiteVector) -> tuple[tuple[int, int], ...]:
    """Write a full site vector (d = p-1) as a fused family of elementary
    pairs: the multiplicity vector L gives L_i pairs of width i, and the
    whole minus-cutoff is carried by the first pair (the dimension vector
    is insensitive to how it is spread).

    Raises ValueError unless d = p-1 and no multiplicity is negative.
    """
    p, mult = site.p, _full_site(0, site)
    pairs = []
    for idx, count in enumerate(mult):
        pairs.extend([(idx + 1, 0)] * count)
    if pairs:
        pairs[0] = (pairs[0][0], site.minus)
    elif site.minus or site.plus:
        pairs = [(0, site.minus)]
    # reconstruction check: the fused elementary sites must add back up
    acc = [0] * (p + 1)
    for i, j in pairs:
        piece = elementary_site(p, i, j)
        comps = piece.components()
        for t in range(p + 1):
            acc[t] += comps[t]
    if tuple(acc) != site.components():
        raise AssertionError("decomposition failed to reconstruct the site")
    return tuple(pairs)


def dims_via_supernomial(r: int, site: SiteVector) -> int:
    """Coinvariant dimension of weight r of a full site vector (d = p-1)
    from the supernomial route: the sum over a of
    supernomial_at1(L, p*a + N_- + r).

    The arguments run over the residue class of N_- + r mod p, matching the
    root-of-unity extraction in the fusion route."""
    mult = _full_site(r, site)
    return sum(
        supernomial_at1(mult, arg)
        for _, arg in _residue_class(site.p, mult, site.minus + r)
    )


def closed_form_dims(mult) -> int | None:
    """Closed form 2^(L_1) 3^(L_2) ... p^(L_{p-1} - 1) (p+1)^(L_p) for the
    multiplicity vector L of a full site, p = len(L) >= 2; valid when
    L_{p-1} >= 1, returns None otherwise."""
    mult = tuple(map(_exact_int, mult))
    p = len(mult)
    if p < 2:
        raise ValueError("need a multiplicity vector of length p >= 2")
    if mult[p - 2] < 1:
        return None
    value = 1
    for t, count in enumerate(mult):
        value *= (t + 2) ** count
    quotient, rem = divmod(value, p)
    if rem:
        raise AssertionError("closed form was not divisible by p")
    return quotient
