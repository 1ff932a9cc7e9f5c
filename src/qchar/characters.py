"""Graded character formulas assembled from the lattice and supernomial
engines, with exact bookkeeping of the fractional monomial prefactor.

Every character of weight r carries the prefactor z^(-r/p) q^(r(r-p+2)/2p).
The fractional exponents never enter a BiLaurent (whose z-exponents are
integers); they live in the shift fields of a CharacterValue, and equality
normalizes integer parts of the shifts into the polynomial before
comparing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .laurent import BiLaurent, _Record, _exact_int, bounded_partition_counts, norm_exp
from .fermionic import QuadraticData, lattice_sum, support_box
from .supernomial import (
    SiteVector,
    _full_site,
    _shift,
    _weight,
    supernomial_lattice_side,
)

__all__ = [
    "CharacterValue",
    "coinv_char_fermionic",
    "coinv_char_supernomial",
    "rep_character",
    "spectral_flow_check",
    "supernomial_char_poly",
]


class CharacterValue(_Record):
    """A graded character z^z_shift q^q_shift * poly.

    Unhashable: equality normalizes the shifts, which no field hash respects.
    A shift that is not an int or a Fraction raises TypeError.
    """

    __slots__ = ("q_shift", "z_shift", "poly")

    def __init__(self, q_shift, z_shift, poly: BiLaurent):
        self._set(norm_exp(q_shift), norm_exp(z_shift), poly)

    def normalized(self) -> "CharacterValue":
        """Move the integer parts of both shifts into the polynomial."""
        qf = math.floor(self.q_shift)
        zf = math.floor(self.z_shift)
        if qf == 0 and zf == 0:
            return self
        return CharacterValue(
            self.q_shift - qf, self.z_shift - zf, self.poly.shift(qf, zf)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterValue):
            return NotImplemented
        a, b = self.normalized(), other.normalized()
        return (
            a.q_shift == b.q_shift and a.z_shift == b.z_shift and a.poly == b.poly
        )

    def truncated(self, qmax=None, zwin=None) -> "CharacterValue":
        return CharacterValue(
            self.q_shift, self.z_shift, self.poly.truncate_q(qmax).clip_z(zwin)
        )

    def to_json_obj(self) -> dict:
        return {
            "q_shift": str(self.q_shift),
            "z_shift": str(self.z_shift),
            "poly": self.poly.to_json_obj(),
        }


def _prefactor(p: int, r: int) -> tuple:
    return Fraction(r * (r - p + 2), 2 * p), Fraction(-r, p)


def rep_character(p: int, r: int, qmax: int, zwin: int) -> CharacterValue:
    """Character of the weight-r irreducible: prefactor times the truncation
    of (1/(q)_inf) * sum_n z^n q^(p(n^2+n)/2 - n(r+1)).  p, r and the
    cutoffs must be exact integers (ValueError otherwise)."""
    p, qmax, zwin = map(_exact_int, (p, qmax, zwin))
    if p < 1:
        raise ValueError("p must be positive")
    r = _weight(r, p)
    if qmax < 0 or zwin < 0:
        raise ValueError("cutoffs must be nonnegative")
    acc: dict = {}
    for n in range(-zwin, zwin + 1):
        exponent = p * (n * n + n) // 2 - n * (r + 1)
        if exponent > qmax:
            continue
        counts = bounded_partition_counts(qmax - exponent, qmax - exponent)
        for j, c in enumerate(counts):
            acc[(exponent + j, n)] = acc.get((exponent + j, n), 0) + c
    q_shift, z_shift = _prefactor(p, r)
    return CharacterValue(q_shift, z_shift, BiLaurent(acc))


def _moved(site: SiteVector, k: int) -> SiteVector:
    """The site with its sign cutoffs moved to (N_+ - k, N_- + k); same L."""
    return SiteVector(site.p, site.plus - k, site.minus + k, site.levels)


@lru_cache(maxsize=256)
def _weight_box(site: SiteVector) -> tuple[tuple[int, int], ...]:
    """The hull of the support boxes of the site moved by every weight
    0..p-1.  It contains the certified box at each weight, so the lattice
    sum over it is exact at every r; and it is the same for every r, so
    the lattice sums of a loop over r have one level key, walk its level
    block once and build each level sum once (see fermionic._groups).
    Built once per site; the bound keeps the cache small."""
    boxes = [support_box(_moved(site, k)) for k in range(site.p)]
    return tuple((min(lo for lo, _ in col), max(hi for _, hi in col))
                 for col in zip(*boxes))


def supernomial_char_poly(r: int, site: SiteVector) -> BiLaurent:
    """Polynomial part of the supernomial character route:
    sum_m z^m q^(p(m^2+m)/2 - (r+1)m) * supernomial(L, p*m + N_- + r),
    which is the lattice side at the moved site (N_+ - r, N_- + r) under
    z -> z q^(p/2 - r - 1).  ValueError unless 0 <= r < p and L >= 0.

    At q = z = 1 the sum picks out the supernomial arguments congruent to
    N_- + r mod p, which is exactly the weight-r dimension count."""
    p, r = site.p, _weight(r, site.p)
    return supernomial_lattice_side(_moved(site, r)).substitute_z(_shift(p, r))


def coinv_char_supernomial(r: int, site: SiteVector) -> CharacterValue:
    """Coinvariant character of weight r by the supernomial route; needs a
    full site vector (d = p-1) with nonnegative multiplicities."""
    _full_site(r, site)
    return CharacterValue(*_prefactor(site.p, r), supernomial_char_poly(r, site))


def coinv_char_fermionic(
    r: int, site: SiteVector, *, qmax=None, zwin=None
) -> CharacterValue:
    """Coinvariant character of weight r by the fermionic route: the lattice
    sum with v = (p/2 - r - 1)u in the exponent at the site whose sign
    cutoffs are moved to (N_+ - r, N_- + r).  (The sign of the move follows
    the shifted balance conditions 2N_+ - N_{d-1} - 2r and
    2N_- - N_{d-1} + 2r, and is the one that reproduces the weight-r
    dimension counts.)

    The sum runs over _weight_box, the same box for every r.  Valid for
    d <= p-1; for d < p-1 the implied trailing cutoffs
    N_d = ... = N_{p-2} = N_+ + N_- are understood (pass the truncated site).
    Optional qmax / zwin truncate the result exactly; they may be
    half-integers, and r must be an exact integer (ValueError otherwise).
    """
    p, d, r = site.p, site.d, _weight(r, site.p)
    if d > p - 1:
        raise ValueError("fermionic character route needs d <= p-1")
    poly = lattice_sum(
        QuadraticData.for_site(p, d, _shift(p, r)),
        _moved(site, r).components(),
        _weight_box(site),
        qmax=qmax,
        zwin=zwin,
    )
    q_shift, z_shift = _prefactor(p, r)
    return CharacterValue(q_shift, z_shift, poly)


def spectral_flow_check(r: int, site: SiteVector):
    """Check the flow covariance of the supernomial character polynomial on
    a full site vector: at the flowed site (N_+ + p, N_- - p), which has the
    same L, it equals z q^(p-r-1) composed with the substitution z -> z q^p.
    Returns (ok, None) or (False, payload)."""
    p, mult = site.p, _full_site(r, site)
    lhs = supernomial_char_poly(r, _moved(site, -p))
    rhs = supernomial_char_poly(r, site).substitute_z(p).shift(p - r - 1, 1)
    if lhs == rhs:
        return True, None
    return False, {"p": p, "r": r, "mult": list(mult), "minus": site.minus,
                   "lhs": lhs.to_json_obj(), "rhs": rhs.to_json_obj()}
