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
from dataclasses import dataclass
from fractions import Fraction

from .laurent import BiLaurent, bounded_partition_counts, norm_exp
from .fermionic import (
    QuadraticData,
    coupling_matrix,
    lattice_sum,
    standard_flow_vector,
    support_box,
)
from .supernomial import SiteVector, multiplicities, supernomial_lattice_side

__all__ = [
    "CharacterValue",
    "coinv_char_fermionic",
    "coinv_char_supernomial",
    "lattice_character",
    "rep_character",
    "spectral_flow_check",
    "supernomial_char_poly",
]


@dataclass(frozen=True, eq=False)
class CharacterValue:
    """A graded character z^z_shift q^q_shift * poly.

    Unhashable: equality normalizes the shifts, which no field hash respects.
    """

    q_shift: Fraction | int
    z_shift: Fraction | int
    poly: BiLaurent

    def __post_init__(self):
        object.__setattr__(self, "q_shift", norm_exp(Fraction(self.q_shift)))
        object.__setattr__(self, "z_shift", norm_exp(Fraction(self.z_shift)))

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
    of (1/(q)_inf) * sum_n z^n q^(p(n^2+n)/2 - n(r+1))."""
    if p < 1:
        raise ValueError("p must be positive")
    if not 0 <= r < p:
        raise ValueError("need 0 <= r < p")
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


def supernomial_char_poly(p: int, r: int, mult, minus: int) -> BiLaurent:
    """Polynomial part of the supernomial character route:
    sum_m z^m q^(p(m^2+m)/2 - (r+1)m) * supernomial(L, p*m + r + minus),
    which is the lattice side at minus + r under z -> z q^(p/2 - r - 1).

    At q = z = 1 the sum picks out the supernomial arguments congruent to
    r + minus mod p, which is exactly the weight-r dimension count."""
    return supernomial_lattice_side(p, mult, minus + r).substitute_z(
        Fraction(p, 2) - r - 1
    )


def coinv_char_supernomial(r: int, site: SiteVector) -> CharacterValue:
    """Coinvariant character of weight r by the supernomial route; needs a
    full site vector (d = p-1) with nonnegative multiplicities."""
    p = site.p
    if not 0 <= r < p:
        raise ValueError("need 0 <= r < p")
    if site.d != p - 1:
        raise ValueError("supernomial route needs a full site vector (d = p-1)")
    mult = multiplicities(site)
    if any(v < 0 for v in mult):
        raise ValueError(f"negative multiplicity entry in {mult}")
    q_shift, z_shift = _prefactor(p, r)
    return CharacterValue(q_shift, z_shift, supernomial_char_poly(p, r, mult, site.minus))


def coinv_char_fermionic(
    r: int, site: SiteVector, *, qmax=None, zwin=None
) -> CharacterValue:
    """Coinvariant character of weight r by the fermionic route: the lattice
    sum with v = (p/2 - r - 1)u in the exponent and cutoff shift w = -r*u.

    Valid for d <= p-1; for d < p-1 the implied trailing cutoffs
    N_d = ... = N_{p-2} = N_+ + N_- are understood (pass the truncated site).
    Optional qmax / zwin truncate the result exactly.
    """
    p, d = site.p, site.d
    if not 0 <= r < p:
        raise ValueError("need 0 <= r < p")
    if d > p - 1:
        raise ValueError("fermionic character route needs d <= p-1")
    data = QuadraticData.for_site(p, d, r)
    poly = lattice_sum(
        data, site.components(), support_box(site, data.w), qmax=qmax, zwin=zwin
    )
    q_shift, z_shift = _prefactor(p, r)
    return CharacterValue(q_shift, z_shift, poly)


def spectral_flow_check(p: int, r: int, site: SiteVector):
    """Check the flow covariance of the supernomial character polynomial:
    lowering the minus-cutoff by p equals z q^(p-r-1) composed with the
    substitution z -> z q^p.  Returns (ok, None) or (False, payload)."""
    mult = multiplicities(site)
    if any(v < 0 for v in mult):
        raise ValueError(f"negative multiplicity entry in {mult}")
    lhs = supernomial_char_poly(p, r, mult, site.minus - p)
    rhs = supernomial_char_poly(p, r, mult, site.minus).substitute_z(p).shift(
        p - r - 1, 1
    )
    if lhs == rhs:
        return True, None
    return False, {
        "p": p,
        "r": r,
        "mult": list(mult),
        "minus": site.minus,
        "lhs": lhs.to_json_obj(),
        "rhs": rhs.to_json_obj(),
    }


def _detect_family(data: QuadraticData):
    """Recognize the standard coupling family; returns (p, d) or None."""
    size = data.size
    d = size - 2
    if d < 0:
        return None
    p = data.matrix[0][0]
    if p < 2 or d > 2 * p - 3:
        return None
    if data.matrix != coupling_matrix(p, d):
        return None
    if data.u != standard_flow_vector(size):
        return None
    return p, d


def lattice_character(
    data: QuadraticData,
    nvec,
    box=None,
    *,
    qmax=None,
    zwin=None,
) -> BiLaurent:
    """Character of the coinvariant space cut out by an arbitrary symmetric
    coupling matrix: delegates to lattice_sum over a finite box (supplied, or
    certified when the data matches the standard coupling family), truncated
    at qmax / zwin.  The cutoff-free Gordon-type series of the standard
    family is gordon_series.
    """
    if box is None:
        fam = _detect_family(data)
        if fam is None:
            raise ValueError("finite enumeration box required")
        p, _ = fam
        site = SiteVector(p, nvec[0], nvec[1], tuple(nvec[2:]))
        box = support_box(site, data.w)
    return lattice_sum(data, nvec, box, qmax=qmax, zwin=zwin)
