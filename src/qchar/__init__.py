"""qchar: exact q-series arithmetic for lattice-algebra characters.

Everything is computed over arbitrary-precision integers and rationals;
no floating point is involved anywhere.  The building blocks:

* laurent     -- sparse bivariate Laurent polynomials (rational q-exponents,
                 integer z-exponents) and their reduction modulo z^p = 1
* qbinom      -- q-Pochhammer symbols, Gaussian binomials, and their
                 two-branch extension to negative upper index
* supernomial -- q-supernomial coefficients and the site-vector calculus
* fermionic   -- quadratic-form lattice sums with certified finite support,
                 and Gordon-type series with exact truncation
* fusion      -- the fusion ring of Z/pZ (cyclic convolution) and
                 coinvariant dimension counts
* characters  -- graded character formulas with exact fractional prefactors
* cli         -- `qchar compute ...` and `qchar verify ...`

The `verify` module sweeps the polynomial identities that tie all of these
together (Pascal systems, product refactorings, lattice sum = supernomial
sum, character route equality, spectral flow, dimension agreement).
"""

from .laurent import BiLaurent
from .qbinom import qbinomial, qbinomial_ext, qpochhammer
from .supernomial import (
    SiteVector,
    multiplicities,
    supernomial,
    supernomial_at1,
)
from .fermionic import (
    NonFiniteSupportError,
    QuadraticData,
    coupling_matrix,
    fermionic_sum,
    gordon_series,
    lattice_sum,
    lattice_support,
    support_box,
)
from .fusion import (
    FusionVector,
    closed_form_dims,
    decompose_site,
    dims_via_supernomial,
    elementary_dims,
    elementary_site,
    fuse,
    fusion_dims,
)
from .characters import (
    CharacterValue,
    coinv_char_fermionic,
    coinv_char_supernomial,
    rep_character,
    spectral_flow_check,
    supernomial_char_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BiLaurent",
    "CharacterValue",
    "FusionVector",
    "NonFiniteSupportError",
    "QuadraticData",
    "SiteVector",
    "closed_form_dims",
    "coinv_char_fermionic",
    "coinv_char_supernomial",
    "coupling_matrix",
    "decompose_site",
    "dims_via_supernomial",
    "elementary_dims",
    "elementary_site",
    "fermionic_sum",
    "fuse",
    "fusion_dims",
    "gordon_series",
    "lattice_sum",
    "lattice_support",
    "multiplicities",
    "qbinomial",
    "qbinomial_ext",
    "qpochhammer",
    "rep_character",
    "spectral_flow_check",
    "supernomial",
    "supernomial_at1",
    "supernomial_char_poly",
    "support_box",
]
