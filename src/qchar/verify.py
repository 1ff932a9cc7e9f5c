"""Identity-verification sweeps.

Each identity has a deterministic case generator and a checker that takes
one picklable case tuple and returns None on success or a failure payload
(params, lhs, rhs as JSON-ready objects).  Checkers are top-level functions
so sweeps can be fanned out over worker processes; results are merged in
case order regardless of completion order, so reports are reproducible.

Identity keys:

    pascal   -- the two q-Pascal recurrences of the extended binomial on a
                window, plus regeneration of the whole table from boundary
                data alone
    rdc      -- product refactoring: X(N,n) X(M,m) as a one-parameter sum of
                triple products
    knuth    -- convolution: sum_k q^(k^2+ak) X(M,a+k) X(S,k) = qbin(M+S,S+a)
    ta       -- tb's identity on the balanced sites: there the certified
                box has no negative coordinate, so the lattice sum is the
                standard-binomial sum
    tb       -- lattice sum = supernomial sum with extended binomials, no
                balance conditions
    rec      -- supernomial column recurrence, trailing-zero reduction, the
                padding identity for lattice sums, and the one-step cutoff
                recurrence of the general engine
    char-eq  -- coinvariant character: fermionic route = supernomial route
    flow     -- spectral-flow covariance of the character polynomials
    dims     -- dimension agreement across four independent routes
"""

from __future__ import annotations

import itertools
import math
import os
import random
import time
from contextlib import ExitStack
from fractions import Fraction
from functools import lru_cache, partial
from operator import sub

from .laurent import BiLaurent, _Record, _unpack_qdict, _width
from .qbinom import _ext_min_qexp, _packed, qbinomial_ext
from .supernomial import (
    SiteVector,
    _top,
    multiplicities,
    supernomial,
    supernomial_lattice_side,
)
from .fermionic import QuadraticData, _factor_data, fermionic_sum, lattice_sum
from .characters import (
    coinv_char_fermionic,
    coinv_char_supernomial,
    spectral_flow_check,
)
from .fusion import (
    closed_form_dims,
    decompose_site,
    dims_via_supernomial,
    fusion_dims,
)

__all__ = ["IdentityReport", "REPORT_SCHEMA", "ALL_IDENTITIES", "WorkerPool",
           "check", "run_identity"]

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["identity", "cases", "failures", "ms"],
    "additionalProperties": False,
    "properties": {
        "identity": {"type": "string"},
        "cases": {"type": "integer", "minimum": 0},
        "ms": {"type": "integer", "minimum": 0},
        "failures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["params", "lhs", "rhs"],
                "properties": {"params": {"type": "object"}},
            },
        },
    },
}


class IdentityReport(_Record):
    """The result of one sweep: a mutable record, so unhashable."""

    __slots__ = ("identity", "cases", "failures", "ms")
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None

    def __init__(self, identity: str, cases: int, failures: list | None = None,
                 ms: int = 0):
        self._set(identity, cases, [] if failures is None else failures, ms)

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "cases": self.cases,
            "failures": self.failures,
            "ms": self.ms,
        }


def _poly_json(value):
    if isinstance(value, dict):
        return {key: _poly_json(v) for key, v in value.items()}
    return value.to_json_obj()


def _compare(params, lhs, rhs):
    """None when the identity lhs = rhs holds, else the failure payload.

    Either side may be a dict of named values; the identity then holds when
    every value on the left equals every value on the right."""
    lefts = lhs.values() if isinstance(lhs, dict) else (lhs,)
    rights = rhs.values() if isinstance(rhs, dict) else (rhs,)
    if all(x == y for x in lefts for y in rights):
        return None
    return {"params": params, "lhs": _poly_json(lhs), "rhs": _poly_json(rhs)}


def _site_params(p, d, plus, minus, levels) -> dict:
    return {"p": p, "d": d, "plus": plus, "minus": minus, "levels": list(levels)}


# -- shared sweep enumeration --------------------------------------------------


def _profiles(p, d, total, hi):
    """The sorted level tuples in [0, hi]^d whose site of rank p and
    N_+ + N_- = total has L >= 0.  L depends only on the profile (levels,
    total), so the sweeps check each profile once, not once per (plus,
    minus)."""
    return [
        levels
        for levels in itertools.combinations_with_replacement(range(hi + 1), d)
        if min(multiplicities(SiteVector(p, total, 0, levels))) >= 0
    ]


def _site_cases(p_lo, p_hi, nmax, margin, max_d=None):
    """(p, d, plus, minus, levels) with nonnegative multiplicity vector;
    plus ranges margin below 0 and above the total."""
    for p in range(p_lo, p_hi + 1):
        d_hi = 2 * p - 3 if max_d is None else min(max_d, 2 * p - 3)
        for d in range(0, d_hi + 1):
            for total in range(nmax + 1):
                kept = _profiles(p, d, total, total)
                for plus in range(-margin, total + margin + 1):
                    for levels in kept:
                        yield (p, d, plus, total - plus, levels)


@lru_cache(maxsize=1)
def _site_case_list(p_lo, p_hi, nmax, margin):
    """_site_cases as a tuple, built once for ta and tb, which sweep the
    same sites."""
    return tuple(_site_cases(p_lo, p_hi, nmax, margin))


@lru_cache(maxsize=1)
def _full_site_cases(p_lo, p_hi, entry_max):
    """(p, r, plus, minus, levels) over full sites (d = p-1) with every
    component in [0, entry_max] and nonnegative multiplicities, as a tuple
    built once for char-eq, flow and dims, which sweep the same sites."""
    cases = []
    for p in range(p_lo, p_hi + 1):
        kept = [_profiles(p, p - 1, total, entry_max)
                for total in range(2 * entry_max + 1)]
        for plus in range(entry_max + 1):
            for minus in range(entry_max + 1):
                for levels in kept[plus + minus]:
                    cases.extend((p, r, plus, minus, levels) for r in range(p))
    return tuple(cases)


def _is_balanced(p, d, plus, minus, levels):
    """The balance conditions 2*N - N[d-1] >= -(2p - d - 2) for N = N_+ and
    N = N_-; they hold exactly when support_box has no negative coordinate."""
    last = levels[-1] if levels else 0
    bound = -(2 * p - d - 2)
    return 2 * plus - last >= bound and 2 * minus - last >= bound


# -- pascal ---------------------------------------------------------------------


def _cases_pascal(opts):
    w = opts["window"]
    for n in range(-w, w + 1):
        for m in range(-w, w + 1):
            yield ("id", n, m)
    yield ("regen", w)


def _qexp_minus_one(e: int) -> BiLaurent:
    if e == 0:
        return BiLaurent.zero()
    return BiLaurent({(e, 0): 1, (0, 0): -1})


def regenerate_ext_table(window: int) -> dict:
    """Rebuild the extended-binomial table on [-window, window]^2 using only
    the two q-Pascal recurrences (and relations obtained by eliminating one
    of the two unknowns between them) seeded with the boundary values
    X(0,0) = X(-1,-1) = 1 and X(-1,0) = 0."""
    w = window
    mhi = w
    mlo = -2 * w - 4
    table: dict = {}

    def inrow_step_down(n, m):
        # (q^m - 1) X(n, m) = (q^(n+1-m) - 1) X(n, m-1)
        num = table[(n, m)] * _qexp_minus_one(m)
        return num.divide_exact(_qexp_minus_one(n + 1 - m))

    def inrow_step_up(n, m):
        # X(n, m) from X(n, m-1) by the same relation
        num = table[(n, m - 1)] * _qexp_minus_one(n + 1 - m)
        return num.divide_exact(_qexp_minus_one(m))

    # row 0, seeded at X(0, 0) = 1
    table[(0, 0)] = BiLaurent.one()
    for m in range(1, mhi + 1):
        table[(0, m)] = inrow_step_up(0, m)
    for m in range(0, mlo, -1):
        table[(0, m - 1)] = inrow_step_down(0, m)
    # rows 1..w by the first recurrence
    for n in range(1, w + 1):
        for m in range(mlo + n, mhi + 1):
            table[(n, m)] = BiLaurent.term(1, m) * table[(n - 1, m)] + table[
                (n - 1, m - 1)
            ]
    # row -1, seeded at the boundary values X(-1,-1) = 1 and X(-1,0) = 0
    table[(-1, -1)] = BiLaurent.one()
    table[(-1, 0)] = BiLaurent.zero()
    for m in range(1, mhi + 1):
        table[(-1, m)] = inrow_step_up(-1, m)
    for m in range(-1, mlo, -1):
        table[(-1, m - 1)] = inrow_step_down(-1, m)
    # rows -2..-w by eliminating X(n, m-1) between the two recurrences:
    # X(n, m) (1 - q^(n+1)) = X(n+1, m) (1 - q^(n+1-m))
    for n in range(-2, -w - 1, -1):
        den = BiLaurent.one() - BiLaurent.term(1, n + 1)
        for m in range(mlo + 1, mhi + 1):
            num = table[(n + 1, m)] * (BiLaurent.one() - BiLaurent.term(1, n + 1 - m))
            table[(n, m)] = num.divide_exact(den)
    return {(n, m): v for (n, m), v in table.items() if abs(n) <= w and abs(m) <= w}


def _check_pascal(case):
    kind = case[0]
    if kind == "id":
        _, n, m = case
        x = qbinomial_ext(n, m)
        a = BiLaurent.term(1, m) * qbinomial_ext(n - 1, m) + qbinomial_ext(
            n - 1, m - 1
        )
        b = qbinomial_ext(n - 1, m) + BiLaurent.term(1, n - m) * qbinomial_ext(
            n - 1, m - 1
        )
        return _compare({"case": "id", "n": n, "m": m}, x,
                        {"first": a, "second": b})
    _, w = case
    table = regenerate_ext_table(w)
    for (n, m), regen in sorted(table.items()):
        failure = _compare({"case": "regen", "n": n, "m": m}, regen,
                           qbinomial_ext(n, m))
        if failure:
            return failure
    return None


# -- rdc / knuth: sums of binomial products, compared packed ---------------------


def _packed_sides(products):
    """(width, least exponent, lhs, rhs): the two sides of an identity
    between sums of binomial products, as packed ints at `width` bytes, each
    from the least exponent up.  `products` lists (side, q-shift, tops,
    bottoms) with no zero factor, each the term q^shift prod_j X(tops[j],
    bottoms[j]) of the lhs (side 0) or the rhs (side 1), X =
    qbinomial_ext; the factors are read from the packed binomial table.

    The width.  Write |f|_1 for the sum of the absolute coefficients of a
    polynomial f.  Each coefficient of a product fg is a sum of products of
    one coefficient of f and one of g, so every coefficient of fg is at
    most |f|_1 |g|_1 in absolute value, and |fg|_1 <= |f|_1 |g|_1; a power
    of q moves the coefficients and adds none.  For X(t, b) != 0, |X|_1 is
    comb(t, b), or comb(-b-1, t-b) when t < 0, since the reflection only
    reverses the coefficients of a Gaussian binomial, which are positive,
    and gives them one sign (fermionic._factor_data).  So every coefficient
    of lhs - rhs, and of each side alone, is at most B = the sum over the
    products of both sides of the product of their factors' |X|_1, and the
    width w = _width(B) has B < 2^(8w-1).  Packing evaluates at q = 2^(8w)
    and is a ring homomorphism, so the packed difference is lhs - rhs at
    2^(8w).  A nonzero polynomial whose coefficients all lie below
    2^(8w-1) in absolute value is nonzero there: its top term outweighs the
    sum of all the others.  So the packed sides are equal exactly when the
    polynomials are, and each side unpacks exactly into the failure
    payload.
    """
    bound = 0
    lows = []
    for _, shift, tops, bottoms in products:
        _, low, norm = _factor_data(tops, bottoms, 2 * shift)
        bound += norm
        lows.append(low)
    width = _width(bound)
    bits = 8 * width
    base = min(lows, default=0)
    sides = [0, 0]
    for (side, _, tops, bottoms), low in zip(products, lows):
        sides[side] += math.prod(
            [_packed(t, b, width) for t, b in zip(tops, bottoms)]
        ) << bits * (low - base)
    return width, base, *sides


def _compare_packed(params, products):
    """None when the two sides of `products` (see _packed_sides) are equal,
    else the failure payload, with each side unpacked."""
    width, base, lhs, rhs = _packed_sides(products)
    if lhs == rhs:
        return None
    return _compare(params, *(
        BiLaurent.from_qdict(_unpack_qdict(side, width, base))
        for side in (lhs, rhs)))


def _cases_rdc(opts):
    b = opts["bound"]
    return itertools.product(range(-b, b + 1), repeat=4)  # (N, M, n, m)


def _rdc_products(big_n, big_m, n, m):
    """The products of both sides of rdc at (N, M, n, m) with no zero
    factor, as _packed_sides takes them."""
    products = []
    if not (_ext_min_qexp(big_n, n) is None or _ext_min_qexp(big_m, m) is None):
        products.append((0, 0, (big_n, big_m), (n, m)))
    s = big_n + big_m - n - m
    if s >= 0:
        # X(t, b) != 0 exactly when 0 <= b <= t or b <= t < 0.  For the
        # first two factors that puts l in [lo, hi]: s >= 0 makes N - m or
        # M - n nonnegative, and that factor caps l at n or m.  The third
        # factor X(s + l, l) leaves out -s <= l < 0
        lo = n + m - min(big_n, big_m)
        hi = min(n if big_n >= m else m, m if big_m >= n else n)
        products.extend(
            (1, (n - l) * (m - l), (big_n - m, big_m - n, s + l),
             (n - l, m - l, l))
            for l in itertools.chain(range(lo, min(hi, -s - 1) + 1),
                                     range(max(lo, 0), hi + 1))
        )
    return products


def _check_rdc(case):
    """X(N,n) X(M,m) = sum_l q^((n-l)(m-l)) X(N-m,n-l) X(M-n,m-l)
    X(N+M-n-m+l,l), X = qbinomial_ext, with both sides compared as single
    packed ints (Kronecker substitution, see laurent and _packed_sides)."""
    big_n, big_m, n, m = case
    return _compare_packed({"N": big_n, "M": big_m, "n": n, "m": m},
                           _rdc_products(*case))


def _cases_knuth(opts):
    lo, hi, awin = opts["lo"], opts["hi"], opts["awin"]
    return (
        (M, S, a)
        for M in range(lo, hi + 1)
        for S in range(lo, hi + 1)
        if M + S >= 0
        for a in range(-awin, awin + 1)
    )


def _knuth_products(big_m, big_s, a):
    """The products of both sides of knuth at (M, S, a) with no zero
    factor, as _packed_sides takes them.  For M < 0, X(M, a + k) X(S, k)
    vanishes outside 0 <= k <= S, and for M >= 0 outside -a <= k <= M - a."""
    lo, hi = (-a, big_m - a) if big_m >= 0 else (0, big_s)
    products = [(0, k * k + a * k, (big_m, big_s), (a + k, k))
                for k in range(lo, hi + 1)
                if not (_ext_min_qexp(big_m, a + k) is None
                        or _ext_min_qexp(big_s, k) is None)]
    if _ext_min_qexp(big_m + big_s, big_s + a) is not None:
        products.append((1, 0, (big_m + big_s,), (big_s + a,)))
    return products


def _check_knuth(case):
    """sum_k q^(k^2+ak) X(M,a+k) X(S,k) = X(M+S,S+a) for M + S >= 0, X =
    qbinomial_ext, with both sides compared as single packed ints (see
    _packed_sides)."""
    big_m, big_s, a = case
    return _compare_packed({"M": big_m, "S": big_s, "a": a},
                           _knuth_products(*case))


# -- ta / tb -----------------------------------------------------------------------


def _cases_tb(opts):
    return _site_case_list(opts["p_lo"], opts["p_hi"], opts["nmax"], opts["margin"])


def _cases_ta(opts):
    return (case for case in _cases_tb(opts) if _is_balanced(*case))


def _check_tb(case):
    p, _, plus, minus, levels = case
    site = SiteVector(p, plus, minus, levels)
    return _compare(_site_params(*case), fermionic_sum(site),
                    supernomial_lattice_side(site))


# -- rec ----------------------------------------------------------------------------


def _cases_rec(opts):
    entry, amax = opts["entry_max"], opts["amax"]
    for k in (2, 3):
        for mult in itertools.product(range(entry + 1), repeat=k):
            for a in range(-amax, amax + 1):
                yield ("sup", mult, a)
    for k in (1, 2, 3):
        for mult in itertools.product(range(entry + 1), repeat=k):
            for a in range(-2, _top(mult) + 3):
                yield ("trunc", mult, a)
    for case in _site_cases(2, 3, 3, 1, max_d=None):
        p, d, plus, minus, levels = case
        if d + 1 <= 2 * p - 3:
            yield ("pad", p, plus, minus, levels)
    yield from _cases_rec_main(opts)
    yield from _cases_rec_diag(opts)


def _cutoff_step(matrix, nvec, a):
    """The two smaller cutoffs (N - e_a, N - A e_a) of the one-step cutoff
    recurrence of the lattice sum chi of data (A, u, v) at the cutoff N in
    direction a,

        chi(N) = chi(N - e_a) + z^(u_a) q^(N_a + v_a - A_aa/2) chi(N - A e_a);

    _check_rec builds the monomial."""
    down = nvec[:a] + (nvec[a] - 1,) + nvec[a + 1 :]
    return down, tuple(map(sub, nvec, matrix[a]))


def _cases_rec_main(opts):
    for p, d, plus, minus, levels in _site_cases(2, 3, 3, 0, max_d=2):
        matrix = QuadraticData.for_site(p, d).matrix
        for aidx in range(d + 2):
            steps = _cutoff_step(matrix, (plus, minus) + levels, aidx)
            if all(min(multiplicities(SiteVector(p, c[0], c[1], c[2:]))) >= 0
                   for c in steps):
                yield ("main", p, d, plus, minus, levels, aidx)


def _cases_rec_diag(opts):
    rng = random.Random(opts["seed"])
    for _ in range(opts["count"]):
        m = rng.randint(1, 3)
        diag = tuple(rng.randint(2, 4) for _ in range(m))
        aidx = rng.randrange(m)
        nvec = tuple(
            rng.randint(diag[b], diag[b] + 3) if b == aidx else rng.randint(0, 5)
            for b in range(m)
        )
        u = tuple(rng.randint(-2, 2) for _ in range(m))
        v2 = tuple(rng.randint(-2, 2) for _ in range(m))
        yield ("diag", m, diag, nvec, u, v2, aidx)


def _check_rec(case):
    kind = case[0]
    if kind == "sup":
        _, mult, a = case
        k = len(mult)
        plus_k = mult[:-1] + (mult[-1] + 1,)
        plus_k1 = mult[: k - 2] + (mult[k - 2] + 1,) + mult[k - 1 :]
        lhs = supernomial(plus_k, a)
        rhs = supernomial(plus_k1, a - 1) + BiLaurent.term(1, a) * supernomial(
            mult, a
        )
        return _compare({"case": "sup", "L": list(mult), "a": a}, lhs, rhs)
    if kind == "trunc":
        _, mult, a = case
        return _compare({"case": "trunc", "L": list(mult), "a": a},
                        supernomial(mult + (0,), a), supernomial(mult, a))
    if kind == "pad":
        _, p, plus, minus, levels = case
        short = SiteVector(p, plus, minus, levels)
        padded = SiteVector(p, plus, minus, levels + (plus + minus,))
        return _compare({"case": "pad", "p": p, "plus": plus, "minus": minus,
                         "levels": list(levels)},
                        fermionic_sum(short), fermionic_sum(padded))
    # one cutoff-recurrence step: main for the coupling matrix of a site,
    # diag for a diagonal matrix with optional half-integer exponent shift
    if kind == "main":
        _, p, d, plus, minus, levels, aidx = case
        data = QuadraticData.for_site(p, d)
        nvec = (plus, minus) + levels

        def chi(comps):
            return fermionic_sum(SiteVector(p, comps[0], comps[1], comps[2:]))

        params = {"case": "main", "p": p, "d": d, "plus": plus, "minus": minus,
                  "levels": list(levels), "a": aidx}
    else:
        _, m, diag, nvec, u, v2, aidx = case
        a_mat = tuple(
            tuple(diag[i] if i == j else 0 for j in range(m)) for i in range(m)
        )
        data = QuadraticData(a_mat, u, tuple(Fraction(x, 2) for x in v2))
        box = [(0, max(nvec[b] // diag[b], 0)) for b in range(m)]

        def chi(comps):
            return lattice_sum(data, comps, box)

        params = {"case": "diag", "diag": list(diag), "N": list(nvec),
                  "u": list(u), "v2": list(v2), "a": aidx}
    down, downa = _cutoff_step(data.matrix, nvec, aidx)
    pref = BiLaurent.term(1, nvec[aidx] + data.v[aidx]
                          - Fraction(data.matrix[aidx][aidx], 2), data.u[aidx])
    return _compare(params, chi(nvec), chi(down) + pref * chi(downa))


# -- char-eq / flow / dims -------------------------------------------------------------


def _cases_chareq(opts):
    full = _full_site_cases(opts["p_lo"], opts["p_hi"], opts["entry_max"])
    for case in full:
        yield ("full",) + case
    for p, r, plus, minus, levels in full:
        total = plus + minus
        for d in range(p - 1):
            if all(x == total for x in levels[d:]):
                yield ("cor", p, r, d, plus, minus, levels)


def _check_chareq(case):
    if case[0] == "full":
        _, p, r, plus, minus, levels = case
        site = SiteVector(p, plus, minus, levels)
        lhs = coinv_char_fermionic(r, site)
        rhs = coinv_char_supernomial(r, site)
        params = {"case": "full", "p": p, "r": r, "plus": plus, "minus": minus,
                  "levels": list(levels)}
    else:
        _, p, r, d, plus, minus, levels = case
        short = SiteVector(p, plus, minus, levels[:d])
        full = SiteVector(p, plus, minus, levels)
        lhs = coinv_char_fermionic(r, short)
        rhs = coinv_char_supernomial(r, full)
        params = {"case": "cor", "p": p, "r": r, "d": d, "plus": plus,
                  "minus": minus, "levels": list(levels)}
    return _compare(params, lhs, rhs)


def _cases_full(opts):
    """The full-site cases of flow and dims (see _full_site_cases)."""
    return _full_site_cases(opts["p_lo"], opts["p_hi"], opts["entry_max"])


def _check_flow(case):
    p, r, plus, minus, levels = case
    ok, payload = spectral_flow_check(r, SiteVector(p, plus, minus, levels))
    if not ok:
        return {
            "params": {"p": p, "r": r, "plus": plus, "minus": minus,
                       "levels": list(levels)},
            "lhs": payload["lhs"],
            "rhs": payload["rhs"],
        }
    return None


def _check_dims(case):
    p, r, plus, minus, levels = case
    site = SiteVector(p, plus, minus, levels)
    params = {"p": p, "r": r, "plus": plus, "minus": minus, "levels": list(levels)}
    char_val = coinv_char_supernomial(r, site).poly.at_q1_z1()
    sup_val = dims_via_supernomial(r, site)
    fus_val = fusion_dims(p, decompose_site(site))[r]
    values = {"character": char_val, "supernomial": sup_val, "fusion": fus_val}
    closed = closed_form_dims(multiplicities(site))
    if closed is not None:
        values["closed_form"] = closed
    if len(set(values.values())) != 1:
        return {"params": params, "lhs": values, "rhs": None}
    return None


# -- orchestration ----------------------------------------------------------------------


_REGISTRY = {
    "pascal": (_cases_pascal, _check_pascal, {"window": 8}),
    "rdc": (_cases_rdc, _check_rdc, {"bound": 5}),
    "knuth": (_cases_knuth, _check_knuth, {"lo": -5, "hi": 8, "awin": 5}),
    "ta": (_cases_ta, _check_tb, {"p_lo": 2, "p_hi": 4, "nmax": 5, "margin": 2}),
    "tb": (_cases_tb, _check_tb, {"p_lo": 2, "p_hi": 4, "nmax": 5, "margin": 2}),
    "rec": (_cases_rec, _check_rec, {"entry_max": 4, "amax": 10, "count": 60,
                                     "seed": 0}),
    "char-eq": (_cases_chareq, _check_chareq, {"p_lo": 2, "p_hi": 3,
                                               "entry_max": 4}),
    "flow": (_cases_full, _check_flow, {"p_lo": 2, "p_hi": 3, "entry_max": 4}),
    "dims": (_cases_full, _check_dims, {"p_lo": 2, "p_hi": 3, "entry_max": 4}),
}

ALL_IDENTITIES = tuple(_REGISTRY)

# cases per window of a sweep on the workers (see WorkerPool): what bounds
# the cases a run holds, whatever the size of its sweeps
_WINDOW = 4096


class WorkerPool:
    """Worker processes shared by the sweeps of one run, and the sweeps
    submitted to them and not yet read.

    The pool opens on the first sweep that can use more than one worker, with
    as many as that sweep can use: never more than jobs, the CPUs or the
    cases of its first window.  It reopens larger only for a later sweep
    that can use more.  Closing the old pool first finishes the work
    submitted to it, so a sweep that the pool still holds keeps every
    result.  The workers keep their memo tables from one sweep to the next.

    A sweep goes to the workers in windows of _WINDOW cases, generated as
    they are submitted: the first two when the sweep is submitted, and
    each next one as the results of the window two before it have been
    read, so the workers never wait for the reader within a sweep.
    run_identity reads the results in case order, and it can submit the
    next sweep before it reads one, so the workers go from one identity to
    the next without waiting at a barrier.  The pool then holds at most
    four windows, two of the sweep being read and two of the next one,
    however many cases the sweeps have.  With one worker nothing runs
    ahead: each check runs as its result is read.  A sweep submitted while
    the pool holds another with the same checker submits only the cases
    that one lacks and reads the results of the shared ones from it, so
    within one run a case is checked once.  That state lives only as long
    as the two sweeps are held.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._pool = None
        self._size = 0
        self._stack = ExitStack()
        # (identity, options) -> (checker, cases, results of the cases
        # submitted, shared, failures by case), where cases() generates the
        # sweep's cases anew; see submit
        self._held: dict = {}
        self._mark = time.perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._held.clear()
        self.close()
        return False

    def close(self) -> None:
        self._stack.close()
        self._pool = None
        self._size = 0

    def map(self, checker, cases):
        """checker over the iterable cases, results in case order; the first
        two windows of cases are generated and submitted now."""
        cases = iter(cases)
        window = list(itertools.islice(cases, _WINDOW))
        workers = min(self.jobs, os.cpu_count() or 1, len(window))
        if workers <= 1:
            return map(checker, itertools.chain(window, cases))
        if workers > self._size:
            # imported here, so that a run that never forks workers does
            # not load multiprocessing; the pool forks all its workers at
            # once, so never more than can run
            from concurrent.futures import ProcessPoolExecutor

            self.close()
            self._pool = self._stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)
            )
            self._size = workers
        chunk = max(1, len(window) // (workers * 8))
        results = self._pool.map(checker, window, chunksize=chunk)
        return self._windows(checker, cases, results,
                             self._next_window(checker, cases, chunk), chunk)

    def _windows(self, checker, cases, results, following, chunk):
        """The results of the submitted window, then those of `following`,
        the window submitted after it, and so on: each next window goes to
        the pool open then as the one two before it has been read, so
        two windows are with the workers until the cases run out."""
        while results:  # [] once the cases run out
            yield from results
            results = following
            following = self._next_window(checker, cases, chunk)

    def _next_window(self, checker, cases, chunk):
        """The results of the next window of cases, or [] if none is left."""
        window = list(itertools.islice(cases, _WINDOW))
        return window and self._pool.map(checker, window, chunksize=chunk)

    def submit(self, identity: str, options=None) -> None:
        """Start the sweep of one identity, unless the pool holds it.  If the
        pool holds a sweep with the same checker, only the cases that one
        lacks go to the workers, and shared = (its cases, its failures by
        case) gives the results of the others."""
        key = _held_key(identity, options)
        if key in self._held:
            return
        checker, cases = _sweep(identity, options)
        fresh, shared = cases(), None
        for other, other_cases, _, _, other_failed in self._held.values():
            if other is checker:
                seen = set(other_cases())
                fresh = (case for case in fresh if case not in seen)
                shared = seen, other_failed
                break
        self._held[key] = (checker, cases, self.map(checker, fresh),
                           shared, {})

    def results(self, identity: str, options=None):
        """The results of a submitted sweep in case order, which the pool
        then no longer holds; the cases are generated again to merge
        them."""
        _, cases, fresh, shared, failed = self._held.pop(
            _held_key(identity, options))
        return _merged(cases(), fresh, shared, failed)

    def lap(self) -> int:
        """Whole milliseconds since the previous lap, or since the pool was
        made."""
        now = time.perf_counter()
        ms, self._mark = int((now - self._mark) * 1000), now
        return ms


def _held_key(identity: str, options) -> tuple:
    # checked first: a list value would raise TypeError, not ValueError
    return identity, tuple(sorted(_int_options(options or {}).items()))


def _merged(cases, fresh, shared, failed):
    """The results of a sweep in case order: from `fresh` for the cases it
    submitted, and for the others from `shared`, the (cases, failures by
    case) of the sweep with the same checker.  Each failure is also
    recorded by case in `failed`, for a later sweep with this checker."""
    seen, earlier = shared or ((), None)
    for case in cases:
        result = earlier.get(case) if case in seen else next(fresh)
        if result is not None:
            failed[case] = result
        yield result


# a negative value would shrink or empty the sweep without a word
_NONNEGATIVE = ("count", "amax", "margin", "entry_max", "nmax", "bound",
                "window", "awin")


def _int_options(*layers: dict) -> dict:
    """The dicts merged in order, a later one winning a key.  ValueError for
    a value that is not an int, also one that a later dict replaces."""
    merged = {}
    for layer in layers:
        for key, value in layer.items():
            if type(value) is not int:
                raise ValueError(f"config option {key!r} must be an integer")
        merged.update(layer)
    return merged


def _refuse_untaken(identity: str, options: dict, names) -> None:
    # an option that none of the identities names takes would be dropped
    # without a word
    unknown = set(options).difference(*(_REGISTRY[n][2] for n in names))
    if unknown:
        raise ValueError(f"verify {identity} takes no option "
                         f"{', '.join(map(repr, sorted(unknown)))}")


def _sweep(identity: str, options=None) -> tuple:
    """(checker, cases) of one identity sweep, with options merged over its
    defaults: each call cases() returns a new iterable over the sweep's
    cases, which generates them as they are read.  A key of another
    identity is not used, so that one dict can drive every sweep of
    `verify all`, but every value is checked.  ValueError, with the text
    `qchar verify` prints, for an unknown identity, a value that is not an
    int, a key that no identity takes, a negative count, bound or window
    (_NONNEGATIVE), p_lo < 2, or an empty sweep; to tell that, only its
    first case is generated."""
    if identity not in _REGISTRY:
        raise ValueError(f"unknown identity {identity!r}")
    options = _int_options(options or {})
    _refuse_untaken(identity, options, _REGISTRY)
    for key in _NONNEGATIVE:
        if options.get(key, 0) < 0:
            raise ValueError(f"option {key!r} must be >= 0, got {options[key]}; "
                             "a negative value would shrink or empty the sweep")
    if options.get("p_lo", 2) < 2:  # ta and tb would quietly skip p < 2
        raise ValueError(f"--p must start at 2 or above (p_lo = {options['p_lo']})")
    gen, checker, defaults = _REGISTRY[identity]
    cases = partial(gen, {key: options.get(key, value)
                          for key, value in defaults.items()})
    if next(iter(cases()), None) is None:
        raise ValueError(f"sweep for {identity!r} is empty; widen the ranges")
    return checker, cases


def check(identity: str, *options: dict) -> tuple:
    """The identity keys that `qchar verify <identity>` runs (identity is a
    key or "all"), once their sweeps are known to run under the options:
    dicts merged in order, a later one winning a key, as the flags of
    `qchar verify` win over its --config.  ValueError, with the text the
    CLI prints, for an unknown identity key, a value that is not an int
    (also one that a later dict replaces), an option that none of the
    chosen identities takes, or anything _sweep refuses for one of them;
    a key that only another chosen identity takes is not used by the
    others.  No sweep is run, but the first case of each is generated."""
    keys = ALL_IDENTITIES + ("all",)
    if identity not in keys:
        raise ValueError(f"unknown identity {identity!r}; "
                         f"choose from {', '.join(keys)}")
    names = ALL_IDENTITIES if identity == "all" else (identity,)
    merged = _int_options(*options)
    _refuse_untaken(identity, merged, names)
    for name in names:
        _sweep(name, merged)
    return names


def run_identity(identity: str, options=None, pool: WorkerPool | None = None,
                 ahead: str | None = None) -> IdentityReport:
    """Run one identity sweep on the workers of `pool`, or serially without
    one.  `ahead`, the key of the identity to run next, submits that sweep
    with the same options before this one is read, so the workers need not
    wait for it.  Failures keep case order, so output is reproducible for
    any worker count.  The report's ms is the wall time since the pool's
    previous report, or since the pool was made: while sweeps overlap, the
    time each one takes on its own is not defined.  Options are checked as
    `qchar verify` checks them (see _sweep): ValueError before any case
    runs, and a key of another identity is not used."""
    if pool is None:
        pool = WorkerPool(1)  # one worker: it never opens a process pool
    pool.submit(identity, options)
    if ahead is not None:
        pool.submit(ahead, options)
    cases, failures = 0, []
    for result in pool.results(identity, options):
        cases += 1
        if result is not None:
            failures.append(result)
    return IdentityReport(identity, cases, failures, pool.lap())
