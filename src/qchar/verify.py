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
    ta       -- lattice sum = supernomial sum under the balance conditions,
                with all contributing vectors nonnegative
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
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .laurent import BiLaurent, _qdict_iadd, _qdict_mul
from .qbinom import _ext_qdict, qbinomial, qbinomial_ext
from .supernomial import (
    SiteVector,
    multiplicities,
    supernomial,
    supernomial_lattice_side,
)
from .fermionic import (
    QuadraticData,
    _site_data,
    coupling_matrix,
    fermionic_sum,
    lattice_sum,
    lattice_support,
    standard_flow_vector,
    support_box,
)
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
           "run_identity"]

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


@dataclass
class IdentityReport:
    identity: str
    cases: int
    failures: list = field(default_factory=list)
    ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

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
    if hasattr(value, "to_json_obj"):
        return value.to_json_obj()
    return value


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


def _site_cases(p_lo, p_hi, nmax, margin, max_d=None):
    """(p, d, plus, minus, levels) with nonnegative multiplicity vector;
    plus ranges margin below 0 and above the total.  The multiplicity
    vector depends only on the profile (levels, total), so each profile is
    checked once, not once per plus."""
    for p in range(p_lo, p_hi + 1):
        d_hi = 2 * p - 3 if max_d is None else min(max_d, 2 * p - 3)
        for d in range(0, d_hi + 1):
            for total in range(nmax + 1):
                kept = [
                    levels
                    for levels in itertools.combinations_with_replacement(
                        range(total + 1), d
                    )
                    if min(multiplicities(SiteVector(p, total, 0, levels))) >= 0
                ]
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
    built once for char-eq, flow and dims, which sweep the same sites.  The
    multiplicity vector depends only on the profile (levels, plus + minus),
    so each profile is checked once, not once per (plus, minus)."""
    cases = []
    for p in range(p_lo, p_hi + 1):
        candidates = list(itertools.combinations_with_replacement(
            range(entry_max + 1), p - 1))
        kept = [
            [levels for levels in candidates
             if min(multiplicities(SiteVector(p, total, 0, levels))) >= 0]
            for total in range(2 * entry_max + 1)
        ]
        for plus in range(entry_max + 1):
            for minus in range(entry_max + 1):
                for levels in kept[plus + minus]:
                    cases.extend((p, r, plus, minus, levels) for r in range(p))
    return tuple(cases)


def _is_balanced(p, d, plus, minus, levels):
    last = levels[-1] if levels else 0
    bound = -(2 * p - d - 2)
    return 2 * plus - last >= bound and 2 * minus - last >= bound


# -- pascal ---------------------------------------------------------------------


def _cases_pascal(opts):
    w = opts["window"]
    if w < 0:
        return []  # the regenerated table of a negative window is empty
    cases = [("id", n, m) for n in range(-w, w + 1) for m in range(-w, w + 1)]
    cases.append(("regen", w))
    return cases


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


# -- rdc -------------------------------------------------------------------------


def _cases_rdc(opts):
    b = opts["bound"]
    r = range(-b, b + 1)
    return [(N, M, n, m) for N in r for M in r for n in r for m in r]


def _check_rdc(case):
    big_n, big_m, n, m = case
    lhs = _qdict_mul(_ext_qdict(big_n, n), _ext_qdict(big_m, m))
    s = big_n + big_m - n - m
    rhs: dict = {}
    if s >= 0:
        # one of the first two factors has nonnegative top; its vanishing
        # brackets the summation index
        if big_n - m >= 0:
            lo, hi = n + m - big_n, n
        else:
            lo, hi = n + m - big_m, m
        for l in range(lo, hi + 1):
            t = _qdict_mul(_ext_qdict(big_n - m, n - l), _ext_qdict(big_m - n, m - l))
            if not t:
                continue
            t = _qdict_mul(t, _ext_qdict(big_n + big_m - n - m + l, l))
            if not t:
                continue
            _qdict_iadd(rhs, t, (n - l) * (m - l))
    if lhs == rhs:  # the sweep's hot path: skip wrapping the raw dicts
        return None
    return _compare({"N": big_n, "M": big_m, "n": n, "m": m},
                    BiLaurent.from_qdict(lhs), BiLaurent.from_qdict(rhs))


# -- knuth -----------------------------------------------------------------------


def _cases_knuth(opts):
    lo, hi, awin = opts["lo"], opts["hi"], opts["awin"]
    return [
        (M, S, a)
        for M in range(lo, hi + 1)
        for S in range(lo, hi + 1)
        if M + S >= 0
        for a in range(-awin, awin + 1)
    ]


def _check_knuth(case):
    big_m, big_s, a = case
    if big_m >= 0:
        lo, hi = -a, big_m - a
    else:
        lo, hi = 0, big_s
    lhs: dict = {}
    for k in range(lo, hi + 1):
        t = _qdict_mul(_ext_qdict(big_m, a + k), _ext_qdict(big_s, k))
        _qdict_iadd(lhs, t, k * k + a * k)
    return _compare({"M": big_m, "S": big_s, "a": a}, BiLaurent.from_qdict(lhs),
                    qbinomial(big_m + big_s, big_s + a))


# -- ta / tb -----------------------------------------------------------------------


def _cases_tb(opts):
    return _site_case_list(opts["p_lo"], opts["p_hi"], opts["nmax"], opts["margin"])


def _cases_ta(opts):
    return [case for case in _cases_tb(opts) if _is_balanced(*case)]


def _check_tb(case):
    p, _, plus, minus, levels = case
    site = SiteVector(p, plus, minus, levels)
    return _compare(_site_params(*case), fermionic_sum(site),
                    supernomial_lattice_side(p, multiplicities(site), minus))


def _check_ta(case):
    p, d, plus, minus, levels = case
    site = SiteVector(p, plus, minus, levels)
    params = _site_params(*case)
    data = _site_data(p, d, (0,) * (d + 2))
    box = support_box(site)
    comps = site.components()
    vectors = lattice_support(data, comps, box)
    bad = [list(v) for v in vectors if min(v, default=0) < 0]
    if bad:
        return {"params": params, "lhs": {"negative_support": bad}, "rhs": None}
    ext = lattice_sum(data, comps, box)
    std = lattice_sum(data, comps, box, extended=False)
    return _compare(params, {"extended": ext, "standard": std},
                    supernomial_lattice_side(p, multiplicities(site), minus))


# -- rec ----------------------------------------------------------------------------


def _cases_rec(opts):
    entry, amax = opts["entry_max"], opts["amax"]
    cases = []
    for k in (2, 3):
        for mult in itertools.product(range(entry + 1), repeat=k):
            for a in range(-amax, amax + 1):
                cases.append(("sup", mult, a))
    for k in (1, 2, 3):
        for mult in itertools.product(range(entry + 1), repeat=k):
            top = sum((i + 1) * v for i, v in enumerate(mult))
            for a in range(-2, top + 3):
                cases.append(("trunc", mult, a))
    for case in _site_cases(2, 3, 3, 1, max_d=None):
        p, d, plus, minus, levels = case
        if d + 1 <= 2 * p - 3:
            cases.append(("pad", p, plus, minus, levels))
    cases.extend(_cases_rec_main(opts))
    cases.extend(_cases_rec_diag(opts))
    return cases


def _cases_rec_main(opts):
    out = []
    for p, d, plus, minus, levels in _site_cases(2, 3, 3, 0, max_d=2):
        site = SiteVector(p, plus, minus, levels)
        a_mat = coupling_matrix(p, d)
        for aidx in range(d + 2):
            down = _shift_components(site.components(), aidx, 1)
            downa = tuple(
                x - a_mat[aidx][b] for b, x in enumerate(site.components())
            )
            ok = True
            for comps in (down, downa):
                shifted = SiteVector(p, comps[0], comps[1], comps[2:])
                if any(v < 0 for v in multiplicities(shifted)):
                    ok = False
                    break
            if ok:
                out.append(("main", p, d, plus, minus, levels, aidx))
    return out


def _shift_components(comps, idx, amount):
    out = list(comps)
    out[idx] -= amount
    return tuple(out)


def _cases_rec_diag(opts):
    rng = random.Random(opts["seed"])
    out = []
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
        out.append(("diag", m, diag, nvec, u, v2, aidx))
    return out


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
    if kind == "main":
        _, p, d, plus, minus, levels, aidx = case
        a_mat = coupling_matrix(p, d)
        u = standard_flow_vector(d + 2)

        def chi(comps):
            return fermionic_sum(SiteVector(p, comps[0], comps[1], comps[2:]))

        comps = SiteVector(p, plus, minus, levels).components()
        down = _shift_components(comps, aidx, 1)
        downa = tuple(x - a_mat[aidx][b] for b, x in enumerate(comps))
        pref = BiLaurent.term(
            1, Fraction(2 * comps[aidx] - a_mat[aidx][aidx], 2), u[aidx]
        )
        return _compare({"case": "main", "p": p, "d": d, "plus": plus,
                         "minus": minus, "levels": list(levels), "a": aidx},
                        chi(comps), chi(down) + pref * chi(downa))
    # diag: one cutoff-recurrence step for a diagonal matrix with optional
    # half-integer exponent shift
    _, m, diag, nvec, u, v2, aidx = case
    a_mat = tuple(
        tuple(diag[i] if i == j else 0 for j in range(m)) for i in range(m)
    )
    v = tuple(Fraction(x, 2) for x in v2)
    data = QuadraticData(a_mat, u, v, ())
    box = [(0, max(nvec[b] // diag[b], 0)) for b in range(m)]
    lhs = lattice_sum(data, nvec, box)
    down = _shift_components(nvec, aidx, 1)
    downa = tuple(x - a_mat[aidx][b] for b, x in enumerate(nvec))
    pref = BiLaurent.term(
        1,
        nvec[aidx] + v[aidx] - Fraction(diag[aidx], 2),
        u[aidx],
    )
    rhs = lattice_sum(data, down, box) + pref * lattice_sum(data, downa, box)
    return _compare({"case": "diag", "diag": list(diag), "N": list(nvec),
                     "u": list(u), "v2": list(v2), "a": aidx}, lhs, rhs)


# -- char-eq / flow / dims -------------------------------------------------------------


def _cases_chareq(opts):
    full = _full_site_cases(opts["p_lo"], opts["p_hi"], opts["entry_max"])
    cases = [("full",) + c for c in full]
    for p, r, plus, minus, levels in full:
        total = plus + minus
        for d in range(p - 1):
            if all(x == total for x in levels[d:]):
                cases.append(("cor", p, r, d, plus, minus, levels))
    return cases


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


def _cases_flow(opts):
    return _full_site_cases(opts["p_lo"], opts["p_hi"], opts["entry_max"])


def _check_flow(case):
    p, r, plus, minus, levels = case
    ok, payload = spectral_flow_check(p, r, SiteVector(p, plus, minus, levels))
    if not ok:
        return {
            "params": {"p": p, "r": r, "plus": plus, "minus": minus,
                       "levels": list(levels)},
            "lhs": payload["lhs"],
            "rhs": payload["rhs"],
        }
    return None


def _cases_dims(opts):
    return _full_site_cases(opts["p_lo"], opts["p_hi"], opts["entry_max"])


def _check_dims(case):
    p, r, plus, minus, levels = case
    site = SiteVector(p, plus, minus, levels)
    params = {"p": p, "r": r, "plus": plus, "minus": minus, "levels": list(levels)}
    char_val = coinv_char_supernomial(r, site).poly.at_q1_z1()
    sup_val = dims_via_supernomial(site, r)
    fus_val = fusion_dims(p, decompose_site(site))[r]
    values = {"character": char_val, "supernomial": sup_val, "fusion": fus_val}
    closed = closed_form_dims(p, multiplicities(site))
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
    "ta": (_cases_ta, _check_ta, {"p_lo": 2, "p_hi": 4, "nmax": 5, "margin": 2}),
    "tb": (_cases_tb, _check_tb, {"p_lo": 2, "p_hi": 4, "nmax": 5, "margin": 2}),
    "rec": (_cases_rec, _check_rec, {"entry_max": 4, "amax": 10, "count": 60,
                                     "seed": 0}),
    "char-eq": (_cases_chareq, _check_chareq, {"p_lo": 2, "p_hi": 3,
                                               "entry_max": 4}),
    "flow": (_cases_flow, _check_flow, {"p_lo": 2, "p_hi": 3, "entry_max": 4}),
    "dims": (_cases_dims, _check_dims, {"p_lo": 2, "p_hi": 3, "entry_max": 4}),
}

ALL_IDENTITIES = tuple(_REGISTRY)


class WorkerPool:
    """Worker processes shared by the sweeps of one run.

    The pool opens on the first sweep that can use more than one worker, with
    as many as that sweep can use: never more than jobs, the CPUs or its
    cases.  It reopens larger only for a later sweep that can use more.  Its
    workers keep their memo tables from one sweep to the next.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._pool = None
        self._size = 0
        self._stack = ExitStack()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def close(self) -> None:
        self._stack.close()
        self._pool = None
        self._size = 0

    def map(self, checker, cases):
        """checker over cases, results in case order."""
        workers = min(self.jobs, os.cpu_count() or 1, len(cases))
        if workers <= 1:
            return map(checker, cases)
        if workers > self._size:
            # the pool forks all its workers at once, so never more than
            # can run
            self.close()
            self._pool = self._stack.enter_context(
                ProcessPoolExecutor(max_workers=workers)
            )
            self._size = workers
        chunk = max(1, len(cases) // (workers * 8))
        return self._pool.map(checker, cases, chunksize=chunk)


def run_identity(
    identity: str, options=None, jobs: int = 1, pool: WorkerPool | None = None
) -> IdentityReport:
    """Run one identity sweep on the workers of `pool`, or on a pool of
    `jobs` workers opened for this sweep alone.  Failures keep case order,
    so output is reproducible for any worker count."""
    if identity not in _REGISTRY:
        raise ValueError(f"unknown identity {identity!r}")
    gen, checker, defaults = _REGISTRY[identity]
    opts = dict(defaults)
    for key, value in (options or {}).items():
        if key in defaults and value is not None:
            opts[key] = value
    cases = gen(opts)
    if not cases:
        raise ValueError(f"sweep for {identity!r} is empty; widen the ranges")
    with ExitStack() as stack:
        if pool is None:
            pool = stack.enter_context(WorkerPool(jobs))
        start = time.perf_counter()
        failures = [r for r in pool.map(checker, cases) if r is not None]
        ms = int((time.perf_counter() - start) * 1000)
    return IdentityReport(identity, len(cases), failures, ms)
