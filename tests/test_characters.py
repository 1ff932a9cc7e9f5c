"""Character formulas: prefactors, route equality, flow, stabilization."""

import hashlib
import importlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import qchar
from qchar import fermionic
from qchar.laurent import BiLaurent
from qchar.characters import (
    CharacterValue,
    coinv_char_fermionic,
    coinv_char_supernomial,
    rep_character,
    spectral_flow_check,
)
from qchar.fermionic import (
    QuadraticData,
    coupling_matrix,
    gordon_series,
    lattice_sum,
    support_box,
)
from qchar.fusion import decompose_site, fusion_dims
from qchar.qbinom import qbinomial
from qchar.supernomial import SiteVector, multiplicities

from oracles import monotone_levels

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def qz(*triples):
    return BiLaurent({(q, z): c for q, z, c in triples})


def test_character_value_normalization():
    a = CharacterValue(Fraction(3, 2), -1, BiLaurent.one())
    b = CharacterValue(Fraction(1, 2), 0, qz((1, -1, 1)))
    assert a == b
    assert a != CharacterValue(Fraction(1, 2), 0, BiLaurent.one())


def test_character_value_shifts_must_be_exact():
    # a float or a string would otherwise be read as a Fraction: 0.1 as
    # 3602879701896397/36028797018963968
    for shifts in ((0.1, 0), (0, 0.5), ("1/2", 0), (0, "1")):
        with pytest.raises(TypeError):
            CharacterValue(*shifts, BiLaurent.one())
    value = CharacterValue(Fraction(4, 2), Fraction(-1, 3), BiLaurent.one())
    assert type(value.q_shift) is int and value.z_shift == Fraction(-1, 3)


def test_character_value_is_unhashable():
    with pytest.raises(TypeError, match="CharacterValue"):
        hash(CharacterValue(0, 0, BiLaurent.one()))


def test_rep_character_p2_window():
    value = rep_character(2, 0, 2, 1)
    assert value.q_shift == 0 and value.z_shift == 0
    assert value.poly == qz(
        (0, 0, 1), (1, 0, 1), (2, 0, 2),
        (1, 1, 1), (2, 1, 1), (1, -1, 1), (2, -1, 1),
    )


def test_rep_character_p1_z_free_window():
    value = rep_character(1, 0, 1, 0)
    assert value.poly == qz((0, 0, 1), (1, 0, 1))


@pytest.mark.parametrize("args, message", [
    ((0, 0, 1, 1), "p must be positive"),
    ((-1, 0, 1, 1), "p must be positive"),
    ((2, 2, 1, 1), "need 0 <= r < p"),
    ((2, -1, 1, 1), "need 0 <= r < p"),
    ((2, 0, -1, 1), "cutoffs must be nonnegative"),
    ((2, 0, 1, -1), "cutoffs must be nonnegative"),
    ((2, Fraction(1, 2), 1, 1), "not an exact integer"),
])
def test_rep_character_rejects_bad_parameters(args, message):
    with pytest.raises(ValueError, match=message):
        rep_character(*args)


def test_rep_character_prefactor_shifts():
    value = rep_character(3, 2, 0, 0)
    assert value.q_shift == Fraction(2 * (2 - 3 + 2), 6)
    assert value.z_shift == Fraction(-2, 3)
    zero_weight = rep_character(3, 0, 0, 0)
    assert zero_weight.q_shift == 0 and zero_weight.z_shift == 0


def test_coinv_char_supernomial_example():
    value = coinv_char_supernomial(0, SiteVector(2, 1, 1, (1,)))
    assert value.poly == BiLaurent.one()
    assert value.q_shift == 0 and value.z_shift == 0


def test_coinv_char_supernomial_vacuum():
    value = coinv_char_supernomial(0, SiteVector(2, 0, 0, (0,)))
    assert value.poly == BiLaurent.one()


def test_coinv_char_dimension_agreement():
    for p in (2, 3):
        for plus in range(3):
            for minus in range(3):
                for levels in monotone_levels(p - 1, plus + minus):
                    site = SiteVector(p, plus, minus, levels)
                    if any(v < 0 for v in multiplicities(site)):
                        continue
                    fused = fusion_dims(p, decompose_site(site))
                    for r in range(p):
                        poly = coinv_char_supernomial(r, site).poly
                        assert poly.at_q1_z1() == fused[r]


def test_coinv_char_routes_agree():
    for p in (2, 3):
        for r in range(p):
            for site in (
                SiteVector(p, 2, 1, (1,) * (p - 1)),
                SiteVector(p, 1, 2, tuple(range(1, p))),
            ):
                if any(v < 0 for v in multiplicities(site)):
                    continue
                assert coinv_char_fermionic(r, site) == coinv_char_supernomial(
                    r, site
                )


def test_coinv_char_fermionic_rejects_large_d():
    with pytest.raises(ValueError):
        coinv_char_fermionic(0, SiteVector(3, 1, 1, (1, 1, 1)))


def test_corollary_truncated_site_agrees_with_padding():
    # d < p-1 with trailing cutoffs pinned at N_+ + N_-
    for p, plus, minus, levels in [
        (2, 1, 1, ()),
        (3, 2, 1, (2,)),
        (3, 1, 1, ()),
    ]:
        total = plus + minus
        short = SiteVector(p, plus, minus, levels)
        full = SiteVector(p, plus, minus, levels + (total,) * (p - 1 - len(levels)))
        for r in range(p):
            assert coinv_char_fermionic(r, short) == coinv_char_supernomial(r, full)


def test_routes_agree_at_p4_all_weights():
    # p = 4 separates r from -r mod p at r = 1, 3, so it pins the weight
    # convention shared by the cutoff shift and the supernomial argument
    for site in (SiteVector(4, 1, 1, (1, 2, 2)), SiteVector(4, 2, 1, (1, 2, 3))):
        fused = fusion_dims(4, decompose_site(site))
        for r in range(4):
            ferm = coinv_char_fermionic(r, site)
            sup = coinv_char_supernomial(r, site)
            assert ferm == sup
            assert sup.poly.at_q1_z1() == fused[r]


@pytest.mark.parametrize("p, k", [(5, 4), (6, 3)])
def test_routes_agree_at_ranks_5_and_6_with_large_entries(p, k):
    # the sweeps keep every entry of L small; this full site has L = (k, ...,
    # k), so its level block is deep (d = p - 1) and its levels are large
    profile = [k * sum(min(i, j) for i in range(1, p + 1))
               for j in range(1, p + 1)]
    total = profile[-1]
    site = SiteVector(p, total - total // 2, total // 2, tuple(profile[:-1]))
    assert multiplicities(site) == (k,) * p
    for r in range(p):
        assert coinv_char_fermionic(r, site) == coinv_char_supernomial(r, site)


@pytest.mark.parametrize("route, full_site_only", [
    ("coinv_char_fermionic", False),
    ("coinv_char_supernomial", True),
    ("supernomial_char_poly", False),
    ("spectral_flow_check", True),
    ("dims_via_supernomial", True),
])
def test_weight_r_routes_check_weight_and_site(route, full_site_only):
    fn = getattr(qchar, route)
    site = SiteVector(3, 2, 1, (1, 2))
    fn(0, site)
    bad = [(-1, site), (3, site), (Fraction(1, 2), site),
           (0, SiteVector(3, 1, 1, (1, 1)))]  # L_2 < 0
    if full_site_only:
        bad.append((0, SiteVector(3, 1, 1, (1,))))  # d < p-1
    for r, bad_site in bad:
        with pytest.raises(ValueError):
            fn(r, bad_site)


FULL_SITE = SiteVector(3, 2, 1, (1, 2))


@pytest.mark.parametrize("route, args", [
    ("rep_character", (2, 0, 2.0, 1)),
    ("rep_character", (2.5, 0, 2, 1)),
    ("rep_character", (2, 0.0, 2, 1)),
    ("gordon_series", (2, 0, 0, 2.0, 1)),
    ("gordon_series", (2, 0, 0.0, 2, 1)),
    ("gordon_series", (2, 0, 0, 2, 1.5)),
    ("gordon_series", (2.0, 0, 0, 2, 1)),
    ("gordon_series", (2, 0.0, 0, 2, 1)),
    ("elementary_dims", (2.0, 1, 0)),
    ("elementary_site", (2.0, 1, 0)),
    ("fusion_dims", (2.0, [(1, 0)])),
    ("fusion_dims", (2, [(1.0, 0)])),
    ("dims_via_supernomial", (0.0, FULL_SITE)),
    ("coinv_char_supernomial", (0.0, FULL_SITE)),
])
def test_public_routes_reject_inexact_numbers(route, args):
    # a float is never truncated, nor let through to fail as a TypeError
    # (or to return a value) somewhere inside
    with pytest.raises(ValueError, match="not an exact integer"):
        getattr(qchar, route)(*args)


SHARED_SITES = pytest.mark.parametrize("site", [
    SiteVector(4, 25, 25, (20, 35, 45)),
    SiteVector(4, 21, 29, (20, 35, 45)),  # the sign box moves with r
], ids=["coinv-p4", "moving-sign-box"])


@SHARED_SITES
def test_level_sums_are_shared_across_weights(monkeypatch, site):
    # r = p-1 alone in a fresh table, and after r = 0..p-2 filled it
    last = site.p - 1
    monkeypatch.setattr(fermionic, "_LEVELS", {})
    alone = coinv_char_fermionic(last, site)
    ((key, _),) = fermionic._LEVELS.items()
    monkeypatch.setattr(fermionic, "_LEVELS", {})
    for r in range(last):
        coinv_char_fermionic(r, site)
    ((shared, table),) = fermionic._LEVELS.items()
    assert shared == key  # every weight walks the same level block
    after = coinv_char_fermionic(last, site)
    assert fermionic._LEVELS == {key: table}
    assert after == alone == coinv_char_supernomial(last, site)


@SHARED_SITES
def test_no_level_sum_is_built_twice(monkeypatch, site):
    # a loop over r builds each level sum of the site once: a later weight
    # reads what an earlier one built, whatever its sign cutoffs
    built = []
    level_sums = fermionic._level_sums

    def record(leaves, x):
        built.append((tuple(tuple(leaf[0]) for leaf in leaves), x))
        return level_sums(leaves, x)

    monkeypatch.setattr(fermionic, "_LEVELS", {})
    monkeypatch.setattr(fermionic, "_level_sums", record)
    for r in range(site.p):
        assert coinv_char_fermionic(r, site) == coinv_char_supernomial(r, site)
    assert built
    assert len(set(built)) == len(built)


def test_level_sums_repack_at_another_width(monkeypatch):
    # a kept level sum has dropped its binomials once packed; a call at a
    # wider byte width repacks it from the kept value
    def kept():
        return [level for _, sums in fermionic._LEVELS.values()
                for at_yx in sums.values() for level in at_yx.values()]

    site = SiteVector(4, 25, 25, (20, 35, 45))
    monkeypatch.setattr(fermionic, "_LEVELS", {})
    want = [coinv_char_fermionic(r, site) for r in range(2)]
    levels = kept()
    widths = [level[3][0] for level in levels]
    assert levels and all(level[2] is None for level in levels)
    width = fermionic._width
    monkeypatch.setattr(fermionic, "_width", lambda bound: width(bound) + 1)
    assert [coinv_char_fermionic(r, site) for r in range(2)] == want
    # the repack ran: every kept level sum now holds a wider width
    assert kept() == levels
    assert all(level[3][0] > w for level, w in zip(levels, widths))


def test_memo_tables_stay_within_their_bounds():
    # more vectors L than the chains kept, and a level table per site
    chain = importlib.import_module("qchar.supernomial")._chain
    sites = [SiteVector(3, 4 * k, 3 * k, (3 * k, 5 * k)) for k in range(1, 4)]
    sites += [SiteVector(4, 5 * k, 5 * k, (4 * k, 7 * k, 9 * k))
              for k in (1, 2, 3)]
    sites += [SiteVector(2, k, k, (k + 1,)) for k in range(1, 6)]
    for site in sites:
        for r in range(site.p):
            coinv_char_fermionic(r, site)
            coinv_char_supernomial(r, site)
    info = chain.cache_info()
    assert len({multiplicities(site) for site in sites}) > info.maxsize
    assert info.currsize == info.maxsize
    assert len(fermionic._LEVELS) == 1


def test_spectral_flow_examples():
    ok, payload = spectral_flow_check(0, SiteVector(2, 1, 1, (1,)))
    assert ok and payload is None
    for r in range(3):
        ok, _ = spectral_flow_check(r, SiteVector(3, 2, 1, (1, 2)))
        assert ok
    # zero polynomial on both sides passes trivially
    ok, _ = spectral_flow_check(0, SiteVector(2, 0, 0, (0,)))
    assert ok


def test_stabilization_to_rep_character():
    for p in (2, 3):
        for r in range(p):
            qmax, zwin = 4, 2
            threshold = 2 * (qmax + zwin + p)
            reference = rep_character(p, r, qmax, zwin)
            for extra in (0, 1):
                t = threshold + extra
                site = SiteVector(p, t, t, (t,))
                value = coinv_char_fermionic(r, site, qmax=qmax, zwin=zwin)
                assert value.truncated(qmax, zwin) == reference


def test_fermionic_cutoff_is_truncation_at_half_integer_exponents():
    # at p = 3 the exponent shift p/2 - r - 1 is a half-integer, so the
    # per-leaf caps are half-integers too; at this site some leaf products
    # are large enough for the Kronecker kernel
    site = SiteVector(3, 10, 10, (10, 16))
    for r in range(3):
        full = coinv_char_fermionic(r, site).poly
        for qmax in (0, 7, Fraction(25, 2), 20, Fraction(61, 2), 60):
            cut = coinv_char_fermionic(r, site, qmax=qmax).poly
            assert cut == full.truncate_q(qmax)


def test_lattice_character_zero_matrix_brute():
    data = QuadraticData(((0,),), (1,))
    box = [(-4, 4)]
    value = lattice_sum(data, (1,), box, qmax=2, zwin=2)
    expected = BiLaurent.zero()
    from qchar.qbinom import qbinomial_ext

    for n in range(-4, 5):
        expected = expected + BiLaurent.term(1, 0, n) * qbinomial_ext(1 + n, n)
    assert value == expected.truncate_q(2).clip_z(2)


def test_gordon_series_equals_rep_character_series():
    # two independent routes to the irreducible character: the quadratic-form
    # sum with inverse-Pochhammer weights vs the Fock-sum expansion, at every
    # d <= p-1 (the series does not depend on d); qmax = 20 has coefficients
    # up to 627, so its packed products are wider than one byte
    for qmax in (5, 20):
        for p in (2, 3, 4):
            for r in range(p):
                expected = rep_character(p, r, qmax, 2).poly
                for d in range(p) if qmax == 5 else (p - 1,):
                    assert gordon_series(p, d, r, qmax, 2) == expected


def test_large_cutoff_matches_gordon_truncation():
    data = QuadraticData(coupling_matrix(2, 0), (1, -1))
    box = support_box(SiteVector(2, 10, 10))
    value = lattice_sum(data, (10, 10), box, qmax=4, zwin=4)
    assert value == gordon_series(2, 0, 0, 4, 4)


@pytest.mark.parametrize("theta", [-4, 0, 4])
def test_coinv_p4_results_match_recorded_digests(theta):
    # the coinv-p4 benchmark body and its payload serialization: both
    # character routes at L = (5, 5, 5, 5) for r = 0..3, and qbinomial(90, 45)
    site = SiteVector(4, 25 + theta, 25 - theta, (20, 35, 45))
    pairs = [
        (coinv_char_fermionic(r, site), coinv_char_supernomial(r, site))
        for r in range(4)
    ]
    assert all(f == s for f, s in pairs)
    payload = json.dumps(
        [[f.normalized().to_json_obj() for f, _ in pairs],
         qbinomial(90, 45).to_json_obj()],
        sort_keys=True,
    )
    expected = json.loads(EXPECTED.read_text())["coinv-p4"]["sha256_by_theta"]
    assert hashlib.sha256(payload.encode()).hexdigest() == expected[str(theta)]
