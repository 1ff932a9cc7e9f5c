"""Fusion products, elementary dimensions, decompositions, closed forms."""

import itertools
from fractions import Fraction

import pytest

from qchar.fusion import (
    FusionVector,
    closed_form_dims,
    decompose_site,
    dims_via_supernomial,
    elementary_dims,
    elementary_site,
    fuse,
    fusion_dims,
)
from qchar.supernomial import SiteVector, multiplicities

from oracles import brute_elementary_count, brute_root_of_unity_dims, monotone_levels


def test_fuse_shift_by_one_is_rotation():
    e0 = FusionVector(2, (1, 0))
    e1 = FusionVector(2, (0, 1))
    assert fuse(e1, e1) == e0
    assert fuse(e0, FusionVector(2, (3, 4))) == FusionVector(2, (3, 4))
    assert fuse(FusionVector(2, (1, 1)), FusionVector(2, (1, 1))) == FusionVector(
        2, (2, 2)
    )


def test_fuse_rejects_mismatched_p():
    with pytest.raises(ValueError):
        fuse(FusionVector(2, (1, 0)), FusionVector(3, (1, 0, 0)))


def test_fusion_entries_must_be_exact_integers():
    with pytest.raises(ValueError):
        FusionVector(2, (1.9, 0))
    with pytest.raises(ValueError):
        closed_form_dims((1.5, 1))
    with pytest.raises(ValueError):
        closed_form_dims((1,))  # p = len(L) must be >= 2


def test_fusion_p_must_be_an_exact_integer():
    # p = 2.0 used to be kept, and fusing failed on a float sequence count
    for p in (2.0, 2.5, Fraction(5, 2)):
        with pytest.raises(ValueError):
            FusionVector(p, (1, 0))
    a = FusionVector(Fraction(2), (1, 0))
    assert type(a.p) is int


def test_elementary_dims_examples():
    assert elementary_dims(3, 3, 0).dims == (2, 1, 1)
    assert elementary_dims(3, 1, 0).dims == (1, 1, 0)
    assert elementary_dims(2, 0, -1).dims == (0, 1)


def test_elementary_dims_against_brute_count():
    for p in range(2, 6):
        for i in range(0, p + 1):
            for j in range(-2 * p, 2 * p + 1):
                got = elementary_dims(p, i, j).dims
                want = tuple(
                    brute_elementary_count(p, i, j, r) for r in range(p)
                )
                assert got == want, (p, i, j)


def test_elementary_dims_range_check():
    with pytest.raises(ValueError):
        elementary_dims(3, 4, 0)


def test_fusion_dims_examples():
    assert fusion_dims(2, [(1, 0)]).dims == (1, 1)
    for k in range(1, 6):
        dims = fusion_dims(2, [(1, 0)] * k).dims
        assert dims == (2 ** (k - 1), 2 ** (k - 1))
    assert fusion_dims(3, []).dims == (1, 0, 0)


def test_fusion_dims_matches_elementary_products():
    pair_pool = [(0, 1), (1, 0), (1, -1), (2, 1), (2, 0)]
    for p in (2, 3):
        for pairs in itertools.product(pair_pool, repeat=2):
            product = FusionVector(p, (1,) + (0,) * (p - 1))
            for i, j in pairs:
                product = fuse(product, elementary_dims(p, i, j))
            assert fusion_dims(p, pairs) == product


def test_fusion_dims_matches_root_of_unity_expansion():
    for p in (2, 3, 4):
        pairs = [(1, 0), (2, -1), (p, 1)]
        assert fusion_dims(p, pairs).dims == brute_root_of_unity_dims(p, pairs)


def test_fusion_dims_invariant_under_j_shift_by_p():
    for p in (2, 3):
        pairs = [(1, 0), (2, 1)]
        shifted = [(1, 0 + p), (2, 1)]
        assert fusion_dims(p, pairs) == fusion_dims(p, shifted)


def test_fusion_dims_total_mass():
    for p in (2, 3):
        pairs = [(1, 0), (2, -1), (p, 2)]
        total = sum(fusion_dims(p, pairs).dims)
        expected = 1
        for i, _ in pairs:
            expected *= i + 1
        assert total == expected


def test_elementary_site_shape():
    assert elementary_site(3, 2, 1).components() == (1, 1, 1, 2)
    assert elementary_site(2, 2, 0).components() == (2, 0, 1)


def test_decompose_elementary_roundtrip():
    for p in (2, 3):
        for i in range(0, p + 1):
            for j in (-1, 0, 2):
                site = elementary_site(p, i, j)
                pairs = decompose_site(site)
                widths = sorted(i_ for i_, _ in pairs if i_ > 0)
                assert widths == ([i] if i > 0 else [])
                assert sum(j_ for _, j_ in pairs) == site.minus


def test_decompose_examples():
    assert decompose_site(SiteVector(2, 1, 1, (1,))) == ((2, 1),)
    assert decompose_site(SiteVector(2, 2, 0, (1,))) == ((2, 0),)


def test_decompose_rejects_negative_multiplicities():
    with pytest.raises(ValueError):
        decompose_site(SiteVector(2, 0, 0, (1,)))


def test_dims_via_supernomial_examples():
    site = SiteVector(2, 1, 1, (1,))
    assert dims_via_supernomial(0, site) == 1
    assert dims_via_supernomial(1, site) == 2


def test_dims_r_sweep_sums_to_width_product():
    for p in (2, 3):
        for plus in range(3):
            for minus in range(3):
                for levels in monotone_levels(p - 1, plus + minus):
                    site = SiteVector(p, plus, minus, levels)
                    mult = multiplicities(site)
                    if any(v < 0 for v in mult):
                        continue
                    total = sum(dims_via_supernomial(r, site) for r in range(p))
                    expected = 1
                    for idx, count in enumerate(mult):
                        expected *= (idx + 2) ** count
                    assert total == expected


def test_route_agreement_small_sweep():
    for p in (2, 3):
        for plus in range(3):
            for minus in range(3):
                for levels in monotone_levels(p - 1, plus + minus):
                    site = SiteVector(p, plus, minus, levels)
                    if any(v < 0 for v in multiplicities(site)):
                        continue
                    pairs = decompose_site(site)
                    fused = fusion_dims(p, pairs)
                    for r in range(p):
                        assert fused[r] == dims_via_supernomial(r, site)


def test_closed_form_examples():
    assert closed_form_dims((1, 0)) == 1
    assert closed_form_dims((2, 0)) == 2
    assert closed_form_dims((0, 1)) is None
    assert closed_form_dims((1, 2, 1)) == 2 * 9 * 4 // 3


def test_closed_form_matches_fusion_when_applicable():
    for p in (2, 3):
        for plus in range(4):
            for minus in range(4):
                for levels in monotone_levels(p - 1, plus + minus):
                    site = SiteVector(p, plus, minus, levels)
                    mult = multiplicities(site)
                    if any(v < 0 for v in mult):
                        continue
                    closed = closed_form_dims(mult)
                    if closed is None:
                        continue
                    fused = fusion_dims(p, decompose_site(site))
                    for r in range(p):
                        assert fused[r] == closed
