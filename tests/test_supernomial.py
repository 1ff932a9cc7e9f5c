"""Supernomial coefficients, the second-difference matrix, site vectors."""

import math
import random
from fractions import Fraction

import pytest

from qchar.characters import supernomial_char_poly
from qchar.fusion import dims_via_supernomial
from qchar.laurent import BiLaurent
from qchar.qbinom import qbinomial
from qchar.supernomial import (
    SiteVector,
    _compositions,
    _residue_class,
    multiplicities,
    supernomial,
    supernomial_at1,
    supernomial_lattice_side,
)

from oracles import (
    nonzero_compositions,
    product_gf_coeff,
    second_diff_matrix,
    supernomial_brute,
    widths_from_multiplicities,
)
import itertools


def test_second_diff_matrix_small():
    assert second_diff_matrix(1) == ((1,),)
    assert second_diff_matrix(2) == ((2, -1), (-1, 1))


def test_second_diff_matrix_inverse_is_min():
    m = 4
    t = second_diff_matrix(m)
    min_matrix = [[min(i + 1, j + 1) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            entry = sum(t[i][k] * min_matrix[k][j] for k in range(m))
            assert entry == (1 if i == j else 0)


def test_second_diff_matrix_rejects_zero():
    with pytest.raises(ValueError):
        second_diff_matrix(0)


def test_multiplicities_match_second_diff_matrix():
    # L = profile * T for every small profile, negative entries included
    for p in (2, 3):
        for d in range(2 * p - 2):
            for levels in itertools.product(range(-1, 3), repeat=d):
                for plus, minus in ((0, 0), (2, -1), (1, 3)):
                    site = SiteVector(p, plus, minus, levels)
                    prof = site.profile()
                    t = second_diff_matrix(len(prof))
                    assert multiplicities(site) == tuple(
                        sum(prof[i] * t[i][j] for i in range(len(prof)))
                        for j in range(len(prof))
                    )


def test_multiplicities_no_levels():
    assert multiplicities(SiteVector(2, 3, 1)) == (4,)


def test_multiplicities_example():
    assert multiplicities(SiteVector(2, 1, 1, (1,))) == (0, 1)


def test_multiplicities_elementary_sites_are_unit_vectors():
    # site (i-j, j; 1, 2, ..., i, ..., i) has multiplicity vector e_i
    for p in (2, 3, 4):
        for i in range(0, p + 1):
            levels = tuple(min(m + 1, i) for m in range(p - 1))
            site = SiteVector(p, i - 1, 1, levels)
            expected = tuple(1 if t + 1 == i else 0 for t in range(p))
            assert multiplicities(site) == expected


def test_site_vector_validation():
    with pytest.raises(ValueError):
        SiteVector(1, 0, 0)
    with pytest.raises(ValueError):
        SiteVector(2, 0, 0, (1, 1))  # d > 2p-3


def test_site_vector_monotone():
    assert SiteVector(3, 1, 1, (1, 2)).is_monotone()
    assert not SiteVector(3, 1, 1, (2, 1)).is_monotone()
    assert not SiteVector(3, 0, 0, (1, 1)).is_monotone()


def test_supernomial_single_column_is_gaussian():
    for top in range(5):
        for a in range(-1, 6):
            assert supernomial((top,), a) == qbinomial(top, a)


def test_supernomial_wide_digits():
    # prod_j (j+1)^(L_j) = 2^70 bounds the coefficients: a 9-byte width
    for a in (1, 20, 35, 69):
        poly = supernomial((70,), a)
        assert poly == qbinomial(70, a)
        assert poly.at_q1_z1() == math.comb(70, a)


def test_supernomial_one_one():
    assert supernomial((1, 1), 1) == BiLaurent({(0, 0): 1, (1, 0): 1})


def test_supernomial_zero_vector():
    assert supernomial((0, 0, 0), 0) == BiLaurent.one()
    assert supernomial((0, 0), 1) == BiLaurent.zero()


def test_supernomial_rejects_negative_entry():
    with pytest.raises(ValueError):
        supernomial((1, -1), 0)
    with pytest.raises(ValueError, match="at least one entry"):
        supernomial((), 0)


@pytest.mark.parametrize("route", [supernomial, supernomial_at1],
                         ids=["supernomial", "supernomial_at1"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_supernomial_rejects_inexact_entries(cold_memos, route, warm):
    # fresh tables, so "cold" does not depend on the tests run before
    if warm:
        route((2, 1), 1)  # stores the key (2, 1), which (2.0, 1) equals
    for entries in ((2.0, 1), (2.9, 1), (Fraction(5, 2), 1)):
        with pytest.raises(ValueError):
            route(entries, 1)
    assert route((Fraction(2), 1), 1) == route((2, 1), 1)


@pytest.mark.parametrize("route", [supernomial, supernomial_at1],
                         ids=["supernomial", "supernomial_at1"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_supernomial_rejects_inexact_argument(cold_memos, route, warm):
    # a float argument used to hit a stored int key (warm) or fail inside
    # range (cold); a proper fraction must not be rounded either
    if warm:
        route((2, 2), 1)  # stores the key 1, which 1.0 equals
    for a in (1.0, 1.5, Fraction(3, 2)):
        with pytest.raises(ValueError):
            route((2, 2), a)
    assert route((2, 2), Fraction(1)) == route((2, 2), 1)


def test_supernomial_matches_brute_oracle(cold_memos):
    # the memoised chain and the q = 1 tree against the definition, on
    # random L with entries <= 4 and length <= 4, at every argument from
    # below to above the support
    rng = random.Random(18)
    vectors = [(4, 4, 4, 4), (0, 0, 3, 4), (4,)] + [
        tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))
        for _ in range(16)
    ]
    for entries in vectors:
        top = sum((i + 1) * v for i, v in enumerate(entries))
        for a in range(-1, top + 2):
            want = supernomial_brute(entries, a)
            got = supernomial(entries, a)
            assert {q: c for q, z, c in got.terms()} == want, (entries, a)
            assert supernomial_at1(entries, a) == sum(want.values())


def test_supernomial_is_symmetric_under_a_to_top_minus_a(cold_memos):
    # supernomial(L, a) == supernomial(L, top - a) with top = sum_j j*L_j,
    # both sides and their mirror checked against the definition, on every
    # L with entries <= 2 and length <= 4 and every argument in 0..top
    pairs = 0
    for k in range(1, 5):
        for entries in itertools.product(range(3), repeat=k):
            top = sum((i + 1) * v for i, v in enumerate(entries))
            for a in range(top + 1):
                want = supernomial_brute(entries, a)
                assert supernomial_brute(entries, top - a) == want, (entries, a)
                for arg in (a, top - a):
                    got = supernomial(entries, arg)
                    assert {q: c for q, z, c in got.terms()} == want, (entries, arg)
                pairs += 1
    assert pairs == 1122


def test_compositions_yield_once_per_nonzero_composition():
    # the tree of supernomial_at1 yields one product of binomials at q = 1
    # for each composition whose binomials are all nonzero, and no other
    rng = random.Random(19)
    vectors = [(3, 3, 3, 3), (0, 0, 0), (0, 2), (3,)] + [
        tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 4)))
        for _ in range(16)
    ]
    for entries in vectors:
        top = sum((i + 1) * v for i, v in enumerate(entries))
        for a in range(-1, top + 2):
            got = list(_compositions(entries, a))
            want = [math.prod(math.comb(t, b) for t, b in pairs)
                    for pairs in nonzero_compositions(entries, a)]
            assert sorted(got) == sorted(want), (entries, a)
            assert supernomial_at1(entries, a) == sum(got)


def test_supernomial_at1_examples():
    assert supernomial_at1((1, 1), 1) == 2
    assert supernomial_at1((2,), 1) == 2
    assert supernomial_at1((1, 1), 3) == 1


def test_supernomial_at1_matches_polynomial_and_gf():
    for mult in itertools.product(range(3), repeat=2):
        widths = widths_from_multiplicities(mult)
        top = sum((i + 1) * v for i, v in enumerate(mult))
        for a in range(-1, top + 2):
            poly_val = supernomial(mult, a).at_q1_z1()
            assert supernomial_at1(mult, a) == poly_val
            assert poly_val == product_gf_coeff(widths, a)


def test_supernomial_support_and_positivity():
    for mult in itertools.product(range(3), repeat=3):
        top = sum((i + 1) * v for i, v in enumerate(mult))
        for a in range(-2, top + 3):
            poly = supernomial(mult, a)
            if a < 0 or a > top:
                assert poly == BiLaurent.zero()
            else:
                assert all(c > 0 for _, _, c in poly.terms())


def test_residue_class_sums_match_wide_brute_sums():
    # a runs far past the support on both sides; the residue-class sums must
    # visit exactly the arguments in [0, sum_j j*L_j] and lose no term
    wide = range(-12, 13)
    saw_negative_minus = saw_past_top = False
    for p in (2, 3, 4):
        for total in range(4):
            for levels in itertools.combinations_with_replacement(
                range(total + 1), p - 1
            ):
                mult = multiplicities(SiteVector(p, total, 0, levels))
                if any(v < 0 for v in mult):
                    continue
                top = sum((i + 1) * v for i, v in enumerate(mult))
                for minus in range(-p - 2, top + 2):
                    site = SiteVector(p, total - minus, minus, levels)
                    for r in range(p):
                        c = minus + r
                        saw_negative_minus |= minus < 0
                        saw_past_top |= c > top
                        args = [(a, p * a + c) for a in wide
                                if 0 <= p * a + c <= top]
                        assert list(_residue_class(p, mult, c)) == args
                        lattice = BiLaurent.zero()
                        char = BiLaurent.zero()
                        dims = 0
                        for a in wide:
                            piece = supernomial(mult, p * a + c)
                            lattice += piece.shift(Fraction(p * a * a, 2), a)
                            char += piece.shift(p * (a * a + a) // 2 - (r + 1) * a, a)
                            dims += supernomial_at1(mult, p * a + c)
                        moved = SiteVector(p, total - c, c, levels)
                        assert supernomial_lattice_side(moved) == lattice
                        assert supernomial_char_poly(r, site) == char
                        assert dims_via_supernomial(r, site) == dims
    assert saw_negative_minus and saw_past_top
