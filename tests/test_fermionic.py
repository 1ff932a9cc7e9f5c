"""Coupling matrices, support boxes, lattice sums, Gordon series."""

import math
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qchar import fermionic
from qchar.characters import coinv_char_fermionic
from qchar.laurent import BiLaurent, bounded_partition_counts
from qchar.fermionic import (
    NonFiniteSupportError,
    _ellipsoid,
    _leaves,
    QuadraticData,
    coupling_matrix,
    fermionic_sum,
    gordon_series,
    lattice_sum,
    lattice_support,
    support_box,
)
from qchar.qbinom import qbinomial_ext
from qchar.supernomial import SiteVector
from qchar.verify import _cases_rec_diag, _is_balanced, _site_cases

from oracles import (
    gordon_series_brute,
    lattice_sum_brute,
    lattice_support_brute,
    quadratic_points_brute,
)


HALF = Fraction(1, 2)


def qz(*triples):
    return BiLaurent({(q, z): c for q, z, c in triples})


def test_coupling_matrix_p2_d0():
    assert coupling_matrix(2, 0) == ((2, -1), (-1, 2))


def test_coupling_matrix_p3_d2():
    assert coupling_matrix(3, 2) == (
        (3, 0, 1, 2),
        (0, 3, 1, 2),
        (1, 1, 2, 2),
        (2, 2, 2, 4),
    )


def test_coupling_matrix_symmetry():
    for p in range(2, 7):
        for d in range(0, 2 * p - 2):
            a = coupling_matrix(p, d)
            size = d + 2
            assert all(a[i][j] == a[j][i] for i in range(size) for j in range(size))


def test_coupling_matrix_range_checks():
    with pytest.raises(ValueError):
        coupling_matrix(2, 2)
    with pytest.raises(ValueError):
        coupling_matrix(1, 0)
    with pytest.raises(ValueError):
        coupling_matrix(3, -1)


def test_p_must_be_an_exact_integer():
    with pytest.raises(ValueError):
        coupling_matrix(2.5, 0)
    with pytest.raises(ValueError):
        SiteVector(2.5, 1, 1)
    assert coupling_matrix(Fraction(2), 0) == coupling_matrix(2, 0)
    assert SiteVector(Fraction(2), 1, 1).p == 2


def test_quadratic_data_validation():
    with pytest.raises(ValueError):
        QuadraticData(((1, 2), (3, 1)), (1, -1))
    with pytest.raises(ValueError):
        QuadraticData(((2,),), (1, 0))
    with pytest.raises(ValueError):
        QuadraticData(((2,),), (1,), (Fraction(1, 3),))


def test_inputs_must_be_exact_integers():
    # a float or a proper fraction would otherwise be truncated, or kept
    for build in (
        lambda: QuadraticData(((HALF,),), (1,)),
        lambda: QuadraticData(((2.7,),), (1,)),
        lambda: QuadraticData(((2,),), (0.5,)),
        lambda: QuadraticData(((2,),), (1,), (0.5,)),
        lambda: QuadraticData(((2,),), (1,), ("1/2",)),
        lambda: SiteVector(2, 1.5, 0, (1,)),
        lambda: SiteVector(2, 1, 0, (0.5,)),
        lambda: SiteVector(2, 1, 3 * HALF),
    ):
        with pytest.raises(ValueError):
            build()
    # integral Fractions are integers, and are stored as ints
    assert QuadraticData(((Fraction(2),),), (Fraction(-1),)) == QuadraticData(
        ((2,),), (-1,))
    site = SiteVector(2, Fraction(3), 0, (Fraction(1),))
    assert site.components() == (3, 0, 1)
    assert all(type(x) is int for x in site.components())


def test_site_data_is_cached_and_still_validated():
    matrix, u = coupling_matrix(3, 1), (1, -1, 0)
    for args, want in [
        ((3, 1), QuadraticData(matrix, u)),
        ((3, 1, -3 * HALF), QuadraticData(matrix, u, (-3 * HALF, 3 * HALF, 0))),
    ]:
        data = QuadraticData.for_site(*args)
        assert data is QuadraticData.for_site(*args)
        assert data == want
    with pytest.raises(ValueError):  # nvec one entry too long
        lattice_sum(QuadraticData.for_site(2, 0), (1, 1, 0),
                    support_box(SiteVector(2, 1, 1)))
    with pytest.raises(ValueError):
        QuadraticData.for_site(1, 0)  # p < 2


def test_lattice_routes_reject_a_malformed_box_or_cutoff():
    # one check serves lattice_sum and lattice_support: N holds exact
    # integers, the box one (lo, hi) pair of exact integers per coordinate,
    # and qmax and zwin are None or exact numbers in (1/2)Z
    data = QuadraticData.for_site(3, 2)
    site = SiteVector(3, 2, 2, (2, 3))
    comps, box = site.components(), support_box(site)
    assert lattice_sum(data, comps, box) == qz((0, 0, 1), (1, 0, 1))
    exact = [(Fraction(lo), Fraction(hi)) for lo, hi in box]
    assert lattice_sum(data, comps, exact) == lattice_sum(data, comps, box)
    for bad in ([], box[:3], box + [(0, 0)], box[:3] + [(0, 1.5)],
                box[:3] + [(0, Fraction(3, 2))], box[:3] + [(0, 1, 2)],
                box[:3] + [1]):
        with pytest.raises(ValueError, match="box"):
            lattice_sum(data, comps, bad)
        with pytest.raises(ValueError, match="box"):
            lattice_support(data, comps, bad)
    for bad in ((2.0, 2, 2, 3), (Fraction(5, 2), 2, 2, 3)):
        with pytest.raises(ValueError, match="not an exact integer"):
            lattice_sum(data, bad, box)
    wide = SiteVector(3, 10, 10, (10, 16))
    for cut in ({"qmax": 2.5}, {"qmax": 3.0}, {"zwin": 1.5}):
        with pytest.raises(ValueError, match="cutoff"):
            coinv_char_fermionic(0, wide, **cut)
        with pytest.raises(ValueError, match="cutoff"):
            lattice_sum(data, comps, box, **cut)
    full = lattice_sum(data, comps, box)
    cut = lattice_sum(data, comps, box, qmax=HALF, zwin=Fraction(3, 2))
    assert cut == full.truncate_q(HALF).clip_z(1) == qz((0, 0, 1))


def test_support_box_contains_small_square():
    box = support_box(SiteVector(2, 1, 1))
    (lo_p, hi_p), (lo_m, hi_m) = box
    assert lo_p <= 0 and lo_m <= 0
    assert hi_p >= 1 and hi_m >= 1


def test_support_box_collapses_to_origin():
    box = support_box(SiteVector(3, 0, 0, (0,)))
    assert box == [(0, 0), (0, 0), (0, 0)]


def test_support_box_rejects_negative_multiplicity():
    # levels exceeding the total force a negative multiplicity entry
    with pytest.raises(NonFiniteSupportError) as info:
        support_box(SiteVector(2, 0, 0, (1,)))
    assert info.value.index >= 1


def test_support_box_is_complete():
    # enlarging the certified box by a margin must expose no new summands
    for p, comps in [(2, (2, 1, 2)), (3, (2, 2, 2)), (2, (3, 0)), (3, (0, 3, 2))]:
        site = SiteVector(p, comps[0], comps[1], comps[2:])
        data = QuadraticData(coupling_matrix(p, site.d), (1, -1) + (0,) * site.d)
        box = support_box(site)
        bigger = [(lo - 2, hi + 2) for lo, hi in box]
        inside = set(lattice_support(data, comps, box))
        outside = set(lattice_support(data, comps, bigger))
        assert outside == inside
    # every site of the default ta/tb sweep, balanced or not: the box is
    # complete, and it has no negative coordinate exactly at the balanced
    # sites, so there every summand is a vector >= 0 (ta's standard sum)
    cases = list(_site_cases(2, 4, 4, 2))
    balanced = 0
    for case in cases:
        p, d, plus, minus, levels = case
        site = SiteVector(p, plus, minus, levels)
        data = QuadraticData.for_site(p, d)
        box = support_box(site)
        bigger = [(lo - 1, hi + 1) for lo, hi in box]
        inside = lattice_support(data, site.components(), box)
        assert set(lattice_support(data, site.components(), bigger)) == set(inside)
        nonnegative_box = min(lo for lo, _ in box) >= 0
        assert _is_balanced(*case) == nonnegative_box
        if nonnegative_box:
            balanced += 1
            assert all(min(n) >= 0 for n in inside)
    assert 0 < balanced < len(cases)


def test_lattice_support_matches_brute_oracle():
    # the row cuts of the enumerator and the sign rule must keep exactly the
    # vectors with no vanishing factor: standard family with every weight
    # shift (row entries < 0, = 0 and > 0), generic diagonal data over a box
    # reaching below zero, a zero row that no vector satisfies, and a box
    # with an empty coordinate range; the standard sum is the one over the
    # box clamped at 0
    def agree(data, nvec, box):
        for extended in (True, False):
            lib_box = box if extended else _clamped(box)
            got = lattice_support(data, nvec, lib_box)
            assert len(got) == len(set(got))
            assert set(got) == set(
                lattice_support_brute(data.matrix, nvec, box, extended)
            )

    sites = [*_site_cases(2, 3, 3, 2), *_site_cases(4, 4, 4, 2, max_d=2)]
    for p, d, plus, minus, levels in sites:
        box = support_box(SiteVector(p, plus, minus, levels))
        for r in range(p):
            moved = (plus - r, minus + r) + levels
            agree(QuadraticData.for_site(p, d, Fraction(p, 2) - r - 1), moved, box)
    for _, m, diag, nvec, u, _, _ in _cases_rec_diag({"seed": 0, "count": 60}):
        matrix = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
        box = [(-2, nvec[b] // diag[b] + 2) for b in range(m)]
        agree(QuadraticData(matrix, u), nvec, box)
    agree(QuadraticData(((0, 0), (0, 0)), (1, -1)), (1, -1), [(-2, 2), (-2, 2)])
    data = QuadraticData(coupling_matrix(3, 1), (1, -1, 0))
    agree(data, (2, 2, 2), [(-1, 2), (1, 0), (0, 2)])


def _clamped(box):
    """The box with its negative branches cut off."""
    return [(max(lo, 0), hi) for lo, hi in box]


@st.composite
def _row_systems(draw):
    m = draw(st.integers(1, 3))
    entry = st.integers(-3, 3)
    upper = {(i, j): draw(entry) for i in range(m) for j in range(i, m)}
    matrix = tuple(
        tuple(upper[min(i, j), max(i, j)] for j in range(m)) for i in range(m)
    )
    eff = tuple(draw(st.integers(-3, 3)) for _ in range(m))
    box = []
    for _ in range(m):
        lo = draw(st.integers(-3, 3))
        box.append((lo, draw(st.integers(lo - 1, 3))))  # may be empty
    return matrix, eff, box


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_row_systems(), st.booleans())
def test_leaves_match_brute_oracle(system, extended):
    # entries in [-3, 3] put c < 0, c = 0 and c > 0 into the upper rows and
    # into the sign rows, whose coefficient on the own coordinate is A_aa - 1
    matrix, eff, box = system
    got = list(_leaves(box if extended else _clamped(box), matrix, eff))
    vectors = [n for n, _ in got]
    assert len(vectors) == len(set(vectors))
    assert set(vectors) == set(lattice_support_brute(matrix, eff, box, extended))
    for n, s in got:
        assert s == tuple(sum(n[b] * matrix[b][a] for b in range(len(n)))
                          for a in range(len(n)))


@st.composite
def _lattice_inputs(draw):
    # bottoms stay in [-2, 3], so every oracle binomial is a small box count
    m = draw(st.sampled_from((3, 4, 1, 2, 3, 4)))
    coupling = {2: [(2, 0)], 3: [(2, 1), (3, 1)], 4: [(3, 2), (4, 2)]}.get(m, [])
    if coupling and draw(st.booleans()):
        matrix = coupling_matrix(*draw(st.sampled_from(coupling)))
    else:
        # a zero sign/level block puts every summand into one group
        zero = draw(st.booleans())
        upper = {
            (i, j): 0 if zero and i < 2 <= j else draw(st.integers(-3, 3))
            for i in range(m) for j in range(i, m)
        }
        matrix = tuple(
            tuple(upper[min(i, j), max(i, j)] for j in range(m)) for i in range(m)
        )
    small = st.integers(-2, 2)
    u = tuple(draw(small) for _ in range(m))
    if draw(st.booleans()):  # z from the signs alone, as for a coupling matrix
        u = u[:2] + (0,) * (m - 2)
    v = tuple(draw(small) * HALF for _ in range(m))
    w = tuple(draw(small) for _ in range(m))  # a shift of the cutoffs
    nvec = tuple(draw(st.integers(0, 14)) + x for x in w)
    box = []
    for _ in range(m):
        lo = draw(st.integers(-2, 1))
        box.append((lo, draw(st.integers(lo, 3))))
    qmax = draw(st.none() | st.integers(-6, 12).map(lambda k: k * HALF))
    zwin = draw(st.none() | st.integers(0, 3))
    return QuadraticData(matrix, u, v), nvec, box, qmax, zwin


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_lattice_inputs(), st.booleans())
def test_lattice_sum_matches_brute_oracle(inputs, extended):
    # the lattice sum against a plain sum of its summands, on coupling and
    # arbitrary symmetric matrices, with and without truncation
    data, nvec, box, qmax, zwin = inputs
    want = {
        (q, z): c
        for (q, z), c in lattice_sum_brute(
            data.matrix, data.u, data.v, nvec, box, extended
        ).items()
        if (qmax is None or q <= qmax) and (zwin is None or abs(z) <= zwin)
    }
    if not extended:
        box = _clamped(box)
    got = lattice_sum(data, nvec, box, qmax=qmax, zwin=zwin)
    assert {(Fraction(q), z): c for q, z, c in got.terms()} == want
    # grouped from the first summand on, which these small sums do not reach
    with mock.patch.object(fermionic, "_FACTOR_MIN", 0):
        got = lattice_sum(data, nvec, box, qmax=qmax, zwin=zwin)
    assert {(Fraction(q), z): c for q, z, c in got.terms()} == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lattice_inputs(), st.booleans())
def test_kept_level_table_matches_brute_oracle(inputs, extended):
    # grouped from the first summand: a call that builds its level sums,
    # calls that read them back, and a call over a wider sign box that reads
    # them under other sign ranges all give the plain sum of the summands,
    # truncations included
    data, nvec, box, qmax, zwin = inputs

    def brute(box):
        return {
            (q, z): c
            for (q, z), c in lattice_sum_brute(
                data.matrix, data.u, data.v, nvec, box, extended
            ).items()
            if (qmax is None or q <= qmax) and (zwin is None or abs(z) <= zwin)
        }

    wide = [(lo - 1, hi + 1) for lo, hi in box[:2]] + box[2:]
    want, want_wide = brute(box), brute(wide)
    if not extended:
        box, wide = _clamped(box), _clamped(wide)
    with mock.patch.object(fermionic, "_FACTOR_MIN", 0), \
            mock.patch.object(fermionic, "_LEVELS", {}):
        for _ in range(3):
            got = lattice_sum(data, nvec, box, qmax=qmax, zwin=zwin)
            assert {(Fraction(q), z): c for q, z, c in got.terms()} == want
        got = lattice_sum(data, nvec, wide, qmax=qmax, zwin=zwin)
        assert {(Fraction(q), z): c for q, z, c in got.terms()} == want_wide


@st.composite
def _two_weights(draw):
    # a coupling matrix of (p, d) with d <= p - 1, one box, and the sign
    # cutoffs and the shift of v of two weights, as coinv_char_fermionic
    # moves them: (N_+ - k, N_- + k) and v = (p/2 - k - 1) u
    p = draw(st.integers(2, 5))
    d = draw(st.integers(1, p - 1))
    nvec = tuple(draw(st.integers(0, 9)) for _ in range(d + 2))
    box = []
    for a in range(d + 2):
        lo = draw(st.integers(-3, 0)) if a < 2 else 0
        box.append((lo, draw(st.integers(lo, 4 if a < 2 else 3))))
    ks = draw(st.lists(st.integers(-2, p), min_size=2, max_size=2, unique=True))
    return p, d, nvec, box, ks


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_two_weights())
def test_kept_level_table_serves_other_sign_cutoffs(case):
    # a grouped call over a kept key reads the level table of an earlier
    # call whose sign cutoffs differ; it must give what it gives built
    # afresh, and the plain sum of the summands
    p, d, nvec, box, ks = case

    def weight(k):
        data = QuadraticData.for_site(p, d, Fraction(p, 2) - k - 1)
        cutoffs = (nvec[0] - k, nvec[1] + k) + nvec[2:]
        return data, cutoffs, lattice_sum(data, cutoffs, box)

    with mock.patch.object(fermionic, "_FACTOR_MIN", 0), \
            mock.patch.object(fermionic, "_LEVELS", {}):
        weight(ks[0])
        first = list(fermionic._LEVELS.values())  # empty if it had no summand
        data, cutoffs, got = weight(ks[1])
        # the second call kept, and so read, the first one's table
        assert all(a is b for a, b in zip(first, fermionic._LEVELS.values()))
        fermionic._LEVELS.clear()
        assert weight(ks[1])[2] == got
    if math.prod(hi - lo + 1 for lo, hi in box) <= 3000:
        want = lattice_sum_brute(data.matrix, data.u, data.v, cutoffs, box, True)
        assert {(Fraction(q), z): c for q, z, c in got.terms()} == want


def test_every_leaf_is_a_summand_on_the_tb_sweep():
    # no vector the enumerator yields may have a vanishing factor
    for p, d, plus, minus, levels in _site_cases(2, 4, 5, 2):
        site = SiteVector(p, plus, minus, levels)
        box = support_box(site)
        for r in range(p):
            data = QuadraticData.for_site(p, d, Fraction(p, 2) - r - 1)
            eff = (plus - r, minus + r) + levels
            for n, s in _leaves(box, data.matrix, eff):
                for b, e, t in zip(n, eff, s):
                    top = e + b - t
                    assert 0 <= b <= top or b <= top < 0, (p, d, r, n)


def test_fermionic_sum_small_values():
    assert fermionic_sum(SiteVector(2, 1, 0)) == BiLaurent.one()
    assert fermionic_sum(SiteVector(2, 1, 1)) == qz((0, 0, 1), (1, 0, 1))
    assert fermionic_sum(SiteVector(2, 0, 0)) == BiLaurent.one()


def test_lattice_sum_one_by_one():
    data = QuadraticData(((2,),), (1,))
    assert lattice_sum(data, (2,), [(-4, 4)]) == qz((0, 0, 1), (1, 1, 1))
    assert lattice_sum(data, (2,), [(1, 0)]) == 0  # an empty box


def test_lattice_sum_over_no_coordinates():
    # the empty vector is the one summand, its value 1: the walk of no
    # steps yields one leaf
    data = QuadraticData((), ())
    assert lattice_sum_brute((), (), (), (), (), True) == {(0, 0): 1}
    assert lattice_sum(data, (), ()) == BiLaurent.one()
    assert lattice_sum(data, (), (), qmax=-HALF) == 0


def test_lattice_sum_walks_a_deep_box():
    # the walk keeps no frame per coordinate: 1,200 coordinates are more
    # than the default recursion limit.  Diagonal 2 and cutoff 2 keep
    # n_a = 1 nonzero at the four coordinates whose range is (0, 1).
    assert sys.getrecursionlimit() == 1000
    for size in (300, 1200):
        free = (0, 1, 2, size - 1)
        matrix = tuple(tuple(2 * (i == j) for j in range(size))
                       for i in range(size))
        u = (1, -1) + (0,) * (size - 3) + (1,)
        v = (HALF,) + (0,) * (size - 1)
        nvec = tuple(2 * (i in free) for i in range(size))
        box = [(0, int(i in free)) for i in range(size)]
        want = lattice_sum_brute(matrix, u, v, nvec, box, True)
        assert len(lattice_support_brute(matrix, nvec, box, True)) == 16
        data = QuadraticData(matrix, u, v)
        with mock.patch.object(fermionic, "_LEVELS", {}):
            for factor_min in (16, 0):  # in groups of one, then grouped
                with mock.patch.object(fermionic, "_FACTOR_MIN", factor_min):
                    got = lattice_sum(data, nvec, box)
                assert {(Fraction(q), z): c
                        for q, z, c in got.terms()} == want, size


def test_lattice_sum_agrees_with_fermionic_wrapper():
    for p, d, comps in [
        (2, 0, (2, 1)),
        (2, 1, (1, 1, 1)),
        (3, 1, (2, 2, 2)),
    ]:
        site = SiteVector(p, comps[0], comps[1], comps[2:])
        data = QuadraticData(coupling_matrix(p, d), (1, -1) + (0,) * d)
        direct = lattice_sum(data, comps, support_box(site))
        assert direct == fermionic_sum(site)


def test_lattice_sum_recurrence_instance():
    # one cutoff step at the minus coordinate, p=2, d=0, N=(1,1)
    data = QuadraticData(coupling_matrix(2, 0), (1, -1))

    def chi(comps):
        site = SiteVector(2, comps[0], comps[1])
        return lattice_sum(data, comps, support_box(site))

    lhs = chi((1, 1))
    rhs = chi((1, 0)) + BiLaurent.term(1, 0, -1) * chi((2, -1))
    assert lhs == rhs == qz((0, 0, 1), (1, 0, 1))


def test_lattice_sum_truncation_is_exact():
    site = SiteVector(3, 3, 3, (2, 4))
    full = fermionic_sum(site)
    cut = lattice_sum(QuadraticData.for_site(3, 2), site.components(),
                      support_box(site), qmax=3, zwin=1)
    assert cut == full.truncate_q(3).clip_z(1)


def test_lattice_sum_truncation_with_negative_cutoffs():
    # negative sign cutoffs route through the negative-exponent branch of
    # the extended binomials; the truncation bookkeeping must stay exact
    site = SiteVector(2, -1, 4, (2,))
    box = support_box(site)
    assert box[0][0] < 0  # the box reaches negative vectors
    full = fermionic_sum(site)
    for qmax in (-1, 0, 2):
        cut = lattice_sum(QuadraticData.for_site(2, 1), site.components(), box,
                          qmax=qmax, zwin=2)
        assert cut == full.truncate_q(qmax).clip_z(2)


@pytest.mark.parametrize(
    "u, v, w", [((0,), (0,), (0,)), ((0,), (0,), (1,)), ((1,), (HALF,), (1,))]
)
def test_lattice_sum_wide_signed_digits(u, v, w):
    # Matrix (0) and N = 70+w: the summand at n is z^(un) q^(vn) X(70+w+n, n).
    # Below n = -70-w the extended factors are reflected binomials with
    # coefficients beyond 2^64, negative when 70+w is odd; with u = 0 they
    # share one part with the positive standard ones.
    data = QuadraticData(((0,),), u, v)
    box = [(-100, 3)]
    full = sum(
        (
            qbinomial_ext(70 + w[0] + n, n).shift(v[0] * n, u[0] * n)
            for n in range(box[0][0], box[0][1] + 1)
        ),
        BiLaurent.zero(),
    )
    assert max(abs(c) for *_, c in full.terms()) > 2**64
    for qmax, zwin in (
        (None, None),
        (-3000, None),
        (-1, 80),
        (Fraction(7, 2), 95),
        (100, 0),
    ):
        cut = lattice_sum(data, (70 + w[0],), box, qmax=qmax, zwin=zwin)
        assert cut == full.truncate_q(qmax).clip_z(zwin)


def test_lattice_sum_coefficient_at_width_edge():
    # N = 0 and matrix (0): each summand is [n choose n] = 1 at q^0 z^0, so
    # the one coefficient of the sum equals the width bound, the box size
    data = QuadraticData(((0,),), (0,))
    for size in (127, 128, 32768):
        assert lattice_sum(data, (0,), [(0, size - 1)]) == size
    # one group of sign parts times level parts, each side counted in full
    data = QuadraticData(((0, 0, 0),) * 3, (0, 0, 0))
    for box in ([(0, 0), (0, 0), (0, 126)], [(0, 0), (0, 1), (0, 63)],
                [(0, 7), (0, 0), (0, 15)]):
        size = math.prod(hi + 1 for _, hi in box)
        assert lattice_sum(data, (0, 0, 0), box) == size
    # a sign part [16 choose 8] times 128 level parts 1: the middle
    # coefficients pass 2^15 only because the sign part's value counts
    wide = lattice_sum(data, (8, 0, 0), [(8, 8), (0, 0), (0, 127)])
    assert wide == qbinomial_ext(16, 8) * 128
    assert max(c for *_, c in wide.terms()) >= 2**15


def test_lattice_support_nonnegative_under_balance():
    site = SiteVector(2, 2, 2, (2,))
    data = QuadraticData(coupling_matrix(2, 1), (1, -1, 0))
    vectors = lattice_support(data, site.components(), support_box(site))
    assert vectors
    assert all(min(v) >= 0 for v in vectors)


def test_gordon_series_p2_value():
    expected = qz(
        (0, 0, 1), (1, 0, 1), (2, 0, 2),
        (1, 1, 1), (2, 1, 1), (1, -1, 1), (2, -1, 1),
    )
    assert gordon_series(2, 0, 0, 2, 1) == expected


def test_gordon_series_d_independent():
    for p in (2, 3):
        for r in range(p):
            base = gordon_series(p, 0, r, 4, 2)
            for d in range(1, p):
                assert gordon_series(p, d, r, 4, 2) == base


@pytest.mark.parametrize("r", [2, -1, Fraction(1, 2)])
def test_gordon_series_rejects_a_weight_out_of_range(r):
    with pytest.raises(ValueError):
        gordon_series(2, 0, r, 2, 1)


def test_gordon_series_vacuum_cutoff():
    for p in (2, 3, 5):
        assert gordon_series(p, 0, 0, 0, 0) == BiLaurent.one()


def test_gordon_series_matches_brute_oracle():
    for p in (2, 3):
        for d in range(p):
            for r in range(p):
                for qmax in range(7):
                    widest = gordon_series_brute(p, d, r, qmax, 3)
                    for zwin in range(4):
                        got = gordon_series(p, d, r, qmax, zwin)
                        got = {(Fraction(q), z): c for q, z, c in got.terms()}
                        assert got == {
                            k: c for k, c in widest.items() if abs(k[1]) <= zwin
                        }


@st.composite
def dominant_forms(draw):
    """A symmetric matrix whose diagonal exceeds the absolute sum of the
    rest of its row (so positive definite), with v2 and a bound."""
    m = draw(st.integers(1, 3))
    a = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            a[i][j] = a[j][i] = draw(st.integers(-3, 3))
    for i in range(m):
        a[i][i] = sum(abs(x) for x in a[i]) + draw(st.integers(1, 3))
    v2 = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    return a, v2, draw(st.integers(0, 12))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(dominant_forms())
def test_ellipsoid_matches_box_scan(form):
    rows, v2, bound = form
    got = list(_ellipsoid(rows, v2, bound))
    assert len(got) == len(set(got))
    assert set(got) == quadratic_points_brute(rows, v2, bound)


def test_ellipsoid_rejects_indefinite_form():
    with pytest.raises(ValueError):
        list(_ellipsoid([[1, 2], [2, 1]], [0, 0], 4))


def test_partition_counts_stay_within_their_bound():
    # the Gordon series ask for more partition counts than are kept
    bounded_partition_counts.cache_clear()  # so every distinct ask misses
    info = bounded_partition_counts.cache_info
    assert info().maxsize >= 409  # what gordon_series(4, 3, 1, 80, 6) asks
    for qmax in range(20, 160, 20):
        gordon_series(2, 1, 0, qmax, 2)
    assert info().misses > info().maxsize
    assert info().currsize <= info().maxsize


def test_gordon_series_validation():
    with pytest.raises(ValueError):
        gordon_series(2, 2, 0, 2, 1)
    with pytest.raises(ValueError):
        gordon_series(2, 0, 2, 2, 1)
    with pytest.raises(ValueError):
        gordon_series(2, 0, 0, -1, 1)
