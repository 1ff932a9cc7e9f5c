"""q-Pochhammer, Gaussian binomials, and the extended coefficients."""

import importlib
import math
import sys
from fractions import Fraction

import pytest

from qchar import qbinom
from qchar.fermionic import QuadraticData, _summands, fermionic_sum, lattice_sum
from qchar.laurent import BiLaurent, _unpack_qdict, bounded_partition_counts
from qchar.qbinom import _ext_min_qexp, qbinomial, qbinomial_ext, qpochhammer
from qchar.supernomial import SiteVector, supernomial

from oracles import (
    gaussian_binomial_by_boxes,
    laurent_coeff_one_plus_inv_z,
    nonzero_compositions,
)


def qpoly(*pairs):
    return BiLaurent({(q, 0): c for q, c in pairs})


def test_qpochhammer_small():
    assert qpochhammer(0) == BiLaurent.one()
    assert qpochhammer(1) == qpoly((0, 1), (1, -1))
    assert qpochhammer(3) == qpoly((0, 1), (1, -1), (2, -1), (4, 1), (5, 1), (6, -1))


def test_qpochhammer_rejects_negative():
    with pytest.raises(ValueError):
        qpochhammer(-1)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_qpochhammer_uses_constant_stack():
    # many more factors than spare stack frames: multiplying them
    # recursively would raise RecursionError
    n = 200
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 40)
    try:
        poly = qpochhammer(n)
    finally:
        sys.setrecursionlimit(limit)
    # Euler's pentagonal numbers fix the low coefficients of (q)_n
    assert [poly.coefficient(j) for j in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]
    assert poly.q_max() == n * (n + 1) // 2
    assert poly.coefficient(n * (n + 1) // 2) == (-1) ** n


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("fn, exact, inexact", [
    (qbinomial, (4, 2), (4.0, 2)),
    (qbinomial, (4, 2), (4, 2.0)),
    (qbinomial_ext, (-2, -3), (-2.0, -3)),
    (qpochhammer, (2,), (2.0,)),
    (bounded_partition_counts, (2, 3), (2.0, 3)),
])
def test_integer_arguments_must_be_exact(cold_memos, warm, fn, exact, inexact):
    # a float is refused whether or not the exact value is memoised, and
    # never read from a table keyed by the equal int; an integral Fraction
    # is an exact integer
    if warm:
        fn(*exact)
    with pytest.raises(ValueError):
        fn(*inexact)
    assert fn(*map(Fraction, exact)) == fn(*exact)


def test_qbinomial_4_2():
    assert qbinomial(4, 2) == qpoly((0, 1), (1, 1), (2, 2), (3, 1), (4, 1))


def test_qbinomial_out_of_range_is_zero():
    assert qbinomial(2, 3) == BiLaurent.zero()
    assert qbinomial(3, -1) == BiLaurent.zero()


def test_qbinomial_bottom_zero():
    for n in range(0, 6):
        assert qbinomial(n, 0) == BiLaurent.one()


def test_qbinomial_against_box_partitions():
    for n in range(0, 13):
        for m in range(0, n + 1):
            assert qbinomial(n, m).qdict() == gaussian_binomial_by_boxes(n, m)


def test_qbinomial_200_100_shape():
    poly = qbinomial(200, 100)
    assert (poly.q_min(), poly.q_max()) == (0, 10000)
    coeffs = [poly.coefficient(j) for j in range(10001)]
    assert sum(coeffs) == math.comb(200, 100)
    assert coeffs == coeffs[::-1]
    middle = len(coeffs) // 2
    assert all(x <= y for x, y in zip(coeffs[:middle], coeffs[1 : middle + 1]))


def test_divide_one_minus_q_power():
    # (1 - q^2)(1 + 3q - q^3) = 1 + 3q - q^2 - 4q^3 + q^5
    assert qbinom._divide_one_minus_q_power([1, 3, -1, -4, 0, 1], 2) == [1, 3, 0, -1]
    with pytest.raises(ArithmeticError):
        qbinom._divide_one_minus_q_power([1, 1], 2)  # (1 + q) / (1 - q^2)
    with pytest.raises(ArithmeticError):
        qbinom._divide_one_minus_q_power([1, 0, -1, 1], 2)


def test_ext_agrees_with_gaussian_for_nonnegative_top():
    for n in range(0, 8):
        for m in range(-3, n + 3):
            assert qbinomial_ext(n, m) == qbinomial(n, m)


def test_ext_diagonal_is_one():
    for m in (-5, -2, -1, 0, 1, 4):
        assert qbinomial_ext(m, m) == BiLaurent.one()


def test_ext_bottom_zero_negative_top():
    for n in (-4, -2, -1):
        assert qbinomial_ext(n, 0) == BiLaurent.zero()


def test_ext_minus_one_minus_two():
    assert qbinomial_ext(-1, -2) == qpoly((-1, -1))


def test_ext_specializes_to_laurent_coefficient():
    # at q = 1 the extended coefficient is the z^(-m) coefficient of (1+1/z)^n
    for n in range(-6, 7):
        for m in range(-8, 9):
            expected = laurent_coeff_one_plus_inv_z(n, m)
            assert qbinomial_ext(n, m).at_q1_z1() == expected


def test_ext_pascal_recurrences_window():
    for n in range(-20, 21):
        for m in range(-20, 21):
            x = qbinomial_ext(n, m)
            first = BiLaurent.term(1, m) * qbinomial_ext(n - 1, m) + qbinomial_ext(
                n - 1, m - 1
            )
            second = qbinomial_ext(n - 1, m) + BiLaurent.term(
                1, n - m
            ) * qbinomial_ext(n - 1, m - 1)
            assert x == first
            assert x == second


def test_ext_qdicts_are_canonical():
    # int keys ascending without gaps (_packed packs .values() as
    # the dense coefficient list) and no zero coefficient, for every n, m on
    # the window and their reflections
    for n in range(-20, 21):
        for m in range(-20, 21):
            d = qbinom._ext_qdict(n, m)
            keys = list(d)
            assert all(type(e) is int for e in keys)
            if keys:
                assert keys == list(range(keys[0], keys[-1] + 1))
            assert all(d.values())


def test_ext_min_qexp_matches_polynomials():
    for n in range(-7, 8):
        for m in range(-7, 8):
            poly = qbinomial_ext(n, m)
            bound = _ext_min_qexp(n, m)
            if not poly:
                assert bound is None
            else:
                assert bound == poly.q_min()


def test_each_binomial_is_packed_once_per_width(monkeypatch, cold_memos):
    # two supernomials and one lattice sum at the same byte width share
    # binomials; the process-wide table packs each (n, m) once
    widths = []
    real = qbinom._pack

    def counting(vals, width):
        widths.append(width)
        return real(vals, width)

    monkeypatch.setattr(qbinom, "_pack", counting)

    def composition_pairs(entries, a):
        return set().union(*nonzero_compositions(entries, a))

    data = QuadraticData(((1,),), (1,))
    per_call = [
        composition_pairs((2, 1), 2),
        composition_pairs((2, 1), 3),
        {(t, b) for (b,), _, _, (t,) in _summands(data, (3,), [(0, 3)])},
    ]
    supernomial((2, 1), 2)
    supernomial((2, 1), 3)
    assert lattice_sum(data, (3,), [(0, 3)]).at_q1_z1() == 8
    distinct = set().union(*per_call)
    # the three sums overlap, so packing per sum would pack some twice
    assert sum(map(len, per_call)) > len(distinct)
    assert set(widths) == {1}
    # the supernomial chain packs only the pairs under a nonzero node, so
    # count the packs against the memo rather than the tree's pairs
    info = qbinom._packed.cache_info()
    assert widths and len(widths) == info.currsize == info.misses


def test_packed_tables_unpack_to_the_binomials(monkeypatch, cold_memos):
    # every packed binomial that the chain and the lattice sum read
    read = {}
    real = qbinom._packed

    def recording(n, m, width):
        value = read[n, m, width] = real(n, m, width)
        return value

    for module in ("supernomial", "fermionic"):
        module = importlib.import_module(f"qchar.{module}")
        monkeypatch.setattr(module, "_packed", recording)
    supernomial((70,), 35)  # a 9-byte width
    fermionic_sum(SiteVector(3, -2, 5, (2,)))  # reflected, signed factors
    assert any(width == 9 for _, _, width in read)
    assert any(n < 0 for n, _, _ in read)
    for (n, m, width), value in read.items():
        d = qbinom._ext_qdict(n, m)
        assert _unpack_qdict(value, width, min(d)) == d


def test_packed_binomials_are_bounded_by_entries(cold_memos):
    # more distinct (n, m, width) keys than the bound: the memo keeps
    # exactly the bound, and what it keeps still reads back exactly
    keys = [(n, m, width) for width in (6, 7, 8)
            for n in range(-8, 41) for m in range(-8, n + 1)
            if qbinom._ext_qdict(n, m)]
    assert len(keys) > qbinom._BINOMIALS
    for key in keys:
        qbinom._packed(*key)
    info = qbinom._packed.cache_info()
    assert info.currsize == info.maxsize == qbinom._BINOMIALS
    kept = keys[-qbinom._BINOMIALS:]
    for n, m, width in kept:
        d = qbinom._ext_qdict(n, m)
        assert _unpack_qdict(qbinom._packed(n, m, width), width, min(d)) == d
    # those reads were all hits; the oldest key was evicted
    assert qbinom._packed.cache_info().misses == len(keys)
    qbinom._packed(*keys[0])
    assert qbinom._packed.cache_info().misses == len(keys) + 1
