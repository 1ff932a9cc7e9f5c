"""Core Laurent arithmetic: ring laws, substitutions, series, serialization."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qchar.laurent import (
    BiLaurent,
    _pack,
    _qdict_mul,
    _unpack_qdict,
    _width,
    bounded_partition_counts,
)
from qchar.qbinom import qpochhammer

from oracles import partitions_upto, poly_mul_brute

HALF = Fraction(1, 2)


def qz(*triples):
    return BiLaurent({(q, z): c for q, z, c in triples})


# -- arithmetic basics ------------------------------------------------------


def test_add_cancellation():
    assert qz((0, 0, 1), (1, 0, 1)) + qz((0, 0, -1), (1, 0, 1)) == qz((1, 0, 2))


def test_add_identity():
    p = qz((HALF, -2, 3), (1, 0, -1))
    assert p + BiLaurent.zero() == p
    assert p + 0 == p


def test_add_half_exponents_merge():
    assert qz((HALF, 0, 1)) + qz((HALF, 0, 1)) == qz((HALF, 0, 2))


def test_mul_difference_of_squares():
    one_plus = qz((0, 0, 1), (1, 0, 1))
    one_minus = qz((0, 0, 1), (1, 0, -1))
    assert one_plus * one_minus == qz((0, 0, 1), (2, 0, -1))


def test_mul_exponent_addition():
    a = qz((HALF, 1, 1))
    b = qz((HALF, -1, 1))
    assert a * b == qz((1, 0, 1))


def test_mul_identity():
    p = qz((Fraction(3, 2), 2, 5), (0, -1, 1))
    assert p * BiLaurent.one() == p
    assert 1 * p == p


# -- specializations -----------------------------------------------------------


def test_substitute_z_shifts_q():
    assert qz((1, 2, 1)).substitute_z(1) == qz((3, 2, 1))
    assert qz((0, -1, 1)).substitute_z(3) == qz((-3, -1, 1))
    p = qz((HALF, 2, 3), (0, 0, 1))
    assert p.substitute_z(0) == p


def test_substitute_z_composes():
    p = qz((1, 2, 1), (0, -1, 4))
    assert p.substitute_z(HALF).substitute_z(HALF) == p.substitute_z(1)


def test_at_q1_z1():
    assert qz((0, 0, 1), (1, 0, 1), (2, 0, 2)).at_q1_z1() == 4
    assert qz((0, 1, 1), (0, -1, -1)).at_q1_z1() == 0
    assert BiLaurent.zero().at_q1_z1() == 0


def test_truncate_q():
    p = qz((0, 0, 1), (1, 0, 1), (4, 0, 1))
    assert p.truncate_q(2) == qz((0, 0, 1), (1, 0, 1))
    assert p.truncate_q(None) == p
    assert qz((Fraction(3, 2), 0, 1)).truncate_q(1) == BiLaurent.zero()
    for cutoff in (2.5, 2.0):
        with pytest.raises(TypeError):
            p.truncate_q(cutoff)


def test_clip_z():
    p = qz((0, -3, 1), (0, 0, 1), (0, 2, 1))
    assert p.clip_z(2) == qz((0, 0, 1), (0, 2, 1))
    assert p.clip_z(None) == p
    for window in (0.5, 2.0):
        with pytest.raises(TypeError):
            p.clip_z(window)


# -- cyclotomic projection ---------------------------------------------------------


def test_cyclotomic_projection():
    p = qz((0, -1, 1), (0, 0, 1), (0, 1, 1))
    assert p.cyclotomic(2) == (1, 2)
    assert BiLaurent.one().cyclotomic(3) == (1, 0, 0)
    assert qz((0, 3, 1)).cyclotomic(3) == (1, 0, 0)


def test_cyclotomic_rejects_q_terms():
    with pytest.raises(ValueError):
        qz((HALF, 0, 1)).cyclotomic(2)


# -- partition series ----------------------------------------------------------------


def test_bounded_partition_counts_values():
    assert bounded_partition_counts(0, 0) == (1,)
    assert bounded_partition_counts(3, 3) == (1, 1, 2, 3)
    assert bounded_partition_counts(5, 5) == (1, 1, 2, 3, 5, 7)
    assert bounded_partition_counts(2, 5) == (1, 1, 2, 2, 3, 3)


def test_partition_series_against_enumeration():
    expected = partitions_upto(9)
    counts = bounded_partition_counts(9, 9)
    assert list(counts) == expected


def test_bounded_partition_counts_invert_pochhammer():
    for parts, deg in ((0, 0), (1, 1), (4, 4), (7, 7), (3, 9)):
        counts = bounded_partition_counts(parts, deg)
        series = BiLaurent.from_qdict(dict(enumerate(counts)))
        product = series * qpochhammer(parts)
        assert product.truncate_q(deg) == BiLaurent.one()


# -- exact division ----------------------------------------------------------------


def test_divide_exact_roundtrip():
    a = qz((0, 0, 1), (1, 0, -2), (3, 0, 1))
    b = qz((-1, 0, 3), (2, 0, -1))
    assert (a * b).divide_exact(b) == a


def test_divide_exact_rejects_remainder():
    with pytest.raises(ValueError):
        qz((1, 0, 1), (0, 0, 1)).divide_exact(qz((0, 0, 2)))
    with pytest.raises(ValueError):
        qz((2, 0, 1)).divide_exact(qz((1, 0, 1), (0, 0, 1)))


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        BiLaurent.one().divide_exact(BiLaurent.zero())


# -- serialization ----------------------------------------------------------------


def test_json_roundtrip_and_shape():
    p = qz((Fraction(3, 2), -1, 12), (2, 0, -5), (0, 0, 1))
    obj = p.to_json_obj()
    assert obj == {
        "terms": [
            {"q": "0", "z": 0, "c": "1"},
            {"q": "3/2", "z": -1, "c": "12"},
            {"q": "2", "z": 0, "c": "-5"},
        ]
    }
    assert BiLaurent.from_json_obj(json.loads(json.dumps(obj))) == p


def test_json_integral_fraction_exponent_is_plain():
    p = qz((Fraction(1, 2), 0, 1)) * qz((Fraction(1, 2), 0, 1))
    assert p.to_json_obj()["terms"][0]["q"] == "1"


def test_every_constructor_stores_int_coefficients_and_z_exponents():
    # a bool collapses to int, as in the JSON and text forms
    for value in (BiLaurent({(1, True): 2}), BiLaurent({(1, 1): True}) * 2,
                  BiLaurent.term(2, 1, True), BiLaurent.term(2).shift(1, True)):
        assert value.to_json_obj() == {"terms": [{"q": "1", "z": 1, "c": "2"}]}
        assert value.to_latex() == "2 q^{1} z^{1}"
    assert BiLaurent.from_qdict({0: True}).to_json_obj()["terms"] == [
        {"q": "0", "z": 0, "c": "1"}]
    # anything else inexact is refused, never stored
    for build in (lambda: BiLaurent({(0, 0): 1.5}),
                  lambda: BiLaurent({(0, 0.5): 1}),
                  lambda: BiLaurent.term(1.5),
                  lambda: BiLaurent.term(2, 0, 0.5),
                  lambda: BiLaurent.one().shift(0, 0.5),
                  lambda: BiLaurent.one().shift(0, 0.0),
                  lambda: BiLaurent.from_qdict({0: 1.5})):
        with pytest.raises(TypeError, match="must be int"):
            build()


def test_str_rendering():
    assert str(BiLaurent.zero()) == "0"
    assert str(qz((0, 0, -1), (HALF, -1, 3))) == "-1 + 3*q^(1/2)*z^(-1)"


# -- ring laws (property-based) -----------------------------------------------------


exponents = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])),
    st.builds(Fraction, st.integers(-41, 41), st.just(2)),
)
polys = st.dictionaries(
    st.tuples(exponents, st.integers(-3, 3)),
    st.one_of(st.integers(-9, 9), st.integers(-(2**200), 2**200)),
    max_size=5,
).map(BiLaurent)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(polys)
def test_json_roundtrip_property(x):
    assert BiLaurent.loads(x.dumps()) == x
    assert BiLaurent.from_json_obj(x.to_json_obj()) == x


@settings(max_examples=80, deadline=None, derandomize=True)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


shifts = st.one_of(
    st.integers(-3, 3), st.builds(Fraction, st.integers(-5, 5), st.just(2))
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys, shifts, shifts)
def test_substitute_z_is_additive_in_shift(p, c1, c2):
    assert p.substitute_z(c1).substitute_z(c2) == p.substitute_z(c1 + c2)


zpolys = st.dictionaries(
    st.tuples(st.just(0), st.integers(-6, 6)), st.integers(-9, 9), max_size=5
).map(BiLaurent)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(zpolys, zpolys, st.integers(1, 5))
def test_cyclotomic_is_ring_homomorphism(a, b, p):
    x, y = a.cyclotomic(p), b.cyclotomic(p)
    brute = tuple(
        sum(x[i] * y[j] for i in range(p) for j in range(p) if (i + j) % p == k)
        for k in range(p)
    )
    assert (a * b).cyclotomic(p) == brute


# -- qdict product kernels (property-based) ------------------------------------------


@st.composite
def qdicts(draw, max_terms=40):
    """Int-keyed coefficient dicts: an ascending run without gaps or scattered
    exponents, all positive, all negative or mixed signs, and magnitudes
    small, near 2^64 or up to 2^200."""
    size = draw(st.integers(0, max_terms))
    if draw(st.booleans()):
        start = draw(st.integers(-30, 30))
        exps = list(range(start, start + size))
    else:
        exps = draw(st.lists(st.integers(-40, 60), min_size=size,
                             max_size=size, unique=True))
    top = draw(st.sampled_from((9, 1 << 64, 1 << 200)))
    sign = draw(st.sampled_from((1, -1, None)))
    return {
        e: draw(st.integers(1, top)) * (sign or draw(st.sampled_from((1, -1))))
        for e in exps
    }


def _cap_for(draw, product):
    """None, an int around the product's exponents, or a cap below its
    lowest exponent."""
    lo, hi = min(product, default=0), max(product, default=0)
    kind = draw(st.sampled_from(("none", "int", "below")))
    if kind == "none":
        return None
    if kind == "below":
        return lo - draw(st.integers(1, 3))
    return draw(st.integers(lo - 2, hi + 2))


def _capped(d, cap):
    return d if cap is None else {e: c for e, c in d.items() if e <= cap}


def _packed_product(factors, cap=None):
    """The product of nonempty qdicts by the engine's packed path: dense
    coefficient lists packed at one byte width, one int product, one
    unpack from the lowest exponent lo up to cap."""
    lo = sum(map(min, factors))
    dense = [[f.get(e, 0) for e in range(min(f), max(f) + 1)] for f in factors]
    width = _width(math.prod(sum(map(abs, vals)) for vals in dense))
    value = math.prod([_pack(vals, width) for vals in dense])
    return _unpack_qdict(value, width, lo, cap)


def _assert_canonical(d):
    assert all(type(e) is int and c for e, c in d.items())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(qdicts(), qdicts())
def test_qdict_mul_matches_brute(a, b):
    result = _qdict_mul(a, b)
    _assert_canonical(result)
    assert result == poly_mul_brute(a, b)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(qdicts(max_terms=12).filter(bool), min_size=1, max_size=5), st.data()
)
def test_packed_product_matches_brute(factors, data):
    product = {0: 1}
    for f in factors:
        product = poly_mul_brute(product, f)
    cap = _cap_for(data.draw, product)
    result = _packed_product(factors, cap)
    _assert_canonical(result)
    assert result == _capped(product, cap)


@pytest.mark.parametrize("terms", [3, 63, 64, 256])
def test_qdict_products_cancel(terms):
    # (1 + q + ... + q^(terms-1)) (1 - q) = 1 - q^terms, with 2 * terms
    # coefficient products; every middle coefficient cancels
    geometric = dict.fromkeys(range(terms), 1)
    for kernel in (_qdict_mul, lambda a, b: _packed_product((a, b))):
        assert kernel(geometric, {0: 1, 1: -1}) == {0: 1, terms: -1}
    assert _qdict_mul(geometric, {}) == {}
    pair = (geometric, {0: 1, 1: -1})
    assert _packed_product(pair, terms - 1) == {0: 1}
    assert _packed_product(pair, -1) == {}
    # three factors, with the cancellation in the first two
    assert _packed_product([geometric, {0: 1, 1: -1}, {0: 1, 1: 1}]) == {
        0: 1, 1: 1, terms: -1, terms + 1: -1
    }
