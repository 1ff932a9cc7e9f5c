"""Exact sparse arithmetic for Laurent polynomials in q and z.

A value is a finite integer-coefficient sum of monomials q^s z^m, where the
q-exponent s is rational (fractions.Fraction) and the z-exponent m is an
integer.  This is the universal value type of the library: q-binomial
coefficients, supernomial coefficients, lattice sums and character
polynomials are all BiLaurent values.

Representation: a dict mapping (q_exp, z_exp) -> coefficient with no zero
coefficient ever stored, so equality of values is equality of dicts.
Integral q-exponents are kept as plain int (int and Fraction hash alike,
but one stored form keeps repr and term order canonical).  Instances are
immutable; every operation returns a new value, which makes them safe to
share between threads or worker processes.

Coefficients are arbitrary-precision Python ints throughout; nothing is
ever rounded or reduced modulo anything.

Inside the engine, a z-free polynomial is a raw {q_exp: coefficient} dict
with int exponents and no zero value (`_qdict_*`), the form of the binomial
table.  The lattice and supernomial sums compute in packed ints instead
(Kronecker substitution, Harvey, arXiv:0712.4046): sum c_k q^k is the int
sum c_k 2^(8wk), at one byte width w per sum.  Packing is a ring
homomorphism: each distinct binomial is packed once, products are int
products, a term at exponent e is added shifted by 8w*e bits, and each part
of the sum is unpacked once, at the end.  A bound on the final coefficients
fixes w with every |c_k| < 2^(8w-1), so each digit reads back exactly,
whatever its sign.  Lattice exponents lie in (1/2)Z and are carried doubled,
as an int e2, with one part per (z-degree, e2 & 1), which
`BiLaurent._from_halves` joins.  Every product of the engine is packed;
`_qdict_mul` is the schoolbook product of two dicts for the small products
of `verify`'s checks.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

Exp = Union[int, Fraction]

__all__ = [
    "BiLaurent",
    "bounded_partition_counts",
]


def norm_exp(e):
    """Collapse integral Fractions to int; reject anything inexact."""
    if type(e) is int:
        return e
    if isinstance(e, Fraction):
        return int(e) if e.denominator == 1 else e
    if isinstance(e, int):  # bool etc.
        return int(e)
    raise TypeError(f"exponent must be int or Fraction, not {type(e).__name__}")


def _exact_int(x) -> int:
    """x as an int; ValueError unless x is an int or a Fraction with
    denominator 1 (a float or a proper fraction is never rounded)."""
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return int(x)
    raise ValueError(f"{x!r} is not an exact integer")


def _int(x, what: str) -> int:
    """x as an int, a bool collapsed; TypeError unless x is an int."""
    if not isinstance(x, int):
        raise TypeError(f"{what} must be int")
    return int(x)


class BiLaurent:
    """Immutable Laurent polynomial in q (rational exponents) and z (integer
    exponents) with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | None = None):
        data: dict = {}
        if terms:
            for (q, z), c in terms.items():
                c = _int(c, "coefficients")
                if c:
                    # distinct keys stay distinct: norm_exp(q) == q, int(z) == z
                    data[norm_exp(q), _int(z, "z-exponents")] = c
        self._terms = data

    @classmethod
    def _raw(cls, data: dict) -> "BiLaurent":
        # Internal: `data` must already be canonical (no zero coefficients).
        self = object.__new__(cls)
        self._terms = data
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "BiLaurent":
        return cls._raw({})

    @classmethod
    def one(cls) -> "BiLaurent":
        return cls._raw({(0, 0): 1})

    @classmethod
    def term(cls, coef: int, q: Exp = 0, z: int = 0) -> "BiLaurent":
        return cls({(q, z): coef})

    @classmethod
    def from_qdict(cls, d: Mapping[Exp, int]) -> "BiLaurent":
        """Build a z-free value from a {q_exp: coefficient} mapping."""
        return cls({(q, 0): c for q, c in d.items()})

    @classmethod
    def _from_halves(cls, acc: dict) -> "BiLaurent":
        """The value kept in halves: one int-keyed qdict per (zdeg, e2 & 1),
        with each term q^(e2/2) stored at exponent e2 >> 1."""
        half = Fraction(1, 2)
        return cls._raw(
            {
                (e + half if odd else e, zdeg): c
                for (zdeg, odd), part in acc.items()
                for e, c in part.items()
            }
        )

    # -- basics ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self._terms
            return self._terms == {(0, 0): other}
        if isinstance(other, BiLaurent):
            return self._terms == other._terms
        return NotImplemented

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Exp, int, int]]:
        """Terms as (q_exp, z_exp, coefficient), sorted lexicographically."""
        return [(q, z, c) for (q, z), c in sorted(self._terms.items())]

    def coefficient(self, q: Exp = 0, z: int = 0) -> int:
        return self._terms.get((norm_exp(q), z), 0)

    def q_min(self):
        return min((q for q, _ in self._terms), default=None)

    def q_max(self):
        return max((q for q, _ in self._terms), default=None)

    def is_q_only(self) -> bool:
        return all(z == 0 for _, z in self._terms)

    def qdict(self) -> dict:
        """The {q_exp: coefficient} dict of a z-free value."""
        if not self.is_q_only():
            raise ValueError("value depends on z")
        return {q: c for (q, _), c in self._terms.items()}

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = BiLaurent.term(other)
        if not isinstance(other, BiLaurent):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            elif k in out:
                del out[k]
        return BiLaurent._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return BiLaurent._raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = BiLaurent.term(other)
        if not isinstance(other, BiLaurent):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return BiLaurent.zero()
            if other == 1:
                return self
            return BiLaurent._raw({k: c * other for k, c in self._terms.items()})
        if not isinstance(other, BiLaurent):
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        get = out.get
        for (qa, za), ca in a.items():
            for (qb, zb), cb in b.items():
                k = (qa + qb, za + zb)
                v = get(k, 0) + ca * cb
                if v:
                    out[k] = v
                elif k in out:
                    del out[k]
        return BiLaurent._raw(out)

    __rmul__ = __mul__

    def shift(self, dq: Exp = 0, dz: int = 0) -> "BiLaurent":
        """Multiply by the monomial q^dq z^dz."""
        dq, dz = norm_exp(dq), _int(dz, "z-exponents")
        if dq == 0 and dz == 0:
            return self
        return BiLaurent._raw({(q + dq, z + dz): c for (q, z), c in self._terms.items()})

    # -- specializations and reshaping ---------------------------------------

    def substitute_z(self, c: Exp) -> "BiLaurent":
        """Apply z -> z*q^c: each term q^s z^m becomes q^(s + c*m) z^m."""
        c = norm_exp(c)
        if c == 0:
            return self
        return BiLaurent._raw(
            {(norm_exp(q + c * z), z): v for (q, z), v in self._terms.items()}
        )

    def at_q1_z1(self) -> int:
        """Sum of all coefficients (the q = 1, z = 1 specialization)."""
        return sum(self._terms.values())

    def truncate_q(self, max_exp: Exp | None) -> "BiLaurent":
        """Drop all terms with q-exponent above max_exp (None keeps everything).
        max_exp must be an int or a Fraction (TypeError otherwise)."""
        if max_exp is None:
            return self
        max_exp = norm_exp(max_exp)
        return BiLaurent._raw({k: c for k, c in self._terms.items() if k[0] <= max_exp})

    def clip_z(self, window: int | None) -> "BiLaurent":
        """Keep only terms with |z-exponent| <= window (None keeps everything).
        window must be an int or a Fraction (TypeError otherwise)."""
        if window is None:
            return self
        window = norm_exp(window)
        return BiLaurent._raw(
            {k: c for k, c in self._terms.items() if -window <= k[1] <= window}
        )

    def cyclotomic(self, p: int) -> tuple[int, ...]:
        """Reduce a z-only Laurent polynomial modulo z^p = 1: the p
        coefficients of z^0, ..., z^(p-1)."""
        if p < 1:
            raise ValueError("p must be positive")
        coeffs = [0] * p
        for (q, z), c in self._terms.items():
            if q != 0:
                raise ValueError("cyclotomic reduction needs a q-free value")
            coeffs[z % p] += c
        return tuple(coeffs)

    # -- exact division ------------------------------------------------------

    def divide_exact(self, divisor: "BiLaurent") -> "BiLaurent":
        """Exact quotient of z-free values; raises ValueError if the division
        leaves a remainder."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        num = self.qdict()
        den = divisor.qdict()
        if not num:
            return BiLaurent.zero()
        dlead = max(den)
        dcoef = den[dlead]
        min_quot = min(num) - min(den)
        rem = num
        quot: dict = {}
        while rem:
            rlead = max(rem)
            e = rlead - dlead
            if e < min_quot:
                raise ValueError("not exactly divisible")
            c, r = divmod(rem[rlead], dcoef)
            if r:
                raise ValueError("not exactly divisible")
            quot[e] = c
            for de, dc in den.items():
                k = e + de
                v = rem.get(k, 0) - c * dc
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        return BiLaurent.from_qdict(quot)

    # -- rendering -------------------------------------------------------------

    @staticmethod
    def _fmt_exp(e) -> str:
        s = str(e)
        return s if s.isdigit() else f"({s})"

    def _render(self, power, sep: str) -> str:
        # One term renderer for every text format: `power(var, exp)` writes a
        # nonzero power, `sep` joins the factors of a term.
        if not self._terms:
            return "0"
        parts = []
        for q, z, c in self.terms():
            factors = [power(var, e) for var, e in (("q", q), ("z", z)) if e != 0]
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = sep.join(factors)
            if parts:
                parts.append(("+ " if c > 0 else "- ") + body)
            else:
                parts.append(body if c > 0 else "-" + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self._render(
            lambda var, e: var if e == 1 else f"{var}^{self._fmt_exp(e)}", "*"
        )

    def __repr__(self) -> str:
        return f"BiLaurent({str(self)})"

    def to_latex(self) -> str:
        return self._render(lambda var, e: f"{var}^{{{e}}}", " ")

    # -- serialization ---------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"q": str(q), "z": z, "c": str(c)} for q, z, c in self.terms()
            ]
        }

    def dumps(self, **kwargs) -> str:
        return json.dumps(self.to_json_obj(), **kwargs)

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BiLaurent":
        data = {}
        for t in obj["terms"]:
            key = (norm_exp(Fraction(t["q"])), int(t["z"]))
            data[key] = data.get(key, 0) + int(t["c"])
        return cls(data)

    @classmethod
    def loads(cls, s: str) -> "BiLaurent":
        return cls.from_json_obj(json.loads(s))


# -- partition series ---------------------------------------------------------


_PARTITION_COUNTS = 512  # gordon_series(4, 3, 1, 80, 6) asks for 409


@lru_cache(maxsize=_PARTITION_COUNTS, typed=True)
def bounded_partition_counts(parts: int, max_deg: int) -> tuple[int, ...]:
    """Numbers of partitions of 0..max_deg into parts of size at most `parts`.

    These are the series coefficients of 1/((1-q)(1-q^2)...(1-q^parts)).
    The last _PARTITION_COUNTS results are kept, keyed by type, so a float
    misses the cache; both must be exact integers (ValueError otherwise).
    """
    parts, max_deg = _exact_int(parts), _exact_int(max_deg)
    if parts < 0 or max_deg < 0:
        raise ValueError("parts and max_deg must be nonnegative")
    dp = [0] * (max_deg + 1)
    dp[0] = 1
    for part in range(1, min(parts, max_deg) + 1):
        for j in range(part, max_deg + 1):
            dp[j] += dp[j - part]
    return tuple(dp)


# -- internal helpers for hot loops -------------------------------------------
# A product of int-keyed qdicts is int-keyed and stores no zero value, so
# two results compare equal exactly when the polynomials do.

_NATIVE_BIG_ENDIAN = sys.byteorder == "big"


def _qdict_mul(a: dict, b: dict) -> dict:
    """Schoolbook product of two q-exponent dicts."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    for ea, ca in a.items():
        for eb, cb in b.items():
            k = ea + eb
            v = get(k, 0) + ca * cb
            if v:
                out[k] = v
            elif k in out:
                del out[k]
    return out


def _width(bound: int) -> int:
    """Least byte width w with bound < 2^(8w-1)."""
    return (bound.bit_length() + 8) // 8


def _pack(vals, width: int) -> int:
    """sum vals[k] * 2^(8*width*k), for a list or dict view of ints with
    every |vals[k]| < 2^(8*width-1)."""
    if min(vals) >= 0:
        return int.from_bytes(
            b"".join([c.to_bytes(width, "little") for c in vals]), "little"
        )
    return _pack([max(c, 0) for c in vals], width) - _pack(
        [max(-c, 0) for c in vals], width
    )


def _unpack_qdict(value: int, width: int, lo: int, cap: int | None = None) -> dict:
    """{lo + k: c_k} for value = sum c_k 2^(8*width*k) with every
    |c_k| < 2^(8*width-1), keeping the exponents <= cap and no zero c_k.

    One constant offset int adds 2^(8w-1) to every digit without a carry.
    Under a cap only the low digits are read, from value mod 2^(8w*count),
    so the digits above them may be anything.
    """
    bits = 8 * width
    # a nonzero top digit c_(n-1) makes |value| > 2^(bits*(n-1) - 1)
    count = abs(value).bit_length() // bits + 1
    if cap is not None:
        count = min(count, max(cap - lo + 1, 0))
    half = 1 << (bits - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    value = (value + offset) & ((1 << bits * count) - 1)
    buf = value.to_bytes(width * count, "little")
    return {
        lo + k: c - half
        for k, c in enumerate(_unpack(buf, width, count))
        if c != half
    }


def _unpack(buf: bytes, width: int, count: int):
    """The first `count` little-endian digits of `width` bytes in buf."""
    if width > 8:
        return [
            int.from_bytes(buf[i : i + width], "little")
            for i in range(0, width * count, width)
        ]
    wide = bytearray(8 * count)
    for j in range(width):
        wide[j::8] = buf[j : width * count : width]
    words = array("Q", wide)
    if _NATIVE_BIG_ENDIAN:
        words.byteswap()
    return words


def _qdict_iadd(acc: dict, d: dict, shift) -> None:
    """acc += q^shift * d, in place, never storing a zero coefficient."""
    get = acc.get
    for e, c in d.items():
        k = e + shift
        v = get(k, 0) + c
        if v:
            acc[k] = v
        elif k in acc:
            del acc[k]
