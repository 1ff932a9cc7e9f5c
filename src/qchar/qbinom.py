"""q-Pochhammer symbols and Gaussian (q-binomial) coefficients, together
with the two-branch extension of the q-binomial to a negative upper index.

The extended coefficient qbinomial_ext(n, m) agrees with qbinomial(n, m)
for n >= 0 and continues it to n < 0 as a Laurent polynomial.  It is the
unique family satisfying both q-Pascal recurrences

    X(n, m) = q^m X(n-1, m) + X(n-1, m-1)
    X(n, m) = X(n-1, m) + q^(n-m) X(n-1, m-1)

at every integer (n, m), with X(m, m) = 1 and X(n, 0) = 0 for n < 0.

Every binomial, standard or extended, is built as an int-keyed
{q_exp: coeff} dict by _ext_qdict, a bounded lru_cache.  qbinomial and
qbinomial_ext check their arguments and wrap those dicts in a BiLaurent on
each call without checking them again, since _ext_qdict builds them with
int exponents and no zero coefficient; the lattice and supernomial sums
multiply them as packed ints (see laurent).  A packed binomial depends
only on (n, m) and the byte width, so _packed keeps the last _BINOMIALS of
them, keyed by (n, m, width), and each binomial is packed once per process
and width, not once per sum.

All functions are pure; the memo tables are written idempotently, so
concurrent use (threads or forked workers) is safe.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import sub

from .laurent import BiLaurent, _exact_int, _pack

__all__ = ["qpochhammer", "qbinomial", "qbinomial_ext"]

# binomials kept, in each of the two memos.  verify all builds 499 and
# packs 301; one cold coinv_char_* loop over r, both routes, at the full
# site L = (k, ..., k) packs 985 distinct (n, m, width) at p = 5, k = 6,
# 1,133 at p = 6, k = 6, 1,351 at p = 4, k = 11 and 1,868 at p = 4, k = 13,
# the largest measured, so none of them evicts a binomial
_BINOMIALS = 2048


def qpochhammer(n: int) -> BiLaurent:
    """(q)_n = (1-q)(1-q^2)...(1-q^n); (q)_0 = 1.  The factors are multiplied
    into a dense coefficient list on each call, and nothing is kept.  n must
    be an exact integer (ValueError otherwise)."""
    n = _exact_int(n)
    if n < 0:
        raise ValueError("qpochhammer needs n >= 0")
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs = list(map(sub, coeffs + [0] * k, [0] * k + coeffs))
    return BiLaurent.from_qdict(dict(enumerate(coeffs)))


def qbinomial(n: int, m: int) -> BiLaurent:
    """Gaussian binomial coefficient; zero unless n >= m >= 0.  n and m must
    be exact integers (ValueError otherwise)."""
    n, m = _exact_int(n), _exact_int(m)
    if not (n >= m >= 0):
        return BiLaurent.zero()
    return BiLaurent._raw({(e, 0): c for e, c in _ext_qdict(n, m).items()})


def _divide_one_minus_q_power(coeffs: list, i: int) -> list:
    """Exact quotient of the dense polynomial `coeffs` by 1 - q^i.

    The quotient's coefficient at j is coeffs[j] + quotient[j - i], a running
    sum along each residue class mod i.  The division leaves no remainder
    exactly when that sum vanishes at the top i positions; otherwise it
    raises ArithmeticError.
    """
    quot = coeffs[:]
    for r in range(i):
        quot[r::i] = accumulate(coeffs[r::i])
    cut = max(len(quot) - i, 0)
    if any(quot[cut:]):
        raise ArithmeticError(f"not divisible by 1 - q^{i}")
    return quot[:cut]


def qbinomial_ext(n: int, m: int) -> BiLaurent:
    """Extended q-binomial coefficient, defined for all integer n, m.

    For n >= 0 it is the Gaussian binomial.  For n < 0 it equals

        (-1)^(n-m) q^(-((n-m)^2 + (n-m))/2) * qbinomial(-m-1, -n-1)

    with q replaced by 1/q.  At q = 1 it specializes to the coefficient
    of z^(-m) in the expansion of (1 + 1/z)^n around z = 0.  n and m must be
    exact integers (ValueError otherwise).
    """
    n, m = _exact_int(n), _exact_int(m)
    return BiLaurent._raw({(e, 0): c for e, c in _ext_qdict(n, m).items()})


def _ext_min_qexp(n: int, m: int):
    """Lowest q-exponent of qbinomial_ext(n, m), or None if it is zero.

    Closed form, cheap enough to use as a pruning bound before the
    polynomial itself is ever materialized.  n and m must be exact
    integers; the lattice engine's inner loop calls it, so nothing checks
    them.
    """
    if n >= 0:
        return 0 if 0 <= m <= n else None
    if m > n:
        return None
    d = n - m
    # reversed-binomial degree: qbinomial(-m-1, -n-1) has degree (n-m)(-n-1)
    return -((d * d + d) // 2) - d * (-n - 1)


@lru_cache(maxsize=_BINOMIALS)
def _ext_qdict(n: int, m: int) -> dict:
    """{q_exp: coeff} form of qbinomial_ext(n, m), with int exponents in
    ascending order and no zero coefficient; the one binomial memo, of the
    last _BINOMIALS pairs (n, m).

    For n >= m >= 0 it is the product formula

        [n choose m] = prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i),  k = min(m, n-m),

    on a dense coefficient list, dividing after each multiplication, so that
    the running product is always the polynomial [n-k+i choose i].  Each
    division is a running sum with stride i that verifies that no remainder
    is left, which doubles as a self-test.  Every coefficient of a Gaussian
    binomial is positive.  For m <= n < 0 it reflects [-m-1 choose -n-1]
    under q -> 1/q, reading it backwards so the exponents stay ascending.
    Every other (n, m) gives the zero polynomial.
    """
    if n >= m >= 0:
        k = min(m, n - m)
        coeffs = [1]
        for i in range(1, k + 1):
            s = n - k + i
            coeffs = list(map(sub, coeffs + [0] * s, [0] * s + coeffs))
            coeffs = _divide_one_minus_q_power(coeffs, i)
        return dict(enumerate(coeffs))
    if m <= n < 0:
        diff = n - m  # m <= n, so diff >= 0 and diff^2 + diff is even
        shift = -((diff * diff + diff) // 2)
        sign = -1 if diff % 2 else 1
        base = _ext_qdict(-m - 1, -n - 1)
        return {shift - q: sign * c for q, c in reversed(base.items())}
    return {}


@lru_cache(maxsize=_BINOMIALS)
def _packed(n: int, m: int, width: int) -> int:
    """qbinomial_ext(n, m) packed at `width` bytes (see laurent), of the
    last _BINOMIALS keys (n, m, width).  The caller picks a width at which
    every coefficient of the binomial fits."""
    return _pack(_ext_qdict(n, m).values(), width)
