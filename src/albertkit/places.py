"""The integers and the places of Q: one bounded trial division, square
classes and Hilbert symbols, shared by `fields`, `jsonio` and `isotropy`.
A leaf module: it imports only `errors` and the standard library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .errors import AlgebraError

TRIAL_DIVISION_BOUND = 1 << 20  # _factor_int tries divisors up to this, no further


def _valuation(n, p):
    """(v, u) with n = p^v u and p not dividing u, for an integer n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _factor_int(n):
    """{p: e} with |n| = prod p^e, or None when n does not factor within the bound.

    Trial division stops past TRIAL_DIVISION_BOUND.  A cofactor below d^2
    with no divisor below d is prime; a larger one is not factored (there
    is no probable-prime test), so hostile input cannot stall a caller and
    a prime is certified only up to about TRIAL_DIVISION_BOUND^2 = 2^40.
    """
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_BOUND:
            return None
        if n % d == 0:
            out[d], n = _valuation(n, d)
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _is_int_square(n):
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _square_class_int(x):
    """An integer in the square class of x in Q*: its numerator times its denominator."""
    if not isinstance(x, (int, Fraction)):
        raise AlgebraError("cannot coerce %r into Q" % (x,))
    if x == 0:
        raise AlgebraError("zero has no square class")
    return x.numerator * x.denominator


def _legendre(a, p):
    a %= p
    if a == 0:
        raise AlgebraError("legendre symbol of 0")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, place):
    """Local Hilbert symbol (a, b) at a prime or at 'inf'.

    The formulas read the valuation at the place and the unit part of any
    integer in each square class (Serre, A Course in Arithmetic, ch. III),
    so nothing is factored.
    """
    a = _square_class_int(a)
    b = _square_class_int(b)
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha, a = _valuation(a, p)
    beta, b = _valuation(b, p)
    if p != 2:
        out = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            out = -out
        if beta % 2:
            out *= _legendre(a, p)
        if alpha % 2:
            out *= _legendre(b, p)
        return out
    eps_a = ((a % 8) - 1) // 2 % 2
    eps_b = ((b % 8) - 1) // 2 % 2
    omega_a = (a * a - 1) // 8 % 2
    omega_b = (b * b - 1) // 8 % 2
    e = eps_a * eps_b + alpha * omega_b + beta * omega_a
    return -1 if e % 2 else 1


def _is_square_in_Qv(d, place):
    if place == "inf":
        return d > 0
    v, d = _valuation(d, place)
    if v % 2:
        return False
    if place == 2:
        return d % 8 == 1
    return _legendre(d, place) == 1


def _relevant_places(ds):
    """inf, 2 and the primes dividing the integers ds, or None when one does not factor."""
    places = {2}
    for d in ds:
        factors = _factor_int(d)
        if factors is None:
            return None
        places.update(factors)
    return ["inf"] + sorted(places)


def _hasse(d, place):
    """The Hasse invariant prod_{i<j} (d_i, d_j)_v of <d_1, ..., d_n> at v."""
    return math.prod(hilbert_symbol(a, b, place) for a, b in itertools.combinations(d, 2))
