"""Polynomials over F_2 packed into one Python int.

Bit i of `bits` is the coefficient of t^i, so F_2[t] is word arithmetic
(Knuth, TAOCP vol. 2, section 4.6.1): the sum is XOR, the product a
carry-less shift/XOR multiply, division and gcd XOR-shift long division, and
the square root (squaring is additive over F_2) the even bits.  `fields.Poly`
builds an F2Poly for every polynomial over a field of order 2; every other
base keeps the dense coefficient tuple.
"""

from __future__ import annotations

from .fields import Poly


def _packed(base, bits):
    p = object.__new__(F2Poly)
    p.base = base
    p.bits = bits
    return p


def _clmul(a, b):
    """The carry-less product of two bit vectors: one shifted XOR per set bit of a."""
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _divmod(a, b):
    """Quotient and remainder of a by b != 0: XOR-shift long division."""
    q, db = 0, b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        q |= 1 << shift
        a ^= b << shift
    return q, a


class F2Poly(Poly):
    """A polynomial over F_2 as the int `bits`; `Poly(base, coeffs)` builds one for a base of order 2."""

    __slots__ = ()
    bits = Poly.coeffs  # the int lives in Poly's `coeffs` slot; `coeffs` below is the dense view

    def __init__(self, base, coeffs):
        self.base = base
        self.bits = sum(1 << i for i, c in enumerate(coeffs) if base.coerce(c))

    @property
    def coeffs(self):
        """The dense coefficient tuple, built on each call; the arithmetic reads `bits`."""
        zero, one = self.base.zero(), self.base.one()
        return tuple(one if b == "1" else zero for b in bin(self.bits)[:1:-1]) if self.bits else ()

    @property
    def degree(self):
        return self.bits.bit_length() - 1

    def is_zero(self):
        return not self.bits

    def lead(self):
        return self.base.from_int(1 if self.bits else 0)

    def monic(self):
        return self

    def __add__(self, other):
        return _packed(self.base, self.bits ^ other.bits)

    __sub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _packed(self.base, _clmul(self.bits, other.bits))
        return self if self.base.coerce(other) else _packed(self.base, 0)

    def divmod(self, other):
        if not other.bits:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.bits, other.bits)
        return _packed(self.base, q), _packed(self.base, r)

    def gcd(self, other):
        a, b = self.bits, other.bits
        while b:
            a, b = b, _divmod(a, b)[1]
        return _packed(self.base, a)

    def sqrt(self):
        """The square root, or None: the even bits, when no odd bit is set."""
        low_first = bin(self.bits)[:1:-1]
        if "1" in low_first[1::2]:
            return None
        return _packed(self.base, int(low_first[::2][::-1], 2))

    def __eq__(self, other):
        return (
            isinstance(other, F2Poly)
            and other.bits == self.bits
            and other.base is self.base
        )

    def __hash__(self):
        return hash(self.bits)

    def format(self, var):
        if not self.bits:
            return "0"
        powers = (i for i in range(self.degree, -1, -1) if self.bits >> i & 1)
        return "+".join("1" if i == 0 else var if i == 1 else "%s^%d" % (var, i) for i in powers)
