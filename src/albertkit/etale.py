"""Quadratic etale algebras over an exact base field.

An etale quadratic algebra K over F is either a separable quadratic field
extension F[w]/(w^2 - alpha*w - beta) or the split algebra F x F.  K is one
object, the ring: `fields.QuadraticFieldExtension` or `SplitAlgebra` below,
built from a presentation by `etale_quadratic`.  Both derive from
`fields.EtaleAlgebra` and answer the ring protocol that fields.py lists:
`conj` is the nontrivial automorphism gamma, `s` the canonical functional
with s(1) = 0 and s(w) = 1, and `kappa` a canonical skew element,
conj(kappa) = -kappa.
"""

from __future__ import annotations

from .errors import NotEtale, Reducible
from .fields import Canonical, EtaleAlgebra, Field, PairElem, QuadraticFieldExtension


class SplitElem(PairElem):
    """Element (a, b) of the split algebra F x F."""

    __slots__ = ()
    alg = PairElem.field  # the ring, under the name perfbench's tracer reads

    def __mul__(self, other):
        other = self._check(other)
        return SplitElem(self.field, self.a * other.a, self.b * other.b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        base = self.field.base
        if base.is_zero(other.a) or base.is_zero(other.b):
            raise ZeroDivisionError("division by a zero divisor in F x F")
        return SplitElem(self.field, self.a / other.a, self.b / other.b)


class SplitAlgebra(EtaleAlgebra, metaclass=Canonical):
    """The ring F x F with componentwise operations.

    Not a field (it has zero divisors) but answers the ring protocol of a
    quadratic field extension; w = (0, 1), so a + b w = (a, a + b).
    """

    element = SplitElem
    kind = "split"
    coerce = Field.coerce
    _value = ("base",)

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.order = None if base.order is None else base.order ** 2
        self.name = "%sx%s" % (base.name, base.name)

    def zero(self):
        return SplitElem(self, self.base.zero(), self.base.zero())

    def one(self):
        return SplitElem(self, self.base.one(), self.base.one())

    def gen(self):
        return SplitElem(self, self.base.zero(), self.base.one())

    def from_int(self, n):
        c = self.base.from_int(n)
        return SplitElem(self, c, c)

    def from_base(self, c):
        c = self.base.coerce(c)
        return SplitElem(self, c, c)

    def from_pair(self, a, b):
        a, b = self.base.coerce(a), self.base.coerce(b)
        return SplitElem(self, a, a + b)

    def to_pair(self, x):
        """The coordinates (a, b) of x = a + b w."""
        x = self.coerce(x)
        return (x.a, x.b - x.a)

    def pair(self, a, b):
        """The element with components a and b."""
        return SplitElem(self, self.base.coerce(a), self.base.coerce(b))

    def conj(self, x):
        """The switch of the components."""
        x = self.coerce(x)
        return SplitElem(self, x.b, x.a)

    def trace_to_base(self, x):
        x = self.coerce(x)
        return x.a + x.b

    def norm_to_base(self, x):
        x = self.coerce(x)
        return x.a * x.b

    def kappa(self):
        """The canonical nonzero element with conj(kappa) = -kappa: (1, -1)."""
        return self.pair(self.base.one(), -self.base.one())

    def is_zero(self, x):
        return not x

    def is_invertible(self, x):
        x = self.coerce(x)
        return not (self.base.is_zero(x.a) or self.base.is_zero(x.b))

    def generates_unit_ideal(self, values):
        """Whether the values generate the whole ring: whether each component has a nonzero value."""
        base = self.base
        return any(not base.is_zero(v.a) for v in values) and any(not base.is_zero(v.b) for v in values)

    def random_element(self, rng, size=5):
        return SplitElem(self, self.base.random_element(rng, size), self.base.random_element(rng, size))

    def format_element(self, x):
        return "(%s,%s)" % (self.base.format_element(x.a), self.base.format_element(x.b))

    def __repr__(self):
        return self.name


def etale_quadratic(base: Field, presentation):
    """The quadratic etale algebra F[X]/(X^2 - alpha X - beta) over `base`.

    `presentation` is "split" or the pair (alpha, beta).  A separable
    polynomial that splits over F gives F x F; an inseparable one (or a
    vanishing discriminant) raises NotEtale.
    """
    if presentation == "split":
        return SplitAlgebra(base)
    alpha, beta = (base.coerce(c) for c in presentation)
    if base.char == 2:
        if base.is_zero(alpha):
            raise NotEtale("X^2 - %s is inseparable in characteristic 2" % beta)
    elif base.is_zero(alpha * alpha + 4 * beta):
        raise NotEtale("discriminant of X^2-%s*X-%s vanishes" % (alpha, beta))
    try:
        return QuadraticFieldExtension(base, alpha, beta)
    except Reducible:
        return SplitAlgebra(base)
