"""Quadratic etale algebras over an exact base field.

An etale quadratic algebra K over F is either a separable quadratic field
extension F[w]/(w^2 - a*w - b) or the split algebra F x F.  Both come with
the nontrivial automorphism gamma, trace and norm down to F, the canonical
functional s with s(1) = 0, and a canonical skew element kappa with
gamma(kappa) = -kappa.
"""

from __future__ import annotations

from .errors import AlgebraError, NotEtale
from .fields import Field, QuadraticFieldExtension, ScalarElem


class SplitElem(ScalarElem):
    """Element (a, b) of the split algebra F x F."""

    __slots__ = ("alg", "a", "b")

    def __init__(self, alg, a, b):
        self.alg = alg
        self.a = a
        self.b = b

    def __add__(self, other):
        other = self._check(other)
        return SplitElem(self.alg, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return SplitElem(self.alg, -self.a, -self.b)

    def __mul__(self, other):
        other = self._check(other)
        return SplitElem(self.alg, self.a * other.a, self.b * other.b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        base = self.alg.base
        if base.is_zero(other.a) or base.is_zero(other.b):
            raise ZeroDivisionError("division by a zero divisor in F x F")
        return SplitElem(self.alg, self.a / other.a, self.b / other.b)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.alg.from_int(other)
        return (
            isinstance(other, SplitElem)
            and (other.alg is self.alg or other.alg == self.alg)
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash(("sp", self.a, self.b))

    def __bool__(self):
        base = self.alg.base
        return not (base.is_zero(self.a) and base.is_zero(self.b))


# ScalarElem reads the context as `field`: alias the `alg` slot under that name
SplitElem.field = SplitElem.alg


class SplitAlgebra:
    """The ring F x F with componentwise operations.

    Not a field (it has zero divisors) but supports the scalar-domain
    protocol used by quaternion and tensor constructions.
    """

    def __init__(self, base):
        self.base = base
        self.char = base.char
        self.order = None if base.order is None else base.order ** 2
        self.name = "%sx%s" % (base.name, base.name)

    def zero(self):
        return SplitElem(self, self.base.zero(), self.base.zero())

    def one(self):
        return SplitElem(self, self.base.one(), self.base.one())

    def from_int(self, n):
        c = self.base.from_int(n)
        return SplitElem(self, c, c)

    def from_base(self, c):
        c = self.base.coerce(c)
        return SplitElem(self, c, c)

    def from_pair(self, a, b):
        # a + b*w with w = (0, 1)
        a, b = self.base.coerce(a), self.base.coerce(b)
        return SplitElem(self, a, a + b)

    def pair(self, a, b):
        return SplitElem(self, self.base.coerce(a), self.base.coerce(b))

    def coerce(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, SplitElem) and (x.alg is self or x.alg == self):
            return x
        raise AlgebraError("cannot coerce %r into %s" % (x, self.name))

    def is_zero(self, x):
        return not self.coerce(x)

    def is_invertible(self, x):
        x = self.coerce(x)
        return not (self.base.is_zero(x.a) or self.base.is_zero(x.b))

    def random_element(self, rng, size=5):
        return SplitElem(self, self.base.random_element(rng, size), self.base.random_element(rng, size))

    def format_element(self, x):
        return "(%s,%s)" % (self.base.format_element(x.a), self.base.format_element(x.b))

    def __eq__(self, other):
        return isinstance(other, SplitAlgebra) and other.base == self.base

    def __hash__(self):
        return hash(("split", self.base))

    def __repr__(self):
        return self.name


class EtaleQuadratic:
    """A quadratic etale algebra K/F with its standard structure maps."""

    def __init__(self, base: Field, presentation):
        self.base = base
        if presentation == "split":
            self.kind = "split"
            self.ring = SplitAlgebra(base)
            self.alpha = None
            self.beta = None
        else:
            alpha, beta = presentation
            alpha = base.coerce(alpha)
            beta = base.coerce(beta)
            if base.char == 2:
                if base.is_zero(alpha):
                    raise NotEtale("X^2 - %s is inseparable in characteristic 2" % beta)
            else:
                if base.is_zero(alpha * alpha + 4 * beta):
                    raise NotEtale("discriminant of X^2-%s*X-%s vanishes" % (alpha, beta))
            if base.monic_quadratic_roots(-alpha, -beta):
                # separable but split: the algebra is F x F
                self.kind = "split"
                self.ring = SplitAlgebra(base)
                self.alpha = None
                self.beta = None
            else:
                self.kind = "field"
                self.ring = QuadraticFieldExtension(base, alpha, beta)
                self.alpha = alpha
                self.beta = beta

    @property
    def w(self):
        """Generator with s(w) = 1: the extension generator, or (0,1)."""
        if self.kind == "field":
            return self.ring.gen()
        return self.ring.pair(self.base.zero(), self.base.one())

    def one(self):
        return self.ring.one()

    def zero(self):
        return self.ring.zero()

    def from_base(self, c):
        return self.ring.from_base(c)

    def from_pair(self, a, b):
        return self.ring.from_pair(a, b)

    def coords(self, x):
        """Coordinates (a, b) with x = a*1 + b*w."""
        x = self.ring.coerce(x)
        if self.kind == "field":
            return (x.a, x.b)
        return (x.a, x.b - x.a)

    def gamma(self, x):
        x = self.ring.coerce(x)
        if self.kind == "field":
            return self.ring.conj(x)
        return SplitElem(self.ring, x.b, x.a)

    def trace(self, x):
        """T_{K/F}(x) = x + gamma(x), as a base-field element."""
        x = self.ring.coerce(x)
        if self.kind == "field":
            return self.ring.trace_to_base(x)
        return x.a + x.b

    def norm(self, x):
        """N_{K/F}(x) = x * gamma(x), as a base-field element."""
        x = self.ring.coerce(x)
        if self.kind == "field":
            return self.ring.norm_to_base(x)
        return x.a * x.b

    def s(self, x):
        """The canonical F-linear functional with s(1) = 0, s(w) = 1."""
        return self.coords(x)[1]

    def kappa(self):
        """Canonical nonzero element with gamma(kappa) = -kappa."""
        base = self.base
        if self.kind == "split":
            return self.ring.pair(base.one(), -base.one())
        if base.char == 2:
            return self.ring.one()
        # w - alpha/2
        return self.ring.from_pair(-self.alpha / 2, base.one())

    def in_base(self, x):
        """The base coordinate of x, or None when x is not in F*1."""
        a, b = self.coords(x)
        if self.base.is_zero(b):
            return a
        return None

    # -- realification ---------------------------------------------------
    def realify_vec(self, vec):
        out = []
        for x in vec:
            a, b = self.coords(x)
            out.append(a)
            out.append(b)
        return tuple(out)

    def unrealify_vec(self, vec):
        out = []
        for i in range(0, len(vec), 2):
            out.append(self.from_pair(vec[i], vec[i + 1]))
        return tuple(out)

    def random_element(self, rng, size=5):
        return self.ring.random_element(rng, size)

    def describe(self):
        if self.kind == "split":
            return "split"
        return "x^2-%s*x-%s" % (self.base.format_element(self.alpha), self.base.format_element(self.beta))

    def __eq__(self, other):
        return (
            isinstance(other, EtaleQuadratic)
            and other.base == self.base
            and other.kind == self.kind
            and other.alpha == self.alpha
            and other.beta == self.beta
        )

    def __hash__(self):
        return hash(("etale", self.base, self.kind, self.alpha, self.beta))

    def __repr__(self):
        return "EtaleQuadratic(%s, %s)" % (self.base.name, self.describe())


def make_etale_quadratic(base, presentation):
    """Build K/F from 'split' or a generated presentation (alpha, beta)."""
    return EtaleQuadratic(base, presentation)
