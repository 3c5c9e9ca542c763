"""Quadratic etale algebras over an exact base field.

An etale quadratic algebra K over F is either a separable quadratic field
extension F[w]/(w^2 - a*w - b) or the split algebra F x F.  Both come with
the nontrivial automorphism gamma, trace and norm down to F, the canonical
functional s with s(1) = 0, and a canonical skew element kappa with
gamma(kappa) = -kappa.

The two kinds of K share one scalar model (see fields.py): their elements
are `PairElem` pairs over F, and `SplitAlgebra` answers the ring protocol of
`QuadraticFieldExtension` (`gen`, `conj`, `trace_to_base`, `norm_to_base`,
`to_pair`, `is_invertible`, `generates_unit_ideal`), so EtaleQuadratic's
structure maps are one call each, whatever the kind.
"""

from __future__ import annotations

from .errors import NotEtale, Reducible
from .fields import Field, PairElem, QuadraticFieldExtension


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


class SplitAlgebra:
    """The ring F x F with componentwise operations.

    Not a field (it has zero divisors) but answers the ring protocol of a
    quadratic field extension; w = (0, 1), so a + b w = (a, a + b).
    """

    element = SplitElem
    coerce = Field.coerce

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

    def is_zero(self, x):
        return not self.coerce(x)

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
        alpha = beta = None
        if presentation != "split":
            alpha, beta = presentation
            alpha = base.coerce(alpha)
            beta = base.coerce(beta)
            if base.char == 2:
                if base.is_zero(alpha):
                    raise NotEtale("X^2 - %s is inseparable in characteristic 2" % beta)
            else:
                if base.is_zero(alpha * alpha + 4 * beta):
                    raise NotEtale("discriminant of X^2-%s*X-%s vanishes" % (alpha, beta))
            try:
                self.kind, self.ring = "field", QuadraticFieldExtension(base, alpha, beta)
            except Reducible:
                alpha = beta = None  # separable but split: the algebra is F x F
        self.alpha, self.beta = alpha, beta
        if alpha is None:
            self.kind, self.ring = "split", SplitAlgebra(base)

    @property
    def w(self):
        """Generator with s(w) = 1: the extension generator, or (0,1)."""
        return self.ring.gen()

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
        return self.ring.to_pair(x)

    def gamma(self, x):
        return self.ring.conj(x)

    def trace(self, x):
        """T_{K/F}(x) = x + gamma(x), as a base-field element."""
        return self.ring.trace_to_base(x)

    def norm(self, x):
        """N_{K/F}(x) = x * gamma(x), as a base-field element."""
        return self.ring.norm_to_base(x)

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
