"""Exact base fields: Q, GF(p^k), rational function fields, quadratic extensions.

Every element operation is exact; there is no floating point anywhere.
Elements are immutable and carry their field context where the context is
not implied by the Python type (Fraction is used raw for Q).  Mixing
elements of different contexts raises AlgebraError.  Polynomials over F_2
are packed into one int (`f2poly.F2Poly`); every other base is dense.

A quadratic etale algebra K/F is one of two rings, a quadratic field
extension or F x F (`etale.SplitAlgebra`), whose scalars are pairs (a, b)
over F: a + b w in the field, a pair of components in F x F.  `PairElem`
holds what their elements share (sum, negation, equality, hash, truth), and
`EtaleAlgebra`, the base class of both rings, what the rings derive from
their pairs (s, `in_base`, `realify_vec`, `unrealify_vec`).  Both answer one
protocol: `gen`, `conj`, `trace_to_base`, `norm_to_base`, `to_pair`,
`from_pair`, `kappa`, `kind`, `is_invertible` and `generates_unit_ideal`.

Construction is canonical (`Canonical`): building a field, a ring K or a
quaternion algebra equal to a live one returns the live one.  An element's
context is the object it carries, and every context check is `is`.
"""

from __future__ import annotations

import itertools
import weakref
from fractions import Fraction
from math import isqrt

from . import linalg
from .errors import AlgebraError, Reducible
from .places import _factor_int, _is_int_square, _valuation


class Canonical(type):
    """Metaclass of the fields, the rings K and the quaternion algebras: one live object per value.

    A call builds the object as usual, so `__init__` and its checks run, and
    then returns the live object of the same class whose `_value` attributes
    are equal, if there is one.  The table holds its objects weakly, so an
    object nobody refers to is freed as it would be without it.
    """

    live = weakref.WeakValueDictionary()

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        key = (cls,) + tuple(getattr(obj, name) for name in cls._value)
        return Canonical.live.setdefault(key, obj)


class Field(metaclass=Canonical):
    """Abstract exact field.

    Subclasses provide element construction, `sqrt_or_none`, the
    characteristic-2 `_artin_schreier_roots`, the `_root_key` that orders
    quadratic roots and (for enumerable fields) canonical element enumeration.
    """

    char = 0
    order = None  # number of elements, None when infinite
    name = "?"
    element = None  # the element class, whose instances carry their field as `field`

    @property
    def enumerable(self):
        return self.order is not None

    @property
    def is_perfect(self):
        # only meaningful in characteristic p; finite fields are perfect
        return self.char == 0 or self.order is not None

    # -- element construction ------------------------------------------------
    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n):
        raise NotImplementedError

    def coerce(self, x):
        """Accept ints and own elements; reject foreign elements."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, self.element) and x.field is self:
            return x
        raise AlgebraError("cannot coerce %r into %s" % (x, self.name))

    def is_zero(self, x):
        return not x  # every element class defines __bool__, as int and Fraction do

    def is_invertible(self, x):
        return not self.is_zero(x)

    def generates_unit_ideal(self, values):
        """Whether the values generate the whole ring: in a field, whether one is nonzero."""
        return any(not self.is_zero(v) for v in values)

    # -- roots ---------------------------------------------------------------
    def is_square(self, x):
        return self.sqrt_or_none(self.coerce(x)) is not None

    def sqrt_or_none(self, x):
        """A square root of the element x, or None when x is not a square."""
        raise NotImplementedError

    def sqrt(self, x):
        """A square root of x; raises ValueError when x is not a square."""
        r = self.sqrt_or_none(self.coerce(x))
        if r is None:
            raise ValueError("%r is not a square in %s" % (x, self.name))
        return r

    def _artin_schreier_roots(self, d):
        """The solutions of Y^2 + Y = d in characteristic 2: none or a pair y, y + 1."""
        raise NotImplementedError

    def _root_key(self, x):
        """Sort key of `monic_quadratic_roots`."""
        raise NotImplementedError

    def monic_quadratic_roots(self, b, c):
        """All roots in the field of X^2 + b X + c, distinct and sorted by `_root_key`.

        The only quadratic solver.  Odd characteristic: the quadratic formula
        with `sqrt_or_none`.  Characteristic 2: X = bY turns the equation into
        Y^2 + Y = c/b^2, solved by the field's `_artin_schreier_roots`; for
        b = 0 the one root is the square root of c.
        """
        b, c = self.coerce(b), self.coerce(c)
        if self.char != 2:
            r = self.sqrt_or_none(b * b - 4 * c)
            roots = [] if r is None else [(-b + r) / 2, (-b - r) / 2]
        elif not b:
            r = self.sqrt_or_none(c)
            roots = [] if r is None else [r]
        else:
            roots = [b * y for y in self._artin_schreier_roots(c / (b * b))]
        uniq = []
        for r in roots:
            if r not in uniq:
                uniq.append(r)
        return sorted(uniq, key=self._root_key)

    # -- enumeration / sampling ----------------------------------------------
    def elements(self):
        raise AlgebraError("field %s is not enumerable" % self.name)

    def random_element(self, rng, size=5):
        raise NotImplementedError

    def format_element(self, x):
        return str(x)

    def __repr__(self):
        return self.name


class RationalField(Field):
    """The rational numbers; elements are fractions.Fraction."""

    char = 0
    name = "Q"
    _value = ()

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, x):
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fraction):
            return x
        raise AlgebraError("cannot coerce %r into Q" % (x,))

    def is_square(self, x):
        x = self.coerce(x)
        return x >= 0 and _is_int_square(x.numerator) and _is_int_square(x.denominator)

    def sqrt_or_none(self, x):
        return Fraction(isqrt(x.numerator), isqrt(x.denominator)) if self.is_square(x) else None

    def _root_key(self, x):
        return x

    def random_element(self, rng, size=5):
        num = rng.randint(-size, size)
        den = rng.randint(1, size)
        return Fraction(num, den)


QQ = RationalField()


class ScalarElem:
    """Operator boilerplate shared by the element types that carry a context.

    A subclass stores its field (or split algebra) as `field` and defines
    __add__, __neg__, __mul__ and __truediv__; the reflected and derived
    operators below go through those.
    """

    __slots__ = ()

    def _check(self, other):
        """other as an element of this context: ints are coerced, anything else is a fault."""
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, type(self)) and other.field is self.field:
            return other
        raise AlgebraError(
            "mixed contexts: %r in %s with %s %r" % (self, self.field.name, type(other).__name__, other)
        )

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __repr__(self):
        return self.field.format_element(self)


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

# x^k = r(x) reductions for the default moduli, little-endian r
_DEFAULT_REDUCTION = {
    (2, 2): (1, 1),        # x^2 = 1 + x        (x^2+x+1)
    (2, 3): (1, 1, 0),     # x^3 = 1 + x        (x^3+x+1)
    (2, 4): (1, 1, 0, 0),  # x^4 = 1 + x        (x^4+x+1)
    (3, 2): (2, 0),        # x^2 = -1           (x^2+1)
    (3, 3): (1, 1, 0),     # x^3 = 1 + x        (x^3-x-1 -> x^3 = x+1)
    (5, 2): (3, 0),        # x^2 = 3            (x^2-3, 3 a nonsquare mod 5)
    (7, 2): (6, 0),        # x^2 = -1           (x^2+1)
}


class GFElem(ScalarElem):
    """Element of a finite field, a coefficient tuple mod p; only FiniteField._elem builds one."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def __add__(self, other):
        other = self._check(other)
        p = self.field.p
        return self.field._elem(tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return self.field._elem(tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return self * self.field.inv(other)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return other is self or (
            isinstance(other, GFElem) and other.field is self.field and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)


class FiniteField(Field):
    """GF(p^k) as GF(p)[x]/(x^k - r(x)), the modulus checked to be irreducible.

    Elements are canonical: one GFElem per element, built on first use and kept
    (at most `order` of them), so equal elements of one field are one object.
    """

    element = GFElem
    _value = ("p", "k", "reduction")

    def __init__(self, p, k=1, reduction=None):
        # bounded trial division certifies a prime only up to about places.TRIAL_DIVISION_BOUND^2
        if _factor_int(p) != {p: 1}:
            raise AlgebraError("p must be a prime below about 2^40, got %s" % p)
        self.p = p
        self.k = k
        self.char = p
        self.order = p ** k
        if k == 1:
            self.reduction = ()
        else:
            if reduction is None:
                if (p, k) not in _DEFAULT_REDUCTION:
                    raise AlgebraError("no default modulus for GF(%d^%d)" % (p, k))
                reduction = _DEFAULT_REDUCTION[(p, k)]
            self.reduction = tuple(c % p for c in reduction)
            if len(self.reduction) != k:
                raise AlgebraError("reduction tuple must have length k")
        self.name = "F(%d)" % self.order
        self._elems = {}
        # powers of x from x^k up to x^(2k-2), reduced
        self._xpowers = self._build_xpowers()
        self._validate_irreducible()
        # the check's elements refer to the field: without them a duplicate
        # that Canonical drops is freed at once, not by the cycle collector
        self._elems = {}

    def _build_xpowers(self):
        if self.k == 1:
            return []
        powers = [list(self.reduction)]
        for _ in range(self.k - 2):
            prev = powers[-1]
            nxt = [0] + prev[:-1]
            top = prev[-1]
            if top:
                for i, r in enumerate(self.reduction):
                    nxt[i] = (nxt[i] + top * r) % self.p
            powers.append(nxt)
        return powers

    def _validate_irreducible(self):
        # Ben-Or: a reducible f = x^k - r(x) has a factor of degree i <= k/2, shared with x^(p^i) - x
        if self.k > 1:
            fp = _F2 if self.p == 2 else FiniteField(self.p)
            f = Poly(fp, tuple(-c for c in self.reduction) + (1,))
            x = y = self.gen()
            for _ in range(self.k // 2):
                y = self.frobenius(y)
                if Poly(fp, (y - x).coeffs).gcd(f).degree > 0:
                    raise AlgebraError("modulus for GF(%d^%d) is reducible" % (self.p, self.k))

    def _elem(self, coeffs):
        """The one element with this coefficient tuple, built on first use."""
        e = self._elems.get(coeffs)
        return e if e is not None else self._elems.setdefault(coeffs, GFElem(self, coeffs))

    def _pow(self, a, e):
        """a^e by square and multiply, for e >= 0."""
        out = self.one()
        while e:
            if e & 1:
                out = out * a
            a = a * a
            e >>= 1
        return out

    def frobenius(self, a):
        """a^p, the Frobenius image of a."""
        return self._pow(a, self.p)

    def zero(self):
        return self._elem((0,) * self.k)

    def one(self):
        return self._elem((1,) + (0,) * (self.k - 1))

    def gen(self):
        if self.k == 1:
            return self.from_int(1)
        return self._elem((0, 1) + (0,) * (self.k - 2))

    def from_int(self, n):
        return self._elem((n % self.p,) + (0,) * (self.k - 1))

    def _mul(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return self._elem(((a.coeffs[0] * b.coeffs[0]) % p,))
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a.coeffs):
            if not ai:
                continue
            for j, bj in enumerate(b.coeffs):
                if bj:
                    conv[i + j] = (conv[i + j] + ai * bj) % p
        out = conv[:k]
        for d in range(k, 2 * k - 1):
            c = conv[d]
            if c:
                red = self._xpowers[d - k]
                for i in range(k):
                    out[i] = (out[i] + c * red[i]) % p
        return self._elem(tuple(out))

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        return self._pow(a, self.order - 2)

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.k):
            yield self._elem(coeffs)

    def element_index(self, a):
        return sum(c * self.p ** i for i, c in enumerate(a.coeffs))

    _root_key = element_index

    def is_square(self, x):
        x = self.coerce(x)
        if not x:
            return True
        if self.p == 2:
            return True
        return self._pow(x, (self.order - 1) // 2) is self.one()

    def sqrt_or_none(self, x):
        """A square root of x, or None: of the two roots, the one first in `elements` order.

        Squaring is bijective in characteristic 2; otherwise Tonelli-Shanks,
        with the first non-square of `elements` as the 2-Sylow generator.
        """
        if self.p == 2:
            # squaring is bijective: sqrt = x^(q/2)
            for _ in range(self.k - 1):
                x = x * x
            return x
        if not x:
            return x
        if not self.is_square(x):
            return None
        s, m = _valuation(self.order - 1, 2)
        z = next(a for a in self.elements() if a and not self.is_square(a))
        one = self.one()
        c, t, r = self._pow(z, m), self._pow(x, m), self._pow(x, (m + 1) // 2)
        # invariant: r^2 = t x, and t has order dividing 2^(s-1)
        while t is not one:
            i, t2 = 1, t * t
            while t2 is not one:
                i, t2 = i + 1, t2 * t2
            b = self._pow(c, 1 << (s - i - 1))
            s, c = i, b * b
            t, r = t * c, r * b
        return min(r, -r, key=lambda a: a.coeffs)

    def _artin_schreier_roots(self, d):
        """Y^2 + Y = d: its F_2-linear left side solved as a k x k system over F_2."""
        units = [self._elem(tuple(int(i == j) for i in range(self.k))) for j in range(self.k)]
        images = [u * u + u for u in units]
        rows = [tuple(_F2.from_int(v.coeffs[i]) for v in images) for i in range(self.k)]
        sol = linalg.solve(rows, [_F2.from_int(a) for a in d.coeffs], _F2)
        if sol is None:
            return []
        y = self._elem(tuple(a.coeffs[0] for a in sol))
        return [y, y + self.one()]

    def random_element(self, rng, size=5):
        return self._elem(tuple(rng.randrange(self.p) for _ in range(self.k)))

    def format_element(self, x):
        if self.k == 1:
            return str(x.coeffs[0])
        parts = []
        for i, c in enumerate(x.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else "%d*" % c
                parts.append("%su%s" % (head, "" if i == 1 else "^%d" % i))
        return "+".join(parts) if parts else "0"


_F2 = FiniteField(2)  # the prime field that characteristic-2 linear algebra runs over

# ---------------------------------------------------------------------------
# polynomials and rational function fields
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over a base field, little-endian coeffs.

    Over a field of order 2 the constructor makes an `f2poly.F2Poly` instead.
    """

    __slots__ = ("base", "coeffs")

    def __init__(self, base, coeffs):
        if base.order == 2:
            self.__class__ = F2Poly  # same slots: a __new__ would cost every dense Poly a call
            F2Poly.__init__(self, base, coeffs)
            return
        while coeffs and base.is_zero(coeffs[-1]):
            coeffs = coeffs[:-1]
        self.base = base
        self.coeffs = tuple(base.coerce(c) for c in coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        return self.coeffs[-1]

    def monic(self):
        if self.is_zero():
            return self
        lead = self.lead()
        if lead == 1:
            return self
        return Poly(self.base, tuple(c / lead for c in self.coeffs))

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.base, out)

    def __neg__(self):
        return Poly(self.base, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly(self.base, ())
            zero = self.base.zero()
            out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, ai in enumerate(self.coeffs):
                if self.base.is_zero(ai):
                    continue
                for j, bj in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + ai * bj
            return Poly(self.base, out)
        return Poly(self.base, tuple(c * other for c in self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        base = self.base
        rem = list(self.coeffs)
        q = [base.zero()] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = base.one() / other.lead()
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[i + len(other.coeffs) - 1] * inv_lead
            if base.is_zero(c):
                continue
            q[i] = c
            for j, oc in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - c * oc
        return Poly(base, q), Poly(base, rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def evaluate(self, point):
        out = self.base.zero()
        for c in reversed(self.coeffs):
            out = out * point + c
        return out

    def sqrt(self):
        """Polynomial square root, or None."""
        base = self.base
        if self.is_zero():
            return Poly(base, ())
        if self.degree % 2:
            return None
        if base.char == 2:
            # only even-degree terms with square coefficients can occur
            half = []
            for i, c in enumerate(self.coeffs):
                if i % 2:
                    if not base.is_zero(c):
                        return None
                    continue
                if not base.is_square(c):
                    return None
                half.append(base.sqrt(c))
            cand = Poly(base, half)
        else:
            if not base.is_square(self.lead()):
                return None
            m = self.degree // 2
            top = base.sqrt(self.lead())
            cand_coeffs = [base.zero()] * m + [top]
            # match coefficients from the top down
            for i in range(m - 1, -1, -1):
                # coefficient of x^(m+i) in cand^2 must equal self's
                acc = base.zero()
                for j in range(i + 1, m):
                    k = m + i - j
                    if 0 <= k <= m:
                        acc = acc + cand_coeffs[j] * cand_coeffs[k]
                target = self.coeffs[m + i] if m + i <= self.degree else base.zero()
                cand_coeffs[i] = (target - acc) / (2 * top)
            cand = Poly(base, cand_coeffs)
        if (cand * cand).coeffs == self.coeffs:
            return cand
        return None

    def __eq__(self, other):
        return isinstance(other, Poly) and other.base is self.base and other.coeffs == self.coeffs

    def __hash__(self):
        return hash((self.base, self.coeffs))

    def format(self, var):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if self.base.is_zero(c):
                continue
            cs = self.base.format_element(c)
            if i == 0:
                parts.append(cs)
            else:
                xs = var if i == 1 else "%s^%d" % (var, i)
                parts.append(xs if cs == "1" else "%s*%s" % (cs, xs))
        return "+".join(parts).replace("+-", "-")

    def __repr__(self):
        return self.format("x")


class RatFuncElem(ScalarElem):
    """Reduced fraction of polynomials; denominator monic and nonzero."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den, reduce=True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            if num.is_zero():
                den = Poly(field.base, (field.base.one(),))
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                lead = den.lead()
                if lead != field.base.one():
                    num = Poly(field.base, tuple(c / lead for c in num.coeffs))
                    den = den.monic()
        self.field = field
        self.num = num
        self.den = den

    def __add__(self, other):
        other = self._check(other)
        if self.den.degree == 0 and other.den.degree == 0:
            return RatFuncElem(self.field, self.num + other.num, self.den, reduce=False)
        num = self.num * other.den + other.num * self.den
        return RatFuncElem(self.field, num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFuncElem(self.field, -self.num, self.den, reduce=False)

    def __mul__(self, other):
        other = self._check(other)
        if self.den.degree == 0 and other.den.degree == 0:
            return RatFuncElem(self.field, self.num * other.num, self.den, reduce=False)
        return RatFuncElem(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero in %s" % self.field.name)
        return RatFuncElem(self.field, self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, RatFuncElem)
            and other.field is self.field
            and other.num == self.num
            and other.den == self.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.num.is_zero()


class RationalFunctionField(Field):
    """Field of rational functions base(var) with exact arithmetic."""

    element = RatFuncElem
    _value = ("base", "var")

    def __init__(self, base, var="t"):
        self.base = base
        self.var = var
        self.char = base.char
        self.order = None
        self.name = "%s(%s)" % (base.name, var)

    @property
    def is_perfect(self):
        return self.char == 0

    def _poly(self, coeffs):
        return Poly(self.base, tuple(coeffs))

    def poly_elem(self, coeffs):
        # over the denominator 1 the fraction is already in lowest terms
        return RatFuncElem(self, self._poly(coeffs), self._poly((self.base.one(),)), reduce=False)

    def zero(self):
        return self.poly_elem(())

    def one(self):
        return self.poly_elem((self.base.one(),))

    def gen(self):
        return self.poly_elem((self.base.zero(), self.base.one()))

    def from_int(self, n):
        return self.poly_elem((self.base.from_int(n),))

    def from_base(self, c):
        return self.poly_elem((self.base.coerce(c),))

    def sqrt_or_none(self, x):
        ns = x.num.sqrt()
        if ns is None:
            return None
        ds = x.den.sqrt()
        if ds is None:
            return None
        return RatFuncElem(self, ns, ds)

    def _artin_schreier_roots(self, d):
        """Y^2 + Y = d over base(t), through `solve_additive_poly`.

        A root u/v in lowest terms, v monic, has v^2 = den(d), since
        u^2 + uv is prime to v^2; then u^2 + v u = num(d) over base[t].
        """
        v = d.den.sqrt()
        if v is None:
            return []
        return [RatFuncElem(self, u, v) for u in solve_additive_poly(self.base, v, d.num)]

    def _root_key(self, x):
        return (x.num.degree, x.den.degree, repr(x))

    def random_element(self, rng, size=5):
        deg = rng.randint(0, 2)
        coeffs = [self.base.random_element(rng, size) for _ in range(deg + 1)]
        return self.poly_elem(coeffs)

    def format_element(self, x):
        n = x.num.format(self.var)
        if x.den.degree == 0:
            return n
        return "(%s)/(%s)" % (n, x.den.format(self.var))


def solve_additive_poly(base, m, N):
    """Polynomial solutions W of W^2 + m W = N over base[t], char 2.

    Degree descent on the top term b t^w of W, no field enumerated: b is a
    square root of lead(N) when 2w > w + deg m, a quotient lead(N)/lead(m)
    when 2w < w + deg m, and when the two meet, a root of b^2 + lead(m) b =
    lead(N) from `base.monic_quadratic_roots`.  Returns all solutions,
    distinct: none, or W and W + m (one when m = 0).
    """
    zero = Poly(base, ())
    dm = m.degree  # -1 for m = 0: only the square-root step applies
    sols = []
    stack = [(N, zero)]
    while stack:
        rem, w_acc = stack.pop()
        if rem.is_zero():
            for w in (w_acc, w_acc + m):  # with W, W + m solves it too
                if w not in sols:
                    sols.append(w)
            continue
        dN = rem.degree
        lead = rem.lead()
        branches = []
        if dN % 2 == 0 and dN // 2 > dm and base.is_square(lead):
            branches.append((dN // 2, base.sqrt(lead)))
        if 0 <= dN - dm < dm:
            branches.append((dN - dm, lead / m.lead()))
        if dN == 2 * dm:
            # one root suffices: the other, b + lead(m), only re-derives W + m, added with W
            branches.extend((dm, b) for b in base.monic_quadratic_roots(m.lead(), lead)[:1])
        for w, b in branches:
            mono = Poly(base, (base.zero(),) * w + (b,))
            new_rem = rem + mono * mono + m * mono  # char 2
            if not new_rem.is_zero() and new_rem.degree >= dN:
                continue
            stack.append((new_rem, w_acc + mono))
    return sols


# ---------------------------------------------------------------------------
# quadratic field extensions
# ---------------------------------------------------------------------------


class PairElem(ScalarElem):
    """A pair (a, b) over the base of its ring `field`, a quadratic extension
    or F x F.  Sum, negation, equality, hash and truth are coordinatewise; a
    subclass defines the ring's product and division.
    """

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a
        self.b = b

    def __add__(self, other):
        other = self._check(other)
        return type(self)(self.field, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.field, -self.a, -self.b)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, type(self))
            and other.field is self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        base = self.field.base
        return not (base.is_zero(self.a) and base.is_zero(self.b))


class EtaleAlgebra:
    """What both kinds of quadratic etale K/F derive from their pairs: the
    canonical functional s and the moves between K-vectors and F-vectors.
    A subclass gives `base`, `to_pair` and `from_pair`.
    """

    def s(self, x):
        """The canonical F-linear functional with s(1) = 0, s(w) = 1."""
        return self.to_pair(x)[1]

    def in_base(self, x):
        """The base coordinate of x, or None when x is not in F*1."""
        a, b = self.to_pair(x)
        return a if self.base.is_zero(b) else None

    def realify_vec(self, vec):
        """A K-vector as the F-vector of its coordinates (a_0, b_0, a_1, b_1, ...)."""
        return tuple(c for x in vec for c in self.to_pair(x))

    def unrealify_vec(self, vec):
        """The inverse of realify_vec."""
        return tuple(self.from_pair(vec[i], vec[i + 1]) for i in range(0, len(vec), 2))


class QuadExtElem(PairElem):
    """Element a + b*w of a quadratic extension, w^2 = alpha*w + beta."""

    __slots__ = ()

    def __mul__(self, other):
        other = self._check(other)
        f = self.field
        bb = self.b * other.b
        return QuadExtElem(
            f,
            self.a * other.a + f.beta * bb,
            self.a * other.b + self.b * other.a + f.alpha * bb,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return self * self.field.inv(other)


class QuadraticFieldExtension(Field, EtaleAlgebra):
    """base[w]/(w^2 - alpha*w - beta), required to be a field."""

    element = QuadExtElem
    kind = "field"
    var = "w"  # the generator's name in printed elements and element strings
    _value = ("base", "alpha", "beta")

    def __init__(self, base, alpha, beta):
        self.base = base
        self.alpha = base.coerce(alpha)
        self.beta = base.coerce(beta)
        self.char = base.char
        self.order = None if base.order is None else base.order ** 2
        terms = ["%s^2" % self.var]
        for c, mono in ((-self.alpha, self.var), (-self.beta, "")):
            if base.is_zero(c):
                continue
            s = base.format_element(c)
            if mono:
                bracket = "+" in s[1:] or "-" in s[1:]
                s = {"1": "", "-1": "-"}.get(s, ("(%s)*" if bracket else "%s*") % s) + mono
            terms.append(s if s.startswith("-") else "+" + s)
        modulus = "".join(terms)
        self.name = "%s[%s]/(%s)" % (base.name, self.var, modulus)
        if base.monic_quadratic_roots(-self.alpha, -self.beta):
            raise Reducible("%s splits over %s: not a field" % (modulus, base.name))

    def zero(self):
        return QuadExtElem(self, self.base.zero(), self.base.zero())

    def one(self):
        return QuadExtElem(self, self.base.one(), self.base.zero())

    def gen(self):
        return QuadExtElem(self, self.base.zero(), self.base.one())

    def from_int(self, n):
        return QuadExtElem(self, self.base.from_int(n), self.base.zero())

    def from_base(self, a):
        return QuadExtElem(self, self.base.coerce(a), self.base.zero())

    def from_pair(self, a, b):
        return QuadExtElem(self, self.base.coerce(a), self.base.coerce(b))

    def to_pair(self, x):
        """The coordinates (a, b) of x = a + b w."""
        x = self.coerce(x)
        return (x.a, x.b)

    def conj(self, x):
        """The nontrivial automorphism: w -> alpha - w."""
        x = self.coerce(x)
        return QuadExtElem(self, x.a + self.alpha * x.b, -x.b)

    def norm_to_base(self, x):
        x = self.coerce(x)
        return x.a * x.a + self.alpha * x.a * x.b - self.beta * x.b * x.b

    def trace_to_base(self, x):
        x = self.coerce(x)
        return 2 * x.a + self.alpha * x.b

    def kappa(self):
        """The canonical nonzero element with conj(kappa) = -kappa: 1 in
        characteristic 2, w - alpha/2 otherwise."""
        if self.char == 2:
            return self.one()
        return self.from_pair(-self.alpha / 2, self.base.one())

    def inv(self, x):
        x = self.coerce(x)
        n = self.norm_to_base(x)
        if self.base.is_zero(n):
            raise ZeroDivisionError("inverse of zero in %s" % self.name)
        c = self.conj(x)
        return QuadExtElem(self, c.a / n, c.b / n)

    def elements(self):
        for a in self.base.elements():
            for b in self.base.elements():
                yield QuadExtElem(self, a, b)

    def element_index(self, x):
        return self.base.element_index(x.a) + self.base.order * self.base.element_index(x.b)

    def _root_key(self, x):
        # a constant key over an infinite base keeps the formula's order
        return self.element_index(x) if self.order is not None else 0

    def sqrt_or_none(self, x):
        base = self.base
        if self.char == 2:
            # (s + t w)^2 = s^2 + beta t^2 + alpha t^2 w
            if base.is_zero(self.alpha):
                raise AlgebraError("inseparable quadratic extension")
            t2 = x.b / self.alpha
            if base.is_square(t2):
                s2 = x.a + self.beta * t2
                if base.is_square(s2):
                    return QuadExtElem(self, base.sqrt(s2), base.sqrt(t2))
            return None
        if base.is_zero(x.b) and base.is_square(x.a):
            return self.from_base(base.sqrt(x.a))
        # t != 0 branch: with T = t^2,
        #   (alpha^2+4beta) T^2 - (2 alpha b + 4 a) T + b^2 = 0
        D = self.alpha * self.alpha + 4 * self.beta
        bq = -(2 * self.alpha * x.b + 4 * x.a) / D
        cq = x.b * x.b / D
        for T in base.monic_quadratic_roots(bq, cq):
            if base.is_zero(T) or not base.is_square(T):
                continue
            t = base.sqrt(T)
            s = (x.b - self.alpha * T) / (2 * t)
            cand = QuadExtElem(self, s, t)
            if cand * cand == x:
                return cand
        return None

    def _artin_schreier_roots(self, d):
        """Y^2 + Y = d as two quadratics over the base, Y = s + t w.

        Y^2 + Y = (s^2 + s + beta t^2) + (alpha t^2 + t) w, so t solves
        t^2 + t/alpha = d_b/alpha and then s solves s^2 + s = d_a + beta t^2.
        """
        base = self.base
        if base.is_zero(self.alpha):
            raise AlgebraError("inseparable quadratic extension")
        return [
            QuadExtElem(self, s, t)
            for t in base.monic_quadratic_roots(1 / self.alpha, d.b / self.alpha)
            for s in base.monic_quadratic_roots(1, self.beta * t * t + d.a)
        ]

    def random_element(self, rng, size=5):
        return QuadExtElem(self, self.base.random_element(rng, size), self.base.random_element(rng, size))

    # -- real embeddings (base Q, positive discriminant) ----------------------
    def real_embedding_signs(self, x):
        """Signs of x under the two real embeddings; needs base Q, disc > 0."""
        if not isinstance(self.base, RationalField):
            raise AlgebraError("real embeddings only over Q")
        D = self.alpha * self.alpha + 4 * self.beta
        if D <= 0:
            raise AlgebraError("no real embeddings: discriminant <= 0")
        x = self.coerce(x)
        # x = u + v*sqrt(D) with u = a + b*alpha/2, v = b/2; the larger of |u|
        # and |v| sqrt(D) gives the sign, and they are equal only at x = 0 (D is
        # not a square)
        u = x.a + x.b * self.alpha / 2
        v = x.b / 2
        if u * u > D * v * v:
            s = (u > 0) - (u < 0)
            return (s, s)
        s = (v > 0) - (v < 0)
        return (s, -s)

    def format_element(self, x):
        base = self.base
        fa = base.format_element(x.a)
        if base.is_zero(x.b):
            return fa
        fb = base.format_element(x.b)
        bw = self.var if fb == "1" else "%s*%s" % (fb, self.var)
        if base.is_zero(x.a):
            return bw
        return ("%s+%s" % (fa, bw)).replace("+-", "-")


from .f2poly import F2Poly  # noqa: E402  (a Poly subclass: imported once Poly exists)
