"""Algebras of coordinate tuples over a scalar ring: the one algebra model.

The quaternion algebra Q, the tensor square (conjugate Q) (x)_K Q, its
fixed algebra Cor_{K/F} Q and Q1 (x)_F Q2 are all an Algebra: a scalar
ring, a dimension (4 or 16), basis names and the coordinates of the unit.
Their elements are AlgebraElem, a tuple of coordinates over the ring that
is added, negated, scaled, compared and multiplied through the algebra's
`product`.  That product is written once, here, from sparse structure
constants: Q, Cor and clifford's reduced Cor_E are each a `structure`
table; only the tensor products multiply factorwise, with the tables of
their quaternion factors (corestriction.TensorProductAlgebra).  The f map
and the Clifford check compute in M_2 of such an algebra on pairs of
elements: see corestriction.f_product.
"""

from __future__ import annotations

from . import linalg
from .errors import AlgebraError


class AlgebraElem:
    """An element of an Algebra: its coordinates over the algebra's ring.

    Elements of one algebra combine; anything else is an AlgebraError naming
    the subclass's `context`.
    """

    __slots__ = ("algebra", "coords")
    context = "algebra"

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.coords = coords

    def _same_algebra(self, other):
        return isinstance(other, AlgebraElem) and other.algebra is self.algebra

    def _check(self, other):
        if self._same_algebra(other):
            return other
        raise AlgebraError("mixed %s contexts" % self.context)

    def __add__(self, other):
        other = self._check(other)
        return type(self)(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return type(self)(self.algebra, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        return type(self)(self.algebra, self.algebra.product(self.coords, other.coords))

    def scale(self, c):
        """c times the element, for c in the algebra's ring."""
        c = self.algebra.ring.coerce(c)
        return type(self)(self.algebra, tuple(c * a for a in self.coords))

    def is_zero(self):
        R = self.algebra.ring
        return all(R.is_zero(c) for c in self.coords)

    def __eq__(self, other):
        return self._same_algebra(other) and other.coords == self.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        R = self.algebra.ring
        parts = []
        for idx, c in enumerate(self.coords):
            if R.is_zero(c):
                continue
            name, cs = self.algebra.basis_name(idx), R.format_element(c)
            parts.append(cs if name == "1" else "(%s)%s" % (cs, name))
        return " + ".join(parts) if parts else "0"


class Algebra:
    """A `dim`-dimensional algebra over `ring`; a subclass sets `dim`, its
    `element` class and its `structure`: structure[i][j] lists the (m, c)
    with e_i e_j = sum c e_m, the nonzero constants only."""

    def __init__(self, ring, unit_coords):
        self.ring = ring
        self.unit_coords = unit_coords

    def product(self, x, y):
        """The coordinates of the product of coordinate tuples x and y."""
        R = self.ring
        acc = [R.zero()] * self.dim
        for i, a in enumerate(x):
            if R.is_zero(a):
                continue
            row = self.structure[i]
            for j, b in enumerate(y):
                if R.is_zero(b):
                    continue
                ab = a * b
                for m, c in row[j]:
                    acc[m] = acc[m] + ab * c
        return tuple(acc)

    def elem(self, coords):
        return self.element(self, tuple(self.ring.coerce(c) for c in coords))

    def zero(self):
        return self.elem([self.ring.zero()] * self.dim)

    def one(self):
        return self.elem(self.unit_coords)

    def basis(self):
        return [self.elem(u) for u in linalg.units(self.ring, self.dim)]

    def scalar(self, lam):
        return self.one().scale(lam)

    def from_base(self, c):
        """A value of the base field F as a scalar of the ring."""
        return self.ring.coerce(c)

    def basis_name(self, idx):
        return "e%d" % idx
