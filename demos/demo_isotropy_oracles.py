#!/usr/bin/env python3
"""Tour of the isotropy oracles: Hilbert symbols, Hasse-Minkowski, Springer.

Every verdict below is exact: enumeration over finite fields, local-global
over Q, valuation-parity reduction at t over Q(t).
"""

from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    RationalFunctionField,
    hilbert_symbol,
    witt_decompose,
)
from albertkit.isotropy import isotropy


def show(label, form):
    v = isotropy(form)
    extra = " witness=%s" % (v.witness,) if v.witness else ""
    print("  %-28s -> %-11s [%s]%s" % (label, v.status, v.method, extra))


print("Hilbert symbols over Q:")
print("  (-1,-1) at infinity:", hilbert_symbol(-1, -1, "inf"))
print("  (-1,-1) at p=2:     ", hilbert_symbol(-1, -1, 2))
print("  (-1,-1) at p=3:     ", hilbert_symbol(-1, -1, 3))
print()

print("Rational forms (Hasse-Minkowski):")
show("<1,1,1,1>", QuadraticForm.diagonal(QQ, [1, 1, 1, 1]))
show("<1,1,1,1,1,-7>", QuadraticForm.diagonal(QQ, [1, 1, 1, 1, 1, -7]))
show("<1,3,-2,-6>", QuadraticForm.diagonal(QQ, [1, 3, -2, -6]))
print()

print("Finite fields (complete enumeration):")
F3 = FiniteField(3)
F5 = FiniteField(5)
show("<1,1> over F3", QuadraticForm.diagonal(F3, [1, 1]))
show("<1,1> over F5", QuadraticForm.diagonal(F5, [1, 1]))
wd = witt_decompose(QuadraticForm.diagonal(F5, [1, 1, 1, 1]))
print("  Witt decomposition of <1,1,1,1>/F5: %d hyperbolic planes, kernel dim %d"
      % (wd.hyperbolic_count, wd.kernel.n))
print()

print("Function field Q(t) (Springer reduction at t):")
Qt = RationalFunctionField(QQ, "t")
t = Qt.gen()
show("<1,-t>", QuadraticForm.diagonal(Qt, [Qt.one(), -t]))
show("<1,-1,t>", QuadraticForm.diagonal(Qt, [Qt.one(), -Qt.one(), t]))
show(
    "<-1,-1,-1,-2,-t,2t>",
    QuadraticForm.diagonal(
        Qt, [-Qt.one(), -Qt.one(), -Qt.one(), Qt.from_int(-2), -t, 2 * t]
    ),
)
