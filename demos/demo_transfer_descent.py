#!/usr/bin/env python3
"""Transfer of quadratic forms along K/F and the constructive descent.

The descent extracts an F-form psi with dim psi equal to the Witt index of
the transferred form, together with an explicit embedding of psi_K into
the original form — in characteristic 2 as well, where odd Witt indices
force psi to be nondegenerate but not nonsingular.
"""

from albertkit import (
    QQ,
    FiniteField,
    QuadraticForm,
    QuaternionAlgebra,
    descend,
    etale_quadratic,
    norm_form,
    remark1_check,
)
from albertkit.transfer import transfer

K = etale_quadratic(QQ, (0, 2))  # Q(sqrt 2)

print("Transfer along Q(sqrt2)/Q with s(a + b sqrt2) = b:")
one_form = QuadraticForm.diagonal(K, [K.one()])
T = transfer(K, one_form)
print("  s_* <1>  has Gram", T.upper, "(the hyperbolic plane 2xy)")
print()

print("Descent for the Hamilton norm form over Q(sqrt2):")
Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))
nq = norm_form(Q)
res = descend(K, nq)
print("  i0(s_* n_Q) =", res.i0)
print("  dim psi     =", res.psi.n, " (psi_K is a subform of n_Q, embedding verified)")
print("  s_* n_Q hyperbolic, so n_Q is defined over Q:", remark1_check(K, nq))
print()

print("A Witt-index-1 case: phi = <1, -sqrt2>:")
phi = QuadraticForm.diagonal(K, [K.one(), -K.gen()])
res = descend(K, phi)
print("  i0 =", res.i0, " psi =", res.psi)
print()

print("Characteristic 2 (K = F4 over F2): odd Witt index forces a")
print("nondegenerate-but-not-nonsingular psi:")
F2 = FiniteField(2)
K4 = etale_quadratic(F2, (1, 1))
phi4 = QuadraticForm.binary(K4, K4.one(), K4.gen())
res4 = descend(K4, phi4)
cls = res4.psi.classify()
print("  i0 =", res4.i0, " psi =", res4.psi)
print("  nondegenerate:", cls.nondegenerate, " nonsingular:", cls.nonsingular)
