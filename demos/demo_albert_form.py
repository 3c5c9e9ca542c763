#!/usr/bin/env python3
"""The corestriction of a quaternion algebra and its explicit Albert form.

For Q over K = Q(sqrt2) the switch map on (conjugate Q) tensor Q has a
16-dimensional fixed algebra; the space V^s of symmetrized tensors carries
a 6-dimensional quadratic form phi with f(xi)^2 = phi(xi) for the explicit
2x2-matrix map f, giving checkable zero-divisor certificates.
"""

from albertkit import (
    QQ,
    QuaternionAlgebra,
    albert_form,
    arf_trivial,
    build_corestriction,
    clifford_iso_check,
    cor_is_division,
    etale_quadratic,
    f_map_check,
    generator_to_isotropic,
    isotropic_to_generator,
)
from albertkit.corestriction import natural_map_bijective

K = etale_quadratic(QQ, (0, 2))
Q = QuaternionAlgebra(K, K.zero(), K.from_int(-1), K.from_int(-1))  # Hamilton over K

print("Fixed points of the switch map:")
cor = build_corestriction(K, Q)
print("  dim_F =", cor.dim, " natural map Cor (x) K -> tensor square bijective:", natural_map_bijective(cor))
print()

ad = albert_form(K, Q)
print("Albert form on V^s (basis from y in {i, sqrt2 i, z, sqrt2 z, iz, sqrt2 iz}):")
for row in ad.form.upper:
    print("   ", [str(c) for c in row])
trivial, cert = arf_trivial(ad.form)
print("  nonsingular:", ad.form.classify().nonsingular, " Arf trivial:", trivial)
print()

print("The central identity f(xi)^2 = phi(xi):")
rep = f_map_check(ad, cor, n_random=100)
print("  checked on", rep["basis_checked"], "basis vectors and", rep["random_checked"], "random ones")
iso = clifford_iso_check(ad, cor)
print("  Clifford image rank:", iso["rank"], "(= dim M_2(Cor): the induced map is bijective)")
print()

print("Division verdict with certificates:")
div = cor_is_division(ad)
print("  corestriction not division:", div.not_division, " [%s]" % div.method)
print("  isotropic witness coords:", [str(c) for c in div.witness_coords])
gen = isotropic_to_generator(ad, div.witness_coords)
print("  converted generator kappa*y =", gen.kappa_y, " (minimal polynomial x^2 - %sx + %s)"
      % (gen.trd, gen.nrd))
back = generator_to_isotropic(ad, gen.kappa_y)
print("  round trip back to an isotropic vector:", [str(c) for c in back])
