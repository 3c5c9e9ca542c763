"""Transfer of quadratic forms along K/F and the constructive descent.

The transfer of a K-form phi along the canonical functional s (s(1) = 0,
s(w) = 1) is the F-form s(phi(x)) on the restriction of scalars.  The
descent algorithm extracts, from a nonsingular phi over K, an F-form psi
with dim psi equal to the Witt index of the transfer and psi_K embedded
in phi; it follows the inductive proof step by step and logs each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import AlgebraError, InternalContradiction, SplitK
from .forms import QuadraticForm, hyperbolic_partner, isotropic_spanning_set, solve_polar_equal_one
from .isotropy import witt_decompose
from .search import DEFAULT_HEIGHT


def transfer(K, phi):
    """s_* phi over F; the F-basis is (b_0, w b_0, b_1, w b_1, ...).

    Vectors move between phi's space and the transfer's with
    K.unrealify_vec and K.realify_vec.
    """
    if K.kind != "field":
        raise SplitK("transfer is not defined over the split algebra")
    if phi.field is not K:
        raise AlgebraError("form is not defined over the extension field")
    F = K.base
    lifts = [K.unrealify_vec(e) for e in linalg.units(F, 2 * phi.n)]
    return QuadraticForm.from_map(F, lambda v: K.s(phi.evaluate(v)), lifts)


@dataclass
class DescentResult:
    psi: QuadraticForm
    embedding: tuple  # K-vectors, images of the psi basis inside phi's space
    i0: int
    steps: list = dc_field(default_factory=list)


def descend(K, phi, height=DEFAULT_HEIGHT):
    """Extract psi over F with dim psi = i0(s_* phi) and psi_K inside phi.

    Follows the inductive proof: each round splits an F-rational block of
    phi off the first isotropic vector of its transfer's Witt decomposition
    over F, and recurses on the orthogonal complement.
    """
    if K.kind != "field":
        raise SplitK("descent needs a quadratic field extension")
    if phi.field is not K:
        raise AlgebraError("form is not defined over the extension field")
    if not phi.classify().nonsingular:
        raise AlgebraError("descent requires a nonsingular form")
    steps = []
    i0, psi, embedding = _descend(K, phi, height, steps, None)
    result = DescentResult(psi=psi, embedding=tuple(embedding), i0=i0, steps=steps)
    _verify_descent(K, phi, result)
    return result


def _descend(K, phi, height, steps, expected_i0):
    """(i0, psi, embedding) for a nonsingular phi, logging each round in steps.

    Each round decomposes the transfer T of its form once and checks T's
    Witt index i0 against expected_i0, the index the previous round left
    (None in the first).  u, the first isotropic vector of T, has phi(u) in
    F.  phi(u) = 0 splits off a hyperbolic plane over K, which transfers to
    H _|_ H; otherwise u gives the block <phi(u)> when i0 = 1, and the block
    of u and its isotropic_plane_partner w when i0 >= 2.  In characteristic
    not 2 that block may be singular; phi vanishes at its radical vector,
    an F-combination of the K-independent u and w, which then splits off a
    hyperbolic plane.  The embedding vectors live in phi's own coordinates.
    """
    F = K.base
    T = transfer(K, phi)
    wd = witt_decompose(T, height=height)
    i0 = wd.witt_index
    if expected_i0 is not None and i0 != expected_i0:
        raise InternalContradiction("Witt index did not drop by two per split plane")
    if i0 == 0:
        return i0, QuadraticForm.zero_form(F, 0), []
    u = K.unrealify_vec(wd.pairs[0][0])
    cu_F = K.in_base(phi.evaluate(u))
    if cu_F is None:
        raise InternalContradiction("phi(u) must lie in F for an isotropic transfer vector")
    if F.is_zero(cu_F):
        block = None
    elif i0 == 1:
        steps.append({"round": "dim-1", "u": u})
        return i0, QuadraticForm.diagonal(F, [cu_F]), [u]
    else:
        v, w_K = isotropic_plane_partner(K, phi, T, wd)
        mu_F = K.in_base(phi.polar(u, w_K))
        cw_F = K.in_base(phi.evaluate(w_K))
        if mu_F is None or cw_F is None or F.is_zero(mu_F):
            raise InternalContradiction("descent invariants failed for the chosen w")
        if linalg.rank([u, w_K], K, phi.n) != 2:
            raise InternalContradiction("u and w are K-dependent")
        block = QuadraticForm(F, [[cu_F, mu_F], [F.zero(), cw_F]])
        rad = block.classify().rad_basis
        if rad:
            a, b = (K.from_base(c) for c in rad[0])
            u, block = tuple(a * x + b * y for x, y in zip(u, w_K)), None
        else:
            steps.append({"round": "dim-2", "u": u, "v": v, "lambda": K.gen(), "w": w_K})
            pair = [u, w_K]
    if block is None:
        zeta = hyperbolic_partner(phi, u)
        if zeta is None:
            raise InternalContradiction("isotropic vector in the polar radical of a nonsingular form")
        steps.append({"round": "hyperbolic-plane", "u": u, "v": zeta})
        block, pair = QuadraticForm.hyperbolic_plane(F), [u, zeta]

    # orthogonal complement of the round's plane inside phi
    comp = phi.orthogonal_complement(pair)
    _, psi_rest, emb_rest = _descend(K, phi.restrict(comp), height, steps, i0 - 2)
    embedding = pair + [linalg.combine(vec, comp, K, phi.n) for vec in emb_rest]
    return i0, block.orthogonal_sum(psi_rest), embedding


def isotropic_plane_partner(K, phi, T, wd):
    """(v, w) for the first isotropic vector u of wd, T = s_* phi = H^m _|_ kernel.

    wd is T's Witt decomposition with m >= 2, and u its first isotropic
    vector as a K-vector of phi.  v is a dual vector of u, so u and w*v span
    a hyperbolic plane of T (w the generator of K), whose T-orthogonal
    complement W holds the answer.  With z = w*v - T(w*v) u, the map
    y -> y - b_T(y, z) u sends vectors T-orthogonal to u into W and keeps T,
    so the images of wd's later pairs and kernel are a basis of W on which
    T is H^(m-1) _|_ kernel, isotropic in its first vector.  w is an
    isotropic vector of W with polar(u, w) != 0: u and w span a totally
    isotropic plane of T, so phi(u), phi(w) and polar(u, w) lie in F.  W is
    not the realified polar complement of u, because v is K-independent of
    u; so one vector of its isotropic spanning set pairs with u.
    """
    F = K.base
    u_push = wd.pairs[0][0]
    u = K.unrealify_vec(u_push)
    v = _dual_vector(phi, u)
    lamv_push = K.realify_vec(tuple(K.gen() * c for c in v))
    if T.polar(u_push, lamv_push) != F.one() or not F.is_zero(T.evaluate(u_push)):
        raise InternalContradiction("U block is not hyperbolic for the transfer")
    t = T.evaluate(lamv_push)
    z = tuple(a - t * b for a, b in zip(lamv_push, u_push))
    later = [y for pair in wd.pairs[1:] for y in pair] + list(wd.kernel_basis)
    Wb = [tuple(a - T.polar(y, z) * b for a, b in zip(y, u_push)) for y in later]
    for cand in isotropic_spanning_set(T.restrict(Wb), linalg.units(F, len(Wb))[0]):
        w = K.unrealify_vec(linalg.combine(cand, Wb, F, T.n))
        if phi.polar(u, w):
            return v, w
    raise InternalContradiction("no isotropic vector of W pairs with u")


def _dual_vector(phi, u):
    """v with polar(u, v) = 1, chosen K-independent of u when possible."""
    K = phi.field
    n = phi.n
    v = solve_polar_equal_one(phi, u)
    if v is None:
        raise InternalContradiction("nonsingular form with a degenerate vector")
    if n >= 2 and linalg.rank([u, v], K, n) < 2:
        for y in phi.orthogonal_complement([u]):
            cand = tuple(a + b for a, b in zip(v, y))
            if linalg.rank([u, cand], K, n) == 2:
                return cand
        raise InternalContradiction("could not find an independent dual vector")
    return v


def _verify_descent(K, phi, result):
    psi = result.psi
    emb = result.embedding
    if psi.n != result.i0:
        raise InternalContradiction("dim psi != Witt index of the transfer")
    if not psi.classify().nondegenerate:
        raise InternalContradiction("descent produced a degenerate form")
    if psi.n and linalg.rank(list(emb), K, phi.n) != psi.n:
        raise InternalContradiction("embedding is not injective")
    if phi.restrict(emb) != psi.base_change(K):
        raise InternalContradiction("embedding is not an isometry")


def remark1_check(K, phi, height=DEFAULT_HEIGHT):
    """When s_* phi is hyperbolic, phi is defined over F: check it.

    Runs the descent, whose own checks give dim psi = i0 with an injective
    isometric embedding of psi_K into phi; i0 = dim phi makes that
    embedding bijective, an isometry of phi with psi_K.
    """
    if descend(K, phi, height=height).i0 != phi.n:
        raise AlgebraError("transfer is not hyperbolic")
    return True
