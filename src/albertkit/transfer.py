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
from .forms import QuadraticForm, isotropic_spanning_set, solve_polar_equal_one
from .isotropy import isotropy, witt_decompose
from .search import DEFAULT_HEIGHT


def transfer(ext, phi):
    """s_* phi over F; the F-basis is (b_0, w b_0, b_1, w b_1, ...).

    Vectors move between phi's space and the transfer's with
    ext.unrealify_vec and ext.realify_vec.
    """
    if ext.kind != "field":
        raise SplitK("transfer is not defined over the split algebra")
    K = ext.ring
    if phi.field != K:
        raise AlgebraError("form is not defined over the extension field")
    F = ext.base
    lifts = [ext.unrealify_vec(e) for e in linalg.units(F, 2 * phi.n)]
    return QuadraticForm.from_map(F, lambda v: ext.s(phi.evaluate(v)), lifts)


@dataclass
class DescentResult:
    psi: QuadraticForm
    embedding: tuple  # K-vectors, images of the psi basis inside phi's space
    i0: int
    steps: list = dc_field(default_factory=list)


def descend(ext, phi, height=DEFAULT_HEIGHT):
    """Extract psi over F with dim psi = i0(s_* phi) and psi_K inside phi.

    Follows the inductive proof: strip the anisotropic part, split a
    two-dimensional F-rational subform per round using an isotropic vector
    of the transfer, and recurse on the orthogonal complement.
    """
    if ext.kind != "field":
        raise SplitK("descent needs a quadratic field extension")
    K = ext.ring
    F = ext.base
    if phi.field != K:
        raise AlgebraError("form is not defined over the extension field")
    cls = phi.classify()
    if not cls.nonsingular:
        raise AlgebraError("descent requires a nonsingular form")
    steps = []

    # anisotropic part of phi over K
    wd_K = witt_decompose(phi, height=height)
    aniso_basis = list(wd_K.kernel_basis)
    phi_an = wd_K.kernel

    psi_an, emb_an_local = _descend_anisotropic(ext, phi_an, height, steps)
    # map the embedding back into phi's ambient coordinates
    embedding = [linalg.combine(v, aniso_basis, K, phi.n) for v in emb_an_local]
    psi = psi_an
    for (u, v) in wd_K.pairs:
        block = QuadraticForm.hyperbolic_plane(F)
        psi = psi.orthogonal_sum(block) if psi.n else block
        embedding.append(u)
        embedding.append(v)
        steps.append({"round": "hyperbolic-plane", "u": u, "v": v})

    i0 = witt_decompose(transfer(ext, phi), height=height).witt_index
    result = DescentResult(psi=psi, embedding=tuple(embedding), i0=i0, steps=steps)
    _verify_descent(ext, phi, result)
    return result


def _descend_anisotropic(ext, phi, height, steps):
    """Descent for an anisotropic nonsingular form; returns (psi, embedding).

    The embedding vectors live in phi's own coordinate space.
    """
    K = ext.ring
    F = ext.base
    n = phi.n
    if n == 0:
        return QuadraticForm.zero_form(F, 0), []
    T = transfer(ext, phi)
    wd = witt_decompose(T, height=height)
    i0 = wd.witt_index
    if i0 == 0:
        return QuadraticForm.zero_form(F, 0), []
    u_F = wd.pairs[0][0]
    u = ext.unrealify_vec(u_F)
    cu = phi.evaluate(u)
    cu_F = ext.in_base(cu)
    if cu_F is None:
        raise InternalContradiction("phi(u) must lie in F for an isotropic transfer vector")
    if F.is_zero(cu_F):
        raise InternalContradiction("anisotropic form vanished on a nonzero vector")
    if i0 == 1:
        psi = QuadraticForm.diagonal(F, [cu_F])
        steps.append({"round": "dim-1", "u": u})
        return psi, [u]

    # find v with polar(u, v) = 1, K-independent of u
    v = _dual_vector(phi, u)
    lam = ext.w
    lam_v = tuple(lam * c for c in v)
    # orthogonal complement W of span_F(u, lam*v) under the transfer form
    u_push = ext.realify_vec(u)
    lamv_push = ext.realify_vec(lam_v)
    if T.polar(u_push, lamv_push) != F.one() or not F.is_zero(T.evaluate(u_push)):
        raise InternalContradiction("U block is not hyperbolic for the transfer")
    Wb = T.orthogonal_complement([u_push, lamv_push])
    T_W = T.restrict(Wb)
    verdict = isotropy(T_W, height=height)
    if not verdict.is_isotropic:
        raise InternalContradiction("restricted transfer must be isotropic when i0 >= 2")
    spanning = isotropic_spanning_set(T_W, verdict.witness)
    w_K = None
    for cand in spanning:
        amb = linalg.combine(cand, Wb, F, 2 * n)
        kv = ext.unrealify_vec(amb)
        if phi.polar(u, kv):
            w_K = kv
            break
    if w_K is None:
        raise InternalContradiction("no isotropic vector of W pairs with u")
    mu = phi.polar(u, w_K)
    mu_F = ext.in_base(mu)
    cw_F = ext.in_base(phi.evaluate(w_K))
    if mu_F is None or cw_F is None or F.is_zero(mu_F):
        raise InternalContradiction("descent invariants failed for the chosen w")
    if linalg.rank([u, w_K], K, n) != 2:
        raise InternalContradiction("u and w are K-dependent")
    psi1 = QuadraticForm(F, [[cu_F, mu_F], [F.zero(), cw_F]])
    if not psi1.classify().nonsingular:
        raise InternalContradiction("two-dimensional block is singular")
    steps.append({"round": "dim-2", "u": u, "v": v, "lambda": lam, "w": w_K})

    # orthogonal complement of span_K(u, w) inside phi
    comp = phi.orthogonal_complement([u, w_K])
    phi_comp = phi.restrict(comp)
    T_comp_i0 = witt_decompose(transfer(ext, phi_comp), height=height).witt_index
    if T_comp_i0 != i0 - 2:
        raise InternalContradiction("Witt index did not drop by two")
    psi_rest, emb_rest = _descend_anisotropic(ext, phi_comp, height, steps)
    psi = psi1.orthogonal_sum(psi_rest) if psi_rest.n else psi1
    embedding = [u, w_K] + [linalg.combine(vec, comp, K, n) for vec in emb_rest]
    return psi, embedding


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


def _verify_descent(ext, phi, result):
    K = ext.ring
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


def remark1_check(ext, phi, height=DEFAULT_HEIGHT):
    """When s_* phi is hyperbolic, phi is defined over F: check it.

    Runs the descent, asserts dim psi = dim phi with a bijective embedding,
    and returns whether phi is isometric to psi_K via that embedding.
    """
    T = transfer(ext, phi)
    wd = witt_decompose(T, height=height)
    if wd.witt_index * 2 != T.n:
        raise AlgebraError("transfer is not hyperbolic")
    res = descend(ext, phi, height=height)
    if res.psi.n != phi.n:
        return False
    K = ext.ring
    if linalg.rank(list(res.embedding), K, phi.n) != phi.n:
        return False
    # embedding Gram identity was already verified; bijectivity makes it
    # an isometry of phi with psi_K
    return True
