"""Corestriction of a quaternion algebra and its explicit Albert form.

The conjugate algebra is tensored with the original over K; the switch
map s(gamma(x) (x) y) = gamma(y) (x) x exchanges the factors, and the
corestriction is its fixed F-algebra, on the basis e_rr and c e_rs +
gamma(c) e_sr (c = 1, w; r > s).  V^s is spanned by the xi = gamma(y) (x)
1 + 1 (x) y of six written-down y with T(Trd y) = 0.  The Albert form on
it is c * s(Nrd y), c = kappa (gamma(w) - w), since kappa (gamma(n) - n) =
c s(n) for n = a + b w: c times the transfer of the norm form.  Tests
check the trace condition, the switch invariance and the rank of the xi
over the acceptance batch, that the fixed basis spans the square, and
that its products are fixed and match Cor's structure constants.

The map f is defined on y: f(xi) = [[0, eta], [xi, 0]] with eta = kappa
(gamma(conj y) (x) 1 + 1 (x) y) = kappa (sigma (x) id)(xi) and xi =
gamma(y) (x) 1 + 1 (x) y.  f(xi)^2 = phi(xi) for every xi by the 21
relations of broken_relation, which a test checks on the acceptance
batch, so an isotropic xi is a zero-divisor certificate with no product
to multiply out.  Only build_corestriction builds a tensor square: the
one that Cor lives in, where the audits (cor_f_basis) build f.

Every 2x2 matrix the audits form is a product of f's, so it is even,
diag(a, b), or odd, [[0, a], [b, 0]], and is stored as the pair (a, b):
f(xi) is (eta, xi).  Its parity is known from the context.  One rule,
f_product, multiplies: f(xi) (a, b) = (eta b, xi a) in both cases.

Q, the tensor square, Cor and Q1 (x) Q2 are one model, the Algebra of
algebra.py: coordinate tuples over a scalar ring, with the sum, scaling,
equality, printing and the structure-constant product written once.  The
three 16-dimensional algebras have TensorElem elements.  The tensor square
(over K) and Q1 (x) Q2 (over F) are TensorProductAlgebra: they multiply
factorwise through the structure constants of their quaternion factors and
build no 16x16 table.  The corestriction is a StructureAlgebra over F,
whose structure constants are data for Algebra.product, for the Clifford
rank and for `cor --instance inst.json --cmd build --structure`.  The
audits of f and of the Clifford map compute in M_2(Cor) over F, on pairs.

Q carries K: K is Q.ring, F is Q.ring.base and kappa is Q.ring.kappa().
build_corestriction(K, Q) and albert_form(K, Q) are the entry points that
take K beside Q, and they check that the two agree; everything else, the
AlbertData they return included, reads K, F and kappa off Q.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg, search
from .algebra import Algebra, AlgebraElem
from .errors import (
    AlgebraError,
    IdentityFails,
    InternalContradiction,
    InvalidWitness,
)
from .forms import QuadraticForm, hyperbolic_partner, line_point
from .isotropy import isotropy
from .quaternion import QuaternionAlgebra, norm_form, validate_disjoint_witness


class TensorElem(AlgebraElem):
    """Element of a 16-dimensional algebra: the tensor square, Q1 (x) Q2 or Cor."""

    __slots__ = ()
    context = "tensor-algebra"
    __mul__ = AlgebraElem.__mul__  # its own entry: perfbench/tracer.py wraps it by name


class StructureAlgebra(Algebra):
    """A 16-dimensional algebra by sparse structure constants (see Algebra),
    for Cor and clifford's Cor_E, whose tables are data.  Cor sets its table
    after construction."""

    dim, element = 16, TensorElem

    def __init__(self, ring, structure, unit_coords):
        super().__init__(ring, unit_coords)
        self.structure = structure


class TensorProductAlgebra(Algebra):
    """Q1 (x) Q2 over `ring` on the basis e_{4i+j} = q_i (x) q_j, with no 16x16 table.

    (q_i (x) q_j)(q_k (x) q_l) = sum over m, n of twist(T1[i][k][m])
    T2[j][l][n] q_m (x) q_n, for T1 and T2 the structure constants of the
    factors; `twist` is gamma on the conjugate factor of the tensor square.
    """

    label = "tensor-product"
    dim, element = 16, TensorElem

    def __init__(self, ring, Q1, Q2, twist=None):
        super().__init__(ring, (ring.one(),) + (ring.zero(),) * 15)
        first = Q1.structure
        if twist is not None:
            first = [[[(m, twist(c)) for m, c in cs] for cs in row] for row in first]
        self._tables = (first, Q2.structure)

    def product(self, x, y):
        R = self.ring
        t1, t2 = self._tables
        acc = [R.zero()] * 16
        ys = [(divmod(idx, 4), b) for idx, b in enumerate(y) if not R.is_zero(b)]
        for idx, a in enumerate(x):
            if R.is_zero(a):
                continue
            i, j = divmod(idx, 4)
            for (k, l), b in ys:
                ab = a * b
                second = t2[j][l]
                for m, c1 in t1[i][k]:
                    abc = ab * c1
                    for n, c2 in second:
                        acc[4 * m + n] = acc[4 * m + n] + abc * c2
        return tuple(acc)


class TensorSquareAlgebra(TensorProductAlgebra):
    """(conjugate Q) tensor_K Q with its switch map; K is Q.ring."""

    def __init__(self, Q):
        super().__init__(Q.ring, Q, Q, Q.ring.conj)
        self.Q = Q

    def from_base(self, c):
        return self.ring.from_base(c)

    def basis_name(self, idx):
        return "g%s(x)%s" % divmod(idx, 4)

    def gx_tensor(self, x, y):
        """The pure tensor (conjugate x) (x) y."""
        K = self.ring
        conj = K.conj
        coords = [K.zero()] * 16
        for i in range(4):
            gx = conj(x.coords[i])
            if K.is_zero(gx):
                continue
            for j in range(4):
                if not K.is_zero(y.coords[j]):
                    coords[4 * i + j] = coords[4 * i + j] + gx * y.coords[j]
        return self.elem(coords)

    def switch(self, elem):
        """s(gamma(x) (x) y) = gamma(y) (x) x, extended gamma-semilinearly."""
        K = self.ring
        conj = K.conj
        coords = [K.zero()] * 16
        for idx, c in enumerate(elem.coords):
            if K.is_zero(c):
                continue
            i, j = divmod(idx, 4)
            coords[4 * j + i] = coords[4 * j + i] + conj(c)
        return self.elem(coords)

    def xi_of(self, y):
        """gamma(y) (x) 1 + 1 (x) y for a quaternion element y."""
        one = self.Q.one()
        return self.gx_tensor(y, one) + self.gx_tensor(one, y)


# (4r + s, 4s + r) for r >= s, in the order of Cor's fixed basis
_FIXED = tuple((4 * r + s, 4 * s + r) for r in range(4) for s in range(r + 1))


class CorestrictionAlgebra(StructureAlgebra):
    """The switch-fixed F-subalgebra of the tensor square, by structure
    constants; build_corestriction sets them by `fixed_coords` and the
    unit by `express`."""

    label = "fixed-points"

    def __init__(self, field, basis, tensor):
        super().__init__(field, None, None)
        self.basis = basis
        self.tensor = tensor

    def fixed_coords(self, elem):
        """Coordinates in the fixed basis of a tensor element known to be switch-fixed.

        A fixed x has x_sr = gamma(x_rs), so its coordinates are read off
        its K-entries: the F-part of x_rr, and both coordinates of x_rs =
        a + b w for r > s.  Nothing here checks that x is fixed.
        """
        to_pair = self.tensor.ring.to_pair
        out = []
        for p, q in _FIXED:
            a, b = to_pair(elem.coords[p])
            out += (a,) if p == q else (a, b)
        return tuple(out)

    def express(self, elem):
        """Coordinates of a tensor element in the fixed basis, or None when
        the element is not switch-fixed."""
        A = self.tensor
        if not (A.switch(elem) - elem).is_zero():
            return None
        return self.fixed_coords(elem)


def build_corestriction(K, Q):
    """Fixed points of the switch map, with structure constants over F.

    s(c e_rs) = gamma(c) e_sr for e_rs = gamma(q_r) (x) q_s, so the fixed
    basis is e_rr and c e_rs + gamma(c) e_sr for c = 1, w and r > s, taken
    at 4r + s in increasing order; nothing is solved.  The switch is a
    semilinear ring automorphism, so the product of two fixed basis
    elements is fixed and its coordinates are read off without a switch
    test (a test checks the closure and the table on the acceptance
    instances).  The unit comes from outside the products and is checked.
    K must be Q.ring.
    """
    _require_over(K, Q)
    A = TensorSquareAlgebra(Q)
    F = K.base
    basis = []
    for p, q in _FIXED:
        for c in (K.one(),) if p == q else (K.one(), K.gen()):
            coords = [K.zero()] * 16
            coords[p], coords[q] = c, K.conj(c)
            basis.append(A.elem(coords))
    cor = CorestrictionAlgebra(F, basis, A)
    # one object per distinct constant: the 256 products repeat a few dozen
    # values, and Cor's table is carried through both audits
    shared = {}
    structure = []
    for r in range(16):
        row = []
        for s in range(16):
            coords = cor.fixed_coords(basis[r] * basis[s])
            row.append(tuple((m, shared.setdefault(c, c)) for m, c in enumerate(coords) if not F.is_zero(c)))
        structure.append(tuple(row))
    cor.structure = tuple(structure)
    unit = cor.express(A.one())
    if unit is None:
        raise InternalContradiction("unit is not a fixed point")
    cor.unit_coords = unit
    return cor


def natural_map_bijective(cor):
    """Exact rank check: the fixed basis is K-linearly independent, so Cor (x) K
    is the tensor square.  Over F: the realified basis and its w-multiples
    have rank 32.  The basis is written down, so build_corestriction does
    not call this."""
    K = cor.tensor.ring
    w = K.gen()
    rows = [K.realify_vec(v) for b in cor.basis for v in (b.coords, tuple(w * c for c in b.coords))]
    return linalg.rank(rows, K.base, 32) == 32


# ---------------------------------------------------------------------------
# V^s and the Albert form
# ---------------------------------------------------------------------------


@dataclass
class AlbertData:
    """The Albert form of Q; K is Q.ring, F is Q.ring.base and kappa is Q.ring.kappa()."""

    Q: QuaternionAlgebra
    y_basis: tuple  # quaternion elements y_i; the xi_of(y_i) are a basis of V^s
    form: QuadraticForm  # the Albert form over F

    def y_from_coords(self, coords):
        K = self.Q.ring
        y = self.Q.zero()
        for c, yb in zip(coords, self.y_basis):
            if not K.base.is_zero(c):
                y = y + yb.scale(K.from_base(c))
        return y


def vs_space(Q):
    """Six y with T(Trd(y)) = 0 whose images xi = gamma(y) (x) 1 + 1 (x) y are a basis of V^s.

    The tensor map collapses the kappa line of the 7-dimensional space of
    such y.  In characteristic 2, kappa = 1 and Trd(y) = alpha y_1: the y
    are w, y1* e, z, w z, ez and w ez.  The trace condition, the rank of
    the xi and their switch invariance are checked by a test over the
    acceptance batch, not here.
    """
    K = Q.ring
    F = K.base
    z = Q.elem((K.zero(), K.zero(), K.one(), K.zero()))
    if F.char != 2:
        # canonical trace-zero pure part: e0 = e - alpha/2, z, e0*z
        e0 = Q.elem((-Q.alpha / K.from_int(2), K.one(), K.zero(), K.zero()))
        e0z = e0 * z
        if K.kind == "field":
            w = K.gen()
            return (e0, e0.scale(w), z, z.scale(w), e0z, e0z.scale(w))
        # componentwise: the Albert form becomes the block-diagonal sum
        # of the two pure norm forms, diagonal when alpha = 0
        eps1 = K.pair(F.one(), F.zero())
        eps2 = K.pair(F.zero(), F.one())
        return tuple(y.scale(eps) for eps in (eps1, eps2) for y in (e0, z, e0z))
    # y1* solves T(alpha y1*) = 0 with polynomial coordinates; 1 when T(alpha) = 0
    w = K.gen()
    t_alpha = K.trace_to_base(Q.alpha)
    y1 = K.one()
    if not F.is_zero(t_alpha):
        y1 = K.from_pair(*search._clear_denominators(F, (-K.trace_to_base(Q.alpha * w) / t_alpha, F.one())))
    ez = Q.elem((K.zero(), K.zero(), K.zero(), K.one()))
    y1e = Q.elem((K.zero(), y1, K.zero(), K.zero()))
    return (Q.one().scale(w), y1e, z, z.scale(w), ez, ez.scale(w))


def albert_form(K, Q):
    """The 6-dimensional Albert form c * s(Nrd y) on V^s over F, with its basis data.

    kappa (gamma(n) - n) = s(n) c for n = a + b w, with c = kappa (gamma(w)
    - w): 1 for split K, alpha in characteristic 2 and -(alpha^2 + 4
    beta)/2 otherwise.  So the form, c times the transfer s_* of Nrd on the
    y_i, is c s of each entry of norm_form(Q).gram(y_i).  K must be Q.ring.
    """
    _require_over(K, Q)
    ys = vs_space(Q)
    w = K.gen()
    c = K.in_base(K.kappa() * (K.conj(w) - w))
    gram = norm_form(Q).gram([y.coords for y in ys])
    form = QuadraticForm(K.base, [[c * K.s(n) for n in row] for row in gram.upper])
    if not form.classify().nonsingular:
        raise InternalContradiction("Albert form is singular")
    return AlbertData(Q, ys, form)


def _require_over(K, Q):
    """The check of the two entry points that take K beside Q: they must agree."""
    if Q.ring is not K:
        raise AlgebraError("quaternion algebra is not defined over the extension")


# ---------------------------------------------------------------------------
# the f map into M_2 of the tensor square and into M_2(Cor), on pairs
# ---------------------------------------------------------------------------


def f_pair(tensor, y):
    """f(xi) = [[0, eta], [xi, 0]] as the pair (eta, xi), for xi = xi_of(y) in `tensor`.

    eta = kappa (sigma (x) id)(xi), with kappa = K.kappa(), and sigma (x) id
    sends gamma(y) (x) 1 + 1 (x) y to gamma(conj y) (x) 1 + 1 (x) y.
    """
    xi = tensor.xi_of(y)
    eta = (xi + tensor.gx_tensor(y.conjugate() - y, tensor.Q.one())).scale(tensor.ring.kappa())
    return eta, xi


def f_product(f, pair):
    """f(xi) times the even or odd matrix `pair`, as a pair of the other parity.

    f(xi) = (eta, xi) times diag(a, b) is [[0, eta b], [xi a, 0]], and times
    [[0, a], [b, 0]] it is diag(eta b, xi a): (eta b, xi a) both ways.
    """
    eta, xi = f
    a, b = pair
    return eta * b, xi * a


def _is_scalar(alg, pair, value_in_F):
    """Whether the even `pair` is value_in_F times the identity."""
    scal = alg.scalar(alg.from_base(value_in_F))
    return all((x - scal).is_zero() for x in pair)


def cor_f_basis(ad, cor):
    """The six f(xi_i), xi_i = xi_of(y_i), as pairs (eta_i, xi_i) over Cor, or None.

    f is built in Cor's own tensor square.  Expressing the entries xi_i and
    kappa (sigma (x) id)(xi_i) in Cor's fixed basis is the check that f maps
    V^s into M_2(Cor): None when one lies outside Cor.  Every product of f
    images then lies in M_2(Cor) as well, because the fixed points of the
    switch, a ring automorphism, are closed under products.
    """
    out = []
    for y in ad.y_basis:
        eta, xi = f_pair(cor.tensor, y)
        cx, ce = cor.express(xi), cor.express(eta)
        if cx is None or ce is None:
            return None
        out.append((cor.elem(ce), cor.elem(cx)))
    return out


def broken_relation(form, cor, fs):
    """The first defining relation of C(form) that the f(xi_i) break, or None.

    The 21 relations are the six squares f(xi_i)^2 = phi(xi_i) and, for
    i < j, f(xi_i) f(xi_j) + f(xi_j) f(xi_i) = b(xi_i, xi_j).  f(xi)^2 -
    phi(xi) is a quadratic map of the coordinates of xi, in every
    characteristic, so it vanishes everywhere exactly when it vanishes on
    the basis and its polar on the 15 basis pairs.  By the universal
    property of the Clifford algebra the same relations make f induce a map
    C(form) -> M_2(Cor) (Knus, Merkurjev, Rost, Tignol, The Book of
    Involutions, section 8).
    """
    for i, f in enumerate(fs):
        if not _is_scalar(cor, f_product(f, f), form.upper[i][i]):
            return "f(xi)^2 != phi(xi) on basis vector %d" % i
    B = form.polar_matrix()
    for i, j in itertools.combinations(range(len(fs)), 2):
        anti = tuple(x + y for x, y in zip(f_product(fs[i], fs[j]), f_product(fs[j], fs[i])))
        if not _is_scalar(cor, anti, B[i][j]):
            return "f(xi_i) f(xi_j) + f(xi_j) f(xi_i) != b(xi_i, xi_j) for i, j = %d, %d" % (i, j)
    return None


def f_map_check(ad, cor, n_random=0, seed=20210513):
    """Verify f(xi)^2 = phi(xi) in M_2(Cor) for every xi in V^s.

    The f(xi_i) are first expressed in Cor (see cor_f_basis), which checks
    that f lands in M_2(Cor).  The 21 relations of broken_relation then
    prove the identity; `n_random` random vectors, f of each the F-linear
    combination of the f(xi_i), are an extra check.  The identities are
    checked with Cor's structure constants over F; Cor is a subalgebra of
    the tensor square with the same unit, so they hold in Cor exactly when
    they hold there.  Raises IdentityFails on violation.
    """
    F = ad.Q.ring.base
    fs = cor_f_basis(ad, cor)
    if fs is None:
        raise IdentityFails("f entry does not lie in the fixed algebra")
    broken = broken_relation(ad.form, cor, fs)
    if broken is not None:
        raise IdentityFails(broken)
    report = {"basis_checked": 6, "relations_checked": 21, "random_checked": 0, "entries_in_cor": True}
    etas = [eta.coords for eta, _ in fs]
    xis = [xi.coords for _, xi in fs]
    rng = random.Random(seed)
    for _ in range(n_random):
        coords = tuple(F.from_int(rng.randint(-3, 3)) for _ in range(6))
        f = cor.elem(linalg.combine(coords, etas, F, 16)), cor.elem(linalg.combine(coords, xis, F, 16))
        if not _is_scalar(cor, f_product(f, f), ad.form.evaluate(coords)):
            raise IdentityFails("f(xi)^2 != phi(xi) on a random vector")
        report["random_checked"] += 1
    return report


# ---------------------------------------------------------------------------
# division verdict and witness conversions
# ---------------------------------------------------------------------------


@dataclass
class DivisionVerdict:
    not_division: bool | None
    method: str
    witness_coords: tuple | None = None

    @property
    def decided(self):
        return self.not_division is not None


def cor_is_division(ad, height=search.DEFAULT_HEIGHT):
    """Not division iff the Albert form is isotropic (certified both ways).

    An isotropic xi is the witness; f(xi) is then a nonzero nilpotent by
    the 21 relations of broken_relation, and is not multiplied out.
    """
    verdict = isotropy(ad.form, height=height)
    if verdict.is_isotropic:
        return DivisionVerdict(True, verdict.method, verdict.witness)
    if verdict.is_anisotropic:
        return DivisionVerdict(False, verdict.method)
    return DivisionVerdict(None, verdict.method)


@dataclass
class GeneratorWitness:
    kappa_y: object
    y: object
    coords: tuple
    trd: object
    nrd: object


def isotropic_to_generator(ad, witness_coords):
    """Isotropic Albert vector -> quadratic etale subalgebra generator.

    The vector presents y up to the kappa line, and kappa*(y + shift) is
    the generator once validate_disjoint_witness accepts it.  The
    candidates of _hyperbolic_candidates provably hold one, so using them
    up is an InternalContradiction.

    Characteristic 2: no shift changes the trace, so none is made, and
    Trd != 0 already makes kappa*y etale and outside K.1.  Trd is linear
    on V^s, which u, zeta and comp span, and the image of comp[i] has trace
    Trd(comp[i]) + Trd(u) - q(comp[i]) Trd(zeta), so u, zeta or a comp[i]
    image has Trd != 0 unless Trd vanishes on V^s.

    Other characteristics: the y are pure and the shift is kappa, so
    kappa*(y + kappa) has discriminant -4*kappa^2*Nrd(y) and qualifies
    exactly when Nrd(y) != 0 (for split K, Nrd(y) lies in F on the
    quadric, so both components are then nonzero).  P(x) = Nrd(y(x + u -
    q(x)*zeta)) has degree <= 4 in x, and it is not the zero polynomial:
    the good points form a nonempty open set of the irreducible quadric
    q = 0 in P^5 (over the algebraic closure K splits; take y = (y1, y1)
    with Nrd(y1) != 0), and x -> x + u - q(x)*zeta maps F^4 onto its
    chart b(zeta, .) = 1.  So P is nonzero somewhere on S^4 when |S| = 5
    (Alon, "Combinatorial Nullstellensatz", CPC 8 (1999), Lemma 2.1).
    Over a finite F, which may have fewer values, the theorem gives an
    etale generator, and generator_to_isotropic turns it into a good zero.
    """
    Q = ad.Q
    K = Q.ring
    F = K.base
    kappa = K.kappa()
    char2 = F.char == 2
    shift = Q.elem((K.zero() if char2 else kappa, K.zero(), K.zero(), K.zero()))
    for coords in _hyperbolic_candidates(ad.form, tuple(F.coerce(c) for c in witness_coords)):
        y = ad.y_from_coords(coords) + shift
        if char2 and K.is_zero(y.trd()):
            continue  # hopeless: etale needs Trd != 0 in characteristic 2
        if not F.is_zero(ad.form.evaluate(coords)):
            raise InternalContradiction("candidate is not isotropic")
        kappa_y = y.scale(kappa)
        try:
            data = validate_disjoint_witness(Q, kappa_y, etale_required=True)
        except InvalidWitness:
            continue
        return GeneratorWitness(kappa_y, y, coords, data["trd"], data["nrd"])
    raise InternalContradiction("no candidate is a generator")


def _hyperbolic_candidates(form, u):
    """u, zeta, the quadric images x + u - q(x)*zeta of a grid, then the zeros.

    zeta is u's hyperbolic partner (b(u, zeta) = 1, q(zeta) = 0) and x =
    sum c_i comp[i] on the complement of (u, zeta), for the nonzero c in
    S^4, S the first five values of scalar_candidates (0, 1, -1, 2, -2
    over Q): the unit vectors, their pairwise sums, then the rest in
    product order.  Over a finite field every zero of the form follows.
    """
    yield u
    zeta = hyperbolic_partner(form, u)
    if zeta is None:
        raise InternalContradiction("witness lies in the radical of the Albert form")
    yield zeta
    F = form.field
    comp = form.orthogonal_complement([u, zeta])[::-1]

    def image(c):
        x = linalg.combine(c, comp, F, 6)
        return line_point(form, zeta, tuple(a + b for a, b in zip(x, u)))

    first = linalg.units(F, 4)
    first += [tuple(a + b for a, b in zip(x, z)) for x, z in itertools.combinations(first, 2)]
    yield from map(image, first)
    values = list(itertools.islice(search.scalar_candidates(F, 2), 5))
    grid = itertools.product(values, repeat=4)
    yield from (image(c) for c in grid if c not in first and not linalg.is_zero_vec(c, F))
    if F.enumerable:
        yield from (v for _, v in search.zeros(form, (1,)))


def generator_to_isotropic(ad, x):
    """Condition-(i) witness x -> isotropic vector of the Albert form.

    Validates the witness, forms kappa*x, solves for its coordinates over
    y_basis and the kappa line (an 8x7 system over F), and asserts the
    Albert form vanishes at the first six.
    """
    Q = ad.Q
    K = Q.ring
    F = K.base
    validate_disjoint_witness(Q, x, etale_required=False)
    kappa = K.kappa()
    kx = x.scale(kappa)
    if not F.is_zero(K.trace_to_base(kx.trd())):
        raise InvalidWitness("kappa*x violates the trace condition")
    # the tensor map kills exactly the kappa line of the trace-condition
    # space, so kappa*x's first six coordinates over (y_basis, kappa)
    # are its image's coordinates over the xi_i
    cols = [K.realify_vec(y.coords) for y in ad.y_basis + (Q.one().scale(kappa),)]
    coords = linalg.solve(list(zip(*cols)), K.realify_vec(kx.coords), F)
    if coords is None:
        raise InternalContradiction("kappa*x image is outside V^s")
    coords = coords[:6]
    if not F.is_zero(ad.form.evaluate(coords)):
        raise InvalidWitness("image of kappa*x is not isotropic")
    return coords
