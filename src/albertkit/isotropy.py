"""Isotropy oracles and Witt decomposition.

Verdicts are complete over finite fields (enumeration) and over Q
(Hasse-Minkowski); over rational function fields the oracle combines a
Springer-type reduction at t, constant-coefficient reduction, and the
C2 bound (any quadratic form in five or more variables over F_q(t) is
isotropic); over real quadratic extensions of Q anisotropy can be
certified by definiteness under a real embedding.  Everything else is a
semi-decision by bounded search, reported as Unknown rather than guessed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, search
from .errors import (
    AlgebraError,
    InternalContradiction,
    NotApplicable,
    OracleIncomplete,
)
from .fields import (
    QQ,
    QuadraticFieldExtension,
    RatFuncElem,
    RationalField,
    RationalFunctionField,
)
from .forms import QuadraticForm, hyperbolic_split, orthogonalize, symplectic_pairs
from .search import projective_points  # noqa: F401  (perfbench/tracer.py counts it under this name)

ISOTROPIC = "isotropic"
ANISOTROPIC = "anisotropic"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class IsotropyVerdict:
    status: str
    witness: tuple | None
    method: str
    height: int | None = None

    @property
    def is_isotropic(self):
        return self.status == ISOTROPIC

    @property
    def is_anisotropic(self):
        return self.status == ANISOTROPIC

    @property
    def decided(self):
        return self.status != UNKNOWN


def isotropic_verdict(form, witness, method, height=None):
    f = form.field
    witness = tuple(f.coerce(c) for c in witness)
    if linalg.is_zero_vec(witness, f) or not f.is_zero(form.evaluate(witness)):
        raise InternalContradiction("bad isotropy witness from method %s" % method)
    return IsotropyVerdict(ISOTROPIC, witness, method, height)


def anisotropic_verdict(method):
    return IsotropyVerdict(ANISOTROPIC, None, method)


def unknown_verdict(height):
    return IsotropyVerdict(UNKNOWN, None, "budget", height)


# ---------------------------------------------------------------------------
# bounded search
# ---------------------------------------------------------------------------


def bounded_search(form, height=search.DEFAULT_HEIGHT):
    """Exhaustive projective search up to the height bound."""
    f = form.field
    if form.n == 0:
        return anisotropic_verdict("empty")
    hmax = 1 if f.enumerable else height
    for h, vec in search.zeros(form, range(1, hmax + 1)):
        return isotropic_verdict(form, vec, "search", h)
    if f.enumerable:
        return anisotropic_verdict("enumeration")
    return unknown_verdict(height)


def enumeration_isotropy(form):
    """Complete enumeration verdict over an enumerable field."""
    if not form.field.enumerable:
        raise AlgebraError("enumeration requires an enumerable field")
    return bounded_search(form, 1)


def structured_finite_isotropy(form):
    """Verdict over a finite field by scalar-level rules, no vector scans.

    Rules: a nonzero radical vector is a witness; regular forms in three
    or more variables are isotropic (Chevalley-Warning); binary regular
    forms reduce to a square-class or Artin-Schreier condition.  Returns
    the status only (no witness).
    """
    f = form.field
    if not f.enumerable:
        raise AlgebraError("structured rules need a finite field")
    if form.n == 0:
        return ANISOTROPIC
    cls = form.classify()
    if cls.rad_basis:
        return ISOTROPIC
    if form.n == 1:
        return ANISOTROPIC
    if form.n >= 3:
        return ISOTROPIC
    # regular binary forms
    if f.char != 2:
        basis = orthogonalize(form)
        return _square_test(form, basis, [form.evaluate(v) for v in basis]).status
    B = form.polar_matrix()
    if f.is_zero(B[0][1]):
        # totally singular regular binary form over a perfect field has a
        # nonzero radical vector, handled above; reaching here means regular
        # with zero polar and no radical zero, impossible over perfect fields
        raise InternalContradiction("unexpected singular binary form")
    (u, g), = symplectic_pairs(form)
    a, b = form.evaluate(u), form.evaluate(g)
    if f.is_zero(a) or f.is_zero(b):
        return ISOTROPIC
    # a x^2 + xy + b y^2 isotropic iff X^2 + X + ab has a root
    return ISOTROPIC if f.monic_quadratic_roots(f.one(), a * b) else ANISOTROPIC


# ---------------------------------------------------------------------------
# Hilbert symbols and Hasse-Minkowski over Q
# ---------------------------------------------------------------------------


def _factor_int(n):
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(x):
    """The squarefree integer representing the square class of x in Q*."""
    x = QQ.coerce(x)
    if x == 0:
        raise AlgebraError("zero has no square class")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    out = sign
    for p, e in _factor_int(n).items():
        if e % 2:
            out *= p
    return out


def _legendre(a, p):
    a %= p
    if a == 0:
        raise AlgebraError("legendre symbol of 0")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, place):
    """Local Hilbert symbol (a, b) at a prime or at 'inf'."""
    a = squarefree_part(a)
    b = squarefree_part(b)
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    beta = 0
    while b % p == 0:
        b //= p
        beta += 1
    if p != 2:
        out = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            out = -out
        if beta % 2:
            out *= _legendre(a, p)
        if alpha % 2:
            out *= _legendre(b, p)
        return out
    eps_a = ((a % 8) - 1) // 2 % 2
    eps_b = ((b % 8) - 1) // 2 % 2
    omega_a = (a * a - 1) // 8 % 2
    omega_b = (b * b - 1) // 8 % 2
    e = eps_a * eps_b + alpha * omega_b + beta * omega_a
    return -1 if e % 2 else 1


def _is_square_in_Qv(d, place):
    if place == "inf":
        return d > 0
    p = place
    v = 0
    while d % p == 0:
        d //= p
        v += 1
    if v % 2:
        return False
    if p == 2:
        return d % 8 == 1
    return _legendre(d, p) == 1


def _relevant_places(ds):
    places = {"inf", 2}
    for d in ds:
        for p in _factor_int(d):
            places.add(p)
    return ["inf"] + sorted(p for p in places if p != "inf")


def _hasse(d, place):
    """The Hasse invariant prod_{i<j} (d_i, d_j)_v of <d_1, ..., d_n> at v."""
    return math.prod(hilbert_symbol(a, b, place) for a, b in itertools.combinations(d, 2))


def _square_test(form, basis, vals):
    """Binary regular form with values d0, d1 on an orthogonal basis.

    Isotropic iff -d1/d0 is a square; with r^2 = -d1/d0 the witness is
    r b_0 + b_1.
    """
    r = form.field.sqrt_or_none(-vals[1] / vals[0])
    if r is None:
        return anisotropic_verdict("square-test")
    return isotropic_verdict(form, tuple(r * a + b for a, b in zip(basis[0], basis[1])), "square-test")


def hasse_minkowski(form):
    """Complete isotropy decision for a regular quadratic form over Q.

    Dimension >= 5 is decided purely by the real signature; dimensions 3
    and 4 by local conditions through Hilbert symbols; the witness for an
    isotropic form is found by iterative deepening (termination is
    guaranteed because existence is already proven).
    """
    f = form.field
    if not isinstance(f, RationalField):
        raise AlgebraError("hasse_minkowski expects a form over Q")
    n = form.n
    if n == 0:
        return anisotropic_verdict("empty")
    basis = orthogonalize(form)
    vals = [form.evaluate(v) for v in basis]
    if any(v == 0 for v in vals):
        raise AlgebraError("hasse_minkowski expects a regular form")
    if n == 1:
        return anisotropic_verdict("dim1")
    if n == 2:
        return _square_test(form, basis, vals)
    d = [squarefree_part(v) for v in vals]
    dd = math.prod(d)
    if n >= 5:
        pos = sum(1 for v in vals if v > 0)
        isotropic = 0 < pos < n
        method = "signature"
    elif n == 3:
        method = "hasse-minkowski"
        isotropic = all(_hasse(d, v) == hilbert_symbol(-1, -dd, v) for v in _relevant_places(d))
    else:  # n == 4: only places where the discriminant is a square can fail
        method = "hasse-minkowski"
        isotropic = all(
            _hasse(d, v) == hilbert_symbol(-1, -1, v)
            for v in _relevant_places(d)
            if _is_square_in_Qv(dd, v)
        )
    if not isotropic:
        return anisotropic_verdict(method)
    for h, vec in search.zeros(form, range(1, search.WITNESS_HEIGHT_CAP + 1)):
        return isotropic_verdict(form, vec, method + "+search", h)
    raise InternalContradiction("no witness found for a proven-isotropic form")


def rational_invariants(form):
    """(dim, signature, disc square class, hasse symbols) over Q."""
    vals = [form.evaluate(v) for v in orthogonalize(form)]
    d = [squarefree_part(v) for v in vals]
    pos = sum(1 for v in vals if v > 0)
    disc = squarefree_part(Fraction(math.prod(d)))
    hasse = {str(v): _hasse(d, v) for v in _relevant_places(d)}
    return {"dim": form.n, "positive": pos, "disc": disc, "hasse": hasse}


def rationally_equivalent(f1, f2):
    """Exact equivalence test for regular forms over Q via invariants.

    A place listed for one form only reads 1 for the other: it is an odd
    prime dividing none of that form's d_i, where every (d_i, d_j) is 1.
    """
    a, b = rational_invariants(f1), rational_invariants(f2)
    if a["dim"] != b["dim"] or a["positive"] != b["positive"] or a["disc"] != b["disc"]:
        return False
    return all(a["hasse"].get(v, 1) == b["hasse"].get(v, 1) for v in set(a["hasse"]) | set(b["hasse"]))


# ---------------------------------------------------------------------------
# definiteness certificates over ordered fields
# ---------------------------------------------------------------------------


def _leading_minors(B, field):
    out = []
    for k in range(1, len(B) + 1):
        out.append(linalg.det([row[:k] for row in B[:k]], field))
    return out


def definiteness_certificate(form):
    """True when the form is definite under some real embedding.

    Supports Q itself and real quadratic extensions of Q; definiteness
    proves anisotropy exactly.
    """
    f = form.field
    if form.n == 0:
        return False
    B = [list(r) for r in form.polar_matrix()]
    if isinstance(f, RationalField):
        embeddings = [lambda x: (x > 0) - (x < 0)]
    elif isinstance(f, QuadraticFieldExtension) and isinstance(f.base, RationalField):
        D = f.alpha * f.alpha + 4 * f.beta
        if D <= 0:
            return False
        embeddings = [
            lambda x: f.real_embedding_signs(x)[0],
            lambda x: f.real_embedding_signs(x)[1],
        ]
    else:
        return False
    minors = _leading_minors(B, f)
    for emb in embeddings:
        signs = [emb(m) for m in minors]
        if all(s == 1 for s in signs):
            return True
        if all(s == (-1) ** (k + 1) for k, s in enumerate(signs)):
            return True
    return False


# ---------------------------------------------------------------------------
# Springer reduction at t and other function-field rules
# ---------------------------------------------------------------------------


def _monomial_data(entry):
    """(coefficient, exponent) when a function-field entry is c * t^e.

    Only `springer_reduce` calls it, in residue characteristic != 2, so the
    polynomials are dense (packed ones are over F_2).
    """
    num, den = entry.num, entry.den
    for poly in (num, den):
        if poly.is_zero() or any(not poly.base.is_zero(c) for c in poly.coeffs[:-1]):
            return None
    return num.lead() / den.lead(), num.degree - den.degree


def springer_reduce(form, height=search.DEFAULT_HEIGHT):
    """Springer reduction at the place t for t-monomial diagonal forms.

    Requires residue characteristic != 2.  Complete for this shape: both
    residue forms anisotropic proves anisotropy over the function field,
    and a residue witness lifts exactly by valuation-parity scaling.
    """
    f = form.field
    if not isinstance(f, RationalFunctionField):
        raise NotApplicable("springer reduction needs a function field")
    if f.char == 2:
        raise NotApplicable("residue characteristic 2")
    for i in range(form.n):
        for j in range(i + 1, form.n):
            if not f.is_zero(form.upper[i][j]):
                raise NotApplicable("form is not diagonal")
    data = []
    for i in range(form.n):
        md = _monomial_data(form.upper[i][i])
        if md is None:
            raise NotApplicable("entry %d is not a t-monomial" % i)
        data.append(md)
    classes = {0: [], 1: []}
    for i, (c, e) in enumerate(data):
        classes[e % 2].append((i, c, e))
    base = f.base
    for parity in (0, 1):
        cls = classes[parity]
        if not cls:
            continue
        residue = QuadraticForm.diagonal(base, [c for (_, c, _) in cls])
        verdict = isotropy(residue, height=height)
        if verdict.status == UNKNOWN:
            raise NotApplicable("residue oracle undecided")
        if verdict.is_isotropic:
            vec = [f.zero()] * form.n
            t = f.gen()
            for (idx, _c, e), comp in zip(cls, verdict.witness):
                m = (e - parity) // 2
                lift = f.from_base(comp)
                if m > 0:
                    for _ in range(m):
                        lift = lift / t
                elif m < 0:
                    for _ in range(-m):
                        lift = lift * t
                vec[idx] = lift
            return isotropic_verdict(form, vec, "springer-lift")
    return anisotropic_verdict("springer")


def _constant_reduction(form):
    """Decide a constant-coefficient form over F(t) through F."""
    f = form.field
    base = f.base
    rows = []
    for row in form.upper:
        out = []
        for c in row:
            if c.den.degree != 0 or c.num.degree > 0:
                return None
            out.append(base.zero() if c.num.is_zero() else c.num.lead())
        rows.append(out)
    const_form = QuadraticForm(base, rows)
    verdict = isotropy(const_form)
    if verdict.is_isotropic:
        vec = tuple(f.from_base(c) for c in verdict.witness)
        return isotropic_verdict(form, vec, "constant-reduction")
    if verdict.is_anisotropic:
        return anisotropic_verdict("constant-reduction:" + verdict.method)
    return None


def _is_c2_function_field(field):
    if isinstance(field, RationalFunctionField) and field.base.enumerable:
        return True
    if isinstance(field, QuadraticFieldExtension):
        return _is_c2_function_field(field.base)
    return False


def _clear_denominators(f, vec):
    """vec scaled to polynomial entries over F(t); unchanged over other fields."""
    if not isinstance(f, RationalFunctionField):
        return vec
    lcm = None
    for c in vec:
        d = c.den
        if lcm is None:
            lcm = d
        elif d.degree > 0:
            g = lcm.gcd(d)
            lcm = lcm.divmod(g)[0] * d
    scale = RatFuncElem(f, lcm, f.one().den, reduce=False)
    return tuple(c * scale for c in vec)


def char2_isotropic_stream(form):
    """Isotropic vectors of a characteristic-2 form over F_q(t), streamed.

    The form splits into binary blocks along a symplectic basis (scaled to
    polynomial values); fixing small polynomial values on all but one block
    leaves the equation W^2 + m W = N, whose roots come from the one solver
    `f.monic_quadratic_roots` (exact, through `solve_additive_poly`), so
    witnesses of any degree are found.  Yields nothing when the polar form
    is degenerate.
    """
    f = form.field
    base = f.base
    try:
        raw_pairs = symplectic_pairs(form)
    except AlgebraError:
        return
    pairs = [
        (_clear_denominators(f, u), _clear_denominators(f, g)) for u, g in raw_pairs
    ]
    data = []
    for u, g in pairs:
        a = form.evaluate(u)
        b = form.evaluate(g)
        m = form.polar(u, g)
        if not a:
            yield tuple(u)
        if not b:
            yield tuple(g)
        data.append((a, b, m))
    k = len(pairs)
    tail_pool = list(search.polys(f, [base.zero(), base.one()], search.CHAR2_TAIL_HEIGHT))
    for s in range(k):
        a_s, b_s, m_s = data[s]
        if not a_s:
            continue
        u_s, g_s = pairs[s]
        others = [i for i in range(k) if i != s]
        other_vecs = [v for i in others for v in pairs[i]]
        tails = itertools.product(tail_pool, repeat=2 * len(others))
        for assign in search.Budget(search.CHAR2_TAILS).take(tails):
            c = f.zero()
            for idx, oi in enumerate(others):
                x_v, y_v = assign[2 * idx], assign[2 * idx + 1]
                a_o, b_o, m_o = data[oi]
                c = c + a_o * x_v * x_v + m_o * x_v * y_v + b_o * y_v * y_v
            vec = linalg.combine(assign, other_vecs, f, form.n)
            # a X^2 + m X + (b + c) = 0 with W = a X:  W^2 + m W = a(b + c)
            for w_val in f.monic_quadratic_roots(m_s, a_s * (b_s + c)):
                x_val = w_val / a_s
                yield tuple(p + x_val * q1 + q2 for p, q1, q2 in zip(vec, u_s, g_s))


def _char2_artin_schreier_search(form):
    """Verdict wrapper around the stream; complete for a single block."""
    try:
        k = len(symplectic_pairs(form))
    except AlgebraError:
        return None
    for wit in char2_isotropic_stream(form):
        return isotropic_verdict(form, wit, "char2-artin-schreier")
    if k == 1:
        return anisotropic_verdict("char2-artin-schreier")
    return None


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def isotropy(form, height=search.DEFAULT_HEIGHT):
    """Field-dispatched isotropy verdict; Unknown encodes incompleteness."""
    f = form.field
    if form.n == 0:
        return anisotropic_verdict("empty")
    cls = form.classify()
    if cls.rad_basis:
        return isotropic_verdict(form, cls.rad_basis[0], "radical")
    if f.enumerable:
        return bounded_search(form, 1)
    if isinstance(f, RationalField):
        return hasse_minkowski(form)
    if isinstance(f, QuadraticFieldExtension):
        if form.n == 1:
            return anisotropic_verdict("dim1")
        if isinstance(f.base, RationalField):
            if form.n == 2:
                basis = orthogonalize(form)
                return _square_test(form, basis, [form.evaluate(v) for v in basis])
            if definiteness_certificate(form):
                return anisotropic_verdict("definiteness")
        elif form.n >= 5 and _is_c2_function_field(f):
            for h, vec in search.zeros(form, range(1, max(height, 5) + 1)):
                return isotropic_verdict(form, vec, "tsen-lang", h)
            return unknown_verdict(height)
    elif isinstance(f, RationalFunctionField):
        const = _constant_reduction(form)
        if const is not None:
            return const
        try:
            return springer_reduce(form, height)
        except NotApplicable:
            pass
        if f.char == 2 and f.base.enumerable:
            if form.n == 2:
                verdict = _char2_artin_schreier_search(form)
                if verdict is not None:
                    return verdict
            # cheap low-degree scans, then the Artin-Schreier sweep
            for h, vec in search.zeros(form, search.scan_heights(f, form.n)):
                return isotropic_verdict(form, vec, "search", h)
            verdict = _char2_artin_schreier_search(form)
            if verdict is not None:
                return verdict
            return unknown_verdict(2)
        if form.n >= 5 and _is_c2_function_field(f):
            # isotropy is guaranteed (C2 field); keep the fallback scan short
            for h, vec in search.zeros(form, (1, 2)):
                return isotropic_verdict(form, vec, "tsen-lang", h)
            return unknown_verdict(2)
    return bounded_search(form, height)


# ---------------------------------------------------------------------------
# Witt decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WittDecomposition:
    radical_dim: int
    hyperbolic_count: int
    kernel: QuadraticForm
    basis: tuple  # rad vectors, then (u_i, v_i) pairs flattened, then kernel
    pairs: tuple
    kernel_basis: tuple
    radical_basis: tuple

    @property
    def witt_index(self):
        return self.radical_dim + self.hyperbolic_count


def witt_decompose(form, height=search.DEFAULT_HEIGHT):
    """phi = rad  _|_  m x hyperbolic  _|_  anisotropic kernel, verified.

    Raises OracleIncomplete when the field's oracle cannot decide a step.
    """
    f = form.field
    n = form.n
    cls = form.classify()
    rad = list(cls.rad_basis)
    if rad:
        rad_rows = [tuple(v) for v in rad]
        work = linalg.extend_to_basis(rad_rows, f, n)
    else:
        work = linalg.units(f, n)
    pairs = []
    while work:
        sub = form.restrict(work)
        verdict = isotropy(sub, height=height)
        if verdict.status == UNKNOWN:
            raise OracleIncomplete("isotropy undecided during Witt decomposition")
        if verdict.is_anisotropic:
            break
        split = hyperbolic_split(sub, verdict.witness)
        if split is None:
            raise InternalContradiction("isotropic vector with no dual in a regular form")
        v_local, kern = split
        pairs.append((linalg.combine(verdict.witness, work, f, n), linalg.combine(v_local, work, f, n)))
        work = [linalg.combine(k, work, f, n) for k in kern]
    kernel_form = form.restrict(work)
    basis = list(rad) + [v for p in pairs for v in p] + work
    _verify_witt(form, basis, len(rad), len(pairs), kernel_form)
    return WittDecomposition(
        radical_dim=len(rad),
        hyperbolic_count=len(pairs),
        kernel=kernel_form,
        basis=tuple(basis),
        pairs=tuple(pairs),
        kernel_basis=tuple(work),
        radical_basis=tuple(rad),
    )


def _verify_witt(form, basis, r, m, kernel_form):
    """The Witt basis restricts the form to zero_form(r) _|_ H^m _|_ kernel."""
    f = form.field
    expected = QuadraticForm.zero_form(f, r)
    for _ in range(m):
        expected = expected.orthogonal_sum(QuadraticForm.hyperbolic_plane(f))
    expected = expected.orthogonal_sum(kernel_form)
    if len(basis) != form.n or form.restrict(basis).upper != expected.upper:
        raise InternalContradiction("Witt change of basis failed verification")


def witt_index(form, height=search.DEFAULT_HEIGHT):
    return witt_decompose(form, height=height).witt_index
