"""Instance generation, the equivalence harness and certificate checking.

For an instance (F, K, Q) the three conditions are evaluated with
machine-checkable witnesses: (i)/(ii) quadratic subalgebra generators,
(iii) an isotropic Albert vector xi, whose f(xi) is a nonzero nilpotent
by the defining relations (corestriction.broken_relation).  Witnesses are
converted across conditions through the explicit constructions, negative
verdicts carry the anisotropy method, and every certificate can be
re-verified from scratch without trusting any method tag.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dc_field

from .corestriction import (
    albert_form,
    cor_is_division,
    generator_to_isotropic,
    isotropic_to_generator,
)
from .errors import (
    AlgebraError,
    BudgetExhausted,
    InvalidWitness,
    MalformedCertificate,
    OracleIncomplete,
    UnknownFamily,
)
from .isotropy import isotropy, witt_decompose
from .jsonio import (
    _as_malformed,
    format_element,
    parse_element,
    parse_extension,
    parse_field,
    parse_vector,
    vector_to_json,
)
from .quaternion import (
    QuaternionAlgebra,
    find_disjoint_quadratic_subalgebra,
    norm_form,
    validate_disjoint_witness,
)
from .search import DEFAULT_HEIGHT
from .transfer import isotropic_plane_partner, transfer

SCHEMA = "albertkit/1"

FAMILIES = (
    "split-K-over-Q",
    "quad-K-over-Q",
    "split-K-over-Qt",
    "char2-finite",
    "char2-function-field",
)


@dataclass
class Instance:
    family: str
    seed: int
    f_spec: str
    k_spec: str
    q_alpha: object
    q_beta: object
    q_a: object
    height: int = DEFAULT_HEIGHT

    def to_json(self):
        return {
            "schema": SCHEMA,
            "family": self.family,
            "seed": self.seed,
            "F": self.f_spec,
            "K": self.k_spec,
            "Q": {"alpha": self.q_alpha, "beta": self.q_beta, "a": self.q_a},
            "height": self.height,
        }

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict) or not isinstance(doc.get("Q"), dict):
            raise MalformedCertificate("instance and its Q must be JSON objects")
        if not isinstance(doc.get("F"), str) or not isinstance(doc.get("K"), str):
            raise MalformedCertificate("instance F and K must be strings")
        try:
            q = doc["Q"]
            inst = cls(
                family=doc.get("family", "custom"),
                seed=doc.get("seed", 0),
                f_spec=doc["F"],
                k_spec=doc["K"],
                q_alpha=q["alpha"],
                q_beta=q["beta"],
                q_a=q["a"],
                height=doc.get("height", DEFAULT_HEIGHT),
            )
        except KeyError as exc:
            raise MalformedCertificate("instance missing field %s" % exc)
        # the height bounds the searches a "no" verdict is re-run with
        if type(inst.height) is not int or not 1 <= inst.height <= DEFAULT_HEIGHT:
            raise MalformedCertificate("instance height must be an integer in 1..%d" % DEFAULT_HEIGHT)
        if type(inst.seed) is not int or not isinstance(inst.family, str):
            raise MalformedCertificate("instance seed must be an integer and its family a string")
        return inst

    def build(self):
        with _as_malformed("instance"):
            F = parse_field(self.f_spec)
            K = parse_extension(F, self.k_spec)
            alpha = parse_element(K, self.q_alpha)
            beta = parse_element(K, self.q_beta)
            a = parse_element(K, self.q_a)
            return F, K, QuaternionAlgebra(K, alpha, beta, a)


def _rng_for(family, seed):
    digest = hashlib.sha256(("%s:%d" % (family, seed)).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def generate_instance(family, seed):
    """Deterministic desk-scale instance with oracle-friendly parameters."""
    if family not in FAMILIES:
        raise UnknownFamily("unknown family %r" % family)
    rng = _rng_for(family, seed)
    if family == "split-K-over-Q":
        pool = [1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 10, -10]
        beta = [rng.choice(pool), rng.choice(pool)]
        a = [rng.choice(pool), rng.choice(pool)]
        return Instance(family, seed, "Q", "split", [0, 0], [str(beta[0]), str(beta[1])], [str(a[0]), str(a[1])])
    if family == "quad-K-over-Q":
        d = rng.choice([2, 3, 5, 6, 7, -1, -2, -3, -5])
        small = [0, 1, -1, 2, -2, 3, -3]
        while True:
            b0, b1 = rng.choice(small), rng.choice(small)
            if (b0, b1) != (0, 0):
                break
        while True:
            a0, a1 = rng.choice(small), rng.choice(small)
            if not (a0 == 0 and a1 == 0):
                break
        beta = "%d%+d*w" % (b0, b1) if b1 else str(b0)
        a = "%d%+d*w" % (a0, a1) if a1 else str(a0)
        # a must be invertible: nonzero in the field K is enough
        return Instance(family, seed, "Q", "x^2-(%d)" % d, "0", beta, a)
    if family == "split-K-over-Qt":
        csmall = [1, -1, 2, -2, 3, -3]
        def mono():
            c = rng.choice(csmall)
            e = rng.choice([0, 0, 1])
            return "%d*t" % c if e else str(c)
        return Instance(family, seed, "Q(t)", "split", [0, 0], [mono(), mono()], [mono(), mono()])
    if family == "char2-finite":
        kelts = ["1", "w", "1+w"]
        alpha = rng.choice(kelts)
        beta = rng.choice(["0"] + kelts)
        a = rng.choice(kelts)
        return Instance(family, seed, "F(2)", "x^2-x-1", alpha, beta, a, height=4)
    if family == "char2-function-field":
        units = ["1", "t", "t+1", "t^2+t+1"]
        anytf = ["0", "1", "t", "t+1"]
        split = rng.random() < 0.5
        if split:
            kspec = "split"
            alpha = [rng.choice(units), rng.choice(units)]
            beta = [rng.choice(anytf), rng.choice(anytf)]
            a = [rng.choice(units), rng.choice(units)]
        else:
            kspec = "x^2-x-%s" % rng.choice(["t", "t+1"])
            alpha = rng.choice(units)
            beta = rng.choice(anytf)
            a = rng.choice(units)
        return Instance(family, seed, "F(2)(t)", kspec, alpha, beta, a, height=5)
    raise UnknownFamily(family)


# ---------------------------------------------------------------------------
# equivalence report
# ---------------------------------------------------------------------------


@dataclass
class CondVerdict:
    status: str  # "yes" | "no" | "unknown"
    witness: object = None
    method: str = ""
    searched: int | None = None

    def to_json(self, encode_witness):
        doc = {"status": self.status, "method": self.method}
        if self.witness is not None:
            doc["witness"] = encode_witness(self.witness)
        if self.searched is not None:
            doc["searched"] = self.searched
        return doc


@dataclass
class EquivalenceReport:
    instance: Instance
    cond_i: CondVerdict
    cond_ii: CondVerdict
    cond_iii_not_division: CondVerdict
    consistent: bool
    derivations: list = dc_field(default_factory=list)
    albert_gram: list | None = None
    Q: QuaternionAlgebra | None = None  # the instance's Q, which carries K and F; not serialized

    @property
    def has_unknown(self):
        return any(
            c.status == "unknown"
            for c in (self.cond_i, self.cond_ii, self.cond_iii_not_division)
        )

    def to_json(self):
        Q = self.Q if self.Q is not None else self.instance.build()[2]
        K, F = Q.ring, Q.ring.base

        def enc_elem(x):
            return vector_to_json(K, x.coords)

        def enc_vec(v):
            return vector_to_json(F, v)

        return {
            "schema": SCHEMA,
            "instance": self.instance.to_json(),
            "cond_i": self.cond_i.to_json(enc_elem),
            "cond_ii": self.cond_ii.to_json(enc_elem),
            "cond_iii_not_division": self.cond_iii_not_division.to_json(enc_vec),
            "consistent": self.consistent,
            "derivations": list(self.derivations),
            "albert_gram": self.albert_gram,
        }


def _condition(doc, key):
    """doc[key], which must be an object whose status is yes, no or unknown."""
    cond = doc.get(key)
    if not isinstance(cond, dict) or cond.get("status") not in ("yes", "no", "unknown"):
        raise MalformedCertificate("%s is not a verdict with status yes, no or unknown" % key)
    return cond


def _witness(cond, length):
    """cond's witness, which must be a list of `length` entries."""
    wit = cond["witness"]
    if not isinstance(wit, list) or len(wit) != length:
        raise MalformedCertificate("witness is not a list of %d entries" % length)
    return wit


def check_equivalence(inst, path="albert"):
    """Evaluate conditions (i), (ii), (iii) with witnesses and consistency.

    The default route runs through the Albert form of the corestriction;
    `path="both"` adds, when the extension is a field, the cross-check
    through the transfer of the norm form, which needs isotropy over F only.
    """
    F, K, Q = inst.build()
    ad = albert_form(K, Q)
    derivations = []
    gram = [[format_element(F, c) for c in row] for row in ad.form.upper]

    div = cor_is_division(ad, height=inst.height)
    falsified = False
    if div.not_division is True:
        cond_iii = CondVerdict("yes", div.witness_coords, div.method)
        gen = isotropic_to_generator(ad, div.witness_coords)
        cond_ii = CondVerdict("yes", gen.kappa_y, "albert-isotropic-to-generator")
        cond_i = CondVerdict("yes", gen.kappa_y, "from-(ii)")
        derivations.append("(iii)->(ii): kappa-shifted isotropic representative")
        back = generator_to_isotropic(ad, gen.kappa_y)
        if F.is_zero(ad.form.evaluate(back)):
            derivations.append("(ii)->(iii): round trip verified")
        else:
            falsified = True
    elif div.not_division is False:
        cond_iii = CondVerdict("no", None, div.method)
        try:
            x = find_disjoint_quadratic_subalgebra(Q, etale_required=False)
            # a (i) witness converts to an isotropic vector, contradicting
            # the proven anisotropy: the equivalence would be falsified
            generator_to_isotropic(ad, x)
            falsified = True
            cond_i = CondVerdict("yes", x, "direct-search")
            cond_ii = CondVerdict("unknown", None, "not-attempted")
        except BudgetExhausted as exc:
            method = "derived: (i)=>(iii) sound converter + albert %s" % div.method
            cond_i = CondVerdict("no", None, method, exc.searched)
            cond_ii = CondVerdict("no", None, method, exc.searched)
        except InvalidWitness:
            falsified = True
            cond_i = CondVerdict("unknown", None, "converter-failure")
            cond_ii = CondVerdict("unknown", None, "converter-failure")
    else:
        cond_iii = CondVerdict("unknown", None, div.method)
        try:
            x = find_disjoint_quadratic_subalgebra(Q, etale_required=True)
            cond_ii = CondVerdict("yes", x, "direct-search")
            cond_i = CondVerdict("yes", x, "from-(ii)")
            coords = generator_to_isotropic(ad, x)
            cond_iii = CondVerdict("yes", tuple(coords), "from-(ii)-converter")
            derivations.append("(ii)->(iii): direct witness converted")
        except BudgetExhausted as exc:
            cond_i = CondVerdict("unknown", None, "search-budget", exc.searched)
            cond_ii = CondVerdict("unknown", None, "search-budget", exc.searched)

    if path == "both" and K.kind == "field":
        _transfer_cross_check(ad, cond_iii, derivations, inst.height)

    statuses = {cond_i.status, cond_ii.status, cond_iii.status}
    if "unknown" in statuses:
        consistent = not falsified
    else:
        consistent = not falsified and len(statuses) == 1
    return EquivalenceReport(
        instance=inst,
        cond_i=cond_i,
        cond_ii=cond_ii,
        cond_iii_not_division=cond_iii,
        consistent=consistent,
        derivations=derivations,
        albert_gram=gram,
        Q=Q,
    )


def _transfer_cross_check(ad, cond_iii, derivations, height):
    """Optional route through the transfer T = s_* n_Q of the norm form.

    When i0(T) >= 2, the first isotropic vector u of T's Witt decomposition
    and its partner w span a totally isotropic plane of T with
    polar(u, w) != 0.  Then x = conj(u) w has Trd(x) = polar(u, w) and
    Nrd(x) = n_Q(u) n_Q(w) in F and is not in K, a (i) witness, which
    generator_to_isotropic checks against the Albert form.
    """
    Q = ad.Q
    K = Q.ring
    try:
        nq = norm_form(Q)
        T = transfer(K, nq)
        wd = witt_decompose(T, height=height)
        i0 = wd.witt_index
        agrees = (i0 >= 2) == (cond_iii.status == "yes")
        derivations.append(
            "transfer path: i0(s_* n_Q) = %d, %s (iii)" % (i0, "agrees with" if agrees else "CONTRADICTS")
        )
        if not agrees:
            raise AlgebraError("transfer cross-check contradicts the Albert route")
        if i0 >= 2:
            u = K.unrealify_vec(wd.pairs[0][0])
            _, w = isotropic_plane_partner(K, nq, T, wd)
            generator_to_isotropic(ad, Q.elem(u).conjugate() * Q.elem(w))
            derivations.append(
                "transfer path: conj(u) w from an isotropic plane of s_* n_Q converts to an isotropic Albert vector"
            )
    except OracleIncomplete as exc:
        derivations.append("transfer path skipped: %s" % exc)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def verify_certificate(doc):
    """Re-verify every witness in a report from scratch.

    Positive witnesses are re-evaluated (isotropy of Albert vectors,
    subalgebra conditions); negative verdicts re-run the recorded decision
    method.  f(xi) is not squared: f(xi)^2 = phi(xi) for every xi by the
    defining relations, so an isotropic xi != 0 makes it nilpotent.
    Returns False on any failure and raises MalformedCertificate on a
    report of the wrong shape.
    """
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        raise MalformedCertificate("not an %s report" % SCHEMA)
    ciii, cii, ci = (_condition(doc, key) for key in ("cond_iii_not_division", "cond_ii", "cond_i"))
    inst = Instance.from_json(doc.get("instance"))
    with _as_malformed("instance"):
        F, K, Q = inst.build()
        ad = albert_form(K, Q)

    try:
        if ciii["status"] == "yes":
            coords = parse_vector(F, _witness(ciii, 6))
            if all(F.is_zero(c) for c in coords):
                return False
            if not F.is_zero(ad.form.evaluate(coords)):
                return False
        elif ciii["status"] == "no":
            verdict = isotropy(ad.form, height=inst.height)
            if not verdict.is_anisotropic or verdict.method != ciii.get("method"):
                return False
        for cond, etale in ((cii, True), (ci, False)):
            if cond["status"] == "yes":
                x = Q.elem(parse_vector(K, _witness(cond, 4)))
                validate_disjoint_witness(Q, x, etale_required=etale)
            elif cond["status"] == "no":
                # negatives on (i)/(ii) are derived from the (iii) method
                if ciii["status"] != "no":
                    return False
    except (InvalidWitness, AlgebraError):
        return False
    except KeyError:
        raise MalformedCertificate("verdict is missing its witness")
    return True


def report_to_text(report):
    lines = []
    lines.append("instance %s seed %d" % (report.instance.family, report.instance.seed))
    for name, cond in (
        ("(i)  quadratic subalgebra", report.cond_i),
        ("(ii) etale subalgebra    ", report.cond_ii),
        ("(iii) Cor not division   ", report.cond_iii_not_division),
    ):
        lines.append("  %s: %s  [%s]" % (name, cond.status, cond.method))
    lines.append("  consistent: %s" % report.consistent)
    return "\n".join(lines)


def report_json_bytes(report):
    return json.dumps(report.to_json(), sort_keys=True, separators=(",", ":")).encode()
