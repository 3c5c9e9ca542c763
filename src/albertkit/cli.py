"""Command-line interface.

Subcommands: isotropy, transfer, descend, quat, cor, clifford, check,
gen, verify.  Every subcommand but verify accepts --json for machine
output, and the four that search (isotropy, descend, quat, cor) take
--height (at least 1; quat and cor build an Instance, so at most
DEFAULT_HEIGHT, as in an instance file); `check` exits 0 when all reports
are consistent, 2 on an inconsistency (the equivalence would be
falsified) and 3 when Unknown verdicts remain.  `quat --cmd subalg`
prints condition (ii), or (i), of the same report, with the same exit
codes.  Every subcommand prints "malformed: ..." and exits 1 on a
malformed input file (for `clifford --cmd arf`, also on a form that has
no Arf invariant: singular or of odd dimension; for `descend`, on a form
it refuses, such as a singular one; for `isotropy`, on a form whose
radical it cannot compute: over F_2(t), one with a polar radical of
dimension > 2), and prints "split K: ..." and exits 4
when it needs a quadratic field extension and is given the split
algebra F x F (transfer, descend and quat --cmd split).  An oracle left
undecided where a decision is needed (descend's Witt decomposition)
prints "unknown: ..." and exits 3.  Invalid options exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .clifford import arf_trivial
from .corestriction import (
    albert_form,
    build_corestriction,
    cor_is_division,
    f_map_check,
    natural_map_bijective,
)
from .errors import InternalContradiction, MalformedCertificate, OracleIncomplete, SplitK
from .harness import (
    FAMILIES,
    Instance,
    check_equivalence,
    generate_instance,
    report_to_text,
    verify_certificate,
)
from .isotropy import isotropy
from .jsonio import (
    _as_malformed,
    form_to_json,
    format_element,
    parse_extension_doc,
    parse_form,
    parse_vector,
    vector_to_json,
)
from .quaternion import is_split
from .search import DEFAULT_HEIGHT
from .transfer import descend, transfer


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise MalformedCertificate("cannot read %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        raise MalformedCertificate("%s is not JSON: %s" % (path, exc))


def _emit(args, doc, text):
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_isotropy(args):
    form = parse_form(_load_json(args.form))
    with _as_malformed("form"):
        verdict = isotropy(form, height=args.height)
    doc = {
        "status": verdict.status,
        "method": verdict.method,
        "witness": vector_to_json(form.field, verdict.witness) if verdict.witness else None,
        "height": verdict.height,
    }
    _emit(args, doc, "%s [%s]%s" % (
        verdict.status,
        verdict.method,
        " witness=%s" % (doc["witness"],) if verdict.witness else "",
    ))
    return 0 if verdict.decided else 3


def _cmd_transfer(args):
    K = parse_extension_doc(_load_json(args.ext))
    form = parse_form(_load_json(args.form), field=K)
    out = transfer(K, form)
    _emit(args, form_to_json(out), repr(out))
    return 0


def _cmd_descend(args):
    K = parse_extension_doc(_load_json(args.ext))
    form = parse_form(_load_json(args.form), field=K)
    with _as_malformed("form"):
        res = descend(K, form, height=args.height)
    steps = []
    for step in res.steps:
        entry = {"round": step["round"]}
        for key in ("u", "v", "w"):
            if key in step:
                entry[key] = vector_to_json(K, step[key])
        if "lambda" in step:
            entry["lambda"] = format_element(K, step["lambda"])
        steps.append(entry)
    doc = {
        "psi": form_to_json(res.psi),
        "i0": res.i0,
        "embedding": [vector_to_json(K, v) for v in res.embedding],
        "steps": steps,
    }
    _emit(args, doc, "dim psi = %d = i0(s_* phi); embedding verified, %d rounds" % (res.i0, len(steps)))
    return 0


def _build_quat(doc, height):
    """The Instance of a quaternion spec: F is `base`, K is `ext`, and Q is
    given in 'Q' or in 'E' and 'a'; its searches stop at `height`."""
    if not isinstance(doc, dict):
        raise MalformedCertificate("a quaternion spec must be a JSON object")
    k_doc = doc["ext"] if isinstance(doc.get("ext"), dict) else doc
    if not all(isinstance(k_doc.get(key), str) for key in ("base", "ext")):
        raise MalformedCertificate("an extension needs the string specs 'base' and 'ext'")
    spec = doc.get("Q")
    if spec is None and isinstance(doc.get("E"), dict):
        spec = dict(doc["E"], a=doc.get("a"))
    if not isinstance(spec, dict) or any(spec.get(key) is None for key in ("alpha", "beta", "a")):
        raise MalformedCertificate("a quaternion spec needs alpha, beta and a, in 'Q' or in 'E' and 'a'")
    return Instance("custom", 0, k_doc["base"], k_doc["ext"], spec["alpha"], spec["beta"], spec["a"], height)


def _cmd_quat(args):
    inst = _build_quat(_load_json(args.spec), args.height)
    if args.cmd == "subalg":
        # condition (ii), or (i), of the check route's report
        report = check_equivalence(inst)
        cond = report.cond_i if args.any_quadratic else report.cond_ii
        status = {"yes": "found", "no": "none", "unknown": "unknown"}[cond.status]
        K = report.Q.ring
        witness = None if cond.witness is None else vector_to_json(K, cond.witness.coords)
        doc = {"status": status, "method": cond.method, "witness": witness, "searched": cond.searched}
        _emit(args, doc, "witness: %r" % (cond.witness,) if witness else "%s [%s]" % (status, cond.method))
        if not report.consistent:
            return 2
        return 3 if status == "unknown" else 0
    _, _, Q = inst.build()
    if args.cmd == "nrd":
        try:
            coords = json.loads(args.x or "null")
        except ValueError as exc:
            raise MalformedCertificate("--x is not JSON: %s" % exc)
        if not isinstance(coords, list) or len(coords) != 4:
            raise MalformedCertificate("nrd needs --x, a JSON list of 4 coordinates")
        with _as_malformed("--x"):
            x = Q.elem(parse_vector(Q.ring, coords))
        val = x.nrd()
        _emit(args, {"nrd": format_element(Q.ring, val)}, "Nrd = %s" % Q.ring.format_element(val))
        return 0
    if args.cmd == "split":
        verdict = is_split(Q, height=args.height)
        doc = {"status": verdict.status, "method": verdict.method}
        if verdict.zero_divisor is not None:
            doc["zero_divisor"] = [format_element(Q.ring, c) for c in verdict.zero_divisor.coords]
        _emit(args, doc, "%s [%s]" % (verdict.status, verdict.method))
        return 0 if verdict.decided else 3
    raise SystemExit("unknown quat command %r" % args.cmd)


def _cmd_cor(args):
    inst = Instance.from_json(_load_json(args.instance))
    F, K, Q = inst.build()
    if args.cmd == "build":
        cor = build_corestriction(K, Q)
        if not natural_map_bijective(cor):
            raise InternalContradiction("Cor (x) K -> tensor square is not bijective")
        doc = {"dim": cor.dim, "label": cor.label}
        if args.structure:
            doc["structure"] = [
                [[[m, format_element(F, c)] for m, c in cell] for cell in row]
                for row in cor.structure
            ]
        _emit(args, doc, "corestriction built: dim 16, natural map bijective")
        return 0
    ad = albert_form(K, Q)
    if args.cmd == "albert":
        _emit(args, form_to_json(ad.form), repr(ad.form))
        return 0
    if args.cmd == "fcheck":
        cor = build_corestriction(K, Q)
        rep = f_map_check(ad, cor, n_random=args.random_checks)
        _emit(args, rep, "f(xi)^2 = phi(xi) verified (%d basis, %d random)" % (
            rep["basis_checked"], rep["random_checked"]))
        return 0
    if args.cmd == "division":
        verdict = cor_is_division(ad, height=args.height)
        doc = {
            "not_division": verdict.not_division,
            "method": verdict.method,
            "witness": vector_to_json(F, verdict.witness_coords) if verdict.witness_coords else None,
        }
        text = {True: "not a division algebra", False: "division algebra", None: "undecided"}[verdict.not_division]
        _emit(args, doc, "%s [%s]" % (text, verdict.method))
        return 0 if verdict.decided else 3
    raise SystemExit("unknown cor command %r" % args.cmd)


def _cmd_clifford(args):
    form = parse_form(_load_json(args.form))
    if args.cmd == "arf":
        with _as_malformed("form"):
            trivial, cert = arf_trivial(form)
        doc = {"trivial": trivial, "center_split": cert["center_split"]}
        _emit(args, doc, "Arf invariant trivial: %s" % trivial)
        return 0
    raise SystemExit("unknown clifford command %r" % args.cmd)


def _cmd_check(args):
    insts = []
    if args.instance:
        insts.append(Instance.from_json(_load_json(args.instance)))
    if args.family:
        for seed in range(args.seed, args.seed + args.count):
            insts.append(generate_instance(args.family, seed))
    if not insts:
        raise SystemExit("check needs --instance or --family")
    reports = [check_equivalence(inst, path=args.path) for inst in insts]
    if args.json:
        print(json.dumps([r.to_json() for r in reports], sort_keys=True, indent=2))
    else:
        for r in reports:
            print(report_to_text(r))
    if any(not r.consistent for r in reports):
        return 2
    if any(r.has_unknown for r in reports):
        return 3
    return 0


def _cmd_gen(args):
    inst = generate_instance(args.family, args.seed)
    print(json.dumps(inst.to_json(), sort_keys=True, indent=None if args.json else 2))
    return 0


def _cmd_verify(args):
    doc = _load_json(args.report)
    reports = doc if isinstance(doc, list) else [doc]
    ok = True
    for rep in reports:
        good = verify_certificate(rep)
        print("certificate %s" % ("OK" if good else "REJECTED"))
        ok = ok and good
    return 0 if ok else 1


def _int_at_least(low, high=None):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        if high is not None and value > high:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (high, value))
        return value

    return integer


def build_parser():
    parser = argparse.ArgumentParser(prog="albertkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags=("json",), max_height=None, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if "json" in flags:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if "height" in flags:
            height = _int_at_least(1, max_height)
            p.add_argument("--height", type=height, default=DEFAULT_HEIGHT, help="search height bound")
        return p

    searching = ("json", "height")

    p = add("isotropy", _cmd_isotropy, searching, help="isotropy verdict for a form")
    p.add_argument("--form", required=True)

    p = add("transfer", _cmd_transfer, help="transfer a form along K/F")
    p.add_argument("--ext", required=True)
    p.add_argument("--form", required=True)

    p = add("descend", _cmd_descend, searching, help="descend a form along K/F")
    p.add_argument("--ext", required=True)
    p.add_argument("--form", required=True)

    p = add("quat", _cmd_quat, searching, DEFAULT_HEIGHT, help="quaternion algebra operations")
    p.add_argument("--spec", required=True)
    p.add_argument("--cmd", required=True, choices=("nrd", "split", "subalg"))
    p.add_argument("--x", help="element coordinates (JSON list)")
    p.add_argument("--any-quadratic", action="store_true", help="subalg: condition (i), any quadratic, not (ii)")

    p = add("cor", _cmd_cor, searching, DEFAULT_HEIGHT, help="corestriction and Albert form")
    p.add_argument("--instance", required=True)
    p.add_argument("--cmd", required=True, choices=("build", "albert", "fcheck", "division"))
    p.add_argument("--structure", action="store_true", help="emit structure constants")
    p.add_argument("--random-checks", type=_int_at_least(0), default=0)

    p = add("clifford", _cmd_clifford, help="Arf invariant of a form")
    p.add_argument("--form", required=True)
    p.add_argument("--cmd", required=True, choices=("arf",))

    p = add("check", _cmd_check, help="equivalence harness")
    p.add_argument("--instance")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(1), default=1)
    p.add_argument("--path", choices=("albert", "both"), default="albert")

    p = add("gen", _cmd_gen, help="generate an instance")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)

    p = add("verify", _cmd_verify, (), help="re-verify a certificate report")
    p.add_argument("--report", required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MalformedCertificate as exc:
        print("malformed: %s" % exc)
        return 1
    except SplitK as exc:
        print("split K: %s" % exc)
        return 4
    except OracleIncomplete as exc:
        print("unknown: %s" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
