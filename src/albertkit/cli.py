"""Command-line interface.

Subcommands: isotropy, transfer, descend, quat, cor, clifford, check,
gen, verify.  Every subcommand but verify accepts --json for machine
output, and the four that search (isotropy, descend, quat, cor) take
--height; `check` exits 0 when all reports are consistent, 2 on an
inconsistency (the equivalence would be falsified), 3 when Unknown
verdicts remain and 1 on a malformed instance.
"""

from __future__ import annotations

import argparse
import json
import sys

from .clifford import CliffordAlgebra, arf_trivial
from .corestriction import (
    albert_form,
    build_corestriction,
    cor_is_division,
    f_map_check,
)
from .errors import BudgetExhausted, MalformedCertificate
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
    form_to_json,
    format_element,
    parse_element,
    parse_extension,
    parse_field,
    parse_form,
    vector_to_json,
)
from .quaternion import QuaternionAlgebra, find_disjoint_quadratic_subalgebra, is_split
from .search import DEFAULT_HEIGHT
from .transfer import descend, transfer


def _load_json(path):
    with open(path) as handle:
        return json.load(handle)


def _emit(args, doc, text):
    if args.json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_isotropy(args):
    form = parse_form(_load_json(args.form))
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


def _build_ext(path):
    doc = _load_json(path)
    base = parse_field(doc["base"])
    return parse_extension(base, doc["ext"])


def _cmd_transfer(args):
    ext = _build_ext(args.ext)
    form = parse_form(_load_json(args.form), field=ext.ring)
    out = transfer(ext, form)
    _emit(args, form_to_json(out), repr(out))
    return 0


def _cmd_descend(args):
    ext = _build_ext(args.ext)
    form = parse_form(_load_json(args.form), field=ext.ring)
    res = descend(ext, form, height=args.height)
    steps = []
    for step in res.steps:
        entry = {"round": step["round"]}
        for key in ("u", "v", "w"):
            if key in step:
                entry[key] = vector_to_json(ext.ring, step[key])
        if "lambda" in step:
            entry["lambda"] = format_element(ext.ring, step["lambda"])
        steps.append(entry)
    doc = {
        "psi": form_to_json(res.psi),
        "i0": res.i0,
        "embedding": [vector_to_json(ext.ring, v) for v in res.embedding],
        "steps": steps,
    }
    _emit(args, doc, "dim psi = %d = i0(s_* phi); embedding verified, %d rounds" % (res.i0, len(steps)))
    return 0


def _build_quat(doc):
    if isinstance(doc.get("ext"), dict):
        base = parse_field(doc["ext"]["base"])
        ext = parse_extension(base, doc["ext"]["ext"])
    else:
        base = parse_field(doc["base"])
        ext = parse_extension(base, doc["ext"])
    spec = doc.get("Q") or {"alpha": doc["E"]["alpha"], "beta": doc["E"]["beta"], "a": doc["a"]}
    domain = ext.ring
    return ext, QuaternionAlgebra(
        domain,
        parse_element(domain, spec["alpha"]),
        parse_element(domain, spec["beta"]),
        parse_element(domain, spec["a"]),
    )


def _cmd_quat(args):
    ext, Q = _build_quat(_load_json(args.spec))
    if args.cmd == "nrd":
        x = Q.element(tuple(parse_element(Q.domain, c) for c in json.loads(args.x)))
        val = x.nrd()
        _emit(args, {"nrd": format_element(Q.domain, val)}, "Nrd = %s" % Q.domain.format_element(val))
        return 0
    if args.cmd == "split":
        verdict = is_split(Q, height=args.height)
        doc = {"status": verdict.status, "method": verdict.method}
        if verdict.zero_divisor is not None:
            doc["zero_divisor"] = [format_element(Q.domain, c) for c in verdict.zero_divisor.coords]
        _emit(args, doc, "%s [%s]" % (verdict.status, verdict.method))
        return 0 if verdict.decided else 3
    if args.cmd == "subalg":
        try:
            x = find_disjoint_quadratic_subalgebra(
                Q, ext, etale_required=not args.any_quadratic, height=args.height
            )
        except BudgetExhausted as exc:
            _emit(args, {"status": "unknown", "searched": exc.searched}, "budget exhausted")
            return 3
        doc = {"status": "found", "witness": [format_element(Q.domain, c) for c in x.coords]}
        _emit(args, doc, "witness: %r" % (x,))
        return 0
    raise SystemExit("unknown quat command %r" % args.cmd)


def _cmd_cor(args):
    inst = Instance.from_json(_load_json(args.instance))
    F, ext, Q = inst.build()
    ad = albert_form(ext, Q)
    if args.cmd == "build":
        cor = build_corestriction(ext, Q)
        doc = {"dim": cor.dim, "label": cor.label}
        if args.structure:
            doc["structure"] = [
                [[[m, format_element(F, c)] for m, c in cell] for cell in row]
                for row in cor.structure
            ]
        _emit(args, doc, "corestriction built: dim 16, natural map bijective")
        return 0
    if args.cmd == "albert":
        _emit(args, form_to_json(ad.form), repr(ad.form))
        return 0
    if args.cmd == "fcheck":
        cor = build_corestriction(ext, Q)
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
    if args.cmd == "build":
        C = CliffordAlgebra(form)
        doc = {"dim": C.dim, "generators": form.n}
        if args.structure:
            sparse = {}
            for a in range(C.dim):
                for b in range(C.dim):
                    prod = C.mul_masks(a, b)
                    for m, c in prod.items():
                        sparse["%d,%d,%d" % (a, b, m)] = format_element(form.field, c)
            doc["structure"] = sparse
        _emit(args, doc, "Clifford algebra of dimension %d" % C.dim)
        return 0
    if args.cmd == "arf":
        trivial, cert = arf_trivial(form)
        doc = {"trivial": trivial, "center_split": cert["center_split"]}
        _emit(args, doc, "Arf invariant trivial: %s" % trivial)
        return 0
    raise SystemExit("unknown clifford command %r" % args.cmd)


def _cmd_check(args):
    insts = []
    try:
        if args.instance:
            insts.append(Instance.from_json(_load_json(args.instance)))
        if args.family:
            for seed in range(args.seed, args.seed + args.count):
                insts.append(generate_instance(args.family, seed))
        if not insts:
            raise SystemExit("check needs --instance or --family")
        reports = [check_equivalence(inst, path=args.path) for inst in insts]
    except MalformedCertificate as exc:
        print("malformed: %s" % exc)
        return 1
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
        try:
            good = verify_certificate(rep)
        except MalformedCertificate as exc:
            print("malformed: %s" % exc)
            return 1
        print("certificate %s" % ("OK" if good else "REJECTED"))
        ok = ok and good
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="albertkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, flags=("json",), **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        if "json" in flags:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        if "height" in flags:
            p.add_argument("--height", type=int, default=DEFAULT_HEIGHT, help="search height bound")
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

    p = add("quat", _cmd_quat, searching, help="quaternion algebra operations")
    p.add_argument("--spec", required=True)
    p.add_argument("--cmd", required=True, choices=("nrd", "split", "subalg"))
    p.add_argument("--x", help="element coordinates (JSON list)")
    p.add_argument("--any-quadratic", action="store_true", help="condition (i) instead of (ii)")

    p = add("cor", _cmd_cor, searching, help="corestriction and Albert form")
    p.add_argument("--instance", required=True)
    p.add_argument("--cmd", required=True, choices=("build", "albert", "fcheck", "division"))
    p.add_argument("--structure", action="store_true", help="emit structure constants")
    p.add_argument("--random-checks", type=int, default=100)

    p = add("clifford", _cmd_clifford, help="Clifford algebra operations")
    p.add_argument("--form", required=True)
    p.add_argument("--cmd", required=True, choices=("build", "arf"))
    p.add_argument("--structure", action="store_true")

    p = add("check", _cmd_check, help="equivalence harness")
    p.add_argument("--instance")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
