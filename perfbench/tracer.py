"""Spans and counters installed around albertkit's layer functions.

Everything here wraps names from the outside: `install` rebinds each
traced function in every albertkit module that holds it (a name imported
with `from .x import f` is looked up in the importing module), and
`uninstall` puts the originals back.  Nothing under src/ is modified.

Spans are [name, start, end, parent, item] lists kept in memory (see
stats.py).  The hottest scalar paths get call counters only, keyed by the
field their operands live in.
"""

from __future__ import annotations

import functools
import operator
import re
import sys
import time

from stats import END

# (module, function, span name); the span wraps every module-level binding
SPAN_FUNCTIONS = (
    ("harness", "check_equivalence", "harness.check_equivalence"),
    ("harness", "report_json_bytes", "harness.report_json_bytes"),
    ("harness", "verify_certificate", "harness.verify_certificate"),
    ("corestriction", "albert_form", "corestriction.albert_form"),
    ("corestriction", "build_corestriction", "corestriction.build_corestriction"),
    ("corestriction", "cor_is_division", "corestriction.cor_is_division"),
    ("corestriction", "f_map_check", "corestriction.f_map_check"),
    ("corestriction", "isotropic_to_generator", "corestriction.isotropic_to_generator"),
    ("corestriction", "generator_to_isotropic", "corestriction.generator_to_isotropic"),
    ("isotropy", "hasse_minkowski", "isotropy.hasse_minkowski"),
    ("isotropy", "springer_reduce", "isotropy.springer_reduce"),
    ("isotropy", "bounded_search", "isotropy.bounded_search"),
    ("isotropy", "_char2_artin_schreier_search", "isotropy.artin_schreier"),
    ("quaternion", "find_disjoint_quadratic_subalgebra", "quaternion.find_disjoint_quadratic_subalgebra"),
    ("clifford", "arf_trivial", "clifford.arf_trivial"),
    ("clifford", "clifford_iso_check", "clifford.clifford_iso_check"),
    ("clifford", "_rank_certified", "clifford._rank_certified"),
)

# (module, class, method, span name)
SPAN_METHODS = (
    ("harness", "Instance", "build", "harness.Instance.build"),
    ("corestriction", "TensorSquareAlgebra", "__init__", "corestriction.TensorSquareAlgebra"),
    ("corestriction", "CorestrictionAlgebra", "express", "corestriction.CorestrictionAlgebra.express"),
    ("corestriction", "TensorElem", "__mul__", "corestriction.TensorElem.mul"),
    ("forms", "QuadraticForm", "evaluate", "forms.QuadraticForm.evaluate"),
)

# (module, generator function, span name, counter of yielded values): each
# step of the generator is a span, wherever the stream is consumed.  The
# char-2 stream is consumed by _char2_artin_schreier_search and also by
# corestriction._isotropic_candidates inside isotropic_to_generator.
STEPPED_GENERATORS = (
    ("isotropy", "char2_isotropic_stream", "isotropy.artin_schreier", "isotropy.artin_schreier.yielded"),
)

# (module, generator function, counter of yielded values)
YIELD_COUNTERS = (
    ("isotropy", "projective_points", "isotropy.projective_points.yielded"),
    ("forms", "scalar_candidates", "forms.scalar_candidates.yielded"),
    ("quaternion", "_candidate_elements", "quaternion.find_disjoint_quadratic_subalgebra.searched"),
)

# (module, class, method, counter prefix, operand field getter); the
# counter name gets the operand field type appended, as in ".calls.Qt"
FIELD_COUNTERS = (
    ("fields", "Field", "is_zero", "fields.Field.is_zero.calls", None),
    ("etale", "SplitAlgebra", "is_zero", "etale.SplitAlgebra.is_zero.calls", "base"),
    ("fields", "GFElem", "__mul__", "fields.GFElem.mul.calls", "field"),
    ("fields", "Poly", "__mul__", "fields.Poly.mul.calls", "base"),
    ("fields", "RatFuncElem", "__mul__", "fields.RatFuncElem.mul.calls", "field"),
    ("fields", "QuadExtElem", "__mul__", "fields.QuadExtElem.mul.calls", "field.base"),
    ("etale", "SplitElem", "__mul__", "etale.SplitElem.mul.calls", "alg.base"),
)

FIELD_TYPES = ("Q", "Fq", "Qt", "Fqt", "KF", "FxF")


def field_type(field):
    """Q, Fq, Qt (Q(t)), Fqt (F_q(t)), KF (quadratic extension) or FxF (split)."""
    kind = type(field).__name__
    if kind == "RationalField":
        return "Q"
    if kind == "FiniteField":
        return "Fq"
    if kind == "RationalFunctionField":
        return "Qt" if field.char == 0 else "Fqt"
    if kind == "QuadraticFieldExtension":
        return "KF"
    if kind == "SplitAlgebra":
        return "FxF"
    return kind


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "albertkit" or name.startswith("albertkit.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.counters = {}
        self.field_counts = {}  # counter prefix -> {id(field): [field, count]}
        self.verdicts = {}  # top-level isotropy verdict method -> count
        self.witness_height = 0
        self._restore = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.item])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.stack.pop()
        self.spans[idx][END] = time.perf_counter()

    def begin_item(self, item):
        self.item = item
        return self.begin("item")

    def end_item(self, idx):
        self.end(idx)
        self.item = None

    def _in_span(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def count(self, name):
        self.counters[name] = self.counters.get(name, 0) + 1

    def spanned(self, name, fn, on_result=None):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def stepped(self, name, counter, fn):
        begin, end, counters = self.begin, self.end, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _steps(fn(*args, **kwargs))

        def _steps(gen):
            try:
                while True:
                    idx = begin(name)
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        end(idx)
                    counters[counter] = counters.get(counter, 0) + 1
                    yield value
            finally:
                gen.close()

        return wrapper

    # -- counters ------------------------------------------------------------
    def yield_counter(self, name, fn):
        counters = self.counters
        own_code = fn.__code__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code is own_code:
                # the generator recursing into itself: count the outer stream only
                return fn(*args, **kwargs)
            return _counted(fn(*args, **kwargs))

        def _counted(gen):
            for value in gen:
                counters[name] = counters.get(name, 0) + 1
                yield value

        return wrapper

    def field_counter(self, prefix, fn, getter):
        counts = self.field_counts.setdefault(prefix, {})
        get = operator.attrgetter(getter) if getter else None

        @functools.wraps(fn)
        def wrapper(obj, *args):
            f = get(obj) if get is not None else obj
            slot = counts.get(id(f))
            if slot is None:
                counts[id(f)] = [f, 1]
            else:
                slot[1] += 1
            return fn(obj, *args)

        return wrapper

    # -- installation ----------------------------------------------------------
    def _rebind_everywhere(self, module, name, make):
        orig = getattr(sys.modules["albertkit." + module], name)
        wrapper = make(orig)
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def _rebind_method(self, module, cls_name, method, make):
        cls = getattr(sys.modules["albertkit." + module], cls_name)
        orig = cls.__dict__[method]
        wrapper = make(orig)
        for attr, value in list(cls.__dict__.items()):
            # aliases such as __rmul__ = __mul__ count with the method
            if value is orig:
                setattr(cls, attr, wrapper)
                self._restore.append((cls, attr, orig))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, name, span in SPAN_FUNCTIONS:
            self._rebind_everywhere(module, name, lambda fn, span=span: self.spanned(span, fn))
        self._rebind_everywhere(
            "isotropy", "isotropy", lambda fn: self._isotropy_wrapper(fn)
        )
        self._rebind_everywhere(
            "quaternion", "validate_disjoint_witness", lambda fn: self._validate_wrapper(fn)
        )
        self._rebind_everywhere("linalg", "_rref", lambda fn: self._rref_wrapper(fn))
        self._rebind_everywhere("linalg", "rank", lambda fn: self._rank_wrapper(fn))
        for module, cls, method, span in SPAN_METHODS:
            self._rebind_method(module, cls, method, lambda fn, span=span: self.spanned(span, fn))
        for module, name, span, counter in STEPPED_GENERATORS:
            self._rebind_everywhere(module, name, lambda fn, s=span, c=counter: self.stepped(s, c, fn))
        for module, name, counter in YIELD_COUNTERS:
            self._rebind_everywhere(module, name, lambda fn, c=counter: self.yield_counter(c, fn))
        for module, cls, method, prefix, getter in FIELD_COUNTERS:
            self._rebind_method(
                module, cls, method, lambda fn, p=prefix, g=getter: self.field_counter(p, fn, g)
            )

    def uninstall(self):
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    # -- wrappers with extra bookkeeping -------------------------------------
    def _isotropy_wrapper(self, fn):
        def record(verdict):
            self.count("isotropy.isotropy.calls")
            if verdict.height is not None and verdict.status == "isotropic":
                self.witness_height = max(self.witness_height, verdict.height)
            if not self._in_span("isotropy.isotropy"):
                key = re.sub(r"[^A-Za-z0-9_.-]", "_", verdict.method)
                self.verdicts[key] = self.verdicts.get(key, 0) + 1

        return self.spanned("isotropy.isotropy", fn, record)

    def _validate_wrapper(self, fn):
        invalid = sys.modules["albertkit.errors"].InvalidWitness

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count("quaternion.validate_disjoint_witness.calls")
            try:
                return fn(*args, **kwargs)
            except invalid:
                self.count("quaternion.validate_disjoint_witness.rejected")
                raise

        return wrapper

    def _rref_wrapper(self, fn):
        span = self.spanned("linalg._rref", fn)
        rff = sys.modules["albertkit.fields"].RationalFunctionField

        @functools.wraps(fn)
        def wrapper(rows, field, ncols):
            if isinstance(field, rff):
                self.count("linalg._rref.funcfield_calls")
            return span(rows, field, ncols)

        return wrapper

    def _rank_wrapper(self, fn):
        rff = sys.modules["albertkit.fields"].RationalFunctionField

        @functools.wraps(fn)
        def wrapper(rows, field, ncols=None):
            # the exact elimination over F(t) that _rank_certified falls back to
            if isinstance(field, rff) and self.stack and self.spans[self.stack[-1]][0] == "clifford._rank_certified":
                self.count("clifford.rank_fallback.calls")
            return fn(rows, field, ncols)

        return wrapper

    def field_type_counts(self):
        """counter prefix + "." + field type -> calls."""
        out = {}
        for prefix, counts in self.field_counts.items():
            for f, n in counts.values():
                key = "%s.%s" % (prefix, field_type(f))
                out[key] = out.get(key, 0) + n
        return out
