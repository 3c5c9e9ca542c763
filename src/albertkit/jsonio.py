"""Parsing and serialization: field specs, elements, forms, instances.

Field grammar: "Q", "Q(t)", "F(5)", "F(4):w^2+w+1", "F(2)(t)".
Extension grammar: "split" or a monic quadratic in x, e.g. "x^2-x-1".
Elements are serialized as expression strings over the variables t (function
field generator), w (quadratic extension generator) and u (finite field
generator); split-algebra scalars are two-element lists.
"""

from __future__ import annotations

import contextlib
import re
from fractions import Fraction

from .errors import AlgebraError, InternalContradiction, MalformedCertificate, SplitK
from .etale import SplitAlgebra, etale_quadratic
from .f2poly import F2Poly
from .fields import (
    QQ,
    FiniteField,
    Poly,
    QuadExtElem,
    QuadraticFieldExtension,
    RatFuncElem,
    RationalField,
    RationalFunctionField,
)
from .forms import QuadraticForm
from .places import _factor_int

# Hostile input must not stall the parser: x^N costs N multiplications,
# int() refuses more than 4300 digits, a product costs about the product of
# its factors' sizes, a gcd over Q(t) grows steeply with the denominator
# degree and the coefficient bits, and the order of a parsed F(q) bounds
# every enumeration over it; each parenthesis level is a recursion of the
# parser.  Acceptance-batch reports print exponents up to 5, degrees up to
# 5, rationals of at most 11 bits, fields up to F(4) and one parenthesis
# level.
MAX_EXPONENT = 64
MAX_NESTING = 16
MAX_FIELD_ORDER = 1 << 16
MAX_DEGREE = 64
MAX_DEN_DEGREE = 8
MAX_BITS = 128
MAX_DIGITS = 38  # 10^38 < 2^MAX_BITS

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^])")


def _int(tok):
    if len(tok) > MAX_DIGITS:
        raise AlgebraError("integer literal of %d digits exceeds %d" % (len(tok), MAX_DIGITS))
    return int(tok)


def _size(x):
    """(numerator degree, denominator degree, bit length) of a parsed value."""
    if isinstance(x, Fraction):
        return 0, 0, max(x.numerator.bit_length(), x.denominator.bit_length())
    if isinstance(x, RatFuncElem):
        if x.field.base.order is not None:
            return x.num.degree, x.den.degree, 0
        bits = max((_size(c)[2] for c in x.num.coeffs + x.den.coeffs), default=0)
        return x.num.degree, x.den.degree, bits
    if isinstance(x, QuadExtElem):
        return tuple(map(max, _size(x.a), _size(x.b)))
    return 0, 0, 0  # finite-field elements have a fixed size


def _check_bound(op, x, y):
    """Refuse x op y (op in "+-*/") when a bound on the result's size passes a cap."""
    (nx, dx, bx), (ny, dy, by) = _size(x), _size(y)
    if op == "/":
        ny, dy = dy, ny
    if op in "+-":
        _within_caps(max(nx + dy, ny + dx), dx + dy, max(bx, by) + 1)
    else:
        _within_caps(nx + ny, dx + dy, bx + by)


def _within_caps(num_degree, den_degree, bits):
    if num_degree > MAX_DEGREE or den_degree > MAX_DEN_DEGREE or bits > MAX_BITS:
        raise AlgebraError(
            "expression too large: degrees %d/%d, %d bits (caps %d/%d, %d)"
            % (num_degree, den_degree, bits, MAX_DEGREE, MAX_DEN_DEGREE, MAX_BITS)
        )


@contextlib.contextmanager
def _as_malformed(what):
    """Report an AlgebraError, but not an InternalContradiction or SplitK, as malformed `what`."""
    try:
        yield
    except (InternalContradiction, SplitK):
        raise
    except AlgebraError as exc:
        raise MalformedCertificate("%s: %s" % (what, exc)) from exc


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise AlgebraError("bad token in %r at %d" % (text, pos))
        tok = m.group(1)
        out.append("^" if tok == "**" else tok)
        pos = m.end()
    return out


class _ExprParser:
    def __init__(self, tokens, field, variables):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.variables = variables
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self):
        val = self.expr()
        if self.peek() is not None:
            raise AlgebraError("trailing tokens in expression")
        return val

    def expr(self):
        val = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            _check_bound(op, val, rhs)
            val = val + rhs if op == "+" else val - rhs
        return val

    def term(self):
        val = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            _check_bound(op, val, rhs)
            if op == "/" and self.field.is_zero(rhs):
                raise AlgebraError("division by zero")
            val = val * rhs if op == "*" else val / rhs
        return val

    def factor(self):
        neg = False
        while self.peek() == "-":
            self.take()
            neg = not neg
        val = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if not tok or not tok.isdigit():
                raise AlgebraError("exponent must be a nonnegative integer")
            e = _int(tok)
            if e > MAX_EXPONENT:
                raise AlgebraError("exponent %d exceeds %d" % (e, MAX_EXPONENT))
            _within_caps(*(e * s for s in _size(val)))
            out = self.field.one()
            for _ in range(e):
                out = out * val
            val = out
        return -val if neg else val

    def atom(self):
        tok = self.take()
        if tok is None:
            raise AlgebraError("unexpected end of expression")
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise AlgebraError("parentheses nest deeper than %d" % MAX_NESTING)
            val = self.expr()
            if self.take() != ")":
                raise AlgebraError("missing closing parenthesis")
            self.depth -= 1
            return val
        if tok.isdigit():
            return self.field.from_int(_int(tok))
        if tok in self.variables:
            return self.variables[tok]
        raise AlgebraError("unknown symbol %r" % tok)


def _field_variables(field):
    vars = {}
    if isinstance(field, (RationalFunctionField, QuadraticFieldExtension)):
        vars[field.var] = field.gen()
        for k, v in _field_variables(field.base).items():
            vars[k] = field.from_base(v)
    elif isinstance(field, FiniteField) and field.k > 1:
        vars["u"] = field.gen()
    return vars


def parse_element(field, data):
    """Element of a field (or split algebra) from its JSON form."""
    if isinstance(field, SplitAlgebra):
        if isinstance(data, (list, tuple)) and len(data) == 2:
            return field.pair(parse_element(field.base, data[0]), parse_element(field.base, data[1]))
        # a plain value means the diagonal embedding
        return field.from_base(parse_element(field.base, data))
    if type(data) is int:  # not bool, which is an int subclass and no number
        if abs(data) >= 10**MAX_DIGITS:
            raise AlgebraError("integer of more than %d digits" % MAX_DIGITS)
        return field.from_int(data)
    if isinstance(data, str):
        tokens = _tokenize(data)
        return _ExprParser(tokens, field, _field_variables(field)).parse()
    if isinstance(data, (list, tuple)):
        raise AlgebraError("list element literal not valid for %s" % field.name)
    raise AlgebraError("cannot parse %r as an element of %s" % (data, field.name))


def format_element(field, x):
    if isinstance(field, SplitAlgebra):
        return [format_element(field.base, x.a), format_element(field.base, x.b)]
    return field.format_element(x)


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------


def field_to_spec(field):
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, FiniteField):
        if field.k == 1:
            return "F(%d)" % field.p
        # the modulus w^k - r(w), where w^k = r(w) is the field's reduction
        p = field.p
        modulus = Poly(FiniteField(p), tuple(-c % p for c in field.reduction) + (1,))
        return "F(%d):%s" % (field.order, modulus.format("w"))
    if isinstance(field, RationalFunctionField):
        return "%s(%s)" % (field_to_spec(field.base), field.var)
    raise AlgebraError("no spec string for %s" % field.name)


_FQ = re.compile(r"^F\((\d+)\)$")


def parse_field(spec):
    """Base-field spec -> Field."""
    spec = spec.strip()
    if spec.endswith(")") and "(" in spec and spec.split("(")[-1].rstrip(")").isalpha():
        # function-field suffix like "...(t)"
        open_idx = spec.rfind("(")
        var = spec[open_idx + 1 : -1]
        inner = spec[:open_idx]
        if inner in ("Q", "") or inner.startswith("F"):
            if inner == "Q":
                return RationalFunctionField(QQ, var)
            base = parse_field(inner)
            return RationalFunctionField(base, var)
    if spec == "Q":
        return QQ
    m = _FQ.match(spec)
    if m:
        q = _int(m.group(1))
        p, k = _prime_power(q)
        return FiniteField(p, k)
    if spec.startswith("F(") and ":" in spec:
        head, modulus = spec.split(":", 1)
        m = _FQ.match(head)
        if not m:
            raise AlgebraError("bad finite-field spec %r" % spec)
        q = _int(m.group(1))
        p, k = _prime_power(q)
        poly = _parse_monic_poly(FiniteField(p), modulus, "w", k)
        if isinstance(poly, F2Poly):
            low = [poly.bits >> i & 1 for i in range(k)]
        else:
            low = [c.coeffs[0] for c in poly.coeffs[:k]]
        return FiniteField(p, k, tuple(-c % p for c in low))
    raise AlgebraError("unknown field spec %r" % spec)


def _prime_power(q):
    """(p, k) with q = p^k, for 1 < q <= MAX_FIELD_ORDER."""
    if not 1 < q <= MAX_FIELD_ORDER:
        raise AlgebraError("field order %d is outside 2..%d" % (q, MAX_FIELD_ORDER))
    factors = _factor_int(q)
    if len(factors) != 1:
        raise AlgebraError("not a prime power")
    [(p, k)] = factors.items()
    return p, k


def _parse_monic_poly(base, text, var, degree):
    """Parse a monic degree-d polynomial in var."""
    ring = RationalFunctionField(base, var)
    val = parse_element(ring, text)
    if val.den.degree != 0:
        raise AlgebraError("modulus must be a polynomial")
    poly = val.num
    if poly.degree != degree:
        raise AlgebraError("modulus must have degree %d" % degree)
    if poly.lead() != base.one():
        raise AlgebraError("modulus must be monic")
    return poly


def parse_extension(base, spec):
    """Extension spec 'split' or a monic quadratic in x -> the algebra K."""
    if spec == "split":
        return etale_quadratic(base, "split")
    coeffs = _parse_monic_poly(base, spec, "x", 2).coeffs
    # x^2 + c1 x + c0 = x^2 - alpha x - beta
    return etale_quadratic(base, (-coeffs[1], -coeffs[0]))


def parse_extension_doc(doc):
    """{"base": field spec, "ext": extension spec} -> the algebra K."""
    if not isinstance(doc, dict) or not all(isinstance(doc.get(key), str) for key in ("base", "ext")):
        raise MalformedCertificate("an extension needs the string specs 'base' and 'ext'")
    with _as_malformed("extension"):
        return parse_extension(parse_field(doc["base"]), doc["ext"])


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------


def parse_form(doc, field=None):
    """{"field": spec, "dim": n, "upper": [[...]]} or "diag": [...]."""
    if not isinstance(doc, dict):
        raise MalformedCertificate("form literal must be a JSON object")
    if field is None:
        spec = doc.get("field")
        if spec is None:
            raise MalformedCertificate("form literal needs a field")
        field = parse_form_field(spec)
    if "diag" in doc:
        if not isinstance(doc["diag"], list):
            raise MalformedCertificate("form literal's 'diag' must be a list")
        with _as_malformed("form"):
            return QuadraticForm.diagonal(field, [parse_element(field, e) for e in doc["diag"]])
    n = doc.get("dim")
    upper = doc.get("upper")
    if upper is None:
        raise MalformedCertificate("form literal needs 'upper' or 'diag'")
    if not isinstance(upper, list) or not all(isinstance(row, list) for row in upper):
        raise MalformedCertificate("form literal's 'upper' must be a list of rows")
    if n is not None and n != len(upper):
        raise MalformedCertificate("dim does not match the matrix size")
    with _as_malformed("form"):
        return QuadraticForm(field, [[parse_element(field, e) for e in row] for row in upper])


def parse_form_field(spec):
    """Field of a form: base spec string or {"base":…, "ext":…}."""
    if isinstance(spec, str):
        with _as_malformed("form field"):
            return parse_field(spec)
    K = parse_extension_doc(spec)
    if K.kind != "field":
        raise MalformedCertificate("forms over the split algebra are not supported")
    return K


def form_field_spec(field):
    if isinstance(field, QuadraticFieldExtension):
        return {
            "base": field_to_spec(field.base),
            "ext": "x^2-(%s)*x-(%s)" % (
                format_element(field.base, field.alpha),
                format_element(field.base, field.beta),
            ),
        }
    return field_to_spec(field)


def form_to_json(form):
    return {
        "field": form_field_spec(form.field),
        "dim": form.n,
        "upper": [[format_element(form.field, c) for c in row] for row in form.upper],
    }


def vector_to_json(field, vec):
    return [format_element(field, c) for c in vec]


def parse_vector(field, data):
    return tuple(parse_element(field, c) for c in data)
