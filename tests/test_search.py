"""Search budgets: `searched` counts every candidate drawn."""

import ast
import itertools
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from reference import isometric_embedding

from albertkit import QQ, BudgetExhausted, FiniteField, QuadraticForm, RationalFunctionField
from albertkit.harness import generate_instance
from albertkit.quaternion import _candidate_elements, find_disjoint_quadratic_subalgebra
from albertkit.search import Budget, centered_ints, primitive_int_vectors, projective_points, zeros

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "albertkit"


def test_budget_counts_the_draw_that_crosses_the_limit():
    budget = Budget(3)
    assert list(budget.take(iter(range(10)))) == [0, 1, 2]
    assert budget.spent == 4 and budget.exhausted
    assert list(budget.take(iter(range(10)))) == []  # a spent budget draws nothing more
    assert budget.spent == 4
    budget = Budget(5)
    assert list(budget.take(range(2))) + list(budget.take(range(3))) == [0, 1, 0, 1, 2]
    assert budget.spent == 5 and not budget.exhausted  # the streams ran dry exactly at the limit


def test_subalgebra_search_reports_its_draws():
    # Cor is a division algebra here, so no candidate is a witness
    _, ext, Q = generate_instance("split-K-over-Qt", 17).build()
    for n in (0, 1, 50):
        with pytest.raises(BudgetExhausted) as exc:
            find_disjoint_quadratic_subalgebra(Q, etale_required=False, height=1, max_candidates=n)
        assert exc.value.searched == n + 1
    length = sum(1 for _ in _candidate_elements(Q, 1))
    with pytest.raises(BudgetExhausted) as exc:
        find_disjoint_quadratic_subalgebra(Q, etale_required=False, height=1, max_candidates=length)
    assert exc.value.searched == length == 3**8


def test_embedding_search_reports_its_draws():
    # <1> does not embed in <-1> over Q; height 1 offers the columns 0, 1, -1
    one, minus_one = QuadraticForm.diagonal(QQ, [1]), QuadraticForm.diagonal(QQ, [-1])
    with pytest.raises(BudgetExhausted) as exc:
        isometric_embedding(one, minus_one, height=1)
    assert exc.value.searched == 3


def test_function_field_points_do_not_repeat():
    # over F_q(t) the pool of entries holds 0 once: every vector comes once
    for base, n, h, count in (
        (FiniteField(2), 6, 1, 2**6 - 1),
        (FiniteField(2), 6, 2, 4**6 - 2**6),
        (FiniteField(3), 3, 2, 9**3 - 3**3),
        (FiniteField(2, 2), 3, 1, 4**3 - 1),
    ):
        field = RationalFunctionField(base, "t")
        vecs = [tuple(field.format_element(c) for c in v) for v in projective_points(field, n, h)]
        assert len(vecs) == len(set(vecs)) == count


def test_primitive_vectors_are_the_filtered_product():
    # the reference forms every tuple and keeps the primitive ones of sup-norm
    # h; the stream forms only tuples that reach h, in the same order
    def reference(n, h):
        pool = centered_ints(h)
        for k in range(n):
            for lead in range(1, h + 1):
                for tail in itertools.product(pool, repeat=n - k - 1):
                    vec = (0,) * k + (lead,) + tail
                    if max(map(abs, vec)) == h and gcd(*vec) == 1:
                        yield vec

    for n in range(1, 7):
        for h in range(1, 7 if n < 5 else 4):
            assert list(primitive_int_vectors(n, h)) == list(reference(n, h)), (n, h)


def test_integer_scan_over_q_matches_the_fraction_scan():
    # the reference evaluates every candidate of projective_points with
    # Fractions; zeros scales the form to integers and must find the same
    # zeros in the same order
    def reference(form, heights):
        return [(h, v) for h in heights for v in projective_points(QQ, form.n, h) if not form.evaluate(v)]

    rng = random.Random(47)
    forms = [
        # a zero row: every vector supported on the last coordinate is a zero
        QuadraticForm(QQ, [[1, Fraction(1, 2), 0], [0, Fraction(-3, 4), 0], [0, 0, 0]]),
        QuadraticForm.diagonal(QQ, [1, 1, -2, Fraction(-1, 3)]),
    ]
    for n in (2, 3, 3, 4, 4):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.6:
                    rows[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        # plant a zero x of height <= 3 with x_0 = 1 by moving the first entry
        x = [1] + [rng.randint(-3, 3) for _ in range(n - 1)]
        rows[0][0] -= QuadraticForm(QQ, rows).evaluate(x)
        forms.append(QuadraticForm(QQ, rows))
    for form in forms:
        found = list(zeros(form, (1, 2, 3)))
        assert found and found == reference(form, (1, 2, 3))
        assert all(type(c) is Fraction for _, v in found for c in v)


def test_every_search_limit_is_read():
    # a limit that no code reads is a knob for a search that no longer runs;
    # the check reads syntax trees, so a name counts wherever it is loaded
    tree = ast.parse((PACKAGE / "search.py").read_text())
    constants = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        constants |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    assert "DEFAULT_HEIGHT" in constants
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert constants <= read, "unread search.py constants: %s" % sorted(constants - read)
