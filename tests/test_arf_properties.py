"""Property test of arf_trivial's formula against the Clifford-algebra reference.

Random nonsingular forms of dimension 2, 4 and 6 over Q, F_3, F_2 and F_4
must get the same verdict and the same (p, q) from the orthogonal or
symplectic basis as from the center of the even Clifford algebra built in
tests/reference.py.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from reference import clifford_arf  # noqa: E402

from albertkit import QQ, FiniteField, QuadraticForm, arf_trivial  # noqa: E402

FIELDS = {"Q": QQ, "F3": FiniteField(3), "F2": FiniteField(2), "F4": FiniteField(2, 2)}
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def nonsingular_forms(draw, field):
    """A nonsingular form of dimension 2, 4 or 6, Gram matrix upper triangular."""
    n = draw(st.sampled_from((2, 4, 6)))
    if field.order is None:
        entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        entries = st.sampled_from(list(field.elements()))
    rows = [[draw(entries) if j >= i else field.zero() for j in range(n)] for i in range(n)]
    form = QuadraticForm(field, rows)
    assume(form.classify().nonsingular)
    return form


@pytest.mark.parametrize("name", FIELDS)
@PROPERTY
@given(data=st.data())
def test_arf_formula_matches_the_clifford_reference(name, data):
    form = data.draw(nonsingular_forms(FIELDS[name]))
    trivial, cert = arf_trivial(form)
    assert (trivial, cert["p"], cert["q"]) == clifford_arf(form)
    assert cert["center_split"] == trivial
    if trivial:
        r = cert["root"]
        assert r * r - cert["p"] * r - cert["q"] == 0
