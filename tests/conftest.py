import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from albertkit import QuadraticForm, linalg  # noqa: E402


@pytest.fixture
def rref_calls(monkeypatch):
    """The arguments of each `linalg._rref` call (each elimination) the test makes."""
    calls = []
    rref = linalg._rref
    monkeypatch.setattr(linalg, "_rref", lambda *args: calls.append(args) or rref(*args))
    return calls


def random_nonsingular_form(field, dim, rng, size=4, tries=200):
    """Random nonsingular form: diagonal-ish in odd/zero characteristic,
    binary blocks in characteristic 2."""
    for _ in range(tries):
        if field.char == 2:
            if dim % 2:
                raise ValueError("characteristic 2 nonsingular forms have even dimension")
            form = None
            for _ in range(dim // 2):
                a = field.random_element(rng, size)
                b = field.random_element(rng, size)
                block = QuadraticForm.binary(field, a, b)
                form = block if form is None else form.orthogonal_sum(block)
        else:
            rows = []
            for i in range(dim):
                row = [field.zero()] * dim
                row[i] = field.random_element(rng, size)
                for j in range(i + 1, dim):
                    if rng.random() < 0.3:
                        row[j] = field.random_element(rng, size)
                rows.append(row)
            form = QuadraticForm(field, rows)
        if form.classify().nonsingular:
            return form
    raise RuntimeError("could not sample a nonsingular form")


def seeded(seed):
    return random.Random(seed)
