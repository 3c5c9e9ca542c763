"""The integer layer: one bounded trial division behind a leaf module."""

import ast
import sys
import time
from pathlib import Path

import pytest

from albertkit import FiniteField
from albertkit.errors import AlgebraError

PLACES = Path(__file__).resolve().parents[1] / "src" / "albertkit" / "places.py"


def test_places_imports_only_errors_and_the_standard_library():
    for node in ast.walk(ast.parse(PLACES.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module == "errors", ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module.split(".")[0] in sys.stdlib_module_names, node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name


def test_finite_field_refuses_a_prime_it_cannot_certify_in_time():
    # trial division to sqrt(2^61 - 1) would take minutes; it stops at the bound
    start = time.process_time()
    with pytest.raises(AlgebraError):
        FiniteField(2**61 - 1)
    assert time.process_time() - start < 1.0


def test_finite_field_certifies_primes_up_to_the_square_of_the_bound():
    P = 1099511627689  # the largest prime below 2^40
    assert FiniteField(P).order == P
    for p in (0, 1, 4, 91, -7, P - 2):
        with pytest.raises(AlgebraError):
            FiniteField(p)

