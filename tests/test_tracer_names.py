"""Every albertkit name that the benchmark tracer binds must exist.

perfbench/tracer.py wraps functions and methods by module and name; a
rename in src/albertkit would otherwise break `perfbench/run.py --trace 1`
without failing any test.  The tables are read from the file's syntax
tree, so nothing under perfbench/ is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TABLES = ("SPAN_FUNCTIONS", "SPAN_METHODS", "STEPPED_GENERATORS", "YIELD_COUNTERS", "FIELD_COUNTERS")


def _tracer_tables():
    tree = ast.parse(TRACER.read_text())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                tables[name] = ast.literal_eval(node.value)
    # the extra wrappers that Tracer.install binds by name
    tables["rebound"] = [
        tuple(arg.value for arg in call.args[:2])
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and getattr(call.func, "attr", None) == "_rebind_everywhere"
        and all(isinstance(arg, ast.Constant) for arg in call.args[:2])
    ]
    return tables


def _module(name):
    return importlib.import_module("albertkit." + name)


def test_tracer_names_exist():
    tables = _tracer_tables()
    assert set(TABLES) <= set(tables) and tables["rebound"]
    for module, name, *_ in tables["SPAN_FUNCTIONS"] + tuple(tables["rebound"]):
        assert callable(getattr(_module(module), name, None)), "albertkit.%s.%s" % (module, name)
    for module, name, *_ in tables["STEPPED_GENERATORS"] + tables["YIELD_COUNTERS"]:
        fn = getattr(_module(module), name, None)
        assert inspect.isgeneratorfunction(fn), "albertkit.%s.%s" % (module, name)
    for module, cls, method, *_ in tables["SPAN_METHODS"] + tables["FIELD_COUNTERS"]:
        owner = getattr(_module(module), cls, None)
        assert owner is not None and method in vars(owner), "albertkit.%s.%s.%s" % (module, cls, method)
