"""The three routes to every count stay independent: none of their modules
imports a module of another route.  Each may import compositions, where the
shared definitions (predicates, families, the k rule) live."""

import ast
from pathlib import Path

import pytest

import arndt

PACKAGE = Path(arndt.__file__).parent
ROUTE = {"counting": "brute force", "series": "generating functions",
         "catalog": "generating functions", "formulas": "closed forms"}
SHARED = {"compositions"}


def arndt_imports(source: str) -> set:
    """The arndt modules that a module of the package imports, by their short
    names, read from its source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("arndt." if node.level else "") + (node.module or "")
            base = base.rstrip(".")
            targets = ([f"{base}.{alias.name}" for alias in node.names]
                       if base == "arndt" else [base])
        else:
            continue
        found |= {t.split(".")[1] for t in targets if t.startswith("arndt.")}
    return found


def test_arndt_imports_reads_every_form():
    source = ("import math, arndt.series\nfrom typing import Dict\n"
              "from arndt import counting\nfrom arndt.formulas import lucas\n"
              "from . import catalog\nfrom .verify import CHECKS\n")
    assert arndt_imports(source) == {"series", "counting", "formulas",
                                     "catalog", "verify"}


@pytest.mark.parametrize("module", sorted(ROUTE))
def test_route_imports_no_other_route(module):
    own = {name for name, route in ROUTE.items() if route == ROUTE[module]}
    source = (PACKAGE / f"{module}.py").read_text()
    assert arndt_imports(source) <= own | SHARED


def test_compositions_is_a_leaf():
    # Every route imports compositions, where the families and statistics
    # live, so it may import no module of the package itself.
    assert arndt_imports((PACKAGE / "compositions.py").read_text()) == set()
