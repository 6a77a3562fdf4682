"""Static guard of the curve path's bitwise contract.

The array forms in ``specfun`` and ``analysis`` give the one-point value
bit for bit only because numpy does nothing there but IEEE-exact
elementwise arithmetic and bookkeeping: every exp, log, log1p and power goes
through ``math``, and no series sum uses a numpy reduction. The golden files
catch a vectorised transcendental or a reduction only where its result
differs from ``math`` on the machine that runs them; this test reads the
source and catches it on every platform.
"""

import ast
from pathlib import Path

import pytest

import keyhole_harq

_SRC = Path(keyhole_harq.__file__).parent

_MODULES = ["specfun.py", "analysis.py"]
# Every numpy name the two modules use: exact arithmetic, array building
# and indexing, and predicates.
_ALLOWED = frozenset("""
    sqrt abs maximum add subtract array zeros_like ones ones_like full
    flatnonzero fromiter vstack isfinite isnan errstate
""".split())
# Reductions, whose grouping is numpy's, not the one-point loop's. np.add
# and np.subtract are allowed, so their ufunc reductions are barred too.
_REDUCTIONS = frozenset(
    "sum prod cumsum mean dot reduce accumulate".split())


def _parse(module: str) -> ast.AST:
    return ast.parse((_SRC / module).read_text(), filename=module)


def _aliases(tree: ast.AST) -> set:
    aliases = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names
                        if a.name == "numpy"}
    return aliases


def _violations(tree: ast.AST) -> list:
    aliases = _aliases(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found.append((node.lineno, "from numpy import"))
        elif isinstance(node, ast.Attribute):
            if (isinstance(node.value, ast.Name) and node.value.id in aliases
                    and node.attr not in _ALLOWED):
                found.append((node.lineno, f"np.{node.attr}"))
            elif node.attr in _REDUCTIONS:
                found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((node.lineno, "@"))
    return found


@pytest.mark.parametrize("module", _MODULES)
def test_numpy_only_in_exact_operations(module):
    assert _violations(_parse(module)) == []


def test_every_allowed_name_is_used():
    # the allow-list holds today's uses, so a name no module uses any more
    # leaves it rather than waiting there for a new use to go unreviewed
    used = set()
    for module in _MODULES:
        tree = _parse(module)
        aliases = _aliases(tree)
        used |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in aliases}
    assert sorted(_ALLOWED - used) == []


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.exp(x)",
    "import numpy as np\nnp.log1p(-s)",
    "import numpy\nnumpy.power(x, 2)",
    "import numpy as xp\nxp.einsum('i->', x)",
    "from numpy import exp",
    "acc = terms.sum()",
    "g = np.add.reduce(t)",
    "c = t.cumsum(axis=0)",
    "m = a.mean()",
    "d = a.dot(b)",
    "d = a @ b",
    "p = a.prod()",
])
def test_guard_flags(source):
    assert _violations(ast.parse(source))
