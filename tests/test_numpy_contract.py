"""Static guards of the curve path's bitwise contract and of the
numpy-free start.

The array forms in ``_array_path`` give the one-point value bit for bit
only because numpy does nothing there but IEEE-exact elementwise arithmetic
and bookkeeping: every exp, log, log1p and power goes through ``math``, and
no series sum uses a numpy reduction. The golden files catch a vectorised
transcendental or a reduction only where its result differs from ``math``
on the machine that runs them; this test reads the source and catches it on
every platform.

``_array_path`` is also the only module that may import numpy when it is
imported: the others import it inside the functions that need it, so a
process that evaluates only short curves never loads numpy.
"""

import ast
from pathlib import Path

import pytest

import keyhole_harq

_SRC = Path(keyhole_harq.__file__).parent

_MODULES = ["specfun.py", "analysis.py", "_array_path.py"]
# Every numpy name these modules use: exact arithmetic, array building and
# indexing, and predicates.
_ALLOWED = frozenset("""
    abs add subtract multiply divide array zeros ones ones_like full
    empty_like count_nonzero flatnonzero fromiter vstack isfinite errstate
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


def _module_level_numpy(tree: ast.AST) -> list:
    """Lines of the numpy imports that run when the module is imported:
    those outside every function body and every ``if TYPE_CHECKING:``."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                    and node.test.id == "TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = []
            if any(n.split(".")[0] == "numpy" for n in names):
                found.append(node.lineno)
            visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


@pytest.mark.parametrize("module", sorted(
    p.name for p in _SRC.glob("*.py") if p.name != "_array_path.py"))
def test_no_numpy_import_at_module_level(module):
    assert _module_level_numpy(_parse(module)) == []


@pytest.mark.parametrize("source,flagged", [
    ("import numpy as np", True),
    ("import numpy.random", True),
    ("from numpy import exp", True),
    ("try:\n    import numpy\nexcept ImportError:\n    pass", True),
    ("class A:\n    import numpy", True),
    ("def f():\n    import numpy as np", False),
    ("class A:\n    def f(self):\n        import numpy", False),
    ("if TYPE_CHECKING:\n    import numpy as np", False),
    ("import numbers", False),
])
def test_module_level_guard_flags(source, flagged):
    assert bool(_module_level_numpy(ast.parse(source))) == flagged
