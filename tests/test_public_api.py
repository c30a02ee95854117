"""Dead-code guard: every public function and method in `src/nclab` is
referenced somewhere in the package outside its own body.

References are matched by bare name (a `Name` or an attribute access), so a
dead function whose name collides with a live one escapes the guard; it
never flags live code.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nclab"

# Reachable only from the tests until they are wired into `nclab bounds` /
# `nclab train` or deleted (ROADMAP open item 2). Remove a name from this
# list when it gets a caller in the package.
UNWIRED = {
    "bounds.large_lr_kappa_bound",
    "bounds.scan_partial_product_kappa",
    "bounds.pl_check",
    "bounds.thm2_nc1_rhs",
    "network.NetworkConfig.is_pyramidal",
}

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node) -> Counter:
    """How often each bare name is used below `node`."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
    return out


def _public_functions(module: str, tree: ast.Module):
    """(qualified name, def node) of each public module function and method."""
    for node in tree.body:
        if isinstance(node, FUNCTION_DEFS):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTION_DEFS):
                    yield f"{module}.{node.name}.{item.name}", item


def _unreferenced() -> set:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = sum((_names(t) for t in trees.values()), Counter())
    dead = set()
    for module, tree in trees.items():
        for qualname, node in _public_functions(module, tree):
            if node.name.startswith("_"):
                continue
            if used[node.name] - _names(node)[node.name] <= 0:
                dead.add(qualname)
    return dead


def test_every_public_function_has_a_caller_in_the_package():
    dead = _unreferenced()
    assert dead - UNWIRED == set(), "public functions nothing in src/nclab calls"
    assert UNWIRED - dead == set(), "now referenced (or gone): drop from UNWIRED"
