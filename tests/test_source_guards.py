"""Source guards.  The package writes its structure-constant contractions as
reshapes and matmuls, so no module may ask numpy to plan an einsum: planning
re-parses the subscripts and searches for a path on every call."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "esspath"
MODULES = sorted(SRC.glob("*.py"))


def einsum_planning(source: str) -> list[int]:
    """Lines that name or import einsum_path, or call einsum with an
    optimize keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "einsum_path":
            lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                lines.append(node.lineno)
    return lines


def test_the_package_has_modules():
    assert SRC / "essential.py" in MODULES and SRC / "endo.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_planning(path):
    assert einsum_planning(path.read_text()) == [], path.name


@pytest.mark.parametrize("source, lines", [
    ("np.einsum('ij,jk->ik', a, b)", []),
    ("np.einsum('tii->t', a)\nnp.einsum('ij,jk->ik', a, b, optimize=True)", [2]),
    ("einsum('ij,jk->ik', a, b, optimize=path)", [1]),
    ("path = np.einsum_path('ij,jk->ik', a, b)[0]", [1]),
    ("from numpy import einsum_path as plan\nplan('i->', a)", [1]),
])
def test_the_guard_finds_planning(source, lines):
    assert einsum_planning(source) == lines
