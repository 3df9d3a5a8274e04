"""The runtime depends on the standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "racah_dunkl"


def test_every_absolute_import_is_stdlib_or_the_package():
    allowed = set(sys.stdlib_module_names) | {"racah_dunkl"}
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed
            ]
    assert outside == []


def floating_point(tree: ast.AST) -> list[str]:
    """Float and complex literals, and calls to float or isclose, in a syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("float", "isclose"):
                found.append(f"{node.lineno}: call to {name}")
    return found


def test_no_floating_point_anywhere_in_the_package():
    probe = "a = 0.5\nb = 2j\nc = float(a)\nd = math.isclose(a, c)\ne = isclose(a, c)\n"
    assert len(floating_point(ast.parse(probe))) == 5
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in floating_point(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []
