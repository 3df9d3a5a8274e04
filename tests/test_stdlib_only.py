"""The runtime depends on the standard library alone."""

import ast
import os
import subprocess
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


def generated_code(tree: ast.AST) -> list[str]:
    """Uses of dataclasses, namedtuple, NamedTuple, exec and eval in a syntax tree."""
    banned = {"dataclass", "dataclasses", "namedtuple", "NamedTuple", "exec", "eval"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, (ast.Name, ast.Attribute)):
            names = [getattr(node, "id", None) or node.attr]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names if name in banned]
    return found


def test_no_generated_code_in_the_package():
    probe = (
        "from dataclasses import dataclass\nimport collections\nT = collections.namedtuple('T', 'a')\n"
        "from typing import NamedTuple\nexec('1')\nx = eval('1')\n"
    )
    assert len(generated_code(ast.parse(probe))) == 6
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in generated_code(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert found == []


def test_import_loads_no_dataclasses_inspect_argparse_or_gettext():
    # -S: no site hooks, so only the package and what it imports are loaded
    code = (
        "import sys, racah_dunkl, racah_dunkl.cli; "
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"
