"""Every function, class and method in src/racah_dunkl is reached from a root.

The roots are the command line (``cli.main``), every package name that
perfbench/*.py uses, and the README's library example.  Reachability is
read from the source alone, so it over-approximates: a top-level name is
reached when a reached body names it (directly, through a sibling
import, or as ``module.name``), and a method is reached when its class is
reached and either it is a special method or some reached body or root
reads an attribute of that name.  Type annotations run nothing and are
not read.  So a definition this walk cannot reach is one that nothing
but the tests calls: it belongs in the tests, or nowhere.  Likewise every
exception class the package exports must be raised in a reached body.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import racah_dunkl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "racah_dunkl"

# definitions kept although no root reaches them, each with its reason
KEEP = {
    "connection.fischer_pairing": "the orthogonality suite of ROADMAP item 7 builds on it",
    "harmonics.ck_extend": "the input-checked entry to the lift that the tower runs unchecked",
    "linalg.RationalMatrix.from_fractions": "the constructor from dense Fraction rows that "
    "the tests build matrices with",
    "poly.Polynomial.evaluate": "evaluates the recurrence polynomials that racah.py returns, "
    "as criterion 09 does",
    "racah.racah_recurrence_polys": "the library entry to the recurrence polynomials H_0..H_k "
    "that criterion 09 evaluates; the racah table builds the same H_k from its own (B_k, U_k^2)",
}


def _is_special(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _walk(node: ast.AST):
    """ast.walk without type annotations, which are never evaluated."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                todo.append(value)
            elif isinstance(value, list):
                todo.extend(v for v in value if isinstance(v, ast.AST))


class _Module:
    """One source module: its definitions, imports and module-level code."""

    def __init__(self, name: str, tree: ast.Module):
        self.name = name
        self.defs: dict[str, list[ast.AST]] = {}  # qualified name -> the nodes it runs
        self.method_of: dict[str, str] = {}  # qualified method -> qualified class
        self.imports: dict[str, str] = {}  # local name -> sibling module or qualified name
        self.toplevel: list[ast.AST] = []
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.defs[f"{name}.{node.name}"] = [node]
            elif isinstance(node, ast.ClassDef):
                self._define_class(node)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    for alias in node.names:
                        qual = f"{node.module}.{alias.name}" if node.module else alias.name
                        self.imports[alias.asname or alias.name] = qual
            elif not isinstance(node, ast.Import):
                self.toplevel.append(node)

    def _define_class(self, node: ast.ClassDef) -> None:
        cls = f"{self.name}.{node.name}"
        own: list[ast.AST] = node.bases + node.decorator_list
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                method = f"{cls}.{item.name}"
                self.defs[method] = [item]
                self.method_of[method] = cls
            else:
                own.append(item)
        self.defs[cls] = own


def _modules() -> dict[str, _Module]:
    return {
        path.stem: _Module(path.stem, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def _exports() -> dict[str, str]:
    """Each name the package root exports -> its qualified definition."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = _Module("racah_dunkl", tree).imports
    return {local: qual for local, qual in imports.items() if "." in qual}


def _references(nodes, module: _Module, modules) -> tuple[set[str], set[str]]:
    """Qualified definitions the nodes name, and the attribute names they read."""
    names: set[str] = set()
    attrs: set[str] = set()
    for root in nodes:
        for node in _walk(root):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                qual = f"{module.name}.{node.id}"
                if qual in module.defs:
                    names.add(qual)
                elif node.id in module.imports:
                    names.add(module.imports[node.id])
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                base = node.value
                if isinstance(base, ast.Name) and module.imports.get(base.id) in modules:
                    names.add(f"{module.imports[base.id]}.{node.attr}")
    return names, attrs


def _perfbench_roots(modules, exports) -> tuple[set[str], set[str]]:
    """The package names perfbench/*.py uses, and the attribute names it reads.

    perfbench imports the package or its modules and reaches the rest by
    attribute, and it wraps methods by name: every attribute it reads
    and every identifier it writes as a string counts as used.  A loop
    ``for name in dir(module)`` filtered by ``name.startswith(prefix)``
    reaches every top-level name of that module with the prefix.
    """
    names: set[str] = set()
    attrs: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        local = {"racah_dunkl": ""}  # local name -> module ("" for the package root)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "racah_dunkl":
                for alias in node.names:
                    if alias.name in exports:
                        names.add(exports[alias.name])
                    else:
                        local[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in local:
                    module = local[node.value.id]
                    if module:
                        names.add(f"{module}.{node.attr}")
                    elif node.attr in exports:
                        names.add(exports[node.attr])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    attrs.add(node.value)
            elif isinstance(node, ast.For) and _dir_of(node.iter, local) in modules:
                defs = modules[_dir_of(node.iter, local)].defs
                for prefix in _startswith_prefixes(node):
                    names.update(
                        q for q in defs if q.count(".") == 1 and q.split(".")[1].startswith(prefix)
                    )
    return names, attrs


def _dir_of(node: ast.AST, local: dict[str, str]) -> str | None:
    """The module M of a call dir(M), else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dir"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
    ):
        return local.get(node.args[0].id)
    return None


def _startswith_prefixes(loop: ast.For) -> list[str]:
    return [
        node.args[0].value
        for node in ast.walk(loop)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "startswith"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    ]


def _readme_roots(exports) -> tuple[set[str], set[str]]:
    """The package names the README's library example imports, and its attributes."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert blocks, "the README has no library example"
    names: set[str] = set()
    attrs: set[str] = set()
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "racah_dunkl":
                names.update(exports[alias.name] for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def unreachable(kept=()) -> list[str]:
    """Every qualified definition under src/racah_dunkl that no root reaches.

    The names in ``kept`` count as roots too, so what a kept definition
    calls is reached through it.  Module-level code runs on import, so
    what it names is reached.
    """
    owner, reached = _reach(kept)
    return sorted(set(owner) - reached)


def _reach(kept=()) -> tuple[dict[str, _Module], set[str]]:
    """Each qualified definition's module, and the definitions the roots and kept reach."""
    modules = _modules()
    exports = _exports()
    owner = {q: m for m in modules.values() for q in m.defs}
    method_of = {q: cls for m in modules.values() for q, cls in m.method_of.items()}

    names = {"cli.main", *kept}
    attrs: set[str] = set()
    found = [_perfbench_roots(modules, exports), _readme_roots(exports)]
    found += [_references(m.toplevel, m, modules) for m in modules.values()]
    for more_names, more_attrs in found:
        names |= more_names
        attrs |= more_attrs

    def live(q: str) -> bool:
        if q not in method_of:
            return q in names
        short = q.rsplit(".", 1)[1]
        return method_of[q] in reached and (q in names or short in attrs or _is_special(short))

    reached: set[str] = set()
    while True:
        new = [q for q in owner if q not in reached and live(q)]
        if not new:
            return owner, reached
        for q in new:
            reached.add(q)
            more_names, more_attrs = _references(owner[q].defs[q], owner[q], modules)
            names |= more_names
            attrs |= more_attrs


def test_every_definition_in_src_is_reached_or_kept():
    missing = unreachable(KEEP)
    assert not missing, f"reached by no command, benchmark or README example: {missing}"


def test_every_kept_definition_exists_and_is_unreached():
    left = unreachable()
    stale = [q for q in KEEP if q not in left]
    assert not stale, f"kept names that are now reached or gone: {stale}"


def _raised(module: _Module, nodes) -> set[str]:
    """Qualified names of the classes that ``raise X`` or ``raise X(...)`` in the nodes names."""
    raised = set()
    for root in nodes:
        for node in _walk(root):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(module.imports.get(exc.id, f"{module.name}.{exc.id}"))
    return raised


def test_every_exported_exception_is_raised_in_a_reached_body():
    # an exception class whose every raise is unreachable names a failure
    # that can no longer happen, so it goes with its raise
    owner, reached = _reach()
    raised = set().union(*(_raised(owner[q], owner[q].defs[q]) for q in reached))
    exceptions = {
        qual for name, qual in _exports().items()
        if isinstance(cls := getattr(racah_dunkl, name), type) and issubclass(cls, BaseException)
    }
    assert "connection.SpanMismatch" in exceptions
    assert not exceptions - raised, f"exported but raised in no reached body: {exceptions - raised}"


def test_the_readme_library_example_prints_what_its_comments_say():
    # T_1 x_1 prints "2", the eigenvalue an exact Fraction, and the matrix
    # on the degree-4 monomials the shape its comment gives
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                          flags=re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    dunkl_line, eigenvalue, shape = out.getvalue().splitlines()
    assert re.search(r"\.to_text\(\)\)\s+# (\S+)\n", block)[1] == dunkl_line == "2"
    assert Fraction(eigenvalue) > 0 and "/" in eigenvalue
    rows, cols = re.search(r"\((\d+) x (\d+)\)\n", block).groups()
    assert shape == f"({rows}, {cols})" == "(15, 15)"
