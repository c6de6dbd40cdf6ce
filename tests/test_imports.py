"""No module of the package or of its tests imports a name it never reads.

A name counts as read where the module loads it, lists it in ``__all__``,
or names it in an annotation, string annotations included.  Other string
constants are not parsed: read as code, "gamma-separation" would load
``gamma``.
"""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns


def _names_read(tree: ast.AST) -> set[str]:
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    for annotation in _annotations(tree):
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                read |= _names_read(ast.parse(c.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[str]:
    """``name (line N)`` for each name the source imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = _names_read(tree)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def test_unused_imports_finds_what_is_never_read():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import os.path, json, re\n"
        "from .a import b, c, d, e as f, g\n"
        "__all__ = ['c']\n"
        "if TYPE_CHECKING:\n"
        "    from .h import H\n"
        "def run(x: 'H') -> 'list[d]':\n"
        "    os.path.join(json.dumps(x), 'g-separation')\n"
        "    b = 1\n"
    )
    assert unused_imports(source) == ["re (line 2)", "b (line 3)", "f (line 3)",
                                      "g (line 3)"]


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted((_ROOT / "src" / "cohnibn").glob("*.py"))
    paths += sorted((_ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    unused = {path.relative_to(_ROOT).as_posix(): unused_imports(path.read_text())
              for path in paths}
    assert {path: names for path, names in unused.items() if names} == {}
