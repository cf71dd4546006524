"""Static hygiene of the package source, checked with ``ast`` alone.

Every import binds a name that the module uses (``__init__.py`` re-exports
are exempt), no module imports a private (underscore) name from another,
and every private module-level function or class is referenced somewhere in
the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "visualraag"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def _imported(tree: ast.Module):
    """(bound name, imported name, module level) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, 0
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.level


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations."""
    roots = [tree]
    for ann in _annotations(tree):
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                roots.append(ast.parse(sub.value, mode="eval"))
    return {
        node.id
        for root in roots
        for node in ast.walk(root)
        if isinstance(node, ast.Name)
    }


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_no_unused_imports(name):
    tree = _tree(name)
    used = _used_names(tree)
    unused = sorted({bound for bound, _, _ in _imported(tree) if bound not in used})
    assert not unused, f"{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports_across_modules(name):
    private = sorted(
        imported
        for _, imported, level in _imported(_tree(name))
        if level > 0 and imported.startswith("_") and not imported.startswith("__")
    )
    assert not private, f"{name} imports private names from sibling modules: {private}"


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded, plus attribute names read, anywhere in the module."""
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return _used_names(tree) | attrs


@pytest.mark.parametrize("name", MODULES)
def test_no_unreferenced_private_definitions(name):
    referenced = set().union(*(_referenced(_tree(m)) for m in MODULES))
    dead = sorted(d for d in _private_definitions(_tree(name)) if d not in referenced)
    assert not dead, f"{name} defines private names nothing references: {dead}"
