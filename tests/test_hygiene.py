"""Static hygiene of the package source, checked with ``ast`` alone.

Every import binds a name that the module uses (``__init__.py`` re-exports
are exempt), no module imports a private (underscore) name from another,
every private module-level function or class is referenced somewhere in
the package, every defaulted parameter of a package function is passed by
some call in the repository, every public function, class and method is
reached from the package, its scripts or its benchmark, and no module holds
an ``assert`` statement.
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


# Every call in these trees counts as a caller of the package.
CALLER_DIRS = ("src", "tests", "bench", "scripts")


def _defaulted_parameters():
    """(module, function, parameter, position) for every defaulted parameter
    of a function or method in the package; ``position`` is the index among
    the positional arguments of a call (``self``/``cls`` not counted), or
    None for a keyword-only parameter.  A method is called by its name, an
    ``__init__`` by its class name."""

    def visit(node, name, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, name, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from params(child, name, owner)
                yield from visit(child, name, None)
            else:
                yield from visit(child, name, owner)

    def params(fn, name, owner):
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
        bound = owner is not None and not static
        called = owner.name if bound and fn.name == "__init__" else fn.name
        positional = fn.args.posonlyargs + fn.args.args
        first_default = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first_default:], first_default):
            yield name, called, arg.arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield name, called, arg.arg, None

    for name in MODULES:
        yield from visit(_tree(name), name, None)


def _calls_by_name() -> dict[str, list[ast.Call]]:
    root = SRC.parent.parent
    out: dict[str, list[ast.Call]] = {}
    for d in CALLER_DIRS:
        for path in sorted((root / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if called is not None:
                        out.setdefault(called, []).append(node)
    return out


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **kwargs
        return True
    if position is None:
        return False
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return len(call.args) > position


def test_every_default_is_overridden_by_some_call():
    """A defaulted parameter that no call in the repository passes is an
    option nobody sets: it should be a constant, or go."""
    calls = _calls_by_name()
    unset = sorted(
        f"{module}:{called}({param})"
        for module, called, param, position in _defaulted_parameters()
        if not any(_passes(c, param, position) for c in calls.get(called, ()))
    )
    assert not unset, f"defaulted parameters no call passes: {unset}"


def test_no_assert_statements_in_src():
    """``python -O`` strips ``assert``: a check the package relies on raises
    explicitly instead."""
    hits = sorted(
        f"{name}:{node.lineno}"
        for name in MODULES
        for node in ast.walk(_tree(name))
        if isinstance(node, ast.Assert)
    )
    assert not hits, f"assert statements in src/visualraag: {hits}"


# Code in these trees counts as a user of the package's public names; the
# tests do not.
USER_DIRS = ("src", "scripts", "bench")


def _public_definitions():
    """(module, qualified name) of every public module-level function and
    class and every public non-dunder method of a public class."""
    for name in MODULES:
        for node in _tree(name).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield name[:-3], node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        yield name[:-3], f"{node.name}.{item.name}"


def _user_loads() -> tuple[set[tuple[str, str]], set[str]]:
    """Where the users load package names: the (module, name) pairs loaded
    by bare name, in the defining module or in a file that imports the name
    from it, and every attribute name read.  A bare name counts only
    against the module it comes from, so a local variable in one module
    does not reach a function of the same name in another."""
    root = SRC.parent.parent
    by_name: set[tuple[str, str]] = set()
    attrs: set[str] = set()
    for d in USER_DIRS:
        for path in sorted((root / d).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            origin = {}  # bound name -> package module it comes from
            if path.parent == SRC:
                origin.update((node.name, path.stem) for node in tree.body if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    module = node.module.removeprefix("visualraag.")
                    if node.level == 1 or node.module.startswith("visualraag."):
                        origin.update((a.asname or a.name, module) for a in node.names)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and node.id in origin:
                    by_name.add((origin[node.id], node.id))
                elif isinstance(node, ast.Attribute):
                    attrs.add(node.attr)
    return by_name, attrs


def _traced() -> set[tuple[str, str]]:
    """The (module, qualified name) pairs ``bench/tracing.py`` wraps by name."""
    tree = ast.parse((SRC.parent.parent / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return {(module, name) for module, name, _kind in ast.literal_eval(node.value)}
    raise AssertionError("bench/tracing.py has no TRACED literal")


def test_every_public_name_has_a_user():
    """A public function, class or method that only tests reach is dead API:
    it should go, and its tests check the engine's own form instead."""
    by_name, attrs = _user_loads()
    traced = _traced()
    dead = sorted(
        f"{module}.{qualname}"
        for module, qualname in _public_definitions()
        if (module, qualname) not in traced
        and qualname.split(".")[-1] not in attrs
        and ("." in qualname or (module, qualname) not in by_name)
    )
    assert not dead, f"public names that only tests reach: {dead}"
