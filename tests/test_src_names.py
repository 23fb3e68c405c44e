"""Every top-level function, class and constant of the package is used by
the package: a name that no code of ``src/netreplay`` loads, outside its own
definition and ``__init__.py``, is either dead or a test's helper, whose
place is ``tests/``."""

import ast
import pathlib
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "netreplay"
# module.name: why it stays although the package never loads it
ALLOWED = {
    "degrees.powerlaw_fit": "criterion 8 tests it, and the steadiness report is to call it",
}


def parsed() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def definitions(tree: ast.Module):
    """(name, defining statement) of each top-level name a module binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id, node


def loads(node: ast.AST) -> Counter:
    """How many times ``node`` loads each name, bare or as an attribute."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
    return found


def imports(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each name a module imports from ``netreplay.<module>``."""
    return {
        (node.module.removeprefix("netreplay."), alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("netreplay.")
        for alias in node.names
    }


def unused_names() -> list[str]:
    trees = parsed()
    used = {module: loads(tree) for module, tree in trees.items()}
    imported = {module: imports(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            # loads in its own module outside its definition, and in the
            # modules that import it
            uses = used[module][name] - loads(node)[name]
            uses += sum(used[other][name] for other in trees if (module, name) in imported[other])
            if uses == 0:
                unused.append(f"{module}.{name}")
    return unused


def test_src_loads_every_top_level_name():
    assert [name for name in unused_names() if name not in ALLOWED] == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_are_still_unused(name):
    # an entry that the package has started to use is no longer needed
    assert name in unused_names()
