"""Source hygiene: every name a module imports at top level is used in it,
every module-private top-level function or class is referenced somewhere
in the package, and no module imports `random`."""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "g2forge")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def imported_names(tree: ast.Module):
    """Names bound by the module's top-level imports, other than __future__."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree: ast.Module):
    """Every name read anywhere in the module, including names inside string
    annotations such as ``Optional["MPoly"]``."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_no_unused_top_level_imports(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert unused == [], f"{os.path.basename(path)} imports names it never uses: {unused}"


def referenced_names(tree: ast.Module):
    """Names read in the module, attributes it accesses and names it imports
    from other modules of the package."""
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_orphaned_private_definitions():
    trees = {}
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            trees[os.path.basename(path)] = ast.parse(fh.read(), filename=path)
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    orphans = sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    )
    assert orphans == [], f"private definitions nothing in src/g2forge references: {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_no_module_imports_random(path):
    """Every check depends only on the configuration, so no module draws at
    random; this covers imports at any depth, not only top-level ones."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    assert "random" not in modules, f"{os.path.basename(path)} imports random"
