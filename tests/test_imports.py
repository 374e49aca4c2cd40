"""Source hygiene: every name a module imports at top level is used in it,
every module-private top-level function or class is referenced somewhere
in the package, every public one somewhere in the repository, no module
imports `random`, the checks do not depend on the command line, every
name the benchmark reads from the package resolves, and every function that
no command line enters has a stated reason to exist."""

import ast
import functools
import glob
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "g2forge")
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


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_check(node):
    """Whether a definition is registered with `@check(...)`: `verify` calls
    it through the registry, so no name refers to it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "check"
        for d in node.decorator_list
    )


def test_no_orphaned_public_definitions():
    """Every public top-level function or class is referenced somewhere in
    src/, tests/ or perfbench/: by name, as an attribute, by an import or
    inside a string (a mutation target, a traced helper)."""
    paths = MODULES + sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))
    paths += sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    referenced = set()
    for path in paths:
        tree = _parse(path)
        referenced |= referenced_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced |= set(re.findall(r"[A-Za-z_]\w*", node.value))
    orphans = sorted(
        f"{os.path.basename(path)}:{node.name}"
        for path in MODULES
        for node in _parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not _is_check(node)
        and node.name not in referenced
    )
    assert orphans == [], f"public definitions nothing in src/, tests/ or perfbench/ references: {orphans}"


@pytest.mark.parametrize("path", MODULES, ids=[os.path.basename(p) for p in MODULES])
def test_no_module_imports_random(path):
    """No check draws at random, so `verify` gives the same report for a
    given seed; this covers imports at any depth, not only top-level ones."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module.split(".")[0])
    assert "random" not in modules, f"{os.path.basename(path)} imports random"


def test_checks_do_not_import_the_command_line():
    """`g2forge.checks` holds the claims alone: it imports neither argparse
    nor `g2forge.cli`, at any depth, and every registered check is its own."""
    modules = set()
    for node in ast.walk(_parse(os.path.join(SRC, "checks.py"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("g2forge" if node.level else None, node.module)))
            modules.add(base)
            modules |= {f"{base}.{alias.name}" for alias in node.names}
    assert not {m for m in modules if m.split(".")[0] == "argparse"}
    assert not {m for m in modules if m == "g2forge.cli" or m.startswith("g2forge.cli.")}

    # Importing cli as well registers any check defined there.
    from g2forge import checks, cli  # noqa: F401

    assert {fn.__module__ for fn in checks.CHECKS.values()} == {"g2forge.checks"}


# The tracer names `__init__` as `new` and a dunder without its underscores
# (perfbench/tracer.py, `_short`); these are the short names the metrics use.
_SHORT_NAMES = {"new": "__init__", "mul": "__mul__", "add": "__add__"}


def _traced_function(name):
    """The function that the benchmark's tracer registers as `name`
    ("layer.function" or "layer.Class.method"), or None.  The tracer wraps
    only what a module or class defines itself."""
    layer, *path = name.split(".")
    module = importlib.import_module(f"g2forge.{layer}")
    owner = module
    for cls in path[:-1]:
        owner = vars(owner).get(cls)
        if not isinstance(owner, type) or owner.__module__ != module.__name__:
            return None
    value = vars(owner).get(_SHORT_NAMES.get(path[-1], path[-1]))
    value = getattr(value, "__func__", value)
    if not hasattr(value, "__code__") or value.__module__ != module.__name__:
        return None
    return value


def _benchmark_names():
    """The traced names that `perfbench/run.py` reads, from FUNCTION_METRICS
    and each `tracer.function("...")`, and the `g2.<module>.<name>` chains
    that the benchmark's modules call through its handle on the package."""
    traced, chains = set(), set()
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        tree = _parse(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTION_METRICS" for t in node.targets):
                traced |= {name for name, _kinds in ast.literal_eval(node.value)}
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "function":
                traced |= {arg.value for arg in node.args if isinstance(arg, ast.Constant)}
            elif isinstance(node, ast.Attribute):
                parts = []
                while isinstance(node, ast.Attribute):
                    parts.append(node.attr)
                    node = node.value
                parts.append(getattr(node, "id", ""))
                parts.reverse()
                if "g2" in parts[:-1]:
                    chains.add(".".join(parts[parts.index("g2") + 1:]))
    return traced, chains


def test_the_benchmark_names_resolve():
    """A deletion in src/ must not break the benchmark, which names
    functions of the package and calls into it."""
    traced, chains = _benchmark_names()
    assert "algebra.RFrac.new" in traced and "triform.LieG2.new" in traced
    assert "triform.coeff_relations_hold" in chains and "cli.run_verify" in chains
    missing = sorted(name for name in traced if _traced_function(name) is None)
    assert missing == [], f"traced names the package does not define: {missing}"
    unresolved = []
    for chain in sorted(chains):
        layer, *attrs = chain.split(".")
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"g2forge.{layer}"))
        except AttributeError:
            unresolved.append(chain)
    assert unresolved == [], f"names the benchmark calls that the package lacks: {unresolved}"
    # The tracer counts nonzero products through `SymMatrix.col`, and the
    # `verify` workload passes `run_verify` a seed and a dict.
    assert _traced_function("algebra.SymMatrix.col") is not None
    from g2forge import cli

    inspect.signature(cli.run_verify).bind(7, {})


# The functions that `tests/unrun_lines.py` reports no command line entering,
# each with the reason it stays.  A function missing here is dead API: delete
# it or add it with its reason.  An entry for a function some command line
# enters is stale: delete the entry.
_GUARD = "immutability guard"
_REPR = "__repr__, for debugging and test failure messages"
_NEVER_ENTERED_ALLOWED = {
    "algebra._Immutable.__setattr__": _GUARD,
    "algebra._Immutable.__repr__": _REPR,
    "algebra._overflow": "error path: an exponent past the guard bit, driven by the kernel tests",
    "algebra.MPoly.__init__": "test oracle: MPoly(vars, terms) builds from exponent tuples",
    "algebra.MPoly.vars": "test oracle, and names the variable eval leaves unassigned",
    "algebra.MPoly.__bool__": "without it a zero polynomial would be truthy",
    "algebra.MPoly.subs": "the polynomial lane of RFrac.subs, which the lattice tests drive",
    "algebra.RFrac.__init__": "the conversion RFrac(p) and the quotient RFrac(f, g) that the tests build with",
    "algebra._polynomial": "the operand check of RFrac.__init__, for both parts",
    "algebra.RFrac.den": "the derived denominator, read by the kernel tests beside num",
    "algebra.RFrac.__bool__": "without it a zero rational function would be truthy",
    "algebra.RFrac.__rsub__": "the tests build 1 - a and 0 - f",
    "algebra.SymMatrix.col": "the benchmark's tracer counts nonzero products with it",
    "algebra.SymMatrix.__str__": "the text form that __repr__ and the kernel tests read",
    "cli._usage_line": "error path: a usage error, exit code 2, driven by the CLI tests",
    "cli._usage_error": "error path: a usage error, exit code 2, driven by the CLI tests",
    "cli._Parser.error": "error path: a usage error, exit code 2, driven by the CLI tests",
    "cli.main": "the console-script entry point; the tool calls cli.run",
    "kostant.levi_piece_dim": "test oracle for the Kostant pieces",
    "phin.Polygon.__repr__": _REPR,
    "roots.Weight.is_nonnegative_combo": "called by critical_set, which the benchmark names",
    "roots.Weight.__repr__": _REPR,
    "roots.WeylElement.__mul__": "test oracle for the group law",
    "roots.WeylElement.__repr__": _REPR,
    "roots.ParabolicId.__repr__": _REPR,
    "roots.critical_set": "the benchmark names it",
    "triform.AltTriForm.get": "the dense oracle for form_derivation_residue",
    "triform.AltTriForm.__repr__": _REPR,
    "triform.coeff_relations_hold": "the relation-probe benchmark rechecks its words with it",
}


def test_every_function_no_command_line_enters_has_a_reason():
    """Run the trace tool in a fresh interpreter and read its list of
    functions never entered, lines `  <module>.py:<line> <qualname>`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tests", "unrun_lines.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    section = proc.stdout.split("functions never entered:\n", 1)[1].split("total:", 1)[0]
    never = {
        f"{module}.{qualname}"
        for module, qualname in re.findall(r"^  (\w+)\.py:\d+ (\S+)$", section, re.M)
    }
    assert never, proc.stdout
    unjustified = sorted(never - _NEVER_ENTERED_ALLOWED.keys())
    assert unjustified == [], f"functions no command line enters, with no reason to stay: {unjustified}"
    stale = sorted(_NEVER_ENTERED_ALLOWED.keys() - never)
    assert stale == [], f"allowed as never entered, but a command line enters them: {stale}"
