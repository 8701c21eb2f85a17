"""Guard: every public name in ``ecann`` has a caller outside tests.

Public names are top-level functions and classes and the methods of
public classes.  A function, class or method that only tests call is
code kept correct for nobody.  Private classes are skipped with all
their methods: the standard library calls ``_Handler.do_GET`` by name.
A name counts as referenced when it appears in ``src/``, ``scripts/`` or
``perfbench/`` outside its own definition.  A function or class is
referenced as a name, an attribute, an import, or a word in a
non-docstring string (perfbench names its wrap targets as strings).  A
method ``Class.method`` is referenced only as an attribute ``.method`` or
as the string ``"Class.method"``: a word that happens to equal a method's
name is no caller.  ``__all__`` lists do not count.

A second guard resolves every call target the traced benchmark wraps, and
a third finds module-level imports that their module never uses.
"""
import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ecann"

# name -> why it may have no caller outside tests
ALLOWED = {
    "full_local_align": "oracle for banded_local_align",
    "decision_many": "oracle for the per-row decision in batch tests",
    "make_demo_snapshots": "fixture generator for tests and the README demo",
    "save_embedding_table_tsv": "writes the TSV table format the CLI reads",
    "write_predictions_tsv": "writes the prediction TSV format the CLI scores",
    "LinearModel.dense_weights": "oracle view of the sparse weights in SVM tests",
    "Tree.is_stump": "oracle for the stump-only trees in GBDT tests",
    "GbdtModel.predict_proba": "oracle for the softmax in GBDT tests",
}


def _docstrings(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(id(first.value))
    return found


def _is_all(node: ast.AST) -> bool:
    """Whether ``node`` assigns ``__all__``."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _references(tree: ast.AST, exclude: ast.AST | None = None) -> set[str]:
    """Names as ``name``, attributes as ``.attr``, string words as ``word`` and
    each dotted pair in a string as ``A.b``."""
    skipped = {id(sub) for sub in ast.walk(exclude)} if exclude is not None else set()
    for node in ast.walk(tree):
        if _is_all(node):
            skipped.update(id(sub) for sub in ast.walk(node.value))
    skipped |= _docstrings(tree)
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(f".{node.attr}")
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
            for dotted in re.findall(r"\w+(?:\.\w+)+", node.value):
                parts = dotted.split(".")
                names.update(f"{a}.{b}" for a, b in zip(parts, parts[1:]))
    return names


def _parse(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs(tree: ast.Module):
    """(qualified name, node) for public top-level defs and public classes' methods."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, _DEFS) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_no_public_name_is_referenced_only_from_tests():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    others = _parse(
        sorted(p for d in ("scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    )
    outside = set().union(*(_references(tree) for tree in others.values()))
    whole = {path: _references(tree) for path, tree in package.items()}
    unreferenced = []
    for path, tree in package.items():
        for qualname, node in _public_defs(tree):
            if qualname in ALLOWED:
                continue
            refs = outside | _references(tree, exclude=node)
            refs = refs.union(*(names for other, names in whole.items() if other != path))
            owner, _, method = qualname.rpartition(".")
            spellings = {f".{method}", qualname} if owner else {node.name, f".{node.name}"}
            if not spellings & refs:
                unreferenced.append(f"{path.name}:{node.lineno} {qualname}")
    assert not unreferenced, "public names only tests reference: " + ", ".join(unreferenced)


def test_allowlist_names_exist():
    package = _parse(sorted(PACKAGE.glob("*.py")))
    defined = {qualname for tree in package.values() for qualname, _ in _public_defs(tree)}
    assert set(ALLOWED) <= defined


def _perfbench_tracing():
    """perfbench/tracing.py, loaded from its file: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_call_target_resolves():
    # The traced benchmark wraps these by name and silently skips a missing
    # one, which only shows as per-layer metrics it no longer prints.  Resolve
    # each as tracing.install does, without wrapping anything.
    targets = _perfbench_tracing().TARGETS
    missing = []
    for target in targets:
        try:
            owner = importlib.import_module(target.module)
            *path, name = target.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            _ = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{target.module}.{target.attr}")
    assert targets and not missing, f"perfbench targets that no longer exist: {missing}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that it never uses.  A
    name is used when it appears as a name (an attribute's base included) or
    as an ``__all__`` entry; ``from __future__`` imports are exempt."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in filter(_is_all, tree.body):
        used.update(c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # perfbench is left out: it changes only together with the benchmark.
    paths = sorted(p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py"))
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path, tree in _parse(paths).items() for name in _unused_imports(tree)]
    assert not unused, "unused imports: " + ", ".join(unused)
