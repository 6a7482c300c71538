"""src/ holds only what the stages, the scripts and the benchmark run: every
function defined in src/cmrec is referenced by code that is itself in use.
Test-only helpers and oracles belong in the test module of their subject.

A def counts as used when its name occurs as a name or attribute in
src/cmrec outside its own body and outside every unused def, as an
attribute or a name imported from cmrec in scripts/*.py, or as a key
`<module>.<name>` of perfbench's traced functions. The rule is applied
until nothing changes, so a def used only by unused defs is unused too.
Dunder methods are exempt."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced_names() -> set[str]:
    """The `<module>.<function>` keys of perfbench's tracer."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return set(tracer.TRACED)


def referenced(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def src_defs():
    """(defs, references): defs maps `<module>.<qualname>` to (name, module);
    references is a list of (name, enclosing def keys) over src/cmrec."""
    defs, references = {}, []

    def walk(node, module, qual, scope):
        # qual: the enclosing class and def names; scope: the enclosing
        # defs' keys
        for child in ast.iter_child_nodes(node):
            inner_qual, inner_scope = qual, scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner_qual = [*qual, child.name]
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = ".".join([module, *inner_qual])
                inner_scope = [*scope, key]
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    defs[key] = (child.name, module)
            name = referenced(child)
            if name is not None:
                references.append((name, inner_scope))
            walk(child, module, inner_qual, inner_scope)

    for path in sorted((ROOT / "src" / "cmrec").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, [], [])
    return defs, references


def script_names() -> set[str]:
    """The attribute names in scripts/*.py and the names they import from
    cmrec. A bare name counts only when imported: bench_gbdt.py's local
    `dense` is no use of SimTable.dense."""
    names = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "cmrec"):
                names.update(alias.name for alias in node.names)
    return names


def unused_defs() -> list[str]:
    defs, references = src_defs()
    outside = script_names()
    traced = traced_names()
    unused: set[str] = set()
    while True:
        now = set()
        for key, (name, module) in defs.items():
            own = [scope for ref, scope in references
                   if ref == name and key not in scope
                   and not unused.intersection(scope)]
            if not (own or name in outside or f"{module}.{name}" in traced):
                now.add(key)
        if now == unused:
            return sorted(unused)
        unused = now


def test_every_src_def_is_used_outside_the_tests():
    unused = unused_defs()
    assert not unused, (f"defined in src/cmrec but used by tests only: "
                        f"{unused}; move them into the tests of their "
                        f"subject")
