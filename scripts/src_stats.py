#!/usr/bin/env python3
"""Print the size of src/ and its option counts, from an AST scan.

    python scripts/src_stats.py

Prints one `name: count` line each for:

- src_lines: the lines of every src/**/*.py file;
- function_params: the parameters of every def (self and cls of methods
  not counted; lambdas not counted), *args and **kwargs included;
- params_with_defaults: those of them that have a default;
- dataclass_fields: the annotated class attributes of every @dataclass
  class, ClassVar ones not counted;
- add_argument_calls: the calls of a method named add_argument;
- environment_reads: the uses of os.environ and of getenv.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None)
        if name == "dataclass":
            return True
    return False


def _params(node: ast.FunctionDef | ast.AsyncFunctionDef,
            method: bool) -> tuple[int, int]:
    """(parameters, parameters with a default) of one def."""
    a = node.args
    positional = a.posonlyargs + a.args
    if method and positional and positional[0].arg in ("self", "cls"):
        positional = positional[1:]
    n = len(positional) + len(a.kwonlyargs) + (a.vararg is not None) + (
        a.kwarg is not None)
    defaults = len(a.defaults) + sum(d is not None for d in a.kw_defaults)
    return n, defaults


def stats(src: Path) -> dict[str, int]:
    """The counts of every .py file under src."""
    out = dict.fromkeys(("src_lines", "function_params",
                         "params_with_defaults", "dataclass_fields",
                         "add_argument_calls", "environment_reads"), 0)

    def walk(node: ast.AST, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                n, defaults = _params(child, in_class)
                out["function_params"] += n
                out["params_with_defaults"] += defaults
            elif isinstance(child, ast.ClassDef) and _is_dataclass(child):
                out["dataclass_fields"] += sum(
                    1 for stmt in child.body
                    if isinstance(stmt, ast.AnnAssign)
                    and "ClassVar" not in ast.unparse(stmt.annotation))
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)
                  and child.func.attr == "add_argument"):
                out["add_argument_calls"] += 1
            elif (isinstance(child, ast.Attribute)
                  and child.attr in ("environ", "getenv")) or (
                      isinstance(child, ast.Name)
                      and child.id in ("environ", "getenv")):
                out["environment_reads"] += 1
            walk(child, isinstance(child, ast.ClassDef))

    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        out["src_lines"] += len(text.splitlines())
        walk(ast.parse(text), False)
    return out


def main() -> None:
    for name, count in stats(ROOT / "src").items():
        print(f"{name}: {count}")


if __name__ == "__main__":
    main()
