#!/usr/bin/env python3
"""Print the two size counts the ROADMAP tracks for ``src/walkrep``.

Usage: ``python scripts/design_counts.py [SRC_DIR]`` (default: this
checkout's ``src/walkrep``).

* ``src_lines``: the lines of every ``.py`` file under the package.
* ``settable_values``: by AST, the parameters of every ``def`` but
  ``self``/``cls`` and ``*args``/``**kwargs``, plus the fields of every
  ``NamedTuple`` class.
"""

import ast
import sys
from pathlib import Path


def _is_named_tuple(node: ast.ClassDef) -> bool:
    return any(isinstance(b, (ast.Name, ast.Attribute)) and ast.unparse(b).endswith("NamedTuple") for b in node.bases)


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            count += sum(p.arg not in ("self", "cls") for p in a.posonlyargs + a.args + a.kwonlyargs)
        elif isinstance(node, ast.ClassDef) and _is_named_tuple(node):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return count


def counts(src: Path) -> dict:
    files = sorted(src.rglob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    return {
        "src_lines": sum(t.count("\n") for t in texts),
        "settable_values": sum(settable_values(ast.parse(t)) for t in texts),
    }


def main() -> None:
    default = Path(__file__).resolve().parents[1] / "src" / "walkrep"
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else default
    for name, value in counts(src).items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
