#!/usr/bin/env python3
"""Print the size counts the ROADMAP tracks for ``src/walkrep``.

Usage: ``python scripts/design_counts.py [--per-command] [SRC_DIR]``
(default: this checkout's ``src/walkrep``).

* ``src_lines``: the lines of every ``.py`` file under the package.
* ``settable_values``: by AST, the parameters of every ``def`` but
  ``self``/``cls`` and ``*args``/``**kwargs``, plus the fields of every
  ``NamedTuple`` class.

With ``--per-command``, one line per command instead: the lines of the
walkrep source files its process loads, and ``numpy=yes`` or ``numpy=no``
for whether it loads numpy.  Each command runs on a tiny config in a fresh
interpreter that imports the package from SRC_DIR, and the files of the
``walkrep`` modules in its ``sys.modules`` are counted.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# valid for every command, and quick: which modules a command loads does
# not depend on the sizes
TINY_CONFIG = {
    "stages": 1,
    "n_trunc": 2,
    "weights": {"q": 0.5, "n_max": 4},
    "second_weights": {"q": 0.5, "n_max": 4},
    "lf_chain_n": 2,
    "lf_sampled_g0": 1,
    "samples": {
        "averaging_samples": 2, "tower_samples": 1, "check_samples": 2,
        "base_samples": 1, "equivariance_samples": 1, "orbit_steps": 2,
    },
}
# run in a fresh interpreter; each prints its answer as its last stdout line
LIST_COMMANDS = "import json, walkrep.cli; print(json.dumps(list(walkrep.cli.COMMANDS)))"
LOADED_FILES = """
import json, sys
import walkrep.cli
walkrep.cli.main(sys.argv[1:])
mods = [m for n, m in sys.modules.items() if n == "walkrep" or n.startswith("walkrep.")]
print(json.dumps([sorted({m.__file__ for m in mods}), "numpy" in sys.modules]))
"""


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


def _lines(text: str) -> int:
    return text.count("\n")


def counts(src: Path) -> dict:
    files = sorted(src.rglob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    return {
        "src_lines": sum(map(_lines, texts)),
        "settable_values": sum(settable_values(ast.parse(t)) for t in texts),
    }


def _fresh(src: Path, code: str, *argv: str):
    """The last stdout line of ``code``, as JSON, run with the package
    from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve().parent)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def per_command(src: Path) -> dict:
    """command -> the walkrep source lines its fresh process loads, and
    whether it loads numpy."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(TINY_CONFIG))
        for command in _fresh(src, LIST_COMMANDS):
            files, numpy = _fresh(src, LOADED_FILES, command, "--config", str(cfg), "--out", tmp)
            lines = sum(_lines(Path(f).read_text(encoding="utf-8")) for f in files)
            out[command] = f"{lines} numpy={'yes' if numpy else 'no'}"
    return out


def main() -> None:
    args = sys.argv[1:]
    per = "--per-command" in args
    args = [a for a in args if a != "--per-command"]
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "walkrep"
    for name, value in (per_command(src) if per else counts(src)).items():
        print(f"{name} {value}")


if __name__ == "__main__":
    main()
