from pathlib import Path

import fresh
import walkrep
from walkrep import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "design_counts.py"


def _lines(*args) -> list:
    proc = fresh.run([str(SCRIPT), *map(str, args)])
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stdout.splitlines()]


def _counts(*args) -> dict:
    return {name: int(value) for name, value in _lines(*args)}


def test_design_counts_of_this_tree():
    src = Path(walkrep.__file__).parent
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in src.rglob("*.py"))
    counts = _counts()
    assert list(counts) == ["src_lines", "settable_values"]
    assert counts["src_lines"] == lines
    assert counts["settable_values"] > 0


def test_design_counts_rules(tmp_path):
    # parameters but self/cls and */** catch-alls, of nested defs too, plus
    # NamedTuple fields; a plain class's annotations do not count
    (tmp_path / "a.py").write_text(
        "from typing import NamedTuple\n"
        "import typing\n"
        "class P(NamedTuple):\n    x: int\n    y: int = 0\n"
        "class Q(typing.NamedTuple):\n    z: float\n"
        "class R:\n    w: int\n"
        "    def m(self, a, *args, b=1, **kw):\n        def inner(c, /, d):\n            pass\n"
        "    @classmethod\n    def k(cls):\n        pass\n"
    )
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("async def f(e, f=2):\n    pass\n")
    assert _counts(tmp_path) == {"src_lines": 17, "settable_values": 3 + 2 + 2 + 2}


def test_design_counts_per_command():
    # each command's lines are those of the files its fresh process loads:
    # ``feldman`` loads the driver, the shared writers, its own module and
    # ``pcg64`` beside the config layer; the model commands share a module
    src = Path(walkrep.__file__).parent
    rows = {name: rest for name, *rest in _lines("--per-command")}
    counts = {name: int(lines) for name, (lines, _) in rows.items()}
    assert list(counts) == list(cli.COMMANDS)
    feldman = [
        "__init__.py", "cli.py", "config.py", "errors.py", "groups.py", "trace.py", "pcg64.py",
        "commands/__init__.py", "commands/feldman.py",
    ]
    assert counts["feldman"] == sum((src / f).read_text(encoding="utf-8").count("\n") for f in feldman)
    assert counts["build"] == counts["support"] == counts["orbit"] > counts["weights"] > counts["feldman"]
    # the chain runs on Python floats; the model commands need numpy
    assert rows["continuous"][1] == "numpy=no"
    assert rows["build"][1] == "numpy=yes"
