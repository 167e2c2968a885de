"""Fresh interpreters, for tests of what a process loads."""

import ast
import os
import subprocess
import sys

import walkrep


def modules_after(code: str, package: str) -> list:
    """The sorted names of the ``package`` modules loaded after ``code``
    runs in a fresh interpreter."""
    code += (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))\n"
    )
    src = os.path.dirname(os.path.dirname(walkrep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])
