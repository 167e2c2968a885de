"""Fresh interpreters, for tests of what a process loads."""

import ast
import os
import subprocess
import sys

import walkrep


def run(argv: list) -> subprocess.CompletedProcess:
    """``python argv`` in a fresh interpreter that imports this walkrep.
    ``PYTHONUNBUFFERED`` is not passed on, so a child's piped output is
    block-buffered and reaches the pipe only if the child flushes it."""
    src = os.path.dirname(os.path.dirname(walkrep.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def modules_after(code: str, *packages: str) -> list:
    """The sorted names of the modules of ``packages`` (each a package, a
    subpackage or a module) loaded after ``code`` runs in a fresh
    interpreter."""
    code += (
        "\nimport sys\n"
        f"print(sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r})))\n"
    )
    proc = run(["-c", code])
    proc.check_returncode()
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def imports(stderr: str) -> list:
    """The modules a ``python -X importtime`` run imported, one name per
    import in import order, from the ``import time:`` lines of its
    ``stderr``."""
    names = [line.rsplit("|", 1)[1].strip() for line in stderr.splitlines() if line.startswith("import time:")]
    return [name for name in names if name != "imported package"]
