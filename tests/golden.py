"""The golden-output manifest ``golden.json``: the sha256 of every output
file but ``run_meta.json`` of seven runs, keyed by platform.

* ``small``: the nine commands on ``SMALL_CONFIG`` (the outputs that
  ``test_cli``'s ``fresh_runs`` fixture writes);
* ``default``: ``weights`` and ``norms`` on the default config (seed 20240);
* ``exp`` and ``poly``: ``weights`` and ``norms`` on the benchmark's
  ``exp`` config (F_2 and a deeper second table) and ``poly`` config (Z^3
  and Heisenberg certificates);
* ``lattice``: ``build``, ``support`` and ``orbit`` on ``LATTICE_CONFIG``,
  the staged model of the Bernoulli shift of Z^2, whose orbit windows are
  two-dimensional;
* ``embed``: ``build``, ``support`` and ``orbit`` on ``EMBED_CONFIG``, the
  benchmark's three-stage model on Z, whose value sets nest over two
  levels;
* ``cube``: ``build``, ``support`` and ``orbit`` on ``CUBE_CONFIG``, a
  two-stage model on Z^3, whose windows are three-dimensional.

``RUNS`` names each run but ``small`` with its config and commands.

Outputs go through libm (``math.cos``, ``log``, ``exp``) and numpy's SIMD
``cos``/``sin``, so a digest is only promised on the platform that recorded
it.  Each platform entry also names the walkrep, Python and numpy versions
it was recorded with.

Run ``python tests/golden.py`` to record this platform's entry from the
current tree; a changed manifest is a stated change of outputs.
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import walkrep
from walkrep import cli

MANIFEST = Path(__file__).with_name("golden.json")
SMALL_CONFIG = {
    "stages": 2,
    "weights": {"q": 0.5, "n_max": 12},
    "second_weights": {"q": 0.5, "n_max": 6},
    "lf_chain_n": 4,
    "lf_sampled_g0": 4,
    "samples": {
        "tower_samples": 2000, "check_samples": 300, "equivariance_samples": 100,
        "orbit_steps": 200, "averaging_samples": 100,
    },
}
CERTIFY_COMMANDS = ("weights", "norms")
STAGED_COMMANDS = ("build", "support", "orbit")
EXP_CONFIG = {"second_weights": {"q": 0.5, "n_max": 8}}
POLY_CONFIG = {
    "group": {"kind": "lattice", "d": 3},
    "weights": {"q": 0.5, "n_max": 8},
    "second_group": {"kind": "heisenberg", "d": 2},
    "second_weights": {"q": 0.5, "n_max": 8},
}
LATTICE_CONFIG = {
    "group": {"kind": "lattice", "d": 2},
    "stages": 2,
    "n_trunc": 6,
    "weights": {"q": 0.5, "n_max": 12},
    "samples": {"check_samples": 300, "base_samples": 60, "equivariance_samples": 100, "orbit_steps": 200},
}
EMBED_CONFIG = {
    "stages": 3,
    "samples": {
        "tower_samples": 20000, "check_samples": 1000, "equivariance_samples": 250,
        "orbit_steps": 1500, "averaging_samples": 500,
    },
}
CUBE_CONFIG = {
    "group": {"kind": "lattice", "d": 3},
    "stages": 2,
    "n_trunc": 4,
    "weights": {"q": 0.5, "n_max": 8},
    "samples": {"check_samples": 300, "base_samples": 60, "equivariance_samples": 100, "orbit_steps": 200},
}
RUNS = {
    "default": ({}, CERTIFY_COMMANDS),
    "exp": (EXP_CONFIG, CERTIFY_COMMANDS),
    "poly": (POLY_CONFIG, CERTIFY_COMMANDS),
    "lattice": (LATTICE_CONFIG, STAGED_COMMANDS),
    "embed": (EMBED_CONFIG, STAGED_COMMANDS),
    "cube": (CUBE_CONFIG, STAGED_COMMANDS),
}


def platform_key() -> str:
    libc, version = platform.libc_ver()
    return f"{platform.system()}-{platform.machine()}-{libc}{version}"


def environment() -> dict:
    return {"walkrep": walkrep.__version__, "python": platform.python_version(), "numpy": np.__version__}


def digests(runs: dict) -> dict:
    """``run/command/file`` -> sha256 of every output file but
    ``run_meta.json`` under each run's output directory."""
    out = {}
    for name, base in runs.items():
        for path in sorted(Path(base).glob("*/*")):
            if path.name != "run_meta.json":
                out[f"{name}/{path.parent.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def mismatches(found: dict, entry: dict) -> list:
    """One line per file whose digest differs from ``entry``'s, or that
    only one side has, naming the file, its command and both digests."""
    want = entry["digests"]
    lines = []
    for name in sorted(set(found) | set(want)):
        if found.get(name) != want.get(name):
            command = name.split("/")[1]
            lines.append(f"{name} (command {command}): manifest {want.get(name)}, this tree {found.get(name)}")
    if lines and environment() != {k: entry[k] for k in environment()}:
        lines.append(f"recorded with {entry}, running {environment()}")
    return lines


def run(name: str, out: Path) -> None:
    """The commands of ``RUNS[name]`` on its config, into ``out``."""
    config, commands = RUNS[name]
    cfg = out / f"{name}.json"
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_text(json.dumps(config))
    for command in commands:
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0


def record() -> None:
    """Run ``small`` and every run of ``RUNS`` in a scratch directory and
    write this platform's entry."""
    with tempfile.TemporaryDirectory() as tmp:
        small = Path(tmp, "small")
        cfg = Path(tmp, "cfg.json")
        cfg.write_text(json.dumps(SMALL_CONFIG))
        for command in cli.COMMANDS:
            # ``continuous`` exits 1 for the record that fails by design (11b)
            assert cli.main([command, "--config", str(cfg), "--out", str(small)]) == (command == "continuous")
        runs = {name: Path(tmp, name) for name in RUNS}
        for name, out in runs.items():
            run(name, out)
        found = digests({"small": small, **runs})
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    manifest[platform_key()] = {**environment(), "digests": found}
    MANIFEST.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    print(f"{MANIFEST}: {len(found)} digests for {platform_key()}", file=sys.stderr)


if __name__ == "__main__":
    record()
