"""Batch experiment driver.

Usage: ``walkrep <subcommand> [--config cfg.json] [--out DIR] [--seed N]``

Subcommands mirror the module boundaries: weights, norms, jrt, tower,
build, support, orbit, feldman, continuous, and all.  Every run writes a
timestamp-free ``report.json`` (plus CSV tables) under ``<out>/<command>/``
so identical configs and seeds reproduce byte-identical outputs; wall time,
the start-up CPU time, the Bernoulli cells read and Philox blocks drawn, the
bit cells the orbit windows filled and the conditional sampler's draws go to
a separate ``run_meta.json``.  This module parses the command line and loads
the config; each command runs from its own module of ``walkrep.commands``,
and a process imports only that module, which imports the layers it runs,
so a process compiles only the code its command runs.  Each command returns
its records and tables, and ``walkrep.commands.run`` writes them all once it
has returned, so a command that raises writes nothing.  A command process
(``run``, the ``walkrep`` script and ``python -m walkrep.cli``) ends without
interpreter teardown once its outputs are closed and its streams flushed.
Exit codes: 0 all checks pass, 1 a check failed, 2 usage or configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import NoReturn

from .config import ExperimentConfig, load_config, validate
from .errors import ConfigError, WalkrepError

# command -> its module in ``walkrep.commands``, which defines ``cmd_<command>``
COMMANDS = {
    "weights": "weights",
    "norms": "norms",
    "jrt": "jrt",
    "tower": "tower",
    "build": "staged",
    "support": "staged",
    "orbit": "staged",
    "feldman": "feldman",
    "continuous": "continuous",
}


def command(name: str):
    """``walkrep.commands.run`` bound to ``cmd_<name>``: a function of
    ``(cfg, out_base)``, plus the model cache for a model command, that runs
    the command and writes its outputs.  Only the command's module is
    imported, by the import statement's machinery (``__import__``), which
    ``-X importtime`` reports."""
    module = f"walkrep.commands.{COMMANDS[name]}"
    __import__(module)
    fn = getattr(sys.modules[module], f"cmd_{name}")
    return functools.partial(sys.modules["walkrep.commands"].run, fn, name)


# commands that read the staged model; ``all`` builds it once for them
MODEL_COMMANDS = ("build", "support", "orbit")


def cmd_all(cfg: ExperimentConfig, out_base: str) -> int:
    """Every command in turn.  A command that rejects the config, or that
    fails, raises a walkrep error and writes nothing; the rest still run,
    and ``all`` exits with the largest code: 2 for a config error, 1 for
    another error or a failed check."""
    status = 0
    cache: list = []
    for name in COMMANDS:
        try:
            fn = command(name)
            code = fn(cfg, out_base, cache) if name in MODEL_COMMANDS else fn(cfg, out_base)
        except ConfigError as exc:
            print(f"config error: {name}: {exc}", file=sys.stderr)
            code = 2
        except WalkrepError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            code = 1
        status = max(status, code)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="walkrep",
        description="certified experiments on weighted random-walk sequence spaces",
    )
    parser.add_argument("command", choices=list(COMMANDS) + ["all"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg._replace(seed=args.seed)
            validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "all":
            return cmd_all(cfg, args.out)
        return command(args.command)(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except WalkrepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> NoReturn:
    """``main``, then the process ends with its exit code and without
    interpreter teardown: every output file is closed by then, and the
    standard streams are flushed here.  Usage errors and uncaught
    exceptions leave the normal way."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
