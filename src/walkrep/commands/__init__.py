"""The commands' shared writers, and one module per command: ``weights``,
``norms``, ``jrt``, ``tower``, ``feldman``, ``continuous`` and ``staged``
(``build``, ``support`` and ``orbit``, which share the staged model).

Each module imports the layers its command runs at its top, and
``walkrep.cli`` imports only the module of the command it runs, so a
command process loads and compiles only that code.  No module here imports
``walkrep.cli``: under ``python -m walkrep.cli`` that module runs as
``__main__``, and importing it would compile it a second time.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time

from .. import __version__, trace
from ..config import ExperimentConfig
from ..errors import ConfigError


def _out_dir(base: str, command: str) -> str:
    path = os.path.join(base, command)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    """``payload`` as strict JSON: a NaN or an infinity raises ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=False)
        fh.write("\n")


def _write_csv(path: str, header: list, rows: list) -> None:
    import csv  # here, so commands that write no table do not load it

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _record(name: str, rep: dict, **extra) -> dict:
    row = {"name": name, "pass": bool(rep.get("pass", False))}
    row.update(extra)
    row["detail"] = rep
    return row


@functools.cache
def _startup_cpu_s() -> float:
    """The process's CPU time when its first command's clock starts: the
    interpreter's start-up and the imports."""
    return time.process_time()


def _start() -> tuple[float, dict]:
    """The wall clock and the run counters, at a command's start."""
    _startup_cpu_s()
    return time.time(), dict(trace.COUNTERS)


def _finish(out: str, command: str, cfg: ExperimentConfig, records: list, start: tuple) -> int:
    ok = all(r["pass"] for r in records)
    report = {
        "command": command,
        "config_digest": cfg.digest(),
        "version": __version__,
        "records": records,
        "pass": ok,
    }
    _write_json(os.path.join(out, "report.json"), report)
    meta = {"wall_time_s": time.time() - start[0], "command": command}
    meta["startup_cpu_s"] = _startup_cpu_s()
    meta.update((k, v - start[1][k]) for k, v in trace.COUNTERS.items())
    _write_json(os.path.join(out, "run_meta.json"), meta)
    for r in records:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {command}/{r['name']}")
    return 0 if ok else 1


def _weight_tables(cfg: ExperimentConfig):
    """The weight tables of ``group`` and ``second_group``."""
    from .. import measures
    return tuple(
        measures.build_weight(group.spec(), weights)
        for group, weights in ((cfg.group, cfg.weights), (cfg.second_group, cfg.second_weights))
    )


def _check_boxes(cfg: ExperimentConfig, *keys: str) -> None:
    """ConfigError unless the weight table of each key of ``keys``
    (``weights`` on ``group``, ``second_weights`` on ``second_group``) fits
    in ``measures.DEFAULT_SUPPORT_CAP`` cells."""
    from .. import measures
    for key in keys:
        spec = (cfg.group if key == "weights" else cfg.second_group).spec()
        cells = math.prod(measures.cell_box(spec, getattr(cfg, key).n_max)[1])
        if cells > measures.DEFAULT_SUPPORT_CAP:
            raise ConfigError(
                f"{key}.n_max gives a weight box of {cells} cells on {spec.kind}, over the cap {measures.DEFAULT_SUPPORT_CAP}"
            )


def _shift_group(cfg: ExperimentConfig):
    """The group of ``tower``'s and the model's shift: integers or a lattice."""
    spec = cfg.group.spec()
    if spec.kind not in ("integers", "lattice"):
        raise ConfigError("towers and the model build run on integer/lattice Bernoulli shifts")
    return spec
