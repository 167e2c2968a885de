"""The driver that runs every command and writes its outputs, and one
module per command: ``weights``, ``norms``, ``jrt``, ``tower``,
``feldman``, ``continuous`` and ``staged`` (``build``, ``support`` and
``orbit``, which share the staged model).

Each ``cmd_<name>`` is a function of the config (the model commands also
take ``all``'s model cache) that returns ``(records, tables)``: its report
records, and a map from file name to a JSON payload or a CSV ``(header,
rows)``.  ``run`` alone writes them, after the command returns, so a
command that raises writes nothing; no command module opens a file.

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


def _write_json(path: str, payload: dict) -> None:
    """``payload`` as strict JSON: a NaN or an infinity raises ValueError
    before the file is opened."""
    text = json.dumps(payload, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_csv(path: str, header: list, rows) -> None:
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


def run(fn, command: str, cfg: ExperimentConfig, out_base: str, *extra) -> int:
    """Run ``fn(cfg, *extra)``, the command ``command``, and write what it
    returns under ``<out_base>/<command>/``: each of its tables (a ``.json``
    name takes a payload, any other a CSV ``(header, rows)``), then
    ``report.json`` and ``run_meta.json``; then print one PASS or FAIL line
    per record.  The directory is made only once ``fn`` has returned.
    Returns 0 if every record passes, else 1."""
    _startup_cpu_s()
    start, counters = time.time(), dict(trace.COUNTERS)
    records, tables = fn(cfg, *extra)
    ok = all(r["pass"] for r in records)
    out = os.path.join(out_base, command)
    os.makedirs(out, exist_ok=True)
    tables["report.json"] = {
        "command": command,
        "config_digest": cfg.digest(),
        "version": __version__,
        "records": records,
        "pass": ok,
    }
    for name, table in tables.items():
        if name.endswith(".json"):
            _write_json(os.path.join(out, name), table)
        else:
            _write_csv(os.path.join(out, name), *table)
    meta = {"wall_time_s": time.time() - start, "command": command}
    meta["startup_cpu_s"] = _startup_cpu_s()
    meta.update((k, v - counters[k]) for k, v in trace.COUNTERS.items())
    _write_json(os.path.join(out, "run_meta.json"), meta)
    for r in records:
        print(f"[{'PASS' if r['pass'] else 'FAIL'}] {command}/{r['name']}")
    return 0 if ok else 1


def _weight_tables(cfg: ExperimentConfig, **lengths: int) -> tuple:
    """The weight table of each key of ``lengths``: ``weights`` on ``group``,
    ``second_weights`` on ``second_group``.  ConfigError, naming the key, if
    its cell box is over ``measures.DEFAULT_SUPPORT_CAP``, or if
    ``measures.translation_bound`` ((2d+1)/q)^|b| leaves the float range for
    words b of the key's length, the longest that the command certifies."""
    from .. import measures
    tables = []
    for key, length in lengths.items():
        spec = (cfg.group if key == "weights" else cfg.second_group).spec()
        params = getattr(cfg, key)
        cells = math.prod(measures.cell_box(spec, params.n_max)[1])
        if cells > measures.DEFAULT_SUPPORT_CAP:
            raise ConfigError(
                f"{key}.n_max gives a weight box of {cells} cells on {spec.kind}, over the cap {measures.DEFAULT_SUPPORT_CAP}"
            )
        w = measures.build_weight(spec, params)
        try:
            bound = measures.translation_bound(w, length)
        except OverflowError:
            bound = math.inf
        if bound == math.inf:
            raise ConfigError(
                f"{key}.q = {params.q!r} puts the translation bound ((2d+1)/q)^{length} on {spec.kind} past the float range"
            )
        tables.append(w)
    return tuple(tables)


def _shift_group(cfg: ExperimentConfig):
    """The group of ``tower``'s and the model's shift: integers or a lattice."""
    spec = cfg.group.spec()
    if spec.kind not in ("integers", "lattice"):
        raise ConfigError("towers and the model build run on integer/lattice Bernoulli shifts")
    return spec
