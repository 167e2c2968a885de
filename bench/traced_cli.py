"""Traced entry point: ``python3 bench/traced_cli.py TRACE_JSON <walkrep args>``.

Installs span and counter wrappers on the public functions of every
``walkrep`` layer, runs ``walkrep.cli.main`` with the remaining arguments,
writes the per-layer trace to TRACE_JSON and exits with the command's
exit code.  Nothing inside ``src/`` is modified: the wrappers replace
module and class attributes, and every call between layers goes through
those attributes at call time.

Timed functions get a span: their inclusive time, and their self time
(inclusive time minus the time of timed callees), credited to their layer.
Hot functions (10M+ calls per command) are only counted; their time shows
in the self time of the layer that called them.  The root span belongs to
``cli`` and starts before ``walkrep`` is imported, so the layer self times
sum to the traced process's wall time less interpreter start-up.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import textwrap  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402

LAYERS = (
    "groups", "measures", "space", "dynamics", "markov",
    "model", "continuous", "stats", "cli",
)

# layer -> attribute paths that get a span (``Class.method`` for methods):
# the public functions the CLI's commands reach
TIMED = {
    "measures": (
        "build_weight", "convolution_powers", "convolve", "weight_ratio",
        "restrict_renormalize", "restricted_ratio_certificate",
    ),
    "space": ("operator_norm_certificate", "subgroup_norm_certificate"),
    "dynamics": ("rokhlin_tower", "conditional_base_sampler"),
    "markov": ("convergence_report", "markov_average"),
    "model": (
        "build_model", "hit_ball", "verify_patch", "split_values",
        "run_stage_checks", "support_and_iso_check", "equivariance_check",
        "orbit_frequency", "phi", "doubling_shift_baseline",
    ),
    "continuous": (
        "chain_convolution", "haar_convolution_identity",
        "domination_check_locally_finite", "lower_bound_chain_check",
        "overlap_density_quadrature", "domination_constant_real",
    ),
    "stats": ("clopper_pearson", "batch_means_se"),
}

# layer -> attribute path -> counter name; counted only, never timed
COUNTED = {
    "groups": {
        "multiply": "multiply", "inverse": "inverse",
        "check_element": "check_element", "word_length": "word_length",
    },
    "measures": {"WeightTable.partial_table": "partial_table"},
    "space": {"norm_detail": "norm_detail", "shift": "shift"},
    "dynamics": {
        "PointHandle.read": "read", "sample_point": "sample_point",
    },
    "model": {
        "ModelEvaluator.f_value": "f_value",
        "ModelEvaluator.__init__": "evaluators",
    },
}


class Tracer:
    """Spans, per-layer self times and counters for one traced process."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.root = [0.0]  # time covered by top-level spans
        self.stack = [self.root]
        self.active: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.fself: Counter = Counter()
        self.layer_self: Counter = Counter()
        self.counts: Counter = Counter()
        self._cells: dict = {}  # counter name -> one-element list
        self.missing: list = []  # wrapped names absent from this walkrep

    # -- wrappers -----------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [0.0]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def _exit(self, layer: str, name: str, frame: list, dt: float) -> None:
        self.stack.pop()
        self.active[name] -= 1
        self.calls[name] += 1
        own = dt - frame[0]
        self.fself[name] += own
        self.layer_self[layer] += own
        self.stack[-1][0] += dt
        if not self.active[name]:
            self.incl[name] += dt

    def timed(self, layer: str, name: str, fn):
        perf = time.perf_counter
        enter, leave = self._enter, self._exit
        if inspect.isgeneratorfunction(fn):
            # a span per resumption: the generator runs only inside next()
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    frame = enter(name)
                    t = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        leave(layer, name, frame, perf() - t)
                    self.counts[name + ".yielded"] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            t = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, name, frame, perf() - t)

        return wrapper

    def counted(self, name: str, fn, body: str = "_n[0] += 1\nreturn _fn(CALL)\n", **names):
        """Wrap ``fn`` with ``body`` under ``fn``'s own parameter list.

        A plain ``*args, **kwargs`` wrapper costs about three times as much
        per call, which matters at 10M+ calls; ``_n`` is the counter cell.
        """
        cell = self._cells.setdefault(name, [0])
        return _like(fn, body, _n=cell, **names)

    # -- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        for layer, names in TIMED.items():
            for path in names:
                self._patch(modules[layer], path, lambda f, n=f"{layer}.{path}", lay=layer: self.timed(lay, n, f))
        for layer, paths in COUNTED.items():
            for path, short in paths.items():
                self._patch(modules[layer], path, lambda f, n=f"{layer}.{short}": self.counted(n, f))
        self._install_special(modules)

    def _patch(self, module, path: str, make) -> None:
        """Replace ``module.path`` by ``make(old)``; a missing name is noted."""
        owner = module
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p, None)
        try:
            if owner is None or not hasattr(owner, attr):
                raise LookupError(path)
            setattr(owner, attr, make(getattr(owner, attr)))
        except LookupError:
            self.missing.append(f"{module.__name__}.{path}")

    def _install_special(self, modules: dict) -> None:
        """Counters that need the call's arguments, result or caller."""
        patch = self._patch
        cells = self._cells
        active = self.active
        in_locate = [0]

        # groups.ball calls made inside ModelEvaluator.locate, and ball sizes
        patch(modules["groups"], "ball", lambda f: self.counted(
            "groups.ball", f,
            "_n[0] += 1\n"
            "if _depth[0]:\n    _inner[0] += 1\n"
            "_out = _fn(CALL)\n"
            "_size[0] += len(_out)\n"
            "return _out\n",
            _depth=in_locate,
            _inner=cells.setdefault("model.ball_in_locate", [0]),
            _size=cells.setdefault("groups.ball.elements", [0]),
        ))
        patch(modules["model"], "ModelEvaluator.locate", lambda f: self.counted(
            "model.locate", f,
            "_n[0] += 1\n_depth[0] += 1\n"
            "try:\n    return _fn(CALL)\nfinally:\n    _depth[0] -= 1\n",
            _depth=in_locate,
        ))
        # TowerSpec.in_base calls made while the conditional sampler runs
        patch(modules["dynamics"], "TowerSpec.in_base", lambda f: self.counted(
            "dynamics.tower_in_base", f,
            "_n[0] += 1\n"
            "if _active['dynamics.conditional_base_sampler']:\n    _tries[0] += 1\n"
            "return _fn(CALL)\n",
            _active=active,
            _tries=cells.setdefault("dynamics.sampler.attempts", [0]),
        ))
        # rokhlin_tower calls made while a hit_ball span is open
        patch(modules["dynamics"], "rokhlin_tower", lambda f: self.counted(
            "model.hit_ball.tower_attempts", f,
            "if _active['model.hit_ball']:\n    _n[0] += 1\nreturn _fn(CALL)\n",
            _active=active,
        ))
        # convolution sizes: products = |mu| * |nu|, atoms_out = |mu * nu|
        products = cells.setdefault("measures.convolve.products", [0])

        def convolve(f):
            return self.counted(
                "measures.convolve.atoms_out", f,
                "_prod[0] += len(CALL_MU.masses) * len(CALL_NU.masses)\n"
                "_out = _fn(CALL)\n_n[0] += len(_out.masses)\nreturn _out\n",
                _prod=products,
            )

        patch(modules["measures"], "convolve", convolve)
        patch(modules["measures"], "build_weight", lambda f: self.counted(
            "measures.weight_atoms", f,
            "_out = _fn(CALL)\n_n[0] += len(_out.table)\nreturn _out\n",
        ))
        # keyed-blake2b coordinate bits (digest_size=1), as seen from dynamics
        dynamics = modules["dynamics"]
        real_hashlib = dynamics.hashlib
        proxy = types.ModuleType("hashlib")
        proxy.__dict__.update(real_hashlib.__dict__)
        bits = cells.setdefault("dynamics.bits_hashed", [0])
        real_blake2b = real_hashlib.blake2b

        def blake2b(*args, **kwargs):
            if kwargs.get("digest_size") == 1:
                bits[0] += 1
            return real_blake2b(*args, **kwargs)

        proxy.blake2b = blake2b
        dynamics.hashlib = proxy

    # -- report -------------------------------------------------------------

    def report(self, end: float, import_s: float) -> dict:
        """Times are perf_counter readings (CLOCK_MONOTONIC, shared by all
        processes), so the parent can measure start-up and teardown."""
        total = end - self.t0
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_self.update(self.layer_self)
        layer_self["cli"] += total - self.root[0]
        counts = dict(self.counts)
        counts.update({name: cell[0] for name, cell in self._cells.items()})
        return {
            "root_s": total,
            "import_s": import_s,
            "layer_self_s": layer_self,
            "calls": dict(self.calls),
            "incl_s": dict(self.incl),
            "self_s": dict(self.fself),
            "counts": counts,
            "missing": self.missing,
            "t0": self.t0,
            "end": end,
        }


_PLAIN = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _like(fn, body: str, **names):
    """A function with ``fn``'s parameters whose body is ``body``.

    ``CALL`` in the body stands for the argument list passed on to ``fn``
    (bound as ``_fn``), and ``CALL_<NAME>`` for the argument of that
    parameter; ``names`` are the other globals the body uses.
    """
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        params = None
    if params is None or any(p.kind not in _PLAIN for p in params):
        head = call = "*args, **kwargs"
        params = []
    else:
        parts = []
        for i, p in enumerate(params):
            if p.default is p.empty:
                parts.append(p.name)
            else:
                names[f"_default{i}"] = p.default
                parts.append(f"{p.name}=_default{i}")
        head = ", ".join(parts)
        call = ", ".join(p.name for p in params)
    for p in params:
        body = body.replace(f"CALL_{p.name.upper()}", p.name)
    if "CALL_" in body:
        raise LookupError(f"{fn.__qualname__} lacks a parameter the probe reads")
    body = body.replace("CALL", call)
    namespace = dict(names, _fn=fn)
    exec(f"def _wrapper({head}):\n" + textwrap.indent(body, "    "), namespace)
    return functools.update_wrapper(namespace["_wrapper"], fn)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(_T0)
    t = time.perf_counter()
    import walkrep.cli
    from walkrep import continuous, dynamics, groups, markov, measures, model, space, stats

    import_s = time.perf_counter() - t
    tracer.install({
        "groups": groups, "measures": measures, "space": space,
        "dynamics": dynamics, "markov": markov, "model": model,
        "continuous": continuous, "stats": stats,
    })
    try:
        rc = walkrep.cli.main(argv)
    finally:
        end = time.perf_counter()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(end, import_s), fh, sort_keys=True, indent=1)
    return rc


if __name__ == "__main__":
    sys.exit(main())
