"""walkrep benchmark: runs the ``walkrep`` CLI as a user would.

    python3 bench/run.py --workload {certify,embed,chain} --seed N \
        --seconds S --trace {0,1}

One closed-loop client launches one command subprocess at a time from the
root of a checkout (``src/walkrep`` must be there).  The workload seed picks
a vetted walkrep seed (see ``USABLE_SEEDS``) that is passed to every command
as ``--seed`` and written into the generated config files, the only other
input.  Every run checks each command's exit code and every ``report.json``
verdict against ``EXPECTED``, and hashes the reports; a digest that differs
from an earlier run of the same seed in the same checkout is a failed
operation.

The benchmark pins itself, and so every command it starts, to one CPU.
While each timed subprocess runs, a thread samples a fixed reference loop
(``reference_sample``) on that CPU, and the subprocess's CPU time (user plus
system, from ``wait4``) is reported in reference seconds: times
``REF_NOMINAL_S`` over the mean CPU time of the samples.  On the shared host
a command's wall time also holds seconds in which it does not run, and the
CPU's speed drifts by up to half for seconds to minutes at a time; CPU time
leaves out the first, and the samples drift with the second, so the scaled
times hold still, while a change to walkrep still moves them (the loop does
not use walkrep).

``--trace 0`` reports the end-to-end metrics: set-up time (median of
``SETUP_REPEATS`` import-and-load-config subprocesses), the CPU time of the
workload's commands and the peak RSS of any command.  Commands run in
workload order, pass after pass, until ``--seconds`` have elapsed; the first
pass always completes, and a later one stops after whichever command ends
past the deadline.  The CPU time is the sum over commands of each command's
median scaled time.  ``--trace 1`` runs one untraced pass and then one pass
through ``bench/traced_cli.py`` and reports the per-layer metrics of the
traced pass.  Outputs go to ``.bench_out/``.
The second-to-last stdout line is a JSON detail record (per-command times,
exit codes, digests, failures); the last line is the result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from trace_metrics import layer_metrics  # bench/ is on sys.path as the script's directory

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
TRACED_CLI = os.path.join(ROOT, "bench", "traced_cli.py")

# Seeds that passed the correctness gate on all three workloads (every
# candidate tried did; see README.md); the workload seed N selects
# USABLE_SEEDS[N % len]. 20240 is walkrep's default.
USABLE_SEEDS = (20240, 20241, 20242, 20243, 20244, 20245, 20246, 20247, 20248, 20249, 20250, 20251)
DEFAULT_SEED = 20240

SETUP_REPEATS = 4
COVERAGE_MIN = 0.95  # layer self times must cover this share of traced wall time

# Reference loop: one sample is REF_ROUNDS rounds of tuple-keyed dict
# updates and integer and float arithmetic, the operations walkrep spends
# its time on.  It runs every REF_PERIOD_S while a command runs, taking about
# 10% of the CPU.  A sample took about REF_NOMINAL_S of CPU time on the
# 2-core VM the bounds were measured on, at its fastest.
REF_ROUNDS = 4
REF_PERIOD_S = 0.02
REF_NOMINAL_S = 0.002

# Config files, written with the walkrep seed.  Sizes are cut from walkrep's
# defaults so that a run makes one to two passes (see README.md); chain
# stays at the defaults, where the 11b anchors hold.
CONFIGS = {
    "default": {},
    "exp": {"second_weights": {"q": 0.5, "n_max": 8}},
    "poly": {
        "group": {"kind": "lattice", "d": 3},
        "weights": {"q": 0.5, "n_max": 8},
        "second_group": {"kind": "heisenberg", "d": 2},
        "second_weights": {"q": 0.5, "n_max": 8},
    },
    "embed": {
        "stages": 3,
        "samples": {
            "tower_samples": 20000, "check_samples": 1000, "equivariance_samples": 250,
            "orbit_steps": 1500, "averaging_samples": 500,
        },
    },
    "chain": {"lf_chain_n": 9},
}

# workload -> [(step, command, config)]; each step's outputs are hashed
WORKLOADS = {
    "certify": [
        ("weights", "weights", "exp"),
        ("norms", "norms", "exp"),
        ("weights_poly", "weights", "poly"),
        ("norms_poly", "norms", "poly"),
    ],
    "embed": [
        ("tower", "tower", "embed"),
        ("jrt", "jrt", "embed"),
        ("build", "build", "embed"),
        ("support", "support", "embed"),
        ("orbit", "orbit", "embed"),
        ("feldman", "feldman", "embed"),
    ],
    "chain": [("continuous", "continuous", "chain")],
}

HASHED_FILES = {"build": ("report.json", "history.json", "model.json")}

_F2 = ("a", "A", "b", "B")
_Z3 = ("(1,0,0)", "(-1,0,0)", "(0,1,0)", "(0,-1,0)", "(0,0,1)", "(0,0,-1)")
_WEIGHT_RECORDS = (
    "group_mass", "group_translation_ratios",
    "second_group_mass", "second_group_translation_ratios",
)
# step -> (expected exit code, {record name: expected verdict})
EXPECTED = {
    "weights": (0, dict.fromkeys(_WEIGHT_RECORDS, True)),
    "weights_poly": (0, dict.fromkeys(_WEIGHT_RECORDS, True)),
    "norms": (0, dict.fromkeys(
        ["group_shift_1", "group_shift_-1"]
        + [f"second_group_shift_{a}" for a in _F2]
        + ["restricted_ratio_b1"]
        + [f"restricted_shift_g{g}" for g in (0, 1, 2)],
        True,
    )),
    "norms_poly": (0, dict.fromkeys(
        [f"group_shift_{a}" for a in _Z3]
        + [f"second_group_shift_{a}" for a in _Z3[:4]],
        True,
    )),
    "tower": (0, {"tower_validity": True}),
    "jrt": (0, {"rotation_cos_decay": True, "bernoulli_indicator_variance": True}),
    "build": (0, dict.fromkeys(
        ["stage_separation", "stage_nesting", "range_containment",
         "exception_budgets", "hitting_budgets", "quartic_norm"],
        True,
    )),
    "support": (0, dict.fromkeys(
        ["support_and_iso"] + [f"equivariance_h{h}" for h in (-2, -1, 0, 1, 2)],
        True,
    )),
    "orbit": (0, {"orbit_frequency": True}),
    "feldman": (0, {"conjugacy_identity": True}),
    # criterion 11b: the simple closed-form constant fails by design
    "continuous": (1, {
        "overlap_quadrature": True,
        "real_domination": True,
        "haar_convolution_identity": True,
        "chain_lower_bound": True,
        "lf_domination_simple_constant": False,
        "lf_domination_corrected_constant": True,
    }),
}
# 11b anchors in lf_domination.csv at the default seed, for the chain config
ANCHOR_VIOLATIONS = 284
ANCHOR_WORST_RATIO = 43818.9


class Run:
    """Operations attempted and failed in one benchmark run, with details."""

    def __init__(self, workload: str, seed: int, walkrep_seed: int):
        self.workload = workload
        self.seed = seed
        self.walkrep_seed = walkrep_seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def reference_sample() -> float:
    """CPU seconds the calling thread takes for one sample of the reference loop."""
    start = time.thread_time()
    for _ in range(REF_ROUNDS):
        acc = {}
        for i in range(1200):
            key = ((i * 7919) % 509, i & 7)
            acc[key] = acc.get(key, 0.0) + 0.5 * (i % 11)
    return time.thread_time() - start


class HostSampler:
    """Samples the reference loop every REF_PERIOD_S on a thread of its own
    while one subprocess runs, on the same CPU."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            self.samples.append(reference_sample())
            if self._stop.wait(REF_PERIOD_S):
                return

    def __enter__(self) -> "HostSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, cpu_s: float) -> tuple[float, float]:
        """(CPU time in reference seconds, mean sample)."""
        ref = statistics.fmean(self.samples)
        return cpu_s * REF_NOMINAL_S / ref, ref


def _pin_to_one_cpu() -> None:
    """Run here and in every child on one CPU, so that the reference samples
    and the commands meet the same core's speed."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list, stderr_path: str, scaled: bool = False) -> dict:
    """Run one subprocess to completion; if scaled, sample the reference
    loop while it runs and scale its CPU time.

    Start and end are perf_counter readings, on the same clock as the
    traced child's own readings.
    """
    sampler = HostSampler() if scaled else contextlib.nullcontext()
    with open(stderr_path, "wb") as err, sampler:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    info = {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "rc": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }
    if scaled:
        info["scaled_s"], info["ref_s"] = sampler.scale(info["cpu_s"])
        info["ref_samples"] = len(sampler.samples)
    return info


def _write_configs(work: str, walkrep_seed: int) -> dict:
    paths = {}
    for name, body in CONFIGS.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({"seed": walkrep_seed, **body}, fh, sort_keys=True)
    return paths


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tree_digest(path: str, salt: str) -> str:
    h = hashlib.sha256(salt.encode())
    for name in sorted(os.listdir(path)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(path, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def _check_outputs(run: Run, step: str, rc: int, out_dir: str) -> dict:
    """Exit code, verdict table, anchors; returns the step's file digests."""
    want_rc, verdicts = EXPECTED[step]
    run.check(rc == want_rc, f"{step}: exit code {rc}, expected {want_rc}")
    report_path = os.path.join(out_dir, "report.json")
    try:
        with open(report_path, encoding="utf-8") as fh:
            got = {r["name"]: r["pass"] for r in json.load(fh)["records"]}
    except (OSError, ValueError, KeyError) as exc:
        got = {}
        run.check(False, f"{step}: unreadable report.json ({exc})")
    for name, want in verdicts.items():
        verdict = got.get(name)
        run.check(verdict is want, f"{step}/{name}: verdict {verdict}, expected {want}")
    for name in sorted(set(got) - set(verdicts)):
        run.check(False, f"{step}/{name}: unexpected record")
    if step == "continuous" and run.walkrep_seed == DEFAULT_SEED:
        _check_anchors(run, os.path.join(out_dir, "lf_domination.csv"))
    digests = {}
    for name in HASHED_FILES.get(step, ("report.json",)):
        path = os.path.join(out_dir, name)
        digests[name] = _digest(path) if os.path.exists(path) else None
    return digests


def _check_anchors(run: Run, path: str) -> None:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        violations = sum(int(r["violations"]) for r in rows)
        worst = max(float(r["worst_ratio"]) for r in rows)
    except (OSError, ValueError, KeyError) as exc:
        run.check(False, f"continuous: unreadable lf_domination.csv ({exc})")
        return
    run.check(violations == ANCHOR_VIOLATIONS, f"11b violations {violations}, expected {ANCHOR_VIOLATIONS}")
    run.check(round(worst, 1) == ANCHOR_WORST_RATIO, f"11b worst ratio {worst}, expected {ANCHOR_WORST_RATIO}")


class DigestStore:
    """Output digests per (source tree, configs, walkrep seed, step), kept
    in the checkout across runs; keying by a digest of ``src/walkrep`` and
    of ``CONFIGS`` keeps runs of different code or inputs apart."""

    def __init__(self, path: str):
        self.path = path
        self.tree = _tree_digest(os.path.join(SRC, "walkrep"), json.dumps(CONFIGS, sort_keys=True))
        try:
            with open(path, encoding="utf-8") as fh:
                self.data = json.load(fh)
        except (OSError, ValueError):
            self.data = {}

    def compare(self, run: Run, step: str, digests: dict) -> None:
        key = f"{self.tree}/{run.walkrep_seed}/{step}"
        seen = self.data.get(key)
        for name, digest in digests.items():
            earlier = None if seen is None else seen.get(name)
            run.check(
                digest is not None and (seen is None or earlier == digest),
                f"{step}/{name}: digest {digest} differs from earlier run {earlier}",
            )
        if seen is None and None not in digests.values():
            self.data[key] = digests

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, sort_keys=True, indent=1)
        os.replace(tmp, self.path)


def run_pass(
    run: Run, store: DigestStore, work: str, configs: dict, traced: bool,
    deadline: float | None = None,
) -> dict:
    """The workload's steps in order, one subprocess at a time: all of them,
    or, with a deadline, those up to the first one that ends past it."""
    label = f"pass{len(run.passes)}{'_traced' if traced else ''}"
    os.makedirs(os.path.join(work, label))
    steps = {}
    t0 = time.perf_counter()
    for step, command, config in WORKLOADS[run.workload]:
        out_base = os.path.join(work, label, step)
        args = [command, "--config", configs[config], "--seed", str(run.walkrep_seed), "--out", out_base]
        trace_path = os.path.join(work, label, f"{step}.trace.json")
        if traced:
            argv = [sys.executable, TRACED_CLI, trace_path] + args
        else:
            argv = [sys.executable, "-m", "walkrep.cli"] + args
        info = _spawn(argv, os.path.join(work, label, f"{step}.stderr"), scaled=not traced)
        out_dir = os.path.join(out_base, command)
        run.attempted += 1  # the command itself; its checks follow
        failed_before = run.failed
        info["digests"] = _check_outputs(run, step, info["rc"], out_dir)
        store.compare(run, step, info["digests"])
        steps[step] = info
        if traced:
            steps[step]["bytes_written"] = _dir_bytes(out_dir)
            try:
                with open(trace_path, encoding="utf-8") as fh:
                    steps[step]["trace"] = json.load(fh)
            except (OSError, ValueError):
                run.check(False, f"{step}: no trace written")
        if run.failed > failed_before:
            run.failed += 1  # the command counts as one failed operation too
        if deadline is not None and time.perf_counter() >= deadline:
            break
    result = {"label": label, "wall_s": time.perf_counter() - t0, "steps": steps}
    run.passes.append(result)
    return result


def measure_setup(run: Run, work: str, configs: dict) -> float:
    """Median scaled CPU time of a subprocess that imports the CLI and loads a config."""
    code = (
        "import sys, walkrep.cli; from walkrep.config import load_config; "
        "load_config(sys.argv[1])"
    )
    times = []
    for i in range(SETUP_REPEATS):
        info = _spawn(
            [sys.executable, "-c", code, configs["default"]],
            os.path.join(work, f"setup{i}.stderr"),
            scaled=True,
        )
        run.check(info["rc"] == 0, f"setup: exit code {info['rc']}")
        times.append(info["scaled_s"])
    return statistics.median(times)


def traced_metrics(run: Run, plain: dict, traced: dict) -> dict:
    """Per-layer metrics of the traced pass, with per-command coverage checks."""
    per_step = {}
    for step, info in traced["steps"].items():
        trace = info.get("trace")
        if trace is None:
            continue
        # interpreter start-up and finalization happen outside every span;
        # the shared clock measures them, and they are credited to cli
        process_s = (trace["t0"] - info["start"]) + (info["end"] - trace["end"])
        trace["process_s"] = process_s
        info["inprocess_share"] = (trace["end"] - trace["t0"]) / info["wall_s"]
        trace["layer_self_s"]["cli"] += process_s
        coverage = sum(trace["layer_self_s"].values()) / info["wall_s"]
        run.check(
            coverage >= COVERAGE_MIN,
            f"{step}: layer self times cover {coverage:.3f} of traced wall time",
        )
        per_step[step] = {**trace, "coverage": coverage, "bytes_written": info["bytes_written"]}
    metrics = layer_metrics(list(per_step.values()))
    # CPU time, since the reference sampler lengthens the untraced commands' wall time
    overhead = sum(traced["steps"][s]["cpu_s"] - plain["steps"][s]["cpu_s"] for s in traced["steps"])
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.coverage_min"] = (min((v["coverage"] for v in per_step.values()), default=0.0), "ratio")
    metrics["trace.inprocess_share_min"] = (
        min((i.get("inprocess_share", 0.0) for i in traced["steps"].values()), default=0.0), "ratio")
    # untraced scaled time per command; 0 for commands of other workloads
    for steps in WORKLOADS.values():
        for step, _, _ in steps:
            metrics[f"{step}_s"] = (plain["steps"].get(step, {}).get("scaled_s", 0.0), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that _spawn stops the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "walkrep", "cli.py")):
        print(f"benchmark: no walkrep sources under {SRC}", file=sys.stderr)
        return 2

    _pin_to_one_cpu()
    walkrep_seed = USABLE_SEEDS[args.seed % len(USABLE_SEEDS)]
    run = Run(args.workload, args.seed, walkrep_seed)
    work = os.path.join(WORK, f"{args.workload}-{walkrep_seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    configs = _write_configs(work, walkrep_seed)
    store = DigestStore(os.path.join(WORK, "digests.json"))

    if args.trace:
        plain = run_pass(run, store, work, configs, traced=False)
        traced = run_pass(run, store, work, configs, traced=True)
        metrics = traced_metrics(run, plain, traced)
    else:
        setup_s = measure_setup(run, work, configs)
        deadline = time.perf_counter() + args.seconds
        run_pass(run, store, work, configs, traced=False)
        while time.perf_counter() < deadline:
            run_pass(run, store, work, configs, traced=False, deadline=deadline)
        median = {
            step: statistics.median(p["steps"][step]["scaled_s"] for p in run.passes if step in p["steps"])
            for step, _, _ in WORKLOADS[run.workload]
        }
        peak = max(s["rss_mb"] for p in run.passes for s in p["steps"].values())
        metrics = {
            "setup_s": (setup_s, "s"),
            "cpu_s": (sum(median.values()), "s"),
            "peak_rss_mb": (peak, "MB"),
        }
    store.save()

    for p in run.passes:
        for s in p["steps"].values():
            s.pop("trace", None)
    print(json.dumps({
        "workload": run.workload,
        "seed": run.seed,
        "walkrep_seed": walkrep_seed,
        "passes": run.passes,
        "failures": run.failures,
    }, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
