import contextlib
import csv
import io
import json
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fresh
import golden
from fresh import modules_after
from golden import SMALL_CONFIG
from vectors import weight
from walkrep import cli, commands, config, continuous, groups, measures, model
from walkrep.config import WeightConfig
from walkrep.errors import ConfigError


def test_missing_config_exits_2(tmp_path):
    status = cli.main(["tower", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert status == 2


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert cli.main(["tower", "--config", str(path), "--out", str(tmp_path)]) == 2
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_nested_unknown_keys_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"weights": {"q": 0.5, "zzz": 1}}))
    with pytest.raises(ConfigError):
        config.load_config(str(path))


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert config.config_from_dict(json.loads(block)) == config.ExperimentConfig()


def test_invalid_values_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    for doc in (
        {"weights": {"q": 1.5}},
        {"group": {"kind": "foo"}},
        {"group": {"kind": "lattice", "d": 5}},
        {"weights": {"q": "0.5"}},
        {"system": {"alpha": ["x"]}},
        {"stages": 3.7},
        {"group": {"kind": "z2sum", "d": 0}},
        {"second_group": {"kind": "z2sum", "d": 0}},
        {"lf_chain_n": 2, "lf_sampled_g0": 20},
        {"lf_sampled_g0": -1},
        {"lf_chain_n": 0},
        {"lf_chain_n": 40},
        {"samples": {"norm_trials": 2000}},
        {"samples": {"averaging_samples": 1}},
        {"samples": {"tower_samples": -5}},
        {"samples": {"check_samples": 0}},
        {"samples": {"base_samples": 0}},
        {"samples": {"equivariance_samples": 0}},
        {"samples": {"orbit_steps": 1}},
        {"system": {"alpha": [0.3, 0.4]}},
        {"group": {"kind": "lattice", "d": 2}, "system": {"alpha": [0.3]}},
        {"seed": -1},
        {"system": {"alpha": [10**400]}},
        {"tolerances": {"decay_sigma": 10**400}},
        {"n_trunc": 1},
    ):
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            config.load_config(str(path))
        assert cli.main(["tower", "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command", [*cli.COMMANDS, "all"])
def test_negative_seed_override_rejected(command, tmp_path, capsys):
    assert cli.main([command, "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / command).exists()


def test_integer_in_float_field_is_the_float():
    ints = config.config_from_dict({"tolerances": {"decay_sigma": 4}, "system": {"alpha": [1]}})
    floats = config.config_from_dict({"tolerances": {"decay_sigma": 4.0}, "system": {"alpha": [1.0]}})
    assert ints == floats
    assert ints.canonical_json() == floats.canonical_json()
    assert ints.digest() == floats.digest()
    assert type(ints.tolerances.decay_sigma) is float


def test_chain_config_bounds():
    top = continuous.MAX_CHAIN_N
    cfg = config.config_from_dict({"lf_chain_n": top, "lf_sampled_g0": 2**top})
    assert cfg.lf_chain_n == top
    assert config.config_from_dict({"lf_chain_n": 1, "lf_sampled_g0": 1}).lf_sampled_g0 == 1
    # no g0 checked would pass both domination records with nothing checked
    for doc in ({"lf_chain_n": top + 1}, {"lf_chain_n": 3, "lf_sampled_g0": 9}, {"lf_chain_n": 3, "lf_sampled_g0": 0}):
        with pytest.raises(ConfigError):
            config.config_from_dict(doc)


def test_config_defaults_and_digest():
    cfg = config.ExperimentConfig()
    assert cfg.weights.q == 0.5
    assert cfg.group.kind == "integers"
    assert len(cfg.digest()) == 16
    assert config.config_from_dict({}).digest() == cfg.digest()
    assert cfg.digest() == "4aa50a3f94eb19bb"  # in every report of the default config


def test_tower_command_writes_reports(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 9, "samples": {"tower_samples": 4000}}))
    status = cli.main(["tower", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 0
    report = json.loads((tmp_path / "out" / "tower" / "report.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "out" / "tower" / "run_meta.json").exists()


def test_run_meta_counts_bits_drawn(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "weights": {"q": 0.5, "n_max": 8},
        "second_weights": {"q": 0.5, "n_max": 4},
        "samples": {"tower_samples": 2000},
    }))

    def bits_drawn(command, out):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path / out)]) == 0
        meta = json.loads((tmp_path / out / command / "run_meta.json").read_text())
        report = (tmp_path / out / command / "report.json").read_text()
        assert "bits_drawn" not in report and "philox_blocks" not in report
        return meta["bits_drawn"], meta["philox_blocks"]

    first = bits_drawn("tower", "a")
    assert min(first) > 0
    assert bits_drawn("tower", "b") == first
    assert bits_drawn("weights", "a") == (0, 0)


def test_run_meta_counts_sampler_draws(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "stages": 2,
        "samples": {"tower_samples": 2000, "check_samples": 300, "equivariance_samples": 100},
    }))
    meta = {}
    for command in ("tower", "build", "support"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
        meta[command] = json.loads((tmp_path / command / "run_meta.json").read_text())
        assert "sampler" not in (tmp_path / command / "report.json").read_text()
    assert meta["tower"]["sampler_draws"] == meta["tower"]["window_cells"] == 0
    for command in ("build", "support"):
        assert meta[command]["sampler_draws"] > 0
        assert meta[command]["window_cells"] > 0
        assert "window_cells" not in (tmp_path / command / "report.json").read_text()


# what ``import walkrep.cli`` loads
CLI_LOADED = ["walkrep", "walkrep.cli", "walkrep.config", "walkrep.errors", "walkrep.groups"]
# what every command process loads under ``python -m walkrep.cli``, where
# ``walkrep.cli`` runs as ``__main__``, and each command's layers beyond it
# and its own module of ``walkrep.commands``
ALWAYS_LOADED = ["walkrep", "walkrep.commands", "walkrep.config", "walkrep.errors", "walkrep.groups", "walkrep.trace"]
COMMAND_LAYERS = {
    "tower": ("dynamics", "stats"),
    "feldman": ("pcg64",),
    "weights": ("measures",),
    "norms": ("measures", "space"),
    "jrt": ("markov", "dynamics", "measures", "pcg64"),
    **dict.fromkeys(("build", "support", "orbit"), ("model", "dynamics", "measures", "stats")),
    "continuous": ("continuous", "pcg64"),
}
# start-up modules no command process loads: ``dataclasses``, and
# ``numpy.random`` with the ``secrets`` and OpenSSL ``_hashlib`` it imports
# (``walkrep.pcg64`` makes its draws)
START_UP_MODULES = ("dataclasses", "numpy.random", "secrets", "_hashlib")


@pytest.fixture(scope="module")
def fresh_runs(tmp_path_factory):
    """Each command run alone in a fresh ``python -X importtime -m
    walkrep.cli``, the benchmark's entry: the config, the output directory
    and, per command, every module it imported, once per import."""
    base = tmp_path_factory.mktemp("fresh")
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))

    def run(command):
        proc = fresh.run(["-X", "importtime", "-m", "walkrep.cli", command, "--config", str(cfg), "--out", str(base)])
        # ``continuous`` exits 1 for the record that fails by design (11b)
        assert proc.returncode == int(command == "continuous"), proc.stderr
        return command, fresh.imports(proc.stderr)

    with ThreadPoolExecutor(2) as pool:
        loaded = dict(pool.map(run, COMMAND_LAYERS))
    return cfg, base, loaded


def test_cli_import_loads_no_layer():
    # nor numpy, nor any of ``START_UP_MODULES``
    assert modules_after("import walkrep.cli", "walkrep", "numpy", *START_UP_MODULES) == CLI_LOADED


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_command_loads_only_its_layers(fresh_runs, command):
    want = ALWAYS_LOADED + [f"walkrep.commands.{cli.COMMANDS[command]}"]
    want += [f"walkrep.{layer}" for layer in COMMAND_LAYERS[command]]
    assert sorted({m for m in fresh_runs[2][command] if m.startswith("walkrep")}) == sorted(want)


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_module_entry_compiles_each_module_once(fresh_runs, command):
    # ``walkrep.cli`` runs as ``__main__``: importing it by name would
    # compile it a second time, and no other module may load twice either
    walkrep_imports = [m for m in fresh_runs[2][command] if m.startswith("walkrep")]
    assert "walkrep.cli" not in walkrep_imports
    assert len(walkrep_imports) == len(set(walkrep_imports))


def test_chain_process_loads_no_numpy(fresh_runs):
    # the chain runs on Python floats, and ``pcg64.sample`` on ints
    assert [m for m in fresh_runs[2]["continuous"] if m == "numpy" or m.startswith("numpy.")] == []
    assert modules_after("import walkrep.pcg64", "numpy") == []
    assert modules_after("import walkrep.stats", "numpy") == []


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_command_leaves_out_start_up_modules(fresh_runs, command):
    loaded = fresh_runs[2][command]
    assert [m for m in loaded if any(m == s or m.startswith(s + ".") for s in START_UP_MODULES)] == []


def test_fresh_run_meta_has_every_counter(fresh_runs):
    _, base, _ = fresh_runs
    meta = {c: json.loads((base / c / "run_meta.json").read_text()) for c in ("tower", "weights")}
    for command, m in meta.items():
        assert m["startup_cpu_s"] > 0.0
        assert "startup_cpu_s" not in (base / command / "report.json").read_text()
    assert meta["tower"]["bits_drawn"] > 0 and meta["tower"]["philox_blocks"] > 0
    assert meta["tower"]["sampler_draws"] == meta["tower"]["window_cells"] == 0
    counters = ("bits_drawn", "philox_blocks", "sampler_draws", "window_cells")
    assert [meta["weights"][k] for k in counters] == [0, 0, 0, 0]


@pytest.mark.parametrize("command", COMMAND_LAYERS)
def test_fresh_report_equals_in_process(fresh_runs, command, tmp_path):
    # every output file but the run's meta, byte for byte
    cfg, base, _ = fresh_runs
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == int(command == "continuous")
    names = sorted(f.name for f in (base / command).iterdir() if f.name != "run_meta.json")
    assert names == sorted(f.name for f in (tmp_path / command).iterdir() if f.name != "run_meta.json")
    assert "report.json" in names
    for name in names:
        assert (tmp_path / command / name).read_bytes() == (base / command / name).read_bytes(), name


def test_outputs_match_golden_manifest(fresh_runs, tmp_path):
    # every output file but the run's meta, against the digests this
    # platform recorded in ``golden.json``
    entry = json.loads(golden.MANIFEST.read_text()).get(golden.platform_key())
    if entry is None:
        pytest.skip(f"golden.json has no digests for {golden.platform_key()}")
    runs = {name: tmp_path / name for name in golden.RUNS}
    for name, out in runs.items():
        golden.run(name, out)
    found = golden.digests({"small": fresh_runs[1], **runs})
    assert golden.mismatches(found, entry) == []


@pytest.mark.parametrize("command", ["tower", "build", "support", "orbit"])
def test_traced_cli_runs(command, tmp_path):
    # the benchmark's traced entry point wraps layer attributes by name, so
    # a layer change that drops one it needs fails here.  It proxies
    # ``dynamics.hashlib`` for its ``blake2b``: that name is bound to
    # CPython's ``_blake2`` module, which holds ``blake2b`` without loading
    # OpenSSL (``hashlib.blake2b`` is the same function, taken from it)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    traced = Path(__file__).resolve().parents[1] / "bench" / "traced_cli.py"
    trace = tmp_path / "trace.json"
    proc = fresh.run([str(traced), str(trace), command, "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["calls"]["dynamics.rokhlin_tower"] > 0


@pytest.mark.parametrize("command,status", [("weights", 0), ("continuous", 1)])
def test_module_entry_equals_in_process(command, status, tmp_path):
    # ``python -m walkrep.cli``, the benchmark's entry, ends without
    # interpreter teardown: its exit code, every verdict line on the stdout
    # pipe (block-buffered, so only its flush delivers them) and every
    # output file but the run's meta match ``cli.main``
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    proc = fresh.run(["-m", "walkrep.cli", command, "--config", str(cfg), "--out", str(tmp_path / "fresh")])
    assert proc.returncode == status, proc.stderr
    assert proc.stderr == ""
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "inproc")]) == status
    fresh_dir, inproc_dir = tmp_path / "fresh" / command, tmp_path / "inproc" / command
    records = json.loads((fresh_dir / "report.json").read_text())["records"]
    want = [f"[{'PASS' if r['pass'] else 'FAIL'}] {command}/{r['name']}" for r in records]
    assert proc.stdout.splitlines() == want
    assert (f"[FAIL] {command}/lf_domination_simple_constant" in want) == (command == "continuous")
    names = sorted(f.name for f in fresh_dir.iterdir() if f.name != "run_meta.json")
    assert names == sorted(f.name for f in inproc_dir.iterdir() if f.name != "run_meta.json")
    for name in names:
        assert (fresh_dir / name).read_bytes() == (inproc_dir / name).read_bytes(), name


def test_module_entry_usage_and_config_errors(tmp_path):
    # a config error exits 2 through ``main``; argparse exits 2 on its own
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": {"kind": "heisenberg", "d": 2}}))
    proc = fresh.run(["-m", "walkrep.cli", "build", "--config", str(cfg), "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error:") and proc.stdout == ""
    proc = fresh.run(["-m", "walkrep.cli", "nope", "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert "invalid choice: 'nope'" in proc.stderr and proc.stdout == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["tower", "build", "support", "orbit"])
def test_shift_commands_reject_other_kinds(command, tmp_path, capsys):
    # towers and the model are built on integer/lattice shifts only
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": {"kind": "heisenberg", "d": 2}}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / command).exists()


def test_all_runs_past_a_config_error(tmp_path, capsys):
    # the shift commands reject a Heisenberg config and write nothing; the
    # commands after them, which run on any group, still run.  At the
    # default depth of 40 the weight table is over the cap, so ``weights``
    # and ``norms`` reject it too
    heisenberg = {"group": {"kind": "heisenberg", "d": 2}}
    cap = f"weights.n_max gives a weight box of 5255361 cells on heisenberg, over the cap {measures.DEFAULT_SUPPORT_CAP}"
    reason = "towers and the model build run on integer/lattice Bernoulli shifts"
    for cfg, rejected in (
        ({**heisenberg, "weights": {"n_max": 6}}, {}),
        ({**heisenberg, "lf_chain_n": 4, "lf_sampled_g0": 4, "samples": {"averaging_samples": 100}},
         {"weights": cap, "norms": cap}),
    ):
        rejected.update(dict.fromkeys(("tower", "build", "support", "orbit"), reason))
        path, out = tmp_path / "cfg.json", tmp_path / f"out{len(rejected)}"
        path.write_text(json.dumps(cfg))
        assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 2
        ran = sorted(set(cli.COMMANDS) - set(rejected))
        assert sorted(f.name for f in out.iterdir()) == ran
        for command in ran:
            assert (out / command / "report.json").exists()
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {command}: {why}" for command, why in rejected.items()
        ]


def _strict_json(text: str):
    """``json.loads`` that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"non-finite {name} in a report")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
@pytest.mark.parametrize("table", ["weights", "second_weights"])
def test_weights_rejects_a_shallow_table(table, n_max, tmp_path, capsys):
    # the ratio scan over b in B_3 needs |b| <= n_max - 1 on both tables
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({table: {"n_max": n_max}}))
    status = cli.main(["weights", "--config", str(path), "--out", str(tmp_path)])
    if n_max == 4:
        assert status == 0
        assert _strict_json((tmp_path / "weights" / "report.json").read_text())["pass"]
    else:
        assert status == 2
        assert capsys.readouterr().err == f"config error: {table}.n_max must be > 3 for the ratios of b in B_3\n"
        assert not (tmp_path / "weights").exists()


@pytest.mark.parametrize("kind, d", [("integers", 1), ("lattice", 3), ("heisenberg", 2), ("free", 2)])
@pytest.mark.parametrize("table", ["weights", "second_weights"])
def test_norms_rejects_a_depth_1_table(table, kind, d, tmp_path, capsys):
    # a certificate on B(n_max - 1) needs n_max >= 2 on both tables: depth
    # 1 exits 2 before ``norms/`` is made, depth 2 certifies
    group = "group" if table == "weights" else "second_group"
    path = tmp_path / "cfg.json"
    for n_max in (1, 2):
        path.write_text(json.dumps({group: {"kind": kind, "d": d}, table: {"n_max": n_max}}))
        status = cli.main(["norms", "--config", str(path), "--out", str(tmp_path)])
        if n_max == 1:
            assert status == 2
            assert capsys.readouterr().err == f"config error: {table}.n_max must be >= 2 for a shift-norm certificate on B(n_max - 1)\n"
            assert not (tmp_path / "norms").exists()
        else:
            assert status == 0
            assert _strict_json((tmp_path / "norms" / "report.json").read_text())["pass"]


_KINDS = [{"kind": "integers", "d": 1}, {"kind": "lattice", "d": 2}, {"kind": "lattice", "d": 3},
          {"kind": "heisenberg", "d": 2}, {"kind": "free", "d": 2}]
_NEAR_0_OR_1 = st.one_of(st.floats(1e-12, 0.05), st.floats(0.95, 1.0 - 1e-12))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["weights", "norms"]),
    groups_=st.tuples(st.sampled_from(_KINDS), st.sampled_from(_KINDS)),
    n_max=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    q=st.tuples(_NEAR_0_OR_1, _NEAR_0_OR_1),
)
def test_weight_commands_exit_cleanly_on_any_table(command, groups_, n_max, q):
    # every group kind, depth 1 to 8 and q near 0 or 1: ``main`` returns 0,
    # 1 or 2 and raises nothing, a config error writes no file, and every
    # JSON file written is strict
    cfg = {
        "group": groups_[0], "second_group": groups_[1],
        "weights": {"q": q[0], "n_max": n_max[0]}, "second_weights": {"q": q[1], "n_max": n_max[1]},
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main([command, "--config", str(path), "--out", str(out)])
        written = [f for f in out.rglob("*") if f.is_file()]
        assert status in (0, 1, 2)
        assert status != 2 or written == []
        for f in written:
            if f.suffix == ".json":
                _strict_json(f.read_text())


@pytest.mark.parametrize("group", _KINDS, ids=lambda g: f"{g['kind']}{g['d']}")
@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    second=st.sampled_from(_KINDS),
    n_max=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    stages=st.integers(1, 3),
    n_trunc=st.integers(2, 4),
    chain=st.integers(1, 4),
)
def test_all_exits_cleanly_on_any_config(group, second, n_max, stages, n_trunc, chain):
    # every command through ``all``, on every group kind at depths 1 to 8,
    # 1 to 3 stages and every sample count at its minimum: ``main`` returns
    # 0, 1 or 2 and raises nothing, a command named in a config error line
    # leaves no directory, and every JSON file written is strict
    cfg = {
        "group": group, "second_group": second,
        "weights": {"n_max": n_max[0]}, "second_weights": {"n_max": n_max[1]},
        "stages": stages, "n_trunc": n_trunc, "lf_chain_n": chain, "lf_sampled_g0": 1,
        "samples": config.SAMPLE_MINIMUMS,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "cfg.json"), Path(tmp, "out")
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(["all", "--config", str(path), "--out", str(out)])
        assert status in (0, 1, 2)
        rejected = [line.split(": ")[1] for line in err.getvalue().splitlines() if line.startswith("config error: ")]
        assert set(rejected) <= set(cli.COMMANDS)
        for command in rejected:
            assert not (out / command).exists()
        for f in out.rglob("*.json"):
            _strict_json(f.read_text())


@pytest.mark.parametrize("command, key", [
    *[(command, key) for command in ("weights", "norms") for key in ("weights", "second_weights")],
    *[(command, "weights") for command in cli.MODEL_COMMANDS],
])
def test_weight_table_over_the_cap_is_a_config_error(command, key, tmp_path, capsys):
    # a table on Z^3 at depth 60: its cell box is checked against the cap
    # before anything is written, and the error names the key
    group = "group" if key == "weights" else "second_group"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({group: {"kind": "lattice", "d": 3}, key: {"n_max": 60}}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    cap = measures.DEFAULT_SUPPORT_CAP
    assert capsys.readouterr().err == f"config error: {key}.n_max gives a weight box of 1771561 cells on lattice, over the cap {cap}\n"
    assert not (tmp_path / command).exists()


def test_all_runs_past_a_command_error(tmp_path, capsys):
    # at depth 4 no tower height meets the tail criterion: each model
    # command raises a StageError after making its directory, and every
    # command after ``build`` still runs
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "stages": 3, "weights": {"n_max": 4}}))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    for command in cli.COMMANDS:
        written = sorted(f.name for f in (tmp_path / "out" / command).iterdir())
        assert (written == []) == (command in cli.MODEL_COMMANDS)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(": tail criterion unsatisfiable")[0] for line in lines] == [
        f"error: {command}" for command in cli.MODEL_COMMANDS
    ]


def test_reports_are_strict_json(tmp_path):
    # at depth 0 no atom has a lower ratio: observed_min is null, not
    # Infinity.  ``norms`` rejects a depth-1 table, so the record is built
    # as ``norms`` builds it and written by the reports' writer
    w2 = measures.build_weight(groups.GroupSpec("free", 2), WeightConfig(0.5, 1))
    emb = groups.subgroup_embed(groups.GroupSpec("integers"), w2.spec, [(1,)])
    nrho = measures.restricted_ratio_certificate(w2, emb, 1)
    record = commands._record("restricted_ratio_b1", nrho, bound=nrho["bound"])
    commands._write_json(str(tmp_path / "report.json"), {"records": [record]})
    (record,) = _strict_json((tmp_path / "report.json").read_text())["records"]
    assert record["pass"] and record["detail"]["observed_min"] is None
    with pytest.raises(ValueError):
        commands._write_json(str(tmp_path / "bad.json"), {"x": float("inf")})


def test_jrt_with_a_zero_standard_error(tmp_path):
    # two averaging samples whose squared deviations are equal: a zero
    # standard error, under which only the exact closed form passes
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"samples": {"averaging_samples": 2}}))
    assert cli.main(["jrt", "--config", str(path), "--out", str(tmp_path), "--seed", "1"]) == 1
    report = _strict_json((tmp_path / "jrt" / "report.json").read_text())
    records = {r["name"]: r for r in report["records"]}
    assert not records["bernoulli_indicator_variance"]["pass"]
    assert records["bernoulli_indicator_variance"]["worst_dev_in_se"] is None


@pytest.mark.parametrize("kind", ["free", "heisenberg"])
def test_jrt_ball_over_the_cap_is_a_config_error(kind, tmp_path, capsys):
    # |B_12(F_2)| = 2 * 3^12 - 1 is over groups.BALL_CAP; Heisenberg balls are not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"group": {"kind": kind, "d": 2}, "samples": {"averaging_samples": 100}}))
    status = cli.main(["jrt", "--config", str(path), "--out", str(tmp_path)])
    if kind == "free":
        assert status == 2
        message = "config error: jrt averages over B_12, whose 1062881 elements exceed the ball cap 1000000\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "jrt").exists()
    else:
        assert status in (0, 1)
        assert (tmp_path / "jrt" / "report.json").exists()


def test_support_at_the_least_truncation(tmp_path):
    # n_trunc 2 leaves B_0 to compare at |h| = 2, and support reports
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SMALL_CONFIG, "n_trunc": 2}))
    assert cli.main(["support", "--config", str(path), "--out", str(tmp_path)]) in (0, 1)
    report = json.loads((tmp_path / "support" / "report.json").read_text())
    common = {r["name"]: r["detail"].get("common_ball") for r in report["records"]}
    assert common["equivariance_h2"] == 0


def test_feldman_command(tmp_path):
    status = cli.main(["feldman", "--out", str(tmp_path / "out"), "--seed", "3"])
    assert status == 0


def test_weights_csv_row_count(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "weights": {"q": 0.5, "n_max": 8},
                "second_weights": {"q": 0.5, "n_max": 4},
            }
        )
    )
    status = cli.main(["weights", "--config", str(path), "--out", str(tmp_path / "out")])
    assert status == 0
    rows = (tmp_path / "out" / "weights" / "group_weights.csv").read_text().strip().split("\n")
    assert len(rows) - 1 == 17  # |B_8| on the integers
    rows2 = (tmp_path / "out" / "weights" / "second_group_weights.csv").read_text().strip().split("\n")
    assert len(rows2) - 1 == 2 * 3**4 - 1  # |B_4| in the rank-2 free group


@pytest.mark.parametrize(
    "group,weights,second",
    [({"kind": "integers", "d": 1}, {"q": 0.5, "n_max": 5}, {"kind": "free", "d": 2}),
     ({"kind": "lattice", "d": 2}, {"q": 0.5, "n_max": 5}, {"kind": "heisenberg", "d": 2}),
     # p_10 rho^{*10} underflows to 0.0 at the four corners (+-10, 0), (0, +-10)
     # of B_10, and nowhere else
     ({"kind": "lattice", "d": 2}, {"q": 6e-36, "n_max": 10}, {"kind": "free", "d": 1}),
     # a free group's rows are written one word-length level at a time
     ({"kind": "free", "d": 1}, {"q": 0.5, "n_max": 5}, {"kind": "free", "d": 2}),
     ({"kind": "free", "d": 2}, {"q": 0.5, "n_max": 6}, {"kind": "free", "d": 1})],
    ids=["Z-F2", "Z2-H", "Z2-tiny-q", "F1-F2", "F2-F1"],
)
def test_weights_csv_matches_element_str_rows(tmp_path, group, weights, second):
    # the CSV rows, written without a per-word join, against element_str
    # rows over every element of B_n_max, zero weights included
    second_weights = {"q": 0.3, "n_max": 4}
    body = {
        "group": group, "weights": weights,
        "second_group": second, "second_weights": second_weights,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(body))
    assert cli.main(["weights", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    for label, spec_body, params in (("group", group, weights), ("second_group", second, second_weights)):
        spec = groups.GroupSpec(spec_body["kind"], spec_body["d"])
        w = measures.build_weight(spec, WeightConfig(params["q"], params["n_max"]))
        ball = sorted(groups.ball(spec, params["n_max"]), key=lambda g: groups.sort_key(spec, g))
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["element", "weight"])
        writer.writerows([groups.element_str(spec, g), repr(weight(w, g))] for g in ball)
        got = (tmp_path / "out" / "weights" / f"{label}_weights.csv").read_bytes()
        assert got == want.getvalue().encode()
        assert b"np.float64" not in got
        assert all(type(weight(w, g)) is float for g in ball)


def test_seed_override_changes_digested_config(tmp_path):
    cfg = config.ExperimentConfig()
    other = cfg._replace(seed=cfg.seed + 1)
    assert other.digest() != cfg.digest()


def test_all_builds_a_failing_model_once(tmp_path, monkeypatch, capsys):
    # three stages on a depth-4 weight: the tail criterion fails at stage 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"stages": 3, "weights": {"n_max": 4}}))
    command = cli.command
    monkeypatch.setattr(
        cli, "command", lambda name: command(name) if name in cli.MODEL_COMMANDS else lambda cfg, out_base: 0
    )
    builds = []
    build_model = model.build_model

    def counted(*args):
        builds.append(args)
        return build_model(*args)

    monkeypatch.setattr(model, "build_model", counted)
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "all")]) == 1
    assert len(builds) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[:2] for line in lines] == [["error", f" {name}"] for name in cli.MODEL_COMMANDS]
    assert len({line.split(": ", 2)[2] for line in lines}) == 1
    assert lines[0].endswith("tail criterion unsatisfiable: need height > 24 for radius 0.5 and sup |f| = 1.0025")


def test_all_builds_the_model_once(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "seed": 77,
        "stages": 2,
        "samples": {"check_samples": 1000, "equivariance_samples": 100, "orbit_steps": 300},
    }))
    # only the model commands matter here
    command = cli.command
    monkeypatch.setattr(
        cli, "command", lambda name: command(name) if name in cli.MODEL_COMMANDS else lambda cfg, out_base: 0
    )
    builds = []
    build_model = model.build_model

    def counted(*args):
        builds.append(args)
        return build_model(*args)

    monkeypatch.setattr(model, "build_model", counted)
    status = cli.main(["all", "--config", str(path), "--out", str(tmp_path / "all")])
    assert len(builds) == 1
    separate = [
        cli.main([command, "--config", str(path), "--out", str(tmp_path / "one")])
        for command in cli.MODEL_COMMANDS
    ]
    assert len(builds) == 1 + len(cli.MODEL_COMMANDS)
    assert status == max(separate) == 0
    # ``build`` is charged with the model build, as in a separate run
    meta = [
        json.loads((tmp_path / run / "build" / "run_meta.json").read_text())
        for run in ("all", "one")
    ]
    assert meta[0]["bits_drawn"] == meta[1]["bits_drawn"] > 0
    assert meta[0]["philox_blocks"] == meta[1]["philox_blocks"] > 0
    assert meta[0]["sampler_draws"] == meta[1]["sampler_draws"] > 0
    assert meta[0]["window_cells"] == meta[1]["window_cells"] > 0
    for command in cli.MODEL_COMMANDS:
        names = sorted(f.name for f in (tmp_path / "all" / command).iterdir())
        assert names == sorted(f.name for f in (tmp_path / "one" / command).iterdir())
        for name in names:
            if name != "run_meta.json":
                one = (tmp_path / "one" / command / name).read_bytes()
                assert (tmp_path / "all" / command / name).read_bytes() == one
