"""Per-layer metrics from the traces that ``traced_cli.py`` writes.

Every metric is summed over the commands of one traced pass; ratios are
taken of the sums, and read 0 where their base is 0 (the layer did not run).
"""

from __future__ import annotations

# metric -> (source, key, unit); source is a field of the trace
_SUMS = {
    "groups.multiply.calls": ("counts", "groups.multiply", "count"),
    "groups.inverse.calls": ("counts", "groups.inverse", "count"),
    "groups.check_element.calls": ("counts", "groups.check_element", "count"),
    "groups.ball.calls": ("counts", "groups.ball", "count"),
    "groups.ball.elements": ("counts", "groups.ball.elements", "count"),
    "groups.word_length.calls": ("counts", "groups.word_length", "count"),
    "measures.build_weight.s": ("incl_s", "measures.build_weight", "s"),
    "measures.convolution_powers.s": ("incl_s", "measures.convolution_powers", "s"),
    "measures.convolve.calls": ("calls", "measures.convolve", "count"),
    "measures.convolve.self_s": ("self_s", "measures.convolve", "s"),
    "measures.convolve.products": ("counts", "measures.convolve.products", "count"),
    "measures.convolve.atoms_out": ("counts", "measures.convolve.atoms_out", "count"),
    "measures.weight_ratio.s": ("incl_s", "measures.weight_ratio", "s"),
    "measures.partial_table.calls": ("counts", "measures.partial_table", "count"),
    "measures.restricted_ratio_certificate.s": ("incl_s", "measures.restricted_ratio_certificate", "s"),
    "measures.weight_atoms": ("counts", "measures.weight_atoms", "count"),
    "measures.self_s": ("layer_self_s", "measures", "s"),
    "space.operator_norm_certificate.s": ("incl_s", "space.operator_norm_certificate", "s"),
    "space.subgroup_norm_certificate.s": ("incl_s", "space.subgroup_norm_certificate", "s"),
    "space.norm_detail.calls": ("counts", "space.norm_detail", "count"),
    "space.shift.calls": ("counts", "space.shift", "count"),
    "space.self_s": ("layer_self_s", "space", "s"),
    "dynamics.rokhlin_tower.s": ("incl_s", "dynamics.rokhlin_tower", "s"),
    "dynamics.tower_in_base.calls": ("counts", "dynamics.tower_in_base", "count"),
    "dynamics.read.calls": ("counts", "dynamics.read", "count"),
    "dynamics.bits_hashed": ("counts", "dynamics.bits_hashed", "count"),
    "dynamics.sample_point.calls": ("counts", "dynamics.sample_point", "count"),
    "dynamics.sampler.accepted": ("counts", "dynamics.conditional_base_sampler.yielded", "count"),
    "dynamics.sampler.attempts": ("counts", "dynamics.sampler.attempts", "count"),
    "dynamics.self_s": ("layer_self_s", "dynamics", "s"),
    "markov.convergence_report.s": ("incl_s", "markov.convergence_report", "s"),
    "markov.markov_average.calls": ("calls", "markov.markov_average", "count"),
    "markov.markov_average.s": ("incl_s", "markov.markov_average", "s"),
    "markov.self_s": ("layer_self_s", "markov", "s"),
    "model.build_model.calls": ("calls", "model.build_model", "count"),
    "model.build_model.s": ("incl_s", "model.build_model", "s"),
    "model.hit_ball.s": ("incl_s", "model.hit_ball", "s"),
    "model.verify_patch.s": ("incl_s", "model.verify_patch", "s"),
    "model.run_stage_checks.s": ("incl_s", "model.run_stage_checks", "s"),
    "model.support_and_iso_check.s": ("incl_s", "model.support_and_iso_check", "s"),
    "model.equivariance_check.s": ("incl_s", "model.equivariance_check", "s"),
    "model.orbit_frequency.s": ("incl_s", "model.orbit_frequency", "s"),
    "model.phi.calls": ("calls", "model.phi", "count"),
    "model.phi.s": ("incl_s", "model.phi", "s"),
    "model.f_value.calls": ("counts", "model.f_value", "count"),
    "model.locate.calls": ("counts", "model.locate", "count"),
    "model.evaluators": ("counts", "model.evaluators", "count"),
    "model.doubling_shift_baseline.s": ("incl_s", "model.doubling_shift_baseline", "s"),
    "model.self_s": ("layer_self_s", "model", "s"),
    "continuous.chain_convolution.s": ("incl_s", "continuous.chain_convolution", "s"),
    "continuous.haar_convolution_identity.s": ("incl_s", "continuous.haar_convolution_identity", "s"),
    "continuous.domination_check_locally_finite.s": ("incl_s", "continuous.domination_check_locally_finite", "s"),
    "continuous.lower_bound_chain_check.s": ("incl_s", "continuous.lower_bound_chain_check", "s"),
    "continuous.overlap_density_quadrature.s": ("incl_s", "continuous.overlap_density_quadrature", "s"),
    "continuous.self_s": ("layer_self_s", "continuous", "s"),
    "stats.self_s": ("layer_self_s", "stats", "s"),
    "cli.self_s": ("layer_self_s", "cli", "s"),
    "cli.import_s": ("import_s", None, "s"),
    "cli.process_s": ("process_s", None, "s"),
    "cli.bytes_written": ("bytes_written", None, "B"),
}

# metric -> (numerator metric, denominator metric, scale, unit)
_RATIOS = {
    "measures.convolve.yield": ("measures.convolve.atoms_out", "measures.convolve.products", 1.0, "ratio"),
    "dynamics.hash_per_read": ("dynamics.bits_hashed", "dynamics.read.calls", 1.0, "ratio"),
    "dynamics.sampler_accept_ratio": ("dynamics.sampler.accepted", "dynamics.sampler.attempts", 1.0, "ratio"),
    "model.hit_ball.tower_attempts": (
        "model.hit_ball.towers", "model.hit_ball.calls", 1.0, "ratio"),
    "model.phi.ms_per_call": ("model.phi.s", "model.phi.calls", 1000.0, "ms"),
    "model.ball_per_locate": ("model.ball_in_locate", "model.locate.calls", 1.0, "ratio"),
}

# sums needed only as ratio parts
_PARTS = {
    "model.hit_ball.calls": ("calls", "model.hit_ball", "count"),
    "model.hit_ball.towers": ("counts", "model.hit_ball.tower_attempts", "count"),
    "model.ball_in_locate": ("counts", "model.ball_in_locate", "count"),
}


def _sum(traces: list, source: str, key) -> float:
    total = 0
    for t in traces:
        field = t.get(source, 0)
        total += field if key is None else field.get(key, 0)
    return total


def layer_metrics(traces: list) -> dict:
    """{metric: (value, unit)} over the traces of one pass."""
    sums = {
        name: (_sum(traces, src, key), unit)
        for name, (src, key, unit) in {**_SUMS, **_PARTS}.items()
    }
    out = {name: sums[name] for name in _SUMS}
    for name, (num, den, scale, unit) in _RATIOS.items():
        d = sums[den][0]
        out[name] = (scale * sums[num][0] / d if d else 0.0, unit)
    return out
