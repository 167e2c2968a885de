import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy import special

from fresh import modules_after
from walkrep import stats


def test_clopper_pearson_matches_beta_quantiles():
    for n in (1, 2, 3, 7, 20, 159, 160, 1000, 3000, 100_000):
        for k in sorted({0, 1, 2, n - 2, n - 1, n} & set(range(n + 1))):
            lo, hi = stats.clopper_pearson(k, n)
            ref_lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, 0.025))
            ref_hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 0.975))
            assert lo == pytest.approx(ref_lo, rel=1e-12, abs=0.0)
            assert hi == pytest.approx(ref_hi, rel=1e-12, abs=0.0)


def _binom_cdf(j_max: int, n: int, x: float) -> float:
    """P(Bin(n, x) <= j_max) as a short sum, accurate to a few ulps for small x."""
    return sum(
        math.comb(n, j) * x**j * math.exp((n - j) * math.log1p(-x)) for j in range(j_max + 1)
    )


def test_clopper_pearson_small_counts_against_closed_form():
    # For k <= 3 the tails are short sums; at n = 10^6 the bounds sit at
    # x ~ 1e-6, where rounding 1 - x (in logs, pmfs or the fraction) shows.
    for n in (10, 1000, 100_000, 1_000_000):
        for k in range(4):
            for alpha in (0.05, 0.01):
                lo, hi = stats.clopper_pearson(k, n, alpha)
                assert _binom_cdf(k, n, hi) == pytest.approx(alpha / 2, rel=1e-13, abs=0.0)
                if k:
                    upper = 1.0 - _binom_cdf(k - 1, n, lo)
                    assert upper == pytest.approx(alpha / 2, rel=1e-13, abs=0.0)


def _solves(a: int, b: int, x: float, y: float) -> bool:
    """I_x(a, b) = y to 1e-12, or to the step of I across one ulp of x: near
    x = 1 that step passes 1e-12 (about n * 1.1e-16 at k = n - 1), so no
    double meets 1e-12 there."""
    got = special.betainc(a, b, x)
    step = abs(special.betainc(a, b, math.nextafter(x, 2.0)) - got)
    return abs(got - y) <= 1e-12 + step


@settings(max_examples=300, deadline=None)
@given(
    n=hs.integers(1, 100_000),
    u=hs.floats(0.0, 1.0),
    alpha=hs.sampled_from((0.05, 0.01)),
)
def test_clopper_pearson_solves_its_defining_equations(n, u, alpha):
    k = min(n, int(u * (n + 1)))
    lo, hi = stats.clopper_pearson(k, n, alpha)
    assert 0.0 <= lo < hi <= 1.0
    assert lo == 0.0 if k == 0 else _solves(k, n - k + 1, lo, alpha / 2)
    assert hi == 1.0 if k == n else _solves(k + 1, n - k, hi, 1.0 - alpha / 2)


@pytest.mark.parametrize(
    "k, n, alpha",
    [(5, 3, 0.05), (-1, 3, 0.05), (0, 0, 0.05), (1, 3, 1.5), (1, 3, 0.0), (1, 3, 1.0), (1, 3, math.nan)],
)
def test_clopper_pearson_rejects_bad_arguments(k, n, alpha):
    with pytest.raises(ValueError):
        stats.clopper_pearson(k, n, alpha)


def test_cli_import_leaves_heavy_scipy_out():
    assert modules_after("import walkrep.cli", "scipy") == []


def test_commands_run_without_scipy(tmp_path):
    # no command imports scipy or dataclasses; ``continuous`` exits 1 only
    # for the simple-constant domination record that fails by design (11b)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        '{"stages": 2, "weights": {"q": 0.5, "n_max": 12},'
        ' "second_weights": {"q": 0.5, "n_max": 6}, "lf_chain_n": 4, "lf_sampled_g0": 4,'
        ' "samples": {"tower_samples": 2000, "check_samples": 300,'
        ' "equivariance_samples": 100, "orbit_steps": 200, "averaging_samples": 100}}'
    )
    code = (
        "from walkrep import cli\n"
        "for command in cli.COMMANDS:\n"
        f"    status = cli.main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "    assert status == (command == 'continuous'), (command, status)\n"
    )
    assert modules_after(code, "scipy", "dataclasses") == []
