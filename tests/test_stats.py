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


# every method of ``certify``: Clopper-Pearson counts, scaled or not, and
# normal bounds
CERTIFY_CASES = [
    {"counts": (7, 300)},
    {"counts": (7, 300), "scale": 2.0**-9},
    {"counts": (0, 160)},
    {"normal": (0.3, 0.02)},
    {"normal": (1e-6, 0.013)},
]


@pytest.mark.parametrize("side", [stats.UPPER, stats.LOWER, stats.COVERS])
@pytest.mark.parametrize("case", CERTIFY_CASES)
def test_certify_end_equal_to_its_limit_fails(side, case):
    end, _ = stats.certify(side, 0.5, **case)
    assert stats.certify(side, end, **case) == (end, False)
    # one ulp inside: below an upper budget, above a lower one
    inside = math.nextafter(end, math.inf if side == stats.UPPER else -math.inf)
    assert stats.certify(side, inside, **case) == (end, True)


def test_certify_zero_upper_budget_needs_zero_events():
    assert stats.certify(stats.UPPER, 0.0, counts=(0, 300)) == (stats.clopper_pearson(0, 300)[1], True)
    for k in (1, 2, 300):
        assert stats.certify(stats.UPPER, 0.0, counts=(k, 300)) == (stats.clopper_pearson(k, 300)[1], False)
    # a positive budget below the upper end fails, even at zero events
    assert not stats.certify(stats.UPPER, 1e-3, counts=(0, 300))[1]


@settings(max_examples=200, deadline=None)
@given(n=hs.integers(1, 5000), u=hs.floats(0.0, 1.0), scale=hs.floats(2.0**-60, 1.0))
def test_certify_clopper_pearson_ends_bit_for_bit(n, u, scale):
    k = min(n, int(u * (n + 1)))
    lo, hi = stats.clopper_pearson(k, n)
    assert stats.certify(stats.LOWER, 0.5, counts=(k, n), scale=scale)[0] == scale * lo
    assert stats.certify(stats.LOWER, 0.5, counts=(k, n))[0] == lo
    assert stats.certify(stats.UPPER, 0.5, counts=(k, n))[0] == hi


@settings(max_examples=200, deadline=None)
@given(est=hs.floats(0.0, 2.0), se=hs.floats(0.0, 1.0))
def test_certify_normal_ends_bit_for_bit(est, se):
    assert stats.certify(stats.UPPER, 1.0, normal=(est, se))[0] == est + stats.Z95 * se
    assert stats.certify(stats.LOWER, 0.0, normal=(est, se))[0] == max(0.0, est - stats.Z95 * se)
    # ``orbit``'s tolerance: 1e-6 of room for a null gap of 0
    assert stats.certify(stats.COVERS, est, normal=(1e-6, se))[0] == stats.Z95 * se + 1e-6


def test_certify_rejects_an_unknown_side():
    with pytest.raises(ValueError):
        stats.certify("both", 0.5, counts=(1, 10))


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
