import os
import subprocess
import sys

from scipy import stats as st

import walkrep
from walkrep import stats


def test_clopper_pearson_matches_beta_quantiles():
    for n in (1, 2, 3, 7, 20, 159, 160, 1000, 3000, 100_000):
        for k in sorted({0, 1, 2, n // 3, n // 2, n - 1, n} & set(range(n + 1))):
            lo, hi = stats.clopper_pearson(k, n)
            assert lo == (0.0 if k == 0 else float(st.beta.ppf(0.025, k, n - k + 1)))
            assert hi == (1.0 if k == n else float(st.beta.ppf(0.975, k + 1, n - k)))


def test_cli_import_leaves_heavy_scipy_out():
    code = (
        "import sys, walkrep.cli\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))\n"
    )
    src = os.path.dirname(os.path.dirname(walkrep.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
