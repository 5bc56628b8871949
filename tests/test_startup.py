"""Start-up contract: ``import gtwalk`` loads numpy and nothing from scipy.

scipy is imported only by the convergence diagnostics, on first use, and a
``gtwalk run`` of a coupled or radial config imports nothing after start-up.
The import checks run in fresh interpreters, since this test process has
long since loaded scipy.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats as sp_stats

from gtwalk.comparison import chi
from gtwalk.stats import ks_statistic

SRC = Path(__file__).resolve().parent.parent / "src"
FLOW_SPHERE = {"kind": "sphere", "dim": 2, "radius_c0": 1.0, "flow": True}


def run_python(code: str, cwd: Path) -> str:
    """Run code in a fresh interpreter that imports gtwalk from SRC; return
    the last line it prints."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    res = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    out = run_python(
        "import sys, json\n"
        "import gtwalk, gtwalk.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n", tmp_path)
    modules = json.loads(out)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert [m for m in modules if m.split(".")[0] == "multiprocessing"] == []
    assert "numpy.random" in modules


def test_run_imports_nothing_after_start_up(tmp_path):
    configs = {
        "coupling-bound.json": {
            "kind": "verify-coupling-bound", "manifold": FLOW_SPHERE,
            "t1": 0.0, "t2": 0.1, "alpha": 0.05, "d0": 1.0,
            "n_paths": 64, "seed": 7},
        "radial.json": {
            "kind": "radial-domination", "manifold": FLOW_SPHERE,
            "t1": 0.0, "t2": 0.1, "alpha": 0.05, "b": {"name": "linear"},
            "n_paths": 64, "seed": 7},
    }
    for name, config in configs.items():
        (tmp_path / name).write_text(json.dumps(config))
    out = run_python(
        "import sys, json\n"
        "import gtwalk, gtwalk.cli\n"
        "before = set(sys.modules)\n"
        f"codes = [gtwalk.cli.main(['run', name, '--threads', '1',"
        f" '--out', 'out']) for name in {sorted(configs)!r}]\n"
        "print(json.dumps([codes, sorted(set(sys.modules) - before)]))\n",
        tmp_path)
    codes, new_modules = json.loads(out)
    assert codes == [0, 0]
    assert new_modules == []


@pytest.mark.bits
def test_chi_matches_scipy_erf():
    a = np.linspace(0.0, 10.0, 100001)
    got = chi(a)
    np.testing.assert_array_max_ulp(got, special.erf(a / math.sqrt(2.0)),
                                    maxulp=4)
    assert all(chi(float(x)) == g for x, g in zip(a[::97], got[::97]))
    assert np.array_equal(chi(a.reshape(1, -1, 1)), got.reshape(1, -1, 1))
    assert chi(np.array(1.0)) == chi(1.0)
    assert chi(np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("level", [0.001, 0.01, 0.05, 0.1])
def test_ks_threshold_is_kolmogorov_quantile(level):
    x = np.linspace(-3.0, 3.0, 400)
    ks = ks_statistic(x, special.ndtr, level=level)
    assert ks.threshold == sp_stats.kstwobign.isf(level) / math.sqrt(400)
