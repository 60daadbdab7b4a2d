"""SciPy stays off the import path: it loads on the first 2D J-function.

The checks run in a fresh interpreter, because other test modules import
SciPy into this one.
"""

import json
import os
import subprocess
import sys

import vorsim

SCRIPT = r"""
import json
import sys


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


import vorsim, vorsim.cli
out = {"import": scipy_modules()}

from vorsim.diagnostics import two_chain_convergence
from vorsim.errors import ConfigError
from vorsim.process import ProcessParams, SelectionSpec, run
from vorsim.space import Space
from vorsim.statistics import j_function, pattern_summary
from vorsim.tessellation import build

circle, torus = Space("circle", 1.0), Space("torus", 1.0)
sel = SelectionSpec("volume_power", alpha=0.5)
tr = run(ProcessParams(N=64, T=200, mode="replacement", selection=sel,
                       space=circle, seed=1, snapshot_every=50))
pattern_summary(build(tr.final_points, circle))
two_chain_convergence(ProcessParams(N=16, T=400, mode="replacement",
                                    selection=sel, space=circle, seed=2,
                                    snapshot_every=50),
                      "iid_mu", "single_cluster")
out["1d"] = scipy_modules()

# a torus thinning to one survivor: its summary fails before any 2D query
tr = run(ProcessParams(N=12, T=11, mode="thinning", selection=sel,
                       space=torus, seed=3))
try:
    pattern_summary(build(tr.final_points, torus))
except ConfigError:
    out["survivor_refused"] = True
out["survivor"] = scipy_modules()

j_function(run(ProcessParams(N=64, T=10, mode="replacement", selection=sel,
                             space=torus, seed=4)).final_points, torus)
out["2d"] = scipy_modules()
print(json.dumps(out))
"""


def test_scipy_loads_only_with_the_2d_j_function():
    src = os.path.dirname(os.path.dirname(os.path.abspath(vorsim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                 if p])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["import"] == []
    assert out["1d"] == []
    assert out.get("survivor_refused") and out["survivor"] == []
    assert "scipy.spatial" in out["2d"]
