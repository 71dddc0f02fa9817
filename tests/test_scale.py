"""Memory of the construct path's stages, and the script that measures them.

build_lps, a matching increment and the CSR adjacency each hold a few
arrays the size of the graph's edge array, with no Python object per edge
and no int64 copy of both halves of the adjacency.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

from scipy import sparse  # noqa: F401  (its import is not the stage's)

from expanderlab import build_lps, increment_regularity

from helpers import script_env

_ROOT = Path(__file__).resolve().parent.parent


def _traced_peak(stage):
    tracemalloc.start()
    try:
        out = stage()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stage_peaks_stay_near_the_edge_array():
    # At X^{5,37} (n = 50 616) the set of edge codes behind the increment
    # read 7.8 times the edge array, the COO route to the CSR 5.6 times,
    # and build_lps's copies 4.1 times.
    x, built = _traced_peak(lambda: build_lps(5, 37))
    assert x.n == 50616
    (y, _), incremented = _traced_peak(lambda: increment_regularity(x))
    _, adjacency = _traced_peak(y.adjacency_sparse)
    assert built <= 3.5 * x.edges.nbytes
    assert incremented <= 3.5 * x.edges.nbytes
    assert adjacency <= 3.5 * y.edges.nbytes


def test_scale_probe_script_runs():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "scale_probe.py"), "13"],
        capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["stage", "cpu_s", "max_rss_mb"]
    assert [line.split()[0] for line in lines[1:4]] == [
        "build_lps", "increment", "csr"]
    rss = [float(line.split()[2]) for line in lines[1:4]]
    assert rss == sorted(rss) and rss[0] > 0
    assert lines[4] == "X^(5,13) + 1 increment: n=2184, m=7644"


def test_scale_probe_script_refuses_a_modulus_without_base():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "scale_probe.py"), "7"],
        capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: q=7") and not proc.stdout
