"""Memory of the construct path's stages, and the script that measures them.

build_lps, a matching increment and the CSR adjacency each hold a few
arrays the size of the graph's edge array, with no Python object per edge
and no int64 copy of both halves of the adjacency.  The CSR sums integer
multiplicities, so it holds little more than its own arrays, and
save_graph writes its text block by block, in memory that does not grow
with the graph, and load_graph holds the file's bytes and the edge array
the reader parses from them.
"""

from __future__ import annotations

import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from scipy import sparse  # noqa: F401  (its import is not the stage's)

from expanderlab import (build_lps, increment_regularity, load_graph,
                         save_graph)
from expanderlab.graph_core import Graph

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


@pytest.fixture(scope="module")
def x37_plus_1() -> Graph:
    """X^{5,37} plus one matching increment: n = 50 616, m = 177 156."""
    return increment_regularity(build_lps(5, 37))[0]


def test_save_graph_peak_does_not_grow_with_the_graph(x37_plus_1, tmp_path):
    # Building the whole 2.0 MB text before writing it traced 6.4 MiB here;
    # one block of rows at a time is a fixed fraction of a MiB.
    path = tmp_path / "g.txt"
    _, peak = _traced_peak(lambda: save_graph(x37_plus_1, path))
    assert path.stat().st_size > 2 * 10**6 and peak <= 2**20


def test_load_graph_peak_stays_near_the_edge_array(x37_plus_1, tmp_path):
    # The file as a str, its encoded bytes, a str slice of the body and two
    # int64 arrays of token ends and widths traced 5.2 times the edge array.
    path = tmp_path / "g.txt"
    save_graph(x37_plus_1, path)
    y, peak = _traced_peak(lambda: load_graph(path))
    assert y == x37_plus_1
    assert peak <= 2.5 * x37_plus_1.edges.nbytes


def test_csr_peak_stays_near_its_own_arrays(x37_plus_1):
    # Summing the upper triangle and its transpose in float64 held 2.05
    # times the CSR's own arrays; on integer counts, cast once, 1.41.
    y = Graph(x37_plus_1.n, x37_plus_1.edges)     # no cached CSR
    a, peak = _traced_peak(y.adjacency_sparse)
    own = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
    assert a.dtype == "float64"
    assert peak <= 1.6 * own


def test_scale_probe_script_runs():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "scale_probe.py"), "13"],
        capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["stage", "cpu_s", "max_rss_mb"]
    assert [line.split()[0] for line in lines[1:6]] == [
        "build_lps", "increment", "csr", "save", "load"]
    rss = [float(line.split()[2]) for line in lines[1:6]]
    assert rss == sorted(rss) and rss[0] > 0
    assert lines[6] == "X^(5,13) + 1 increment: n=2184, m=7644"


def test_scale_probe_script_refuses_a_modulus_without_base():
    proc = subprocess.run(
        [sys.executable, str(_ROOT / "scripts" / "scale_probe.py"), "7"],
        capture_output=True, text=True, env=script_env(), timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: q=7") and not proc.stdout
