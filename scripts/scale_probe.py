#!/usr/bin/env python3
"""Time and measure the construct path's first stages on X^{5,q}.

    PYTHONPATH=src python scripts/scale_probe.py [q]     (default q = 97)

builds X^{5,q} with build_lps, adds one greedy matching increment, forms
the CSR adjacency of the result, writes its edge-list text with
save_graph to a temporary file, frees the graph and reads it back with
load_graph, as expanderlab certify reads a graph file, before removing
the file, all in one process with one OpenBLAS thread.
After each stage it prints one line: the stage, the CPU seconds it took and
the process's peak resident memory so far (ru_maxrss, in MB of 2^20 bytes,
as perfbench reports it).  At q = 97 the base is PGL(2, 97) with 912 576
vertices, the base construct(7, 500000) picks.
"""

from __future__ import annotations

import os
import resource
import sys
import tempfile
import time

# The variable only takes effect if it is set before numpy or scipy is
# first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from scipy import sparse  # noqa: E402,F401  (imported before any stage)

from expanderlab import (build_lps, increment_regularity,  # noqa: E402
                         load_graph, save_graph)
from expanderlab.errors import ValidationError  # noqa: E402


def report(stage: str, t0: float) -> float:
    """Print stage's line, given the CPU time it started at; return now."""
    now = time.process_time()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{stage:<10} {now - t0:>7.3f} {rss:>10.1f}", flush=True)
    return now


def main() -> int:
    q = int(sys.argv[1]) if len(sys.argv) > 1 else 97
    t = time.process_time()
    try:
        x = build_lps(5, q)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'stage':<10} {'cpu_s':>7} {'max_rss_mb':>10}")
    t = report("build_lps", t)
    # Rebound as construct rebinds it, so the base is freed as there.
    x, _ = increment_regularity(x)
    t = report("increment", t)
    x.adjacency_sparse()
    t = report("csr", t)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.txt")
        save_graph(x, path)
        t = report("save", t)
        del x
        x = load_graph(path)
        report("load", t)
    print(f"X^(5,{q}) + 1 increment: n={x.n}, m={x.num_edges}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
