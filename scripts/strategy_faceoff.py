#!/usr/bin/env python3
"""Grow one base by both increment strategies and compare measured spectra.

Matching increments keep the vertex count fixed and provably move lambda_2
by at most +1 per step.  The K2 product doubles the vertex count and sets
lambda_2(X') = max(lambda_2 + 1, lambda_1 - 1) exactly, which pins the gap
near 2 once lambda_1 - 1 takes over.  The table makes the difference
concrete on X^{5,13}: every row is the certificate of construct(k, 1,
strategy), and every k from 6 to 13 anchors at p* = 5 with q = 13.

Usage: strategy_faceoff.py [target_k]   (6 <= target_k <= 13, default 8)
"""

from __future__ import annotations

import sys

from expanderlab.planner import STRATEGIES, construct
from expanderlab.ramanujan_base import lps_params

BASE_K, LAST_K = 6, 13


def main() -> int:
    target = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    if not BASE_K <= target <= LAST_K:
        print(f"target_k must lie in {BASE_K}..{LAST_K}, where the base is "
              f"X^(5,13); got {target}", file=sys.stderr)
        return 1
    rows = [{s: construct(k, 1, s)[1] for s in STRATEGIES}
            for k in range(BASE_K, target + 1)]
    base = rows[0]["matching"].provenance[0]
    p, q = base["p"], base["q"]
    print(f"base X^({p},{q}), group {lps_params(p, q).group}, "
          f"k={BASE_K} -> {target}\n")
    head = (f"{'k':>4} | {'n':>7} {'lambda2':>11} {'gap':>9} | "
            f"{'n':>7} {'lambda2':>11} {'gap':>9}")
    print(f"{'':>4}   {'matching increments':^29}   {'K2 products':^29}")
    print(head)
    print("-" * len(head))
    for row in rows:
        m, pr = row["matching"], row["k2product"]
        print(f"{m.k:>4} | {m.n:>7} {m.lambda2:>11.6f} "
              f"{m.spectral_gap:>9.6f} | {pr.n:>7} {pr.lambda2:>11.6f} "
              f"{pr.spectral_gap:>9.6f}")
    last = rows[-1]
    print(f"\nat k={target}: matching gap {last['matching'].spectral_gap:.6f} "
          f"vs product gap {last['k2product'].spectral_gap:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
