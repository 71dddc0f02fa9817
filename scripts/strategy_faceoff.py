#!/usr/bin/env python3
"""Grow one base by both increment strategies and compare measured spectra.

Matching increments keep the vertex count fixed and provably move lambda_2
by at most +1 per step.  The K2 product doubles the vertex count and sets
lambda_2(X') = max(lambda_2 + 1, lambda_1 - 1) exactly, which pins the gap
near 2 once lambda_1 - 1 takes over.  The table makes the difference
concrete on X^{5,13}.
"""

from __future__ import annotations

import sys

from expanderlab.planner import compare_strategies


def main() -> int:
    target = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    report = compare_strategies(5, 13, target)
    print(f"base X^({report['p']},{report['q']}), group {report['group']}, "
          f"k={report['base_k']} -> {report['target_k']}\n")
    head = (f"{'k':>4} | {'n':>7} {'lambda2':>11} {'gap':>9} | "
            f"{'n':>7} {'lambda2':>11} {'gap':>9}")
    print(f"{'':>4}   {'matching increments':^29}   {'K2 products':^29}")
    print(head)
    print("-" * len(head))
    for row in report["rows"]:
        m, pr = row["matching"], row["k2product"]
        print(f"{row['k']:>4} | {m['n']:>7} {m['lambda2']:>11.6f} "
              f"{m['gap']:>9.6f} | {pr['n']:>7} {pr['lambda2']:>11.6f} "
              f"{pr['gap']:>9.6f}")
    last = report["rows"][-1]
    print(f"\nat k={last['k']}: matching gap {last['matching']['gap']:.6f} "
          f"vs product gap {last['k2product']['gap']:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
