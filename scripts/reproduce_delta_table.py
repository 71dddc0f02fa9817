#!/usr/bin/env python3
"""Recompute the worst normalized prime gap per decade, with timing.

The table drives the family's eigenvalue guarantee: a k-regular graph grown
from the base at p = prev_prime(k) by matching increments has
lambda_2 <= 2*(1 + delta_k)*sqrt(k - 1), so the per-decade maximum of
delta_k = (p' - p)/sqrt(p) is the multiplicative overhead against the
optimal bound in that decade.
"""

from __future__ import annotations

import sys
import time

from expanderlab import delta_table


PUBLISHED_CEILS = [1.52, 1.32, 0.94, 0.41, 0.22, 0.12]


def main() -> int:
    t0 = time.perf_counter()
    rows = delta_table()
    elapsed = time.perf_counter() - t0
    print(f"{'range':>22}  {'max delta':>18}  {'ceil':>5}  {'witness k':>10}")
    for r in rows:
        span = f"[{r['lo']}, {r['hi']}]"
        print(f"{span:>22}  {r['max_delta']:>18.12f}  "
              f"{r['delta_ceil']:>5.2f}  {r['witness_k']:>10}")
    print(f"\ncomputed in {elapsed:.2f}s")
    ceils = [r["delta_ceil"] for r in rows]
    if ceils != PUBLISHED_CEILS:
        print(f"ceiling column {ceils} differs from the published values "
              f"{PUBLISHED_CEILS}")
        return 1
    print("ceiling column matches the published values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
