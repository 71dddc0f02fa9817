#!/usr/bin/env python3
"""Build and certify a 7-regular expander on 2184 vertices, end to end.

7 is the smallest regularity with no known true Ramanujan family, which
makes it the natural demonstration target: start from the 6-regular Cayley
base X^{5,13}, add one perfect matching of its complement, and certify that
the measured lambda_2 stays below 2*sqrt(5) + 1.

    python scripts/run_k7_pipeline.py [out_dir]

writes k7_n2184.txt and k7_n2184.json into out_dir, by default the
repository's out/, which tracks them as the reference.
"""

from __future__ import annotations

import math
import os
import sys
import time
from pathlib import Path

# The reference under out/ is written with one OpenBLAS thread, as the tests
# run.  Its certificate comes from a Lanczos recurrence and a Cholesky
# proof whose reductions are np.sum, as every certificate does, and a test
# checks that two threads give the same bytes for this graph.  The pin
# keeps the script on the tested setting.  The variable only takes effect if it is set before
# numpy or scipy is first imported; scipy brings its own OpenBLAS, which
# now loads at the first sparse call.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from expanderlab import construct, plan, replay, save_graph  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent.parent / "out"


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else OUT_DIR
    theory, build = plan(7)
    print(f"theoretical anchor: p={theory.p}, next prime {theory.p_next}, "
          f"delta={theory.delta:.6f}")
    print(f"buildable anchor:   p*={build.p_star}, "
          f"{build.increments} matching increment(s)\n")

    t0 = time.perf_counter()
    x, cert = construct(7, 1000, "matching")
    elapsed = time.perf_counter() - t0

    bound = 2.0 * math.sqrt(5) + 1.0
    print(f"built n={cert.n} k={cert.k} in {elapsed:.2f}s")
    print(f"lambda2 = {cert.lambda2:.9f}  (guarantee {bound:.9f}, "
          f"slack {bound - cert.lambda2:.6f})")
    print(f"spectral gap = {cert.spectral_gap:.9f}")
    print(f"ramanujan at k=7: {cert.ramanujan}  "
          f"(2*sqrt(6) = {2 * math.sqrt(6):.9f})")

    print("\nreplaying the certificate provenance...")
    again = replay(cert.provenance)
    if again != x:
        print(f"replay built {again!r}, which differs from the built {x!r}")
        return 1
    print("replay reproduces the graph edge for edge")

    out_dir.mkdir(parents=True, exist_ok=True)
    save_graph(x, out_dir / "k7_n2184.txt")
    cert.save(out_dir / "k7_n2184.json")
    print(f"\nwrote {out_dir / 'k7_n2184.txt'}")
    print(f"wrote {out_dir / 'k7_n2184.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
