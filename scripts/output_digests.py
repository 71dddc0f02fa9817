#!/usr/bin/env python3
"""Print the sha256 of every graph text and certificate of five fixed builds,
and of the delta table.

    python scripts/output_digests.py [src_dir]

imports expanderlab from src_dir, by default the repository's src/, and
prints one line '<sha256>  <build> <txt|json>' per output, in a fixed
order: construct(7, 1000) by both strategies, construct(8, 10000),
construct(29, 1000) and certify(build_lps(5, 53)), then a last line for
json.dumps(delta_table()).  Running it against two checkouts' src/ and
diffing the two outputs shows whether a change moved any byte of them.
The hashed bytes are those save_graph and SpectralCertificate.save write,
read back from a temporary directory, so the construct(7, 1000) lines are
the digests of out/k7_n2184.txt and out/k7_n2184.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

# One OpenBLAS thread, as the tests and out/ use; the variable only takes
# effect if it is set before numpy or scipy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else SRC
    sys.path.insert(0, str(src.resolve()))
    from expanderlab import (build_lps, certify, construct, delta_table,
                             save_graph)

    def lps(p: int, q: int):
        x = build_lps(p, q)
        return x, certify(x)

    builds = {
        "construct(7, 1000)": lambda: construct(7, 1000),
        "construct(7, 1000, 'k2product')":
            lambda: construct(7, 1000, "k2product"),
        "construct(8, 10000)": lambda: construct(8, 10000),
        "construct(29, 1000)": lambda: construct(29, 1000),
        "certify(build_lps(5, 53))": lambda: lps(5, 53),
    }

    def emit(name: str, kind: str, data: bytes) -> None:
        print(f"{hashlib.sha256(data).hexdigest()}  {name} {kind}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        graph, cert_path = Path(tmp) / "graph.txt", Path(tmp) / "cert.json"
        for name, build in builds.items():
            x, cert = build()
            save_graph(x, graph)
            cert.save(cert_path)
            emit(name, "txt", graph.read_bytes())
            emit(name, "json", cert_path.read_bytes())
    emit("delta_table()", "json", json.dumps(delta_table()).encode("ascii"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
