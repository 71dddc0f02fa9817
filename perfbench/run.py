#!/usr/bin/env python3
"""Benchmark expanderlab's delta table, construct and certify, end to end.

    python3 perfbench/run.py --workload k7-n2184 --seed 1 --seconds 25 --trace 0

The program is imported from src/ of the checkout that holds this file.
The run repeats whole rounds of the workload's operations, one at a time in
this one process, at least once and then while the next round is expected
to end within --seconds.  Operations are timed in process CPU time, scaled to the
host speed that perfbench/yardstick.py gauges before and during each round,
so that a host running slower for a while does not read as a slower
program.  The outputs of every round must be byte-identical, and those of
the first round are checked by perfbench/oracles.py in a child process.
The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
Earlier lines report each operation's timing, the output hashes and the
platform.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("delta-table", "k7-n2184", "k8-n12180", "lps-n148824")
SETUP_PROBES = 7
# One BLAS thread: with two, every dense eigensolve also waits for the second
# core, and one busy process there doubled construct(7, 1000) (1.43 s alone,
# 3.05-3.67 s beside it); with one thread it took 2.32 s and 2.43 s.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150

# A fresh interpreter gauges the host's speed with the yardstick before and
# after it imports the program, and prints the CPU time it used from its
# start until the program was imported, less the yardstick's import and
# samples, as measured and scaled to the yardstick's nominal speed.
PROBE = ("import sys, time\n"
         "sys.path[:0] = sys.argv[1:3]\n"
         "t0 = time.process_time()\n"
         "import yardstick\n"
         "own = time.process_time() - t0\n"
         "gauge = yardstick.Gauge()\n"
         "gauge.sample(yardstick.SETUP_SAMPLES)\n"
         "import expanderlab\n"
         "ready = time.process_time() - gauge.spent - own\n"
         "gauge.sample(yardstick.SETUP_SAMPLES)\n"
         "print(repr(ready), repr(ready * gauge.scale()))\n")


def setup_probe() -> tuple[float, float]:
    """CPU seconds from process start to the program imported, as measured
    and scaled."""
    done = subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    cpu, scaled = done.stdout.split()[-2:]
    return float(cpu), float(scaled)


def openblas_threads() -> int | None:
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn()
    except OSError:
        pass
    return None


def run_oracles(workload: str, reference: dict[str, dict[str, bytes]],
                check_dir: Path, seed: int) -> dict | None:
    """Write the reference outputs and check them in a child process."""
    check_dir.mkdir()
    for files in reference.values():
        for name, data in files.items():
            (check_dir / name).write_bytes(data)
    done = subprocess.run(
        [sys.executable, str(HERE / "oracles.py"), workload, str(check_dir), str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        print(f"# oracle child failed:\n{done.stderr}", flush=True)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def digest(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "expanderlab" / "__init__.py").is_file():
        print(f"error: no expanderlab sources under {SRC}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    probes = [setup_probe() for _ in range(SETUP_PROBES)]
    import yardstick
    gauge = yardstick.Gauge()
    sys.path.insert(0, str(SRC))
    from tracing import LAYERS, Spans, import_in_spans
    imports = Spans()
    if args.trace:
        expanderlab = import_in_spans(imports, "expanderlab")
    else:
        import expanderlab
    if Path(expanderlab.__file__).resolve().parent != SRC / "expanderlab":
        print(f"error: imported {expanderlab.__file__}, not the checkout's",
              file=sys.stderr)
        return 2
    import numpy
    import scipy
    from workloads import WORKLOADS as SPECS, Round
    spec = SPECS[args.workload]

    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        # The first good outputs of each operation are the reference; of
        # every round only the digests are kept, so the memory the benchmark
        # holds does not grow with the number of rounds.
        rounds, traces, marks = [], [], []
        reference: dict[str, dict[str, bytes]] = {}
        # At least one round; another only if it would end in time.  On a
        # loaded host a delta-table round takes 20 s, and a second one would
        # stretch the run to 45 s.
        start = time.perf_counter()
        took = 0.0  # the last round with its samples; the next may take as long
        while not rounds or time.perf_counter() - start + took < args.seconds:
            t0 = time.perf_counter()
            marks.append(gauge.mark())
            gauge.sample()
            r = Round(gauge.cpu)
            if args.trace:
                # Samples inside spans would add to the layers' self times.
                spans = Spans()
                spec.run_round(r, out, args.seed, spans)
            else:
                spans = None
                with gauge.sampling():
                    spec.run_round(r, out, args.seed, spans)
            for op, files in r.outputs.items():
                if op not in r.problems:
                    reference.setdefault(op, files)
            r.outputs = {op: digest(files) for op, files in r.outputs.items()}
            if not rounds:
                # Peak memory of one round, as one use of the program has it:
                # later rounds add heap fragmentation, and how many run
                # depends on speed.
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rounds.append(r)
            if spans is not None:
                traces.append(spans)
            took = time.perf_counter() - t0
        marks.append(gauge.mark())
        gauge.sample()
        # A round's samples: those inside it and those on either side.
        scales = [gauge.scale(a, b + yardstick.BOUNDARY_SAMPLES)
                  for a, b in zip(marks, marks[1:])]
        verdict = run_oracles(args.workload, reference, out / "check", args.seed)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    selfcheck_ok = verdict is not None and all(
        c["ok"] for c in verdict["selfcheck"].values())
    oracle_bad = verdict["failures"] if verdict is not None else {}
    failed = 0
    for i, r in enumerate(rounds):
        for op in spec.ops:
            why = list(r.problems.get(op, []))
            if op in reference and r.outputs.get(op) != digest(reference[op]):
                why.append("outputs differ from the first round's")
            why += oracle_bad.get(op, [])
            if why:
                failed += 1
                print(f"# FAILED round {i} {op}: {'; '.join(why)}", flush=True)

    print(f"# workload {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"trace {args.trace}")
    print(f"# python {platform.python_version()} numpy {numpy.__version__} "
          f"scipy {scipy.__version__} nproc {os.cpu_count()} "
          f"openblas_threads {openblas_threads()}")
    if verdict is not None:
        print(f"# oracle self-check {json.dumps(verdict['selfcheck'])}")
    for files in reference.values():
        for name, sha in sorted(digest(files).items()):
            print(f"# sha256 {name} {sha}")
    print(f"# yardstick {len(gauge.samples)} samples, median "
          f"{statistics.median(gauge.samples):.6f} s (nominal {yardstick.NOMINAL_S} s), "
          f"{gauge.spent:.3f} s of CPU in all")
    for i, r in enumerate(rounds):
        print(f"# round {i} scale {scales[i]:.4f} "
              + " ".join(f"{op}_s cpu {r.cpu[op]:.6f} wall {r.times[op]:.6f}"
                         for op in r.times))
    for op in spec.ops:
        done = [(r, c) for r, c in zip(rounds, scales) if op in r.times]
        print(f"# metric {op}_s {median([r.cpu[op] * c for r, c in done]):.6f} s "
              f"scaled CPU, {median([r.times[op] for r, _ in done]):.6f} s wall "
              f"(medians of {len(done)})")
    print(f"# setup CPU {median([cpu for cpu, _ in probes]):.6f} s unscaled")

    if args.trace:
        metrics = per_layer_metrics(spec, rounds, traces, imports, reference, LAYERS)
    else:
        metrics = {
            "setup_s": (median([scaled for _, scaled in probes]), "s"),
            "round_s": (median([sum(r.cpu.values()) * c
                                for r, c in zip(rounds, scales)]), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": selfcheck_ok,
        "attempted": len(rounds) * len(spec.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


def per_layer_metrics(spec, rounds, traces, imports, reference, layers) -> dict:
    """Per-layer busy time (own import plus own calls in one traced round)
    and the sizes of what the program wrote."""
    for (name, *_), own in zip(imports.records, imports.self_times()):
        print(f"# span {name} self {own:.6f} s")
    for name, (calls, total, own, last) in sorted(_median_spans(traces).items()):
        print(f"# span {name} calls {calls} total {total:.6f} s "
              f"self {own:.6f} s last {last:.6f} s")
    overhead = median([t.top_level_total() - sum(r.times.values())
                       for t, r in zip(traces, rounds)])
    print(f"# tracing overhead {overhead:.6f} s per round (composed minus untraced)")
    imported = imports.layer_busy()
    metrics = {}
    for layer in layers:
        calls = median([t.layer_busy()[layer] for t in traces])
        metrics[f"{layer}.busy_s"] = (imported[layer] + calls, "s")
    files = {name: data for outs in reference.values() for name, data in outs.items()}
    certs = [json.loads(files[n]) for n in spec.cert_files if n in files]
    metrics["spectral.residual"] = (max((c["residual"] for c in certs), default=0.0), "1")
    metrics["spectral.certificate_bytes"] = (
        sum(len(files[n]) for n in spec.cert_files if n in files), "bytes")
    metrics["graph_core.graph_text_bytes"] = (
        sum(len(files[n]) for n in spec.graph_files if n in files), "bytes")
    return metrics


def _median_spans(traces) -> dict[str, tuple[int, float, float, float]]:
    """name -> calls per round, then the medians over rounds of the total
    duration, the total self time and the duration of the last call."""
    tables = [t.by_name() for t in traces]
    out = {}
    for name in sorted({name for table in tables for name in table}):
        stats = [table.get(name, (0, 0.0, 0.0, 0.0)) for table in tables]
        out[name] = (stats[0][0], *(median([s[i] for s in stats]) for i in (1, 2, 3)))
    return out


if __name__ == "__main__":
    sys.exit(main())
