"""The four workloads, each as one round of user-level operations.

A plain round calls the public API the way the CLI does and times each
operation.  A traced round first runs the plain round as the reference,
then composes the same operations from the public calls they make, each
call in its own span, and checks that the composed outputs equal the
reference bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from expanderlab import (
    TABLE_RANGES,
    SpectralCertificate,
    build_lps,
    cartesian_k2,
    certify,
    choose_q,
    construct,
    delta_table,
    extreme_eigs,
    graph_from_text,
    graph_to_text,
    increment_regularity,
    is_bipartite,
    is_connected,
    load_graph,
    max_delta_in_range,
    plan,
    regularity,
    replay,
    save_graph,
)
from oracles import relabel_permutation
from tracing import Spans


@dataclass
class Round:
    cpu_clock: Callable[[], float]          # process CPU time, less the gauge's
    times: dict[str, float] = field(default_factory=dict)       # op -> wall s
    cpu: dict[str, float] = field(default_factory=dict)         # op -> CPU s
    outputs: dict[str, dict[str, bytes]] = field(default_factory=dict)
    problems: dict[str, list[str]] = field(default_factory=dict)

    def fail(self, op: str, message: str) -> None:
        self.problems.setdefault(op, []).append(message)

    def timed(self, op: str, fn: Callable):
        """Run and time one operation; an exception fails it, the round goes on."""
        t0, c0 = perf_counter(), self.cpu_clock()
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation
            self.fail(op, f"{type(exc).__name__}: {exc}")
            return None
        self.cpu[op] = self.cpu_clock() - c0
        self.times[op] = perf_counter() - t0
        return result


def _save(x, cert, graph_path: Path, cert_path: Path):
    save_graph(x, graph_path)
    cert.save(cert_path)


def compose_construct(spans: Spans, k: int, min_vertices: int, strategy: str,
                      graph_path: Path, cert_path: Path) -> tuple[str, str]:
    """construct(k, min_vertices, strategy) and its two writes, call by call."""
    with spans.span("planner.construct"):
        _, build = spans.call("planner.plan", plan, k)
        q = spans.call("planner.choose_q", choose_q, build.p_star, min_vertices)
        x = spans.call("ramanujan_base.build_lps", build_lps, build.p_star, q)
        provenance = [{"step": "lps", "p": build.p_star, "q": q}]
        for _ in range(build.increments):
            if strategy == "matching":
                x, m = spans.call("matching.increment_regularity",
                                  increment_regularity, x)
                provenance.append({"step": "matching_increment",
                                   "matching": m.to_text()})
            else:
                x = spans.call("graph_core.cartesian_k2", cartesian_k2, x)
                provenance.append({"step": "k2_product"})
        cert = spans.call("planner.certify", certify, x,
                          provenance=tuple(provenance), strategy=strategy,
                          build=build)
        text = spans.call("graph_core.graph_to_text", graph_to_text, x)
        js = spans.call("spectral.to_json", cert.to_json)
        graph_path.write_text(text, encoding="ascii")
        cert_path.write_text(js, encoding="ascii")
    return text, js


def compose_replay(spans: Spans, cert_text: str):
    """replay(SpectralCertificate.from_json(text).provenance), call by call."""
    with spans.span("planner.replay"):
        cert = spans.call("spectral.from_json", SpectralCertificate.from_json,
                          cert_text)
        x = None
        for step in cert.provenance:
            if step["step"] == "lps":
                x = spans.call("ramanujan_base.build_lps", build_lps,
                               step["p"], step["q"])
            elif step["step"] == "matching_increment":
                x, m = spans.call("matching.increment_regularity",
                                  increment_regularity, x)
                if m.to_text() != step["matching"]:
                    raise ValueError("replayed matching differs from the recorded one")
            else:
                raise ValueError(f"unexpected provenance step {step!r}")
    return x


def certify_callees(spans: Spans, text: str) -> None:
    """Time what planner.certify calls, in its order, on a fresh Graph.

    Graph caches its neighbour lists, so the callees are timed on a graph
    parsed anew from the same text rather than on one certify has used.
    """
    with spans.span("fresh.certify_callees"):
        y = spans.call("fresh.graph_from_text", graph_from_text, text)
        spans.call("graph_core.regularity", regularity, y)
        spans.call("graph_core.is_connected", is_connected, y)
        spans.call("spectral.extreme_eigs", extreme_eigs, y)
        spans.call("graph_core.is_bipartite", is_bipartite, y)


def _traced(r: Round, op: str, fn: Callable, expected: dict[str, bytes],
            produced: Callable[[], dict[str, bytes]]) -> None:
    """Run a composed operation and compare its outputs with the reference."""
    try:
        fn()
    except Exception as exc:  # counted as a failed operation
        r.fail(op, f"traced: {type(exc).__name__}: {exc}")
        return
    if produced() != expected:
        r.fail(op, "composed outputs differ from the untraced operation")


def delta_round(r: Round, out: Path, seed: int, spans: Spans | None) -> Round:
    rows = r.timed("table", delta_table)
    if "table" in r.problems:
        return r
    r.outputs["table"] = {"table.json": json.dumps(rows, sort_keys=True).encode()}
    if spans is not None:
        want = [(row["lo"], row["hi"], row["max_delta"], row["witness_k"])
                for row in rows]
        got: list = []

        def composed():
            with spans.span("bounds.delta_table"):
                for lo, hi in TABLE_RANGES:
                    got.append((lo, hi) + spans.call(
                        "numtheory.max_delta_in_range", max_delta_in_range, lo, hi))
        _traced(r, "table", composed, {"rows": repr(want).encode()},
                lambda: {"rows": repr(got).encode()})
    return r


def _construct_round(r: Round, out: Path, k: int, min_vertices: int,
                     strategy: str, op: str, stem: str,
                     spans: Spans | None) -> str | None:
    g, c = out / f"{stem}.txt", out / f"{stem}.json"
    r.timed(op, lambda: _save(*construct(k, min_vertices, strategy), g, c))
    if op in r.problems:
        return None
    text = g.read_bytes()
    r.outputs[op] = {g.name: text, c.name: c.read_bytes()}
    if spans is not None:
        gt, ct = out / f"{stem}.traced.txt", out / f"{stem}.traced.json"

        def composed():
            composed_text, _ = compose_construct(spans, k, min_vertices, strategy,
                                                 gt, ct)
            certify_callees(spans, composed_text)
        _traced(r, op, composed, r.outputs[op],
                lambda: {g.name: gt.read_bytes(), c.name: ct.read_bytes()})
    return text.decode("ascii")


def k7_round(r: Round, out: Path, seed: int, spans: Spans | None) -> Round:
    text = _construct_round(r, out, 7, 1000, "matching", "construct", "k7", spans)
    if text is None:
        r.fail("replay", "nothing to replay: construct failed")
    else:
        cert_path = out / "k7.json"
        y = r.timed("replay", lambda: replay(SpectralCertificate.from_json(
            cert_path.read_text(encoding="ascii")).provenance))
        if "replay" not in r.problems:
            replayed = graph_to_text(y).encode()
            r.outputs["replay"] = {"k7_replay.txt": replayed}
            if replayed != text.encode():
                r.fail("replay", "replay does not reproduce the constructed graph")
            if spans is not None:
                ys: list = []
                _traced(r, "replay",
                        lambda: ys.append(compose_replay(
                            spans, cert_path.read_text(encoding="ascii"))),
                        r.outputs["replay"],
                        lambda: {"k7_replay.txt": graph_to_text(ys[0]).encode()})
    _construct_round(r, out, 7, 1000, "k2product", "product_construct",
                     "k7_product", spans)
    return r


def k8_round(r: Round, out: Path, seed: int, spans: Spans | None) -> Round:
    _construct_round(r, out, 8, 10000, "matching", "construct", "k8", spans)
    return r


def relabel_text(text: str, seed: int) -> str:
    """The edge-list text with vertices renamed by the seed's permutation."""
    head, _, body = text.partition("\n")
    n, m = (int(t) for t in head.split())
    e = np.array(body.split(), dtype=np.int64).reshape(m, 2)
    e = np.sort(relabel_permutation(n, seed)[e], axis=1)
    e = e[np.lexsort((e[:, 1], e[:, 0]))]
    return f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in e.tolist())


def _certify_file(graph_path: Path, cert_path: Path) -> None:
    """What `expanderlab certify` does: load, certify, save."""
    cert = certify(load_graph(graph_path),
                   provenance=({"step": "load", "path": graph_path.name},))
    cert.save(cert_path)


def lps_round(r: Round, out: Path, seed: int, spans: Spans | None) -> Round:
    x = r.timed("build", lambda: build_lps(5, 53))
    if "build" in r.problems:
        r.fail("certify", "nothing to certify: build failed")
        return r
    base = graph_to_text(x)
    del x  # the build and the certify are separate commands for a user
    path, cert_path = out / "lps.txt", out / "lps.json"
    base_path = out / "lps_base.txt"
    base_path.write_text(base, encoding="ascii")
    path.write_text(relabel_text(base, seed), encoding="ascii")
    del base  # the certify command holds no copy of the text
    r.timed("certify", lambda: _certify_file(path, cert_path))
    r.outputs["build"] = {"lps_base.txt": base_path.read_bytes()}
    if "certify" in r.problems:
        return r
    text = path.read_text(encoding="ascii")
    r.outputs["certify"] = {"lps.txt": text.encode(),
                            "lps.json": cert_path.read_bytes()}
    if spans is not None:
        built: list = []
        _traced(r, "build",
                lambda: built.append(spans.call("ramanujan_base.build_lps",
                                                build_lps, 5, 53)),
                r.outputs["build"],
                lambda: {"lps_base.txt": graph_to_text(built.pop()).encode()})
        traced_cert = out / "lps.traced.json"

        def composed():
            y = spans.call("graph_core.load_graph", load_graph, path)
            cert = spans.call("planner.certify", certify, y,
                              provenance=({"step": "load", "path": path.name},))
            spans.call("spectral.save", cert.save, traced_cert)
            del y, cert
            certify_callees(spans, text)
        _traced(r, "certify", composed, {"lps.json": r.outputs["certify"]["lps.json"]},
                lambda: {"lps.json": traced_cert.read_bytes()})
    return r


@dataclass(frozen=True)
class Workload:
    ops: tuple[str, ...]
    run_round: Callable[[Round, Path, int, Spans | None], Round]
    graph_files: tuple[str, ...]   # edge lists the program wrote
    cert_files: tuple[str, ...]


WORKLOADS = {
    "delta-table": Workload(("table",), delta_round, (), ()),
    "k7-n2184": Workload(("construct", "replay", "product_construct"), k7_round,
                         ("k7.txt", "k7_product.txt"),
                         ("k7.json", "k7_product.json")),
    "k8-n12180": Workload(("construct",), k8_round, ("k8.txt",), ("k8.json",)),
    "lps-n148824": Workload(("build", "certify"), lps_round,
                            ("lps_base.txt",), ("lps.json",)),
}
