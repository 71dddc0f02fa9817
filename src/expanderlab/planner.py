"""Planning and executing k-regular almost-Ramanujan constructions.

Two plans exist for every target k.  The theoretical plan anchors at
p = prev_prime(k) and drives the bound chain; the buildable plan anchors at
p* = the largest prime p <= k - 1 with p = 1 (mod 4) and p >= 5, because
only those primes admit the Cayley base construction.  When no such p*
exists (k <= 5) the base is served from the small named-graph library.

Increments come in two strategies:

    matching    add a perfect matching of the complement per step; each
                step provably moves lambda_2 by at most +1, so the final
                bound 2*sqrt(p*) + (k - p* - 1) is certified;
    k2product   Cartesian product with a single edge per step; doubles n
                and shifts the spectrum to {lambda +- 1}, whose second
                value is max(lambda_2 + 1, lambda_1 - 1).  After one step
                on a graph with gap > 2 that is lambda_1 - 1 = k_new - 2,
                so the chain bound does NOT transfer.  Certificates for
                this strategy carry measured eigenvalues only and mark the
                chain entries invalid.

"matching" is the default strategy for exactly that reason: its
certificates may cite the chain, the product's may not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._version import __version__
from .bounds import BoundModel
from .errors import ValidationError
from .expansion import MAX_EXACT_N, expanding_constant_exact
from .graph_core import (
    Graph,
    cartesian_k2,
    is_bipartite,
    is_connected,
    regularity,
)
from .matching import increment_regularity
from .numtheory import PrimePlan, is_prime, prev_prime
from .ramanujan_base import build_lps, lps_params, small_ramanujan
from .spectral import DEFAULT_TOL, SpectralCertificate, extreme_eigs

STRATEGIES = ("matching", "k2product")

DEFAULT_Q_MAX = 101


@dataclass(frozen=True)
class BuildPlan:
    """Executable route to a k-regular graph.

    source is "lps" (Cayley base at p_star, then increments) or "library"
    (a named small graph already at regularity k).
    """

    k: int
    source: str
    p_star: int | None
    increments: int
    note: str = ""


def plan(k: int) -> tuple[PrimePlan, BuildPlan]:
    """(theoretical, buildable) plans for target regularity k >= 3."""
    theory = PrimePlan.for_target(k)
    p = k - 1 if is_prime(k - 1) else (prev_prime(k - 1) if k >= 4 else None)
    while p is not None and p >= 5:
        if p % 4 == 1:
            return theory, BuildPlan(k=k, source="lps", p_star=p,
                                     increments=k - p - 1)
        p = prev_prime(p)
    return theory, BuildPlan(
        k=k, source="library", p_star=None, increments=0,
        note="no prime p = 1 (mod 4) with 5 <= p <= k-1; using the "
             "named-graph library")


def choose_q(p: int, min_vertices: int, q_max: int = DEFAULT_Q_MAX) -> int:
    """Smallest valid modulus q with at least min_vertices vertices.

    Valid means q prime, q = 1 (mod 4), q != p, q > 2*sqrt(p).  The n that
    goes with each q depends on the Legendre symbol, so candidates are
    checked in ascending order rather than solved in closed form.
    """
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got {min_vertices}")
    q = 5
    while q <= q_max:
        if q % 4 == 1 and q != p and q * q > 4 * p:
            if lps_params(p, q).n >= min_vertices:
                return q
        q += 2
        while not is_prime(q):
            q += 2
    raise ValidationError(
        f"no modulus q <= {q_max} gives a base with {min_vertices} vertices "
        f"at p={p}")


_LIBRARY_BY_K = {
    3: (("complete(4)", 4), ("petersen", 10)),
}


def _library_name(k: int, min_vertices: int) -> str:
    candidates = _LIBRARY_BY_K.get(k, ((f"complete({k + 1})", k + 1),))
    for name, n in candidates:
        if n >= min_vertices:
            return name
    raise ValidationError(
        f"regularity {k} is served from a fixed library whose largest graph "
        f"has {candidates[-1][1]} vertices; cannot reach {min_vertices}")


# (certificate entry name, BoundModel kind, bounds lambda_2), in certificate
# order.  lambda_2 entries also carry a capped value and apply only to a
# graph anchored at p = prev_prime(k); gap entries apply to any graph built
# by matching increments.
_CERT_BOUNDS = (
    ("lambda2_chain_intermediate", "ChainIntermediate", True),
    ("lambda2_chain_normalized", "DeltaExact", True),
    ("gap_trudgian", "Trudgian", False),
    ("gap_bhp", "BHP", False),
    ("gap_rh", "CramerRH", False),
)


def _bound_entries(k: int, strategy: str | None, build: BuildPlan | None,
                   rh_constant: float, bhp_threshold: int | None) -> list[dict]:
    """Bound lines for a certificate.

    valid on a lambda_2 entry means: the inequality provably applies to
    the certified graph (built by matching increments from the cited base).
    valid on every other entry additionally requires BoundModel.is_valid,
    the model's own domain (Trudgian onset, a caller-supplied BHP onset).
    Values above the trivial ceiling lambda_2 <= k are still reported,
    alongside the capped version, so the reader sees both.
    """
    entries: list[dict] = []
    by_matching = strategy == "matching"
    if build is not None and build.source == "lps" and strategy is not None:
        v = 2.0 * math.sqrt(build.p_star) + build.increments
        entries.append({
            "model": "lambda2_matching_chain",
            "value": v,
            "value_capped": min(v, float(k)),
            "valid": by_matching,
            "conditional": False,
        })
    if k >= 3:
        anchored = (by_matching and build is not None
                    and build.source == "lps" and build.p_star == prev_prime(k))
        for name, kind, on_lambda2 in _CERT_BOUNDS:
            model = BoundModel(kind, bhp_threshold=bhp_threshold,
                               rh_constant=rh_constant)
            value = model.evaluate(k)
            entry = {"model": name, "value": value}
            if on_lambda2:
                entry["value_capped"] = min(value, float(k))
            if kind == "CramerRH":
                entry["rh_constant"] = rh_constant
            gate = anchored if on_lambda2 else by_matching
            entry["valid"] = gate and model.is_valid(k)
            entry["conditional"] = model.conditional
            entries.append(entry)
    return entries


def certify(x: Graph, *, provenance: tuple[dict, ...] = (),
            strategy: str | None = None, build: BuildPlan | None = None,
            tol: float = DEFAULT_TOL, rh_constant: float = 1.0,
            bhp_threshold: int | None = None) -> SpectralCertificate:
    """Measure a regular connected graph and emit its certificate.

    Spectral fields are always measured, never copied from claims.  Bound
    entries are attached with validity flags resolved against the
    construction strategy; exact expansion data is included whenever the
    graph is small enough.
    """
    # The first two tests read only n and m, so a hostile header fails
    # here, before anything of size n is allocated.
    if x.n == 0 or 2 * x.num_edges % x.n:
        raise ValidationError("certificates require a regular graph")
    if x.num_edges < x.n - 1:
        raise ValidationError("certificates require a connected graph")
    k = regularity(x)
    if k is None:
        raise ValidationError("certificates require a regular graph")
    if not is_connected(x):
        raise ValidationError("certificates require a connected graph")
    expansion = None
    if 2 <= x.n <= MAX_EXACT_N:
        h, witness = expanding_constant_exact(x)
        expansion = {"h": h, "witness": list(witness)}
    bounds = tuple(_bound_entries(k, strategy, build, rh_constant,
                                  bhp_threshold))
    s = extreme_eigs(x, tol=tol)
    return SpectralCertificate(
        version=__version__,
        k=k,
        n=x.n,
        provenance=tuple(provenance),
        lambda1=s.lambda1,
        lambda2=s.lambda2,
        lambda_n=s.lambda_n,
        spectral_gap=k - s.lambda2,
        # Non-strict Ramanujan test, padded by the solver residual; lambda_n
        # never disqualifies (bipartite graphs have lambda_n = -k).
        ramanujan=2.0 * math.sqrt(k - 1) + s.residual + tol - s.lambda2 >= 0.0,
        bipartite=is_bipartite(x),
        residual=s.residual,
        method=s.method,
        bounds=bounds,
        expansion=expansion,
    )


def construct(k: int, min_vertices: int, strategy: str = "matching", *,
              q_max: int = DEFAULT_Q_MAX, tol: float = DEFAULT_TOL,
              rh_constant: float = 1.0, bhp_threshold: int | None = None
              ) -> tuple[Graph, SpectralCertificate]:
    """Build a certified k-regular graph with at least min_vertices vertices."""
    if strategy not in STRATEGIES:
        raise ValidationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got {min_vertices}")
    _, build = plan(k)
    if build.source == "library":
        base = {"step": "library", "name": _library_name(k, min_vertices)}
    else:
        base = {"step": "lps", "p": build.p_star,
                "q": choose_q(build.p_star, min_vertices, q_max)}
    x, step = _apply_step(None, base)
    provenance = [step]
    op = "matching_increment" if strategy == "matching" else "k2_product"
    for _ in range(build.increments):
        x, step = _apply_step(x, {"step": op})
        provenance.append(step)
    cert = certify(x, provenance=tuple(provenance), strategy=strategy,
                   build=build, tol=tol, rh_constant=rh_constant,
                   bhp_threshold=bhp_threshold)
    return x, cert


def _apply_step(x: Graph | None, step: dict) -> tuple[Graph, dict]:
    """Run one provenance step on x; return the new graph and the step run.

    The step run by a matching increment records the matching it added; a
    matching already recorded in step must equal the recomputed one.
    """
    op = step.get("step")
    if op == "library":
        return small_ramanujan(step["name"]), step
    if op == "lps":
        return build_lps(step["p"], step["q"]), step
    if op == "matching_increment":
        if x is None:
            raise ValidationError("increment step before any base step")
        x, m = increment_regularity(x)
        recorded = step.get("matching")
        if recorded is not None and recorded != m.to_text():
            raise ValidationError(
                "replayed matching differs from the recorded one")
        return x, {"step": op, "matching": m.to_text()}
    if op == "k2_product":
        if x is None:
            raise ValidationError("product step before any base step")
        return cartesian_k2(x), step
    raise ValidationError(f"unknown provenance step {step!r}")


def replay(provenance) -> Graph:
    """Rebuild the graph described by a certificate's provenance chain.

    Deterministic construction makes this exact: the result has the same
    canonical edge list as the original.  Embedded matchings are checked
    against the recomputation.
    """
    x: Graph | None = None
    for step in provenance:
        x, _ = _apply_step(x, step)
    if x is None:
        raise ValidationError("empty provenance chain")
    return x


def compare_strategies(p: int, q: int, target_k: int) -> dict:
    """Grow one base both ways and report measured spectra side by side.

    Row zero is the shared base X^{p,q}; each later row records, per
    strategy, the graph size, measured lambda_2, spectral gap, and the
    reference value lambda_2(previous) + 1 that the matching route is
    guaranteed not to exceed.
    """
    params = lps_params(p, q)
    base_k = p + 1
    if target_k < base_k:
        raise ValidationError(
            f"target_k={target_k} is below the base regularity {base_k}")
    x = build_lps(p, q)
    lam2 = extreme_eigs(x).lambda2
    rows = [{
        "k": base_k,
        "matching": {"n": x.n, "lambda2": lam2, "gap": base_k - lam2},
        "k2product": {"n": x.n, "lambda2": lam2, "gap": base_k - lam2},
    }]
    xm = xp = x
    lam2_m = lam2_p = lam2
    for step in range(1, target_k - base_k + 1):
        k_now = base_k + step
        xm, _ = increment_regularity(xm)
        xp = cartesian_k2(xp)
        prev_m, prev_p = lam2_m, lam2_p
        lam2_m = extreme_eigs(xm).lambda2
        lam2_p = extreme_eigs(xp).lambda2
        rows.append({
            "k": k_now,
            "matching": {"n": xm.n, "lambda2": lam2_m, "gap": k_now - lam2_m,
                         "lambda2_prev_plus_one": prev_m + 1.0},
            "k2product": {"n": xp.n, "lambda2": lam2_p, "gap": k_now - lam2_p,
                          "lambda2_prev_plus_one": prev_p + 1.0},
        })
    return {"p": p, "q": q, "group": params.group, "base_k": base_k,
            "target_k": target_k, "rows": rows}
