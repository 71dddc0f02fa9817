"""Planning and executing k-regular almost-Ramanujan constructions.

Two plans exist for every target k.  The theoretical plan anchors at
p = prev_prime(k) and drives the bound chain; the buildable plan anchors at
p* = ramanujan_base.base_prime(k), the largest p <= k - 1 that admits a
Cayley base.  When there is none (k = 3, 4, 5) the base is the smallest
graph of regularity k in ramanujan_base.LIBRARY with enough vertices.
ramanujan_base alone decides which (p, q) make a base, and bounds alone
decides every bound entry and its validity.

Increments come in two strategies:

    matching    add a perfect matching of the complement per step; each
                step provably moves lambda_2 by at most +1, so the final
                bound 2*sqrt(p*) + (k - p* - 1) is certified;
    k2product   Cartesian product with a single edge per step; doubles n
                and shifts the spectrum to {lambda +- 1}, so after one step
                on a graph with gap > 2, lambda_2 = lambda_1 - 1 = k_new - 2
                and the chain does NOT transfer: its entries are invalid.

"matching", whose certificates may cite the chain, is the default.
construct and replay run every step through one increment driver,
_apply_step, so the two strategies are compared at the same k.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._version import __version__
from .bounds import bound_entries, is_ramanujan
from .errors import ValidationError
from .expansion import MAX_EXACT_N, expanding_constant_exact
from .graph_core import Graph, cartesian_k2, is_bipartite
from .matching import increment_regularity
from .numtheory import PrimePlan
from .ramanujan_base import (LIBRARY, base_prime, build_lps, lps_shape,
                             small_ramanujan, smallest_modulus)
from .spectral import DEFAULT_TOL, SpectralCertificate, extreme_eigs

# Increment strategy -> the provenance step that runs one increment.
STRATEGIES = {"matching": "matching_increment", "k2product": "k2_product"}


@dataclass(frozen=True)
class BuildPlan:
    """Executable route to a k-regular graph.

    source is "lps" (Cayley base at p_star, then increments) or "library"
    (a named small graph already at regularity k).
    """

    source: str
    p_star: int | None
    increments: int


def plan(k: int) -> tuple[PrimePlan, BuildPlan]:
    """(theoretical, buildable) plans for target regularity 3 <= k <= 2557;
    base_prime refuses any other k, before any primality test."""
    p = base_prime(k)
    theory = PrimePlan.for_target(k)
    if p is None:
        return theory, BuildPlan(source="library", p_star=None, increments=0)
    return theory, BuildPlan(source="lps", p_star=p, increments=k - p - 1)


def choose_q(p: int, min_vertices: int) -> int:
    """Least modulus q admitted at p whose X^{p,q} has min_vertices or more."""
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got {min_vertices}")
    return smallest_modulus(p, min_vertices)


def _library_name(k: int, min_vertices: int) -> str:
    """The first LIBRARY graph of regularity k with min_vertices or more."""
    for name, (degree, n) in LIBRARY.items():
        if degree == k and n >= min_vertices:
            return name
    largest = max(n for degree, n in LIBRARY.values() if degree == k)
    raise ValidationError(
        f"regularity {k} is served from a fixed library whose largest graph "
        f"has {largest} vertices; cannot reach {min_vertices}")


def certify(x: Graph, *, provenance: tuple[dict, ...] = (),
            strategy: str | None = None,
            build: BuildPlan | None = None) -> SpectralCertificate:
    """Measure a regular connected graph and emit its certificate.

    Two header checks, on n and m alone, come first, so a hostile header
    fails before anything of size n is allocated; then extreme_eigs
    refuses any graph that is not connected, regular and of at least two
    vertices.  Spectral fields are always measured, never copied from
    claims.  strategy and build, given together or not at all, resolve
    bound validity, and provenance must record their route, build's base
    step and then build.increments steps of strategy, and describe x: the
    n and k that route builds must be x's, else ValidationError is raised
    before extreme_eigs.  Small graphs get exact expansion data.
    """
    if (strategy is None) != (build is None):
        raise ValidationError("certify takes strategy and build together")
    if build is not None:
        route = [(build.source, build.p_star)]
        route += [(_increment_step(strategy), None)] * build.increments
        if [(s.get("step"), s.get("p")) if isinstance(s, dict) else None
                for s in provenance] != route:
            raise ValidationError(f"provenance is not the {strategy} route "
                                  f"of {build}")
    if x.n == 0 or 2 * x.num_edges % x.n:
        raise ValidationError("certificates require a regular graph")
    if x.num_edges < x.n - 1:
        raise ValidationError("certificates require a connected graph")
    k = 2 * x.num_edges // x.n
    if build is not None:
        n, degree = _route_shape(provenance[0], strategy, build)
        if (n, degree) != (x.n, k):
            raise ValidationError(
                f"provenance builds n={n}, k={degree}; the graph has "
                f"n={x.n}, k={k}")
    s = extreme_eigs(x)
    expansion = None
    if x.n <= MAX_EXACT_N:
        h, witness = expanding_constant_exact(x)
        expansion = {"h": h, "witness": list(witness)}
    base = build.p_star if build is not None else None
    bounds = tuple(bound_entries(k, base, strategy == "matching"))
    return SpectralCertificate(
        version=__version__,
        k=k,
        n=x.n,
        provenance=tuple(provenance),
        lambda1=s.lambda1,
        lambda2=s.lambda2,
        lambda_n=s.lambda_n,
        spectral_gap=k - s.lambda2,
        ramanujan=is_ramanujan(k, s.lambda2, s.residual + DEFAULT_TOL),
        bipartite=is_bipartite(x),
        residual=s.residual,
        method=s.method,
        bounds=bounds,
        expansion=expansion,
    )


def _increment_step(strategy: str) -> str:
    """The provenance step that runs one increment of strategy."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected "
                              f"one of {tuple(STRATEGIES)}")
    return STRATEGIES[strategy]


def _route_shape(base: dict, strategy: str, build: BuildPlan
                 ) -> tuple[int, int]:
    """(n, k) of the graph built from the base step by build's increments:
    each increment adds one to k, and each k2product step doubles n."""
    if build.source == "lps":
        if type(base.get("q")) is not int:
            raise ValidationError(f"lps step needs int p and q: {base!r}")
        k, n = lps_shape(build.p_star, base["q"])
    else:
        name = base.get("name")
        if not (isinstance(name, str) and name in LIBRARY):
            raise ValidationError(f"unknown library graph in {base!r}")
        k, n = LIBRARY[name]
    if strategy == "k2product":
        n <<= build.increments
    return n, k + build.increments


def construct(k: int, min_vertices: int, strategy: str = "matching"
              ) -> tuple[Graph, SpectralCertificate]:
    """Build a certified k-regular graph with at least min_vertices vertices."""
    increment = _increment_step(strategy)
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got {min_vertices}")
    _, build = plan(k)
    if build.source == "library":
        base = {"step": "library", "name": _library_name(k, min_vertices)}
    else:
        base = {"step": "lps", "p": build.p_star,
                "q": choose_q(build.p_star, min_vertices)}
    x, step = _apply_step(None, base)
    provenance = [step]
    for _ in range(build.increments):
        x, step = _apply_step(x, {"step": increment})
        provenance.append(step)
    return x, certify(x, provenance=tuple(provenance), strategy=strategy,
                      build=build)


def _apply_step(x: Graph | None, step: dict) -> tuple[Graph, dict]:
    """Run one provenance step on x; return the new graph and the step run.

    The step run by a matching increment records the matching it added; a
    matching already recorded in step must equal the recomputed one.  A
    malformed step is refused before anything is built: a base step may
    only come first, and each field must have the type construct records.
    """
    op = step.get("step") if isinstance(step, dict) else None
    if op in ("library", "lps") and x is not None:
        raise ValidationError(f"base step {op!r} after the first step")
    if op == "library":
        if not isinstance(step.get("name"), str):
            raise ValidationError(f"library step needs a name, got {step!r}")
        return small_ramanujan(step["name"]), step
    if op == "lps":
        if not (type(step.get("p")) is int and type(step.get("q")) is int):
            raise ValidationError(f"lps step needs int p and q: {step!r}")
        return build_lps(step["p"], step["q"]), step
    if op == "matching_increment":
        if x is None:
            raise ValidationError("increment step before any base step")
        recorded = step.get("matching")
        if recorded is not None and not isinstance(recorded, str):
            raise ValidationError("a recorded matching must be text")
        x, m = increment_regularity(x)
        text = m.to_text()
        if recorded is not None and recorded != text:
            raise ValidationError(
                "replayed matching differs from the recorded one")
        return x, {"step": op, "matching": text}
    if op == "k2_product":
        if x is None:
            raise ValidationError("product step before any base step")
        return cartesian_k2(x), step
    raise ValidationError(f"unknown provenance step {step!r}")


def replay(provenance) -> Graph:
    """Rebuild the graph described by a certificate's provenance chain.

    Deterministic construction makes this exact: the result has the same
    canonical edge list as the original.  Embedded matchings are checked
    against the recomputation.  A provenance that is not iterable raises
    ValidationError before anything is built.
    """
    try:
        steps = iter(provenance)
    except TypeError:
        raise ValidationError(f"provenance must be a sequence of steps, got "
                              f"{type(provenance).__name__}") from None
    x: Graph | None = None
    for step in steps:
        x, _ = _apply_step(x, step)
    if x is None:
        raise ValidationError("empty provenance chain")
    return x
