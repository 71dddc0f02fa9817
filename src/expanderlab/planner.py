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

A provenance chain is one base step, "library" (a LIBRARY name) or "lps"
(int p and q), then "matching_increment" (optional matching text) and
"k2_product" steps.  _chain_shape alone reads it, following (k, n) through
each increment the shape can take, before _build builds anything.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ._version import __version__
from .bounds import bound_entries, is_ramanujan
from .errors import ValidationError, _shown
from .graph_core import Graph, cartesian_k2, is_bipartite
from .matching import _increment_fault, increment_regularity
from .numtheory import PrimePlan
from .ramanujan_base import (LIBRARY, base_prime, build_lps, library_shape,
                             lps_shape, small_ramanujan, smallest_modulus)
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
    """(theoretical, buildable) plans for target regularity 3 <= k <= K_MAX;
    base_prime refuses any other k, before any primality test."""
    p = base_prime(k)
    theory = PrimePlan.for_target(k)
    if p is None:
        return theory, BuildPlan(source="library", p_star=None, increments=0)
    return theory, BuildPlan(source="lps", p_star=p, increments=k - p - 1)


def choose_q(p: int, min_vertices: int) -> int:
    """Least modulus q admitted at p whose X^{p,q} has min_vertices or more."""
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got "
                              f"{_shown(min_vertices)}")
    return smallest_modulus(p, min_vertices)


def _library_name(k: int, min_vertices: int) -> str:
    """The first LIBRARY graph of regularity k with min_vertices or more."""
    for name, (degree, n) in LIBRARY.items():
        if degree == k and n >= min_vertices:
            return name
    largest = max(n for degree, n in LIBRARY.values() if degree == k)
    raise ValidationError(
        f"regularity {k} is served from a fixed library whose largest graph "
        f"has {largest} vertices; cannot reach {_shown(min_vertices)}")


def certify(x: Graph, *, provenance: tuple[dict, ...] = (),
            strategy: str | None = None,
            build: BuildPlan | None = None) -> SpectralCertificate:
    """Measure a regular connected graph and emit its certificate.

    Header checks on n and m alone refuse a hostile header before anything
    of size n is allocated; then extreme_eigs refuses any graph that is not
    connected, regular and of at least two vertices.  Spectral fields are
    measured, never copied from claims.  strategy and build, given together
    or not at all, resolve bound validity; provenance, read once as a
    tuple, must then be the chain of build's base and increments of
    strategy that builds x's n and k, and a malformed or infeasible chain
    is refused before anything is built.  No subset is enumerated at any
    n, so expansion stays null: a small graph's exact expanding constant
    is one expansion.expanding_constant_exact call away.
    """
    if (strategy is None) != (build is None):
        raise ValidationError("certify takes strategy and build together")
    provenance = _as_steps(provenance)
    if build is not None:
        route = [(build.source, build.p_star)]
        route += [(_increment_step(strategy), None)] * build.increments
        degree, n = _chain_shape(provenance)
        if [(s["step"], s.get("p")) for s in provenance] != route:
            raise ValidationError(f"provenance is not the {strategy} route "
                                  f"of {build}")
    if x.n == 0 or 2 * x.num_edges % x.n:
        raise ValidationError("certificates require a regular graph")
    if x.num_edges < x.n - 1:
        raise ValidationError("certificates require a connected graph")
    k = 2 * x.num_edges // x.n
    if build is not None and (n, degree) != (x.n, k):
        raise ValidationError(f"provenance builds n={n}, k={degree}; the "
                              f"graph has n={x.n}, k={k}")
    s = extreme_eigs(x)
    base = build.p_star if build is not None else None
    bounds = tuple(bound_entries(k, base, strategy == "matching"))
    return SpectralCertificate(
        version=__version__,
        k=k,
        n=x.n,
        provenance=provenance,
        **asdict(s),
        spectral_gap=k - s.lambda2,
        ramanujan=is_ramanujan(k, s.lambda2, s.residual + DEFAULT_TOL),
        bipartite=is_bipartite(x),
        bounds=bounds,
    )


def _increment_step(strategy: str) -> str:
    """The provenance step that runs one increment of strategy."""
    if strategy not in STRATEGIES:
        raise ValidationError(f"unknown strategy {strategy!r}; expected "
                              f"one of {tuple(STRATEGIES)}")
    return STRATEGIES[strategy]


def construct(k: int, min_vertices: int, strategy: str = "matching"
              ) -> tuple[Graph, SpectralCertificate]:
    """Build a certified k-regular graph with at least min_vertices vertices."""
    increment = _increment_step(strategy)
    if min_vertices < 1:
        raise ValidationError(f"min_vertices must be >= 1, got "
                              f"{_shown(min_vertices)}")
    _, build = plan(k)
    if build.source == "library":
        base = {"step": "library", "name": _library_name(k, min_vertices)}
    else:
        base = {"step": "lps", "p": build.p_star,
                "q": choose_q(build.p_star, min_vertices)}
    x, provenance = _build((base,) + tuple(
        {"step": increment} for _ in range(build.increments)))
    return x, certify(x, provenance=provenance, strategy=strategy,
                      build=build)


def _as_steps(provenance) -> tuple:
    """provenance read once into a tuple of steps."""
    try:
        return tuple(provenance)
    except TypeError:
        raise ValidationError(f"provenance must be a sequence of steps, got "
                              f"{type(provenance).__name__}") from None


def _chain_shape(steps: tuple) -> tuple[int, int]:
    """(k, n) of the graph the chain steps builds, without building it;
    ValidationError if steps is not a well-formed chain."""
    k = n = None
    for step in steps:
        op = step.get("step") if isinstance(step, dict) else None
        if (op in ("library", "lps")) != (k is None):
            raise ValidationError(f"a chain has one base step, its first; "
                                  f"{step!r} is out of place")
        if op == "library":
            k, n = library_shape(step.get("name"))
        elif op == "lps":
            if {type(step.get("p")), type(step.get("q"))} != {int}:
                raise ValidationError(f"lps step needs int p and q: {step!r}")
            k, n = lps_shape(step["p"], step["q"])
        elif op == "matching_increment":
            if not isinstance(step.get("matching"), (str, type(None))):
                raise ValidationError("a recorded matching must be text")
            if (fault := _increment_fault(k, n)) is not None:
                raise ValidationError(fault)
            k += 1
        elif op == "k2_product":
            k, n = k + 1, 2 * n
        else:
            raise ValidationError(f"unknown provenance step {step!r}")
    if k is None:
        raise ValidationError("empty provenance chain")
    return k, n


def _build(steps: tuple) -> tuple[Graph, tuple[dict, ...]]:
    """Walk the chain steps, then build it: the graph and the steps run,
    each matching increment recording its matching."""
    _chain_shape(steps)
    run = []
    for step in steps:
        op = step["step"]
        if op == "library":
            x = small_ramanujan(step["name"])
        elif op == "lps":
            x = build_lps(step["p"], step["q"])
        elif op == "k2_product":
            x = cartesian_k2(x)
        else:
            x, m = increment_regularity(x)
            text = m.to_text()
            if step.get("matching") not in (None, text):
                raise ValidationError(
                    "replayed matching differs from the recorded one")
            step = {"step": op, "matching": text}
        run.append(step)
    return x, tuple(run)


def replay(provenance) -> Graph:
    """Rebuild the graph a certificate's provenance chain describes, with the
    same canonical edge list as the original; recorded matchings must equal
    the recomputed ones.  A provenance that is not iterable, or a malformed
    or infeasible chain, raises ValidationError before anything is built."""
    return _build(_as_steps(provenance))[0]
