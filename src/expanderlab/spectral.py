"""Residual-checked extreme eigenvalues and spectral certificates.

extreme_eigs is the one eigensolver entry point: it returns lambda_1,
lambda_2 and lambda_n of a graph's adjacency as a Spectrum.  Two solver
paths share one contract.  The dense path (numpy.linalg.eigh, LAPACK)
solves the full spectrum and serves graphs up to DENSE_THRESHOLD vertices.
The iterative path (scipy ARPACK) extracts the extreme eigenvalues of the
sparse adjacency with a fixed, seeded starting vector so repeated runs
agree bit for bit.  Every eigenpair is accepted only after an explicit
residual check against tol; failures raise ConvergenceError rather than
degrading silently.

Eigenvalues are ordered as a non-increasing multiset: lambda_1 >= lambda_2
>= ... >= lambda_n, so lambda_2 of a k-regular connected graph is the
quantity bounded by 2*sqrt(k-1) in a Ramanujan graph.  The test is
non-strict: equality counts as Ramanujan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, get_type_hints

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import ConvergenceError, ValidationError
from .graph_core import Graph

DENSE_THRESHOLD = 4096
DEFAULT_TOL = 1e-8

# Seed for the Lanczos starting vector; fixed so iterative runs reproduce.
_V0_SEED = 1717


@dataclass(frozen=True)
class Spectrum:
    """The extreme adjacency eigenvalues lambda_1 >= lambda_2 and lambda_n.

    residual is the worst per-pair residual accepted by the solver, method
    names the solver path that produced the values.
    """

    lambda1: float
    lambda2: float
    lambda_n: float
    residual: float
    method: str


def _dense_eigs(x: Graph, tol: float) -> tuple[np.ndarray, float]:
    a = x.adjacency_matrix()
    w, vecs = np.linalg.eigh(a)
    res = float(np.abs(a @ vecs - vecs * w).max())
    # eigh returns ascending order with unit-norm columns.
    if res > tol:
        raise ConvergenceError(f"dense eigensolve residual {res:.3e} > {tol:.3e}")
    return w[::-1].copy(), res


def _iterative_extremes(x: Graph, count: int, which: str,
                        tol: float) -> tuple[list[float], float]:
    """count extreme eigenvalues by ARPACK with residual verification.

    which is 'LA' (largest algebraic) or 'SA' (smallest).  Returns values
    sorted non-increasing for 'LA' and non-decreasing for 'SA'.
    """
    a = x.adjacency_sparse()
    rng = np.random.default_rng(_V0_SEED)
    v0 = rng.standard_normal(x.n)
    try:
        w, vecs = eigsh(a, k=count, which=which, v0=v0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"ARPACK did not converge: {exc}") from exc
    res = 0.0
    for j in range(count):
        v = vecs[:, j]
        r = float(np.linalg.norm(a @ v - w[j] * v) / np.linalg.norm(v))
        res = max(res, r)
    if res > tol:
        raise ConvergenceError(
            f"iterative eigensolve residual {res:.3e} > tolerance {tol:.3e}")
    vals = sorted((float(t) for t in w), reverse=(which == "LA"))
    return vals, res


def extreme_eigs(x: Graph, *, tol: float = DEFAULT_TOL) -> Spectrum:
    """lambda_1, lambda_2 and lambda_n of x, residual-checked.

    The dense path serves n <= DENSE_THRESHOLD, ARPACK the larger graphs.
    """
    if x.n < 2:
        raise ValidationError("need at least two vertices for lambda_2")
    if x.n <= DENSE_THRESHOLD:
        values, res = _dense_eigs(x, tol)
        return Spectrum(float(values[0]), float(values[1]), float(values[-1]),
                        res, "dense")
    top, res_t = _iterative_extremes(x, 2, "LA", tol)
    bot, res_b = _iterative_extremes(x, 1, "SA", tol)
    return Spectrum(top[0], top[1], bot[0], max(res_t, res_b), "iterative")


@dataclass(frozen=True)
class SpectralCertificate:
    """Machine-checkable record of a graph's spectral certification.

    Serialization is canonical (sorted keys, fixed indentation, no
    timestamps), so identical inputs produce byte-identical certificates.
    """

    version: str
    k: int
    n: int
    provenance: tuple[dict, ...]
    lambda1: float
    lambda2: float
    lambda_n: float
    spectral_gap: float
    ramanujan: bool
    bipartite: bool
    residual: float
    method: str
    bounds: tuple[dict, ...] = field(default_factory=tuple)
    expansion: dict | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "k": self.k,
            "n": self.n,
            "provenance": [dict(step) for step in self.provenance],
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "lambda_n": self.lambda_n,
            "spectral_gap": self.spectral_gap,
            "ramanujan": self.ramanujan,
            "bipartite": self.bipartite,
            "residual": self.residual,
            "method": self.method,
            "bounds": [dict(entry) for entry in self.bounds],
            "expansion": dict(self.expansion) if self.expansion is not None else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "SpectralCertificate":
        """Parse to_json output; any other shape raises ValidationError.

        The keys must be exactly the field names, each scalar field must
        hold its declared type (a bool is not an int), and provenance,
        bounds and expansion must hold the objects that to_dict copies.
        """
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"certificate is not JSON: {exc}") from exc
        if not isinstance(d, dict):
            raise ValidationError("certificate must be a JSON object")
        names = {f.name for f in fields(cls)}
        if set(d) != names:
            raise ValidationError(
                f"certificate keys: missing {sorted(names - set(d))}, "
                f"unknown {sorted(set(d) - names)}")
        for name, want in get_type_hints(cls).items():
            if want in (str, int, float, bool) and type(d[name]) is not want:
                raise ValidationError(f"certificate {name} must be of type "
                                      f"{want.__name__}, got {d[name]!r}")
        for name in ("provenance", "bounds"):
            if not (isinstance(d[name], list)
                    and all(isinstance(e, dict) for e in d[name])):
                raise ValidationError(f"certificate {name} must be a list "
                                      f"of objects")
        if not isinstance(d["expansion"], (dict, type(None))):
            raise ValidationError("certificate expansion must be an object "
                                  "or null")
        return cls(**{**d, "provenance": tuple(d["provenance"]),
                      "bounds": tuple(d["bounds"])})

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_json())
