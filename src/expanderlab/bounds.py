"""Explicit spectral bounds driven by prime gaps.

A k-regular graph grown from a (p+1)-regular Ramanujan base (p the largest
prime below k) by perfect-matching increments satisfies the chain

    lambda_2  <=  2*sqrt(p) + (k - p - 1)  <=  2*(1 + delta_k)*sqrt(k - 1),

with delta_k = (p' - p)/sqrt(p) the normalized prime gap at p.  The gap
models translate prime-gap theorems into lower bounds on the family's
spectral gap k - lambda_2:

    Trudgian   gap >= k*(1 - 2/(111*ln^2(k-1))) - 2*sqrt(k-1),
               unconditional for k >= 2898239;
    BHP        gap >= k - 2*(1 + k**0.025)*sqrt(k-1), built from the
               p' - p << p**0.525 prime-gap exponent, advisory: valid
               for no k, because no explicit onset is published;
    RH         gap >= k - 2*(k-1)**(1/2 + r) with
               r = ln(1 + C*ln(k-1))/ln(k-1), conditional on the Riemann
               hypothesis (C tunes the constant in the conjectured gap),
               valid for every k > 2.

gap_bounds is the one table of these models, bound_entries alone decides a
certificate's bound entries and their validity, and is_ramanujan its
Ramanujan verdict.  All logarithms are natural.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

from .errors import ValidationError
from .numtheory import PrimePlan, max_delta_in_range, prev_prime

# Onset of the unconditional prime-gap interval behind the Trudgian model.
TRUDGIAN_MIN_K = 2898239

# The six decades reproduced by delta_table's default run.
TABLE_RANGES = (
    (10, 100),
    (100, 1000),
    (1000, 10**4),
    (10**4, 10**5),
    (10**5, 10**6),
    (10**6, 10**7),
)


def lambda2_bound_chain(k: int) -> tuple[float, float]:
    """(intermediate, normalized) upper bounds for lambda_2 at regularity k.

    With p = prev_prime(k), intermediate = 2*sqrt(p) + (k - p - 1) tracks
    the construction exactly; normalized = 2*(1 + delta_k)*sqrt(k - 1)
    restates it against the Ramanujan value.  intermediate <= normalized
    always.
    """
    if k < 3:
        raise ValidationError(f"chain bounds need k >= 3, got {k}")
    theory = PrimePlan.for_target(k)
    intermediate = 2.0 * math.sqrt(theory.p) + theory.increments
    normalized = 2.0 * (1.0 + theory.delta) * math.sqrt(k - 1)
    return intermediate, normalized


def _check_k(k: float) -> None:
    if not k > 2:
        raise ValidationError(f"gap bounds need k > 2, got {k}")
    try:
        finite = math.isfinite(k)
    except OverflowError:  # an int past the float range
        finite = False
    if not finite:
        raise ValidationError("gap bounds need a k that is a finite float")


def gap_bound_trudgian(k: float) -> float:
    """k*(1 - 2/(111*ln^2(k-1))) - 2*sqrt(k-1); meaningful for k >= 2898239."""
    _check_k(k)
    return k * (1.0 - 2.0 / (111.0 * math.log(k - 1) ** 2)) - 2.0 * math.sqrt(k - 1)


def gap_bound_bhp(k: float) -> float:
    """k - 2*(1 + k**0.025)*sqrt(k - 1), from the 0.525 prime-gap exponent.

    Advisory: the underlying theorem is asymptotic, with no explicit onset,
    so gap_bounds marks it valid for no k.
    """
    _check_k(k)
    return k - 2.0 * (1.0 + k**0.025) * math.sqrt(k - 1)


def _check_rh_constant(c: float) -> None:
    if not c > 0:
        raise ValidationError(f"rh constant must be positive, got {c}")
    if not math.isfinite(c):
        raise ValidationError(f"rh constant must be finite, got {c}")


def rh_exponent(k: float, c: float = 1.0) -> float:
    """r = ln(1 + c*ln(k-1)) / ln(k-1), the conditional gap exponent."""
    _check_k(k)
    _check_rh_constant(c)
    return math.log(1.0 + c * math.log(k - 1)) / math.log(k - 1)


def gap_bound_rh(k: float, c: float = 1.0) -> float:
    """k - 2*(k-1)**(1/2 + r) with r = rh_exponent(k, c).

    Equals k - 2*(1 + c*ln(k-1))*sqrt(k-1) exactly: (k-1)**r = 1 + c*ln(k-1)
    by construction.  Conditional on the Riemann hypothesis for every k.
    """
    r = rh_exponent(k, c)
    try:
        power = (k - 1.0) ** (0.5 + r)
    except OverflowError:
        power = math.inf
    if power == math.inf:
        raise ValidationError(
            f"conditional gap bound overflows at k={k} for rh constant {c}")
    return k - 2.0 * power


def delta_table(ranges: tuple[tuple[int, int], ...] = TABLE_RANGES) -> list[dict]:
    """Worst normalized prime gap per range, ceiling-rounded to 2 decimals.

    Each row reports the exact maximum of delta_k over the range, its
    2-decimal ceiling, and the smallest k attaining it.
    """
    rows = []
    for lo, hi in ranges:
        value, witness = max_delta_in_range(lo, hi)
        rows.append({
            "lo": lo,
            "hi": hi,
            "max_delta": value,
            "delta_ceil": math.ceil(value * 100.0) / 100.0,
            "witness_k": witness,
        })
    return rows


class GapBound(NamedTuple):
    """One prime-gap model at regularity k.

    value() is the lower bound on k - lambda_2, deferred so a bound that
    overflows fails only when read; valid says whether the model's own
    theorem covers k, and advisory that it covers no k.
    """

    name: str
    value: Callable[[], float]
    valid: bool
    conditional: bool
    advisory: bool = False


def gap_bounds(k: int, rh_constant: float = 1.0) -> tuple[GapBound, ...]:
    """The Trudgian, BHP and RH models at regularity k, in that order.

    rh_constant is checked here, before any value is read.
    """
    _check_rh_constant(rh_constant)
    return (
        GapBound("trudgian", partial(gap_bound_trudgian, k),
                 k >= TRUDGIAN_MIN_K, False),
        GapBound("bhp", partial(gap_bound_bhp, k), False, False, True),
        GapBound("rh", partial(gap_bound_rh, k, rh_constant), k > 2, True),
    )


def bound_entries(k: int, p: int | None, by_matching: bool) -> list[dict]:
    """Bound lines for a k-regular graph grown from X^{p,q} (p None: no base).

    valid on a lambda_2 entry means the inequality provably applies: every
    step was a matching increment (by_matching), and for the chain entries
    p = prev_prime(k).  A gap entry needs by_matching and the validity
    gap_bounds gives its model.  Values above lambda_2 <= k are reported
    beside the capped version.
    """
    def lambda2_entry(model: str, v: float, valid: bool) -> dict:
        return {"model": model, "value": v, "value_capped": min(v, float(k)),
                "valid": valid, "conditional": False}

    entries = []
    if p is not None:
        chain = 2.0 * math.sqrt(p) + (k - p - 1)
        entries.append(lambda2_entry("lambda2_matching_chain", chain, by_matching))
    if k >= 3:
        anchored = by_matching and p == prev_prime(k)
        for name, v in zip(("intermediate", "normalized"),
                           lambda2_bound_chain(k)):
            entries.append(lambda2_entry(f"lambda2_chain_{name}", v, anchored))
        rh_constant = 1.0
        for bound in gap_bounds(k, rh_constant):
            entry = {"model": f"gap_{bound.name}", "value": bound.value(),
                     "valid": by_matching and bound.valid,
                     "conditional": bound.conditional}
            if bound.name == "rh":
                entry["rh_constant"] = rh_constant
            entries.append(entry)
    return entries


def is_ramanujan(k: int, lambda2: float, slack: float) -> bool:
    """lambda_2 <= 2*sqrt(k - 1) + slack; lambda_n never disqualifies."""
    return 2.0 * math.sqrt(k - 1) + slack - lambda2 >= 0.0
