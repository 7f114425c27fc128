"""Critical disorder thresholds from transcendental fixed points.

Localization criteria compared here all take the form

    lambda > a * ln(lambda),     a = coupling-entropy coefficient,

whose relevant solution is the larger root of lambda = a ln lambda (it exists
iff a > e; at a = e the line is tangent at lambda = e).  The coefficient a
distinguishes the criteria:

    a = mu_d * e                 connective-constant criterion (lambda_and)
    a = sqrt(2d(2d-1)) * e       two-step memory criterion (lambda_two_step)
    a = 2d * e                   one-step memory criterion (lambda_intermediate)
    a = 4d * e                   a-priori-bound-only criterion (lambda_ag)

Since mu_d < sqrt(2d(2d-1)) < 2d < 4d and the root grows with a, the
thresholds are strictly ordered.  Supporting rate functions:

    gamma(lambda)   = e ln(lambda) / lambda            (decay fugacity)
    Gamma(s)        = 1 / ((1-s) lambda^s)             on s in (0, 1)
    s_crit(lambda)  = 1 - 1/ln(lambda)                 minimizer of Gamma
    m_eps(lambda)   = -ln gamma(lambda) - ln(mu + eps) (proved decay rate)

Gamma attains min Gamma = gamma(lambda) at s_crit when lambda > e; for
lambda <= e it is strictly increasing on (0, 1) and the infimum 1 at s -> 0+
is not attained.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

E = math.e

#: connective-constant upper bounds mu_d^*, d = 2..6 (rounded upward)
DEFAULT_MU_UPPER = {2: 2.68, 3: 4.72, 4: 6.81, 5: 8.86, 6: 10.89}

_RESIDUAL_TOL = 1e-12
_MAX_ITER = 200


class NoRootError(Exception):
    """lambda = a ln(lambda) has no solution above e (needs a > e)."""


def solve_fixed_point(a: float) -> float:
    """Larger root of lambda = a * ln(lambda), for finite a > e.

    Plain Newton on f(lambda) = lambda - a ln(lambda) from lambda_0 = a^2.
    The start lies right of the root, where f is increasing and convex, so
    every step lands right of the root again and the iterates descend
    monotonically onto it.  Past a ~ 8e17 the first step from a^2 cancels
    to a or below (and a^2 overflows past a ~ 1.3e154); such a step
    restarts at 2a ln(a), capped at the float maximum, which cannot cancel
    and lies right of the root too: f(2a ln a) = a (ln a - ln 2 - ln ln a)
    > 0.  Stops at |f(lambda)| < 1e-12 or at a step that leaves lambda
    unchanged, within _MAX_ITER steps, else raises ArithmeticError.  A root
    past the float range (a ~ 2.5e305) raises NoRootError.
    """
    if not (E < a < math.inf):
        raise NoRootError(f"need finite a > e = {E:.12f}, got a = {a}")
    top = min(2.0 * a * math.log(a), sys.float_info.max)
    if top - a * math.log(top) < 0:
        raise NoRootError(f"the root for a = {a} exceeds the float range")
    lam = a * a
    for _ in range(_MAX_ITER):
        r = lam - a * math.log(lam)
        if abs(r) < _RESIDUAL_TOL:
            return lam
        step = lam - r / (1.0 - a / lam)
        if step == lam:  # |f| is below what lam's ulp resolves
            return lam
        lam = step if step > a else top
    raise ArithmeticError(f"fixed point did not converge: a={a}, residual={r}")


# --- rate functions ---


def gamma_fn(lam: float) -> float:
    """gamma(lambda) = e ln(lambda)/lambda; strictly decreasing for lambda > e,
    gamma(e) = 1."""
    if lam < E:
        raise ValueError(f"gamma(lambda) needs lambda >= e, got {lam}")
    return E * math.log(lam) / lam


def _check_s(s: float) -> None:
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0, 1), got {s}")


def gamma_big(s: float, lam: float) -> float:
    """Gamma(s) = 1/((1-s) lambda^s)."""
    _check_s(s)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return 1.0 / ((1.0 - s) * lam**s)


def s_crit(lam: float) -> float:
    """Minimizer 1 - 1/ln(lambda) of Gamma(s); needs lambda > e."""
    if lam <= E:
        raise ValueError(f"s_crit needs lambda > e, got {lam}")
    return 1.0 - 1.0 / math.log(lam)


class MassValue(NamedTuple):
    value: float
    positive: bool  # warning flag: nonpositive mass proves nothing


def mass(lam: float, mu_upper: float, eps: float) -> MassValue:
    """Proved decay rate m_eps = -ln gamma(lambda) - ln(mu + eps).

    Positive exactly when gamma(lambda) * (mu + eps) < 1; returned with a
    flag instead of raising so callers can report 'criterion not met'.
    """
    if mu_upper <= 0 or eps < 0:
        raise ValueError("mu_upper must be > 0 and eps >= 0")
    m = -math.log(gamma_fn(lam)) - math.log(mu_upper + eps)
    return MassValue(value=m, positive=m > 0.0)


# --- threshold table ---


def round_up_last_digit(x: float) -> float:
    """Smallest k / 10 whose float is >= x (reporting contract: thresholds
    are always rounded against safety margins, never below)."""
    # every k / 10 below the midpoint of x and the float under it rounds
    # below x: start at the floor of ten times that midpoint, in exact
    # integers, and settle k on the floats that are actually returned
    n1, d1 = x.as_integer_ratio()
    n2, d2 = math.nextafter(x, -math.inf).as_integer_ratio()
    k = 5 * (n1 * d2 + n2 * d1) // (d1 * d2)
    while k / 10 < x:
        k += 1
    return k / 10


@dataclass
class CriterionReport:
    """All four thresholds for one dimension, raw roots plus residuals."""

    dimension: int
    mu_upper: float
    lambda_and: float
    lambda_two_step: float
    lambda_intermediate: float
    lambda_ag: float
    residuals: dict[str, float] = field(default_factory=dict)

    def rounded(self, name: str) -> float:
        return round_up_last_digit(getattr(self, name))

    def to_json_dict(self) -> dict:
        out = {
            "dimension": self.dimension,
            "mu_upper": self.mu_upper,
            "residuals": dict(self.residuals),
        }
        for name in ("lambda_and", "lambda_two_step", "lambda_intermediate",
                     "lambda_ag"):
            out[name] = getattr(self, name)
            out[name + "_rounded"] = self.rounded(name)
        return out


def criterion_report(dimension: int, mu_upper: float) -> CriterionReport:
    """Solve all four criteria for one dimension."""
    if dimension < 1:
        raise ValueError("dimension must be >= 1")
    if mu_upper <= 1.0:
        # a = mu e <= e: the connective criterion has no root
        raise NoRootError(f"mu_upper must exceed 1, got {mu_upper}")
    d = dimension
    coeffs = {
        "lambda_and": mu_upper * E,
        "lambda_two_step": math.sqrt(2 * d * (2 * d - 1)) * E,
        "lambda_intermediate": 2 * d * E,
        "lambda_ag": 4 * d * E,
    }
    roots = {}
    residuals = {}
    for name, a in coeffs.items():
        lam = solve_fixed_point(a)
        roots[name] = lam
        residuals[name] = abs(lam - a * math.log(lam))
    return CriterionReport(dimension=d, mu_upper=mu_upper,
                           residuals=residuals, **roots)


def table_one(mu_uppers: Optional[dict[int, float]] = None) -> list[CriterionReport]:
    """Threshold table over dimensions, default mu_d^* for d = 2..6."""
    if mu_uppers is None:
        mu_uppers = DEFAULT_MU_UPPER
    return [criterion_report(d, mu_uppers[d]) for d in sorted(mu_uppers)]


def table_to_csv(reports: list[CriterionReport]) -> str:
    """Threshold table as CSV: quantity rows, dimension columns; lambda rows
    carry the rounded-up values."""
    dims = [str(r.dimension) for r in reports]
    lines = ["quantity," + ",".join(dims)]
    lines.append("mu_upper," + ",".join(f"{r.mu_upper:g}" for r in reports))
    for name in ("lambda_and", "lambda_two_step", "lambda_intermediate",
                 "lambda_ag"):
        lines.append(name + "," + ",".join(f"{r.rounded(name):.1f}" for r in reports))
    return "\n".join(lines) + "\n"
