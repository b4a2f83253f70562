"""Rule 4: choosing the subrange size (Section 5.2, Figures 13-14).

The total cost (Equation 6) is convex in the subrange exponent ``alpha``; the
paper derives the optimum

.. math::

    \\alpha = \\tfrac{1}{2}\\left[\\log_2 |V| - \\log_2 k + Const\\right],
    \\qquad
    Const = \\log_2\\!\\big(6 C_{global} + 31 C_{shfl}\\big) - \\log_2\\!\\big(6 C_{global}\\big)
            \\;(+\\,\\Delta')

and sets ``Const = 3`` after performance tuning.  This module provides:

* :func:`optimal_alpha` — the Rule-4 closed form with the paper's constant,
* :func:`optimal_alpha_exact` — the same formula with ``Const`` computed from
  the device's latency constants (no empirical Δ′ correction),
* :func:`oracle_alpha` — grid search of the analytic cost model (or of a
  user-supplied measurement callable) over all feasible ``alpha``,
* :func:`alpha_sweep` / :func:`is_convex_in_alpha` — the Figure 13 sweep and
  its convexity check.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.analysis.theory import CostParameters, total_time
from repro.errors import ConfigurationError

__all__ = [
    "rule4_const",
    "optimal_alpha",
    "optimal_alpha_exact",
    "oracle_alpha",
    "alpha_sweep",
    "is_convex_in_alpha",
]

#: The paper's empirically tuned Rule-4 constant.
PAPER_CONST = 3.0


def rule4_const(params: CostParameters = CostParameters()) -> float:
    """The analytic part of the Rule-4 constant (no Δ′ correction)."""
    return float(
        np.log2(6.0 * params.c_global + 31.0 * params.c_shfl) - np.log2(6.0 * params.c_global)
    )


def _check_nk(n: int, k: int) -> None:
    if n < 1 or k < 1:
        raise ConfigurationError("|V| and k must be >= 1")
    if k > n:
        raise ConfigurationError(f"k={k} must not exceed |V|={n}")


def optimal_alpha(n: int, k: int, const: float = PAPER_CONST) -> int:
    """Rule 4 with a given constant (default: the paper's tuned value 3).

    The result is rounded to the nearest integer and clipped to the feasible
    range ``[0, log2(n)]``.
    """
    _check_nk(n, k)
    raw = 0.5 * (math.log2(n) - math.log2(k) + const)
    hi = int(n).bit_length() - 1  # floor(log2(n))
    return min(max(int(round(raw)), 0), hi)


def optimal_alpha_exact(
    n: int, k: int, params: CostParameters = CostParameters()
) -> int:
    """Rule 4 with the constant derived from the device latency constants."""
    return optimal_alpha(n, k, const=rule4_const(params))


def alpha_sweep(
    n: int,
    k: int,
    alphas: Optional[Iterable[int]] = None,
    params: CostParameters = CostParameters(),
    evaluate: Optional[Callable[[int], float]] = None,
) -> Dict[int, float]:
    """Cost of every candidate ``alpha`` (Figure 13's x-axis sweep).

    ``evaluate`` may be supplied to measure real runs (e.g. wall-clock time of
    the pipeline at each alpha); by default the analytic Equation-6 cost is
    used.
    """
    _check_nk(n, k)
    if alphas is None:
        alphas = range(0, int(np.floor(np.log2(n))) + 1)
    fn = evaluate if evaluate is not None else (lambda a: total_time(n, k, a, params))
    return {int(a): float(fn(int(a))) for a in alphas}


def oracle_alpha(
    n: int,
    k: int,
    params: CostParameters = CostParameters(),
    evaluate: Optional[Callable[[int], float]] = None,
    alphas: Optional[Iterable[int]] = None,
) -> int:
    """The alpha with the lowest (analytic or measured) cost."""
    sweep = alpha_sweep(n, k, alphas=alphas, params=params, evaluate=evaluate)
    return min(sweep, key=sweep.get)


def is_convex_in_alpha(costs: Dict[int, float], tolerance: float = 1e-9) -> bool:
    """Check discrete convexity of an alpha → cost mapping.

    Convexity here means the successive differences are non-decreasing, which
    is the discrete analogue of the positive second derivative of Equation 8.
    """
    if len(costs) < 3:
        return True
    alphas = sorted(costs)
    values = [costs[a] for a in alphas]
    diffs = [
        (values[i + 1] - values[i]) / (alphas[i + 1] - alphas[i])
        for i in range(len(values) - 1)
    ]
    return all(diffs[i + 1] >= diffs[i] - tolerance for i in range(len(diffs) - 1))
