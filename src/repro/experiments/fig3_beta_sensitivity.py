"""Figure 3: join probability as a function of the AP's maximum response
time βmax, for four channel fractions.

Paper setting: D = 500 ms, t = 4 s, βmin = 500 ms, w = 7 ms, c = 100 ms,
h = 10 %, f_i ∈ {0.10, 0.25, 0.40, 0.50}.  The curves must be
non-increasing in βmax and ordered by fraction — the motivation for lease
caching and reduced timeouts (anything that shrinks βmax).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.reporting import format_series
from ..model.join_model import join_probability
from .api import ExperimentSpec, register
from .fig2_join_validation import PAPER_PARAMS, TIME_IN_RANGE_S

__all__ = ["Fig3Spec", "Fig3Result", "run_spec"]


@dataclass
class Fig3Result:
    """The Fig. 3 curves, keyed by channel fraction."""
    beta_maxes_s: List[float]
    curves: Dict[float, List[float]]  # fraction -> p(join) per beta_max

    def render(self) -> str:
        """Render the result as printable text."""
        return "\n".join(
            format_series(
                f"Fig3 f_i={fraction:g}", self.beta_maxes_s, ps, "bmax(s)", "p(join)"
            )
            for fraction, ps in sorted(self.curves.items())
        )


@dataclass(frozen=True)
class Fig3Spec(ExperimentSpec):
    """Spec for Figure 3 (pure analytic model; ``seeds``/``town`` unused)."""

    fractions: Tuple[float, ...] = (0.10, 0.25, 0.40, 0.50)
    beta_maxes_s: Tuple[float, ...] = (
        0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0,
    )
    time_in_range_s: float = TIME_IN_RANGE_S


@register("fig3", Fig3Spec, summary="join probability vs beta_max (analytic)")
def run_spec(spec: Fig3Spec) -> Fig3Result:
    curves: Dict[float, List[float]] = {}
    for fraction in spec.fractions:
        curves[fraction] = [
            join_probability(
                PAPER_PARAMS.with_beta_max(bm), fraction, spec.time_in_range_s
            )
            for bm in spec.beta_maxes_s
        ]
    return Fig3Result(beta_maxes_s=list(spec.beta_maxes_s), curves=curves)
