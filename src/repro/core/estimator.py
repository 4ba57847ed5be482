"""Per-query confidence information.

Section 5 observes that the Count-Min confidence intervals apply *within each
localized partition*: because the frequency mass ``N_i`` absorbed by each
partition is known, the additive error bound ``e * N_i / w_i`` (Equation 1)
and the failure probability ``e^-d`` can be reported per query, and they
differ across partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sketches.countmin import CountMinSketch


@dataclass(frozen=True)
class ConfidenceInterval:
    """A one-sided Count-Min confidence statement for a point estimate.

    With probability at least ``1 - failure_probability`` the true frequency
    ``f`` satisfies ``lower <= f <= estimate`` where
    ``lower = max(0, estimate - additive_bound)`` (Count-Min never
    underestimates).
    """

    estimate: float
    additive_bound: float
    failure_probability: float

    @property
    def lower(self) -> float:
        return max(0.0, self.estimate - self.additive_bound)

    @property
    def upper(self) -> float:
        return self.estimate

    def contains(self, true_frequency: float) -> bool:
        """Whether the stated interval contains ``true_frequency``."""
        return self.lower <= true_frequency <= self.upper


def countmin_confidence(sketch: CountMinSketch, estimate: float) -> ConfidenceInterval:
    """Build the Equation-1 confidence interval for an estimate from ``sketch``."""
    return ConfidenceInterval(
        estimate=float(estimate),
        additive_bound=math.e * sketch.total_count / sketch.width,
        failure_probability=math.exp(-sketch.depth),
    )


def intervals_from_arrays(
    estimates: np.ndarray, bounds: np.ndarray, failures: np.ndarray
) -> List[ConfidenceInterval]:
    """Materialize typed intervals from parallel estimate/bound/failure columns.

    The compiled query plan answers confidence batches as three aligned
    arrays (one routing pass, constants gathered by partition slot); this is
    the single place they become :class:`ConfidenceInterval` objects.
    """
    return [
        ConfidenceInterval(
            estimate=float(estimate),
            additive_bound=float(bound),
            failure_probability=float(failure),
        )
        for estimate, bound, failure in zip(estimates, bounds, failures)
    ]
