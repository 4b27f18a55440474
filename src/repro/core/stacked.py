"""Per-node evaluation of the oracle trio over one interval population.

The technology-scaling experiments (Table 2, the sweep grid) evaluate the
same three oracle schemes — OPT-Drowsy, OPT-Sleep, OPT-Hybrid — over one
interval population at every technology node.  The population is
compacted once into its :class:`~repro.core.intervals.IntervalProfile`
(memoised on the set), and every (scheme, node) cell is one
:func:`~repro.core.savings.evaluate_policy` over those few distinct rows,
so the grid shares the per-policy pricing core and equals the per-node
loop exactly.  The test suite pins this equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import IntervalError, PolicyError
from .energy import ModeEnergyModel
from .intervals import IntervalProfile, IntervalSet, profile_of
from .policy import OptDrowsy, OptHybrid, OptSleep
from .savings import evaluate_policy

#: Scheme rows produced by :func:`stacked_trio_savings`, in order.
TRIO_SCHEMES: Tuple[str, str, str] = ("OPT-Drowsy", "OPT-Sleep", "OPT-Hybrid")


@dataclass(frozen=True)
class StackedSavings:
    """Savings of the oracle trio across technology nodes.

    ``savings[i, j]`` is scheme ``schemes[i]`` at node ``feature_nms[j]``,
    as a leakage-saving fraction in [0, 1] (matching
    ``evaluate_policy(...).saving_fraction``).
    """

    feature_nms: Tuple[int, ...]
    schemes: Tuple[str, ...]
    savings: np.ndarray

    def saving(self, scheme: str, feature_nm: int) -> float:
        """One cell, by scheme name and node feature size."""
        return float(
            self.savings[self.schemes.index(scheme),
                         self.feature_nms.index(feature_nm)]
        )

    def by_scheme(self, feature_nm: int) -> Dict[str, float]:
        """All schemes' savings at one node."""
        column = self.feature_nms.index(feature_nm)
        return {
            scheme: float(self.savings[row, column])
            for row, scheme in enumerate(self.schemes)
        }


def stacked_trio_savings(
    models: Sequence[ModeEnergyModel],
    intervals: IntervalSet | IntervalProfile,
) -> np.ndarray:
    """Saving fractions of the oracle trio, all ``models`` at once.

    Returns a ``(3, len(models))`` array ordered like
    :data:`TRIO_SCHEMES`, equal to calling
    :func:`~repro.core.savings.evaluate_policy` with ``OptDrowsy`` /
    ``OptSleep`` / ``OptHybrid`` per model.
    """
    if not len(intervals):
        raise IntervalError("cannot evaluate policies over zero intervals")
    if not len(models):
        raise PolicyError("stacked evaluation needs at least one energy model")
    profile = profile_of(intervals)
    savings = np.empty((len(TRIO_SCHEMES), len(models)))
    for column, model in enumerate(models):
        trio = (
            OptDrowsy(model, name="OPT-Drowsy"),
            OptSleep(model, name="OPT-Sleep"),
            OptHybrid(model),
        )
        for row, policy in enumerate(trio):
            savings[row, column] = evaluate_policy(policy, profile).saving_fraction
    return savings


def stacked_savings_for_nodes(
    models: Dict[int, ModeEnergyModel],
    intervals: IntervalSet,
) -> StackedSavings:
    """Keyed convenience wrapper: ``{feature_nm: model}`` in, cells out."""
    feature_nms = tuple(models.keys())
    ordered = [models[nm] for nm in feature_nms]
    return StackedSavings(
        feature_nms=feature_nms,
        schemes=TRIO_SCHEMES,
        savings=stacked_trio_savings(ordered, intervals),
    )
