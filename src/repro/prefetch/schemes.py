"""Prefetch-guided leakage policies (the paper's §5.2, Table 3).

With prefetchability in hand, the paper builds two implementable
approximations of the oracle:

* **Prefetch-A** (performance-first): prefetchable intervals get the
  optimal low-power mode for their length (drowsy in ``(a, b]``, sleep
  above ``b``) — the prefetch hides the exit penalty, so performance is
  untouched.  Non-prefetchable intervals stay fully active.
* **Prefetch-B** (power-first): prefetchable intervals as in A;
  non-prefetchable intervals are put into drowsy mode, accepting the
  small wake-up stall (``d3`` cycles) the drowsy literature shows to be
  tolerable.

Both are expressed as :class:`~repro.core.policy.Policy` subclasses bound
to a fixed interval population (the mask must align), so the standard
Figure 5 evaluation machinery prices them, and the wake-up stalls B
accepts are reported separately as a performance-cost estimate.  The
schemes here bind them to the rows of the population's memoised
:class:`~repro.core.intervals.IntervalProfile`, whose flag column is the
prefetchable mask.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.energy import ModeEnergyModel
from ..core.intervals import IntervalProfile
from ..core.policy import DROWSY, SLEEP, Policy
from ..core.savings import SavingsReport, evaluate_policy
from ..errors import PolicyError
from .analysis import AnnotatedIntervals


class PrefetchGuidedPolicy(Policy):
    """Mode assignment driven by a per-interval prefetchability mask.

    Parameters
    ----------
    model:
        The bound energy model (supplies the inflection points).
    prefetchable:
        Boolean mask aligned with the interval population the policy will
        be evaluated on: one flag per interval of an ``IntervalSet``, or
        one per row of an :class:`IntervalProfile`.
    power_first:
        False = Prefetch-A (non-prefetchable stays active);
        True = Prefetch-B (non-prefetchable goes drowsy when feasible).
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        prefetchable: np.ndarray,
        power_first: bool,
        name: str | None = None,
    ) -> None:
        super().__init__(model, name)
        self.prefetchable = np.asarray(prefetchable, dtype=bool)
        self.power_first = bool(power_first)
        if name is None:
            self.name = "Prefetch-B" if power_first else "Prefetch-A"

    def compact(self, intervals):
        if isinstance(intervals, IntervalProfile):
            return self, intervals
        # A per-interval mask: fold it into the profile's flag column and
        # price a copy of this policy bound to the rows.
        self._check_alignment(intervals.lengths)
        profile = IntervalProfile.compact(
            intervals.lengths, intervals.kinds, self.prefetchable
        )
        rows = copy.copy(self)
        rows.prefetchable = profile.prefetchable
        return rows, profile

    def _check_alignment(self, lengths: np.ndarray) -> None:
        if lengths.shape != self.prefetchable.shape:
            raise PolicyError(
                f"policy {self.name!r} was built for "
                f"{self.prefetchable.shape[0]} intervals but asked about "
                f"{lengths.shape[0]}"
            )

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        self._check_alignment(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        mask = self.prefetchable
        drowsy_ok = lengths > self.points.active_drowsy
        codes[mask & drowsy_ok] = DROWSY
        codes[mask & (lengths > self.points.drowsy_sleep)] = SLEEP
        if self.power_first:
            codes[~mask & drowsy_ok] = DROWSY
        return codes

    def wakeup_stall_cycles(
        self, lengths: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        """Estimated stall cycles from unhidden drowsy wake-ups.

        Prefetchable intervals exit their mode behind a prefetch (no
        stall); non-prefetchable drowsy intervals each pay the ``d3``
        ramp on their closing access.  Prefetch-A never stalls.  With
        ``counts``, ``lengths`` are profile rows of that multiplicity.
        """
        if not self.power_first:
            return 0
        return self._stalls(lengths, counts, self.points.active_drowsy)

    def _stalls(self, lengths, counts, drowsy_above: float) -> int:
        """``d3`` per non-prefetchable interval longer than ``drowsy_above``."""
        unhidden = (~self.prefetchable) & (np.asarray(lengths) > drowsy_above)
        woken = unhidden.sum() if counts is None else counts[unhidden].sum()
        return int(woken) * self.model.durations.d3


@dataclass(frozen=True)
class PrefetchSchemeReport:
    """Savings plus the performance-cost estimate of one scheme."""

    savings: SavingsReport
    wakeup_stall_cycles: int
    total_cycles: int

    @property
    def stall_overhead(self) -> float:
        """Wake-up stalls as a fraction of all interval cycles."""
        return (
            self.wakeup_stall_cycles / self.total_cycles if self.total_cycles else 0.0
        )


def evaluate_prefetch_scheme(
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
    power_first: bool,
    dead_aware: bool = False,
) -> PrefetchSchemeReport:
    """Price Prefetch-A (``power_first=False``) or Prefetch-B over a run."""
    profile = annotated.profile()
    policy = PrefetchGuidedPolicy(model, profile.prefetchable, power_first)
    savings = evaluate_policy(policy, profile, dead_aware=dead_aware)
    return PrefetchSchemeReport(
        savings=savings,
        wakeup_stall_cycles=policy.wakeup_stall_cycles(
            profile.lengths, profile.counts
        ),
        total_cycles=profile.total_cycles,
    )


@dataclass(frozen=True)
class PrefetchabilityRow:
    """One Figure 9 range: interval counts by prefetch class."""

    label: str
    total: int
    nextline: int
    stride: int

    @property
    def non_prefetchable(self) -> int:
        """Intervals neither scheme can cover."""
        return self.total - self.nextline - self.stride


def prefetchability_breakdown(
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
) -> List[PrefetchabilityRow]:
    """The Figure 9 histogram: ranges (0, a], (a, b], (b, inf).

    Counts are interval counts (the paper's prefetchability is "the
    number of prefetchable intervals over the total number of
    intervals").
    """
    lengths = annotated.intervals.lengths
    a = model.durations.drowsy_overhead
    from ..core.inflection import solve_sleep_drowsy_point

    b = solve_sleep_drowsy_point(model)
    ranges = [
        (f"(0, {a}]", lengths <= a),
        (f"({a}, {b:.0f}]", (lengths > a) & (lengths <= b)),
        (f"({b:.0f}, +inf)", lengths > b),
    ]
    rows = []
    for label, mask in ranges:
        rows.append(
            PrefetchabilityRow(
                label=label,
                total=int(mask.sum()),
                nextline=int((annotated.nextline & mask).sum()),
                stride=int((annotated.stride & mask).sum()),
            )
        )
    return rows


def prefetchability_summary(
    annotated: AnnotatedIntervals, model: ModeEnergyModel
) -> Dict[str, float]:
    """Total P-NL / P-stride fractions (the Figure 9 headline numbers)."""
    total = len(annotated.intervals)
    if not total:
        return {"nextline": 0.0, "stride": 0.0, "total": 0.0}
    nl = float(annotated.nextline.sum()) / total
    st = float(annotated.stride.sum()) / total
    return {"nextline": nl, "stride": st, "total": nl + st}


class PrefetchTradeoff(PrefetchGuidedPolicy):
    """The A-to-B continuum the paper leaves as future work (§5.2 end).

    Prefetch-A and Prefetch-B differ only in what happens to
    non-prefetchable intervals: A keeps them active (no stalls), B puts
    them all into drowsy mode (maximum savings, one ``d3`` stall each).
    The best design point "is somewhere in between": this policy drowses
    a non-prefetchable interval only when it is longer than
    ``np_threshold`` cycles, so short busy intervals — the ones whose
    wake-up stalls recur most often — stay active.

    ``np_threshold = a`` reproduces Prefetch-B; ``np_threshold = inf``
    reproduces Prefetch-A.
    """

    def __init__(
        self,
        model: ModeEnergyModel,
        prefetchable: np.ndarray,
        np_threshold: float,
        name: str | None = None,
    ) -> None:
        super().__init__(model, prefetchable, power_first=True, name=name)
        if np_threshold < self.points.active_drowsy:
            raise PolicyError(
                f"NP drowsy threshold {np_threshold!r} is below the "
                f"active-drowsy point {self.points.active_drowsy}"
            )
        self.np_threshold = float(np_threshold)
        if name is None:
            self.name = f"Prefetch-T({np_threshold:g})"

    def modes(self, lengths: np.ndarray) -> np.ndarray:
        lengths = np.asarray(lengths)
        self._check_alignment(lengths)
        codes = np.zeros(lengths.shape, dtype=np.uint8)
        mask = self.prefetchable
        codes[mask & (lengths > self.points.active_drowsy)] = DROWSY
        codes[mask & (lengths > self.points.drowsy_sleep)] = SLEEP
        codes[~mask & (lengths > self.np_threshold)] = DROWSY
        return codes

    def wakeup_stall_cycles(
        self, lengths: np.ndarray, counts: np.ndarray | None = None
    ) -> int:
        return self._stalls(lengths, counts, self.np_threshold)


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the Prefetch-A..B power/performance frontier."""

    np_threshold: float
    saving_fraction: float
    stall_overhead: float


def prefetch_tradeoff_curve(
    annotated: AnnotatedIntervals,
    model: ModeEnergyModel,
    thresholds: "List[float]",
) -> "List[TradeoffPoint]":
    """Sweep the NP drowsy threshold from B-like to A-like.

    Returns one :class:`TradeoffPoint` per threshold: as the threshold
    rises, wake-up stalls fall monotonically and so do the savings — the
    power/performance frontier the paper's §5.2 sketches.
    """
    points = []
    profile = annotated.profile()
    total = profile.total_cycles
    for threshold in thresholds:
        policy = PrefetchTradeoff(model, profile.prefetchable, threshold)
        report = evaluate_policy(policy, profile)
        stalls = policy.wakeup_stall_cycles(profile.lengths, profile.counts)
        points.append(
            TradeoffPoint(
                np_threshold=float(threshold),
                saving_fraction=report.saving_fraction,
                stall_overhead=stalls / total if total else 0.0,
            )
        )
    return points
