"""Compact profile pricing equals interval-by-interval pricing.

Every policy is evaluated over an :class:`IntervalProfile` — the
population's distinct (length, kind, prefetchable) rows with a count
each.  These tests rebuild the Figure 5 accumulation one interval at a
time, from the scalar energy equations and the policies' documented mode
rules, and require the profile path to agree: interval counts, cycles
and stall cycles exactly, energies to 1e-9 relative.
"""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import ModeEnergyModel
from repro.core.intervals import IntervalKind, IntervalProfile, IntervalSet
from repro.core.modes import Mode
from repro.core.policy import DecaySleep, OptDrowsy, OptHybrid, OptSleep
from repro.core.savings import evaluate_policy
from repro.power.technology import paper_nodes
from repro.prefetch.analysis import AnnotatedIntervals
from repro.prefetch.schemes import (
    PrefetchTradeoff,
    evaluate_prefetch_scheme,
    prefetch_tradeoff_curve,
)

MODELS = {nm: ModeEnergyModel(node) for nm, node in paper_nodes().items()}

#: Lengths on and around every threshold the policies below use, so
#: populations repeat lengths and straddle each mode boundary.
EDGE_LENGTHS = [1, 5, 6, 7, 36, 37, 38, 100, 1056, 1057, 1058, 2000, 2001,
                9_999, 10_000, 10_001, 10_036, 10_037, 10_038, 103_084,
                103_085, 250_000]

interval_strategy = st.tuples(
    st.one_of(st.sampled_from(EDGE_LENGTHS), st.integers(1, 400_000)),
    st.sampled_from([int(kind) for kind in IntervalKind]),
    st.booleans(),
)
population_strategy = st.lists(interval_strategy, min_size=1, max_size=150)


def annotated_population(rows):
    lengths = np.array([length for length, _, _ in rows], dtype=np.int64)
    kinds = np.array([kind for _, kind, _ in rows], dtype=np.uint8)
    flags = np.array([flag for _, _, flag in rows], dtype=bool)
    none = np.zeros(len(rows), dtype=bool)
    # Route the flags through nextline; prefetchable = nextline|stride|tail.
    return AnnotatedIntervals(IntervalSet(lengths, kinds), flags, none, none)


# ----------------------------------------------------------------------
# The per-interval reference
# ----------------------------------------------------------------------
def reference_mode(policy, length, prefetchable):
    """The mode each policy documents for one interval."""
    a = policy.points.active_drowsy
    if isinstance(policy, PrefetchTradeoff):
        if prefetchable:
            return reference_mode(OptHybrid(policy.model), length, True)
        return Mode.DROWSY if length > policy.np_threshold else Mode.ACTIVE
    if isinstance(policy, DecaySleep):
        floor = policy.decay_interval + policy.model.sleep_min_length
        return Mode.SLEEP if length >= floor else Mode.ACTIVE
    if isinstance(policy, OptSleep):
        return Mode.SLEEP if length > policy.threshold else Mode.ACTIVE
    if isinstance(policy, OptHybrid):
        if length > policy.sleep_threshold:
            return Mode.SLEEP
        return Mode.DROWSY if length > a else Mode.ACTIVE
    if isinstance(policy, OptDrowsy):
        return Mode.DROWSY if length > a else Mode.ACTIVE
    raise AssertionError(f"no reference for {policy!r}")


def reference_prefetch_mode(model, length, prefetchable, power_first):
    """Prefetch-A (``power_first=False``) / Prefetch-B mode of one interval."""
    if prefetchable:
        return reference_mode(OptHybrid(model), length, True)
    drowsy = power_first and length > model.durations.drowsy_overhead
    return Mode.DROWSY if drowsy else Mode.ACTIVE


def reference_energy(policy, mode, length, kind, dead_aware):
    """Equations 1-2 for one interval, with the §3.1 dead-aware discounts."""
    model = policy.model
    if mode is Mode.ACTIVE:
        return model.active_energy(length)
    if mode is Mode.DROWSY:
        return model.drowsy_energy(length)
    if isinstance(policy, DecaySleep):
        energy = model.decay_sleep_energy(length, policy.decay_interval)
    else:
        energy = model.sleep_energy(length)
    if dead_aware and kind != IntervalKind.NORMAL:
        energy -= model.refetch_energy
    if dead_aware and kind == IntervalKind.COLD:
        energy -= 0.5 * (model.p_active - model.p_sleep) * model.durations.s1
    return energy


def reference_report(policy, rows, dead_aware, mode_of):
    """Per-mode (count, cycles, energy), total energy and wake-up stalls."""
    per_mode = {}
    total = 0.0
    stalls = 0
    for length, kind, prefetchable in rows:
        mode = mode_of(length, prefetchable)
        energy = reference_energy(policy, mode, length, kind, dead_aware)
        count, cycles, mode_energy = per_mode.get(mode, (0, 0, 0.0))
        per_mode[mode] = (count + 1, cycles + length, mode_energy + energy)
        total += energy
        if mode is Mode.DROWSY and not prefetchable:
            stalls += policy.model.durations.d3
    return per_mode, total, stalls


def assert_matches(report, reference, rows):
    per_mode, total, _ = reference
    assert set(report.breakdown) == set(per_mode)
    for mode, (count, cycles, energy) in per_mode.items():
        entry = report.breakdown[mode]
        assert entry.interval_count == count
        assert entry.cycles == cycles
        assert entry.energy == pytest.approx(energy, rel=1e-9, abs=1e-9)
    assert report.baseline_energy == float(sum(length for length, _, _ in rows))
    assert report.policy_energy == pytest.approx(total, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Equivalence
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    rows=population_strategy,
    feature_nm=st.sampled_from([70, 180]),
    dead_aware=st.booleans(),
)
def test_core_policies_match_per_interval_reference(rows, feature_nm, dead_aware):
    model = MODELS[feature_nm]
    b = OptHybrid(model).sleep_threshold
    policies = [
        OptDrowsy(model),
        OptSleep(model),
        OptSleep(model, threshold=10_000),
        DecaySleep(model, 10_000, counter_overhead=0.01),
        OptHybrid(model),
        OptHybrid(model, sleep_threshold=2 * b),
    ]
    intervals = annotated_population(rows).intervals
    for policy in policies:
        report = evaluate_policy(policy, intervals, dead_aware=dead_aware)
        reference = reference_report(
            policy, rows, dead_aware,
            lambda length, flag, p=policy: reference_mode(p, length, flag),
        )
        assert_matches(report, reference, rows)
        total_cycles = sum(length for length, _, _ in rows)
        assert report.overhead_energy == pytest.approx(
            policy.overhead_power_fraction * total_cycles, rel=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    rows=population_strategy,
    feature_nm=st.sampled_from([70, 180]),
    dead_aware=st.booleans(),
)
def test_prefetch_schemes_match_per_interval_reference(rows, feature_nm, dead_aware):
    model = MODELS[feature_nm]
    annotated = annotated_population(rows)
    total_cycles = sum(length for length, _, _ in rows)
    for power_first in (False, True):
        scheme = evaluate_prefetch_scheme(
            annotated, model, power_first=power_first, dead_aware=dead_aware
        )
        reference = reference_report(
            OptHybrid(model), rows, dead_aware,
            lambda length, flag, first=power_first: reference_prefetch_mode(
                model, length, flag, first
            ),
        )
        assert_matches(scheme.savings, reference, rows)
        assert scheme.wakeup_stall_cycles == (reference[2] if power_first else 0)
        assert scheme.total_cycles == total_cycles


@settings(max_examples=60, deadline=None)
@given(
    rows=population_strategy,
    feature_nm=st.sampled_from([70, 180]),
    dead_aware=st.booleans(),
    np_threshold=st.sampled_from([6, 100, 1057, 10_000, math.inf]),
)
def test_prefetch_tradeoff_matches_per_interval_reference(
    rows, feature_nm, dead_aware, np_threshold
):
    model = MODELS[feature_nm]
    annotated = annotated_population(rows)
    # The policy bound to the per-interval mask, priced over the raw set.
    policy = PrefetchTradeoff(model, annotated.prefetchable, np_threshold)
    report = evaluate_policy(policy, annotated.intervals, dead_aware=dead_aware)
    reference = reference_report(
        policy, rows, dead_aware,
        lambda length, flag: reference_mode(policy, length, flag),
    )
    assert_matches(report, reference, rows)
    assert policy.wakeup_stall_cycles(annotated.intervals.lengths) == reference[2]

    total_cycles = sum(length for length, _, _ in rows)
    (point,) = prefetch_tradeoff_curve(annotated, model, [np_threshold])
    plain = reference_report(
        policy, rows, False,
        lambda length, flag: reference_mode(policy, length, flag),
    )
    assert point.stall_overhead == plain[2] / total_cycles
    assert point.saving_fraction == pytest.approx(
        1.0 - plain[1] / total_cycles, rel=1e-9, abs=1e-12
    )


# ----------------------------------------------------------------------
# The profile itself
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(rows=population_strategy)
def test_profile_rows_expand_to_the_population(rows):
    annotated = annotated_population(rows)
    for profile, flags in (
        (annotated.intervals.profile(), False),
        (annotated.profile(), True),
    ):
        assert isinstance(profile, IntervalProfile)
        assert int(profile.counts.sum()) == len(rows)
        assert profile.total_cycles == annotated.intervals.total_cycles
        expanded = sorted(
            zip(
                np.repeat(profile.lengths, profile.counts).tolist(),
                np.repeat(profile.kinds, profile.counts).tolist(),
                np.repeat(
                    profile.prefetchable if flags else np.zeros(len(profile), bool),
                    profile.counts,
                ).tolist(),
            )
        )
        assert expanded == sorted(
            (length, kind, flag and flags) for length, kind, flag in rows
        )
        keys = list(zip(profile.lengths.tolist(), profile.kinds.tolist()))
        if flags:
            keys = list(zip(keys, profile.prefetchable.tolist()))
        assert len(set(keys)) == len(profile), "rows must be distinct"


def test_profile_is_memoised_and_never_pickled():
    annotated = annotated_population(
        [(7, 0, True), (7, 0, True), (2000, 1, False), (9, 2, False)]
    )
    before = pickle.dumps(annotated, protocol=pickle.HIGHEST_PROTOCOL)
    assert annotated.profile() is annotated.profile()
    assert annotated.intervals.profile() is annotated.intervals.profile()
    assert len(annotated.profile()) == 3
    # Cached payloads keep their exact bytes; the profile is rebuilt on load.
    assert pickle.dumps(annotated, protocol=pickle.HIGHEST_PROTOCOL) == before
    restored = pickle.loads(before)
    assert np.array_equal(
        restored.profile().counts, annotated.profile().counts
    )
