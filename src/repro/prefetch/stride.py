"""Per-static-load stride prediction (Farkas et al. [3]).

The paper's stride-based prefetching examines access patterns *per static
load*: a reference-prediction table keyed by the load's PC holds the last
address and the last observed stride, and an access counts as a *stride
access* once the same stride has been seen at least twice for that PC.
This module implements that table and the
confirmed-twice rule; it is used both as a functional prefetcher (predict
the next address) and by the prefetchability analysis (was this access
predictable when it issued?).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConfigurationError

#: Number of identical strides required before predictions are trusted.
CONFIRMATIONS_REQUIRED = 2


@dataclass
class StrideEntry:
    """Reference-prediction-table row for one static load."""

    last_address: int
    stride: int = 0
    confirmations: int = 0

    @property
    def confident(self) -> bool:
        """Whether the stride has been seen often enough to predict."""
        return self.confirmations >= CONFIRMATIONS_REQUIRED

    def prediction(self) -> Optional[int]:
        """Predicted next address, or None when not confident."""
        if not self.confident:
            return None
        return self.last_address + self.stride


class StridePredictor:
    """Reference prediction table keyed by load PC.

    Parameters
    ----------
    capacity:
        Maximum tracked static loads; least-recently-used entries are
        evicted beyond it (None = unbounded, fine for synthetic traces
        whose static-load population is small).
    """

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigurationError(
                f"stride table capacity must be positive or None, got {capacity!r}"
            )
        self.capacity = capacity
        self._table: "OrderedDict[int, StrideEntry]" = OrderedDict()
        self.predictions = 0
        self.correct = 0

    def predict(self, pc: int) -> Optional[int]:
        """Predicted next address for ``pc`` (None when unknown)."""
        entry = self._table.get(pc)
        if entry is None:
            return None
        return entry.prediction()

    def access(self, pc: int, address: int) -> bool:
        """Observe one load and report whether it was predicted.

        Returns True when, *before* this observation, the table held a
        confident stride for ``pc`` whose prediction matches ``address``
        — the paper's criterion for a stride access.  The table is then
        trained with the observation.
        """
        entry = self._table.get(pc)
        predicted = False
        if entry is not None:
            if entry.confident:
                self.predictions += 1
                if entry.last_address + entry.stride == address:
                    predicted = True
                    self.correct += 1
            stride = address - entry.last_address
            if stride == entry.stride:
                entry.confirmations += 1
            else:
                entry.stride = stride
                entry.confirmations = 1
            entry.last_address = address
            self._table.move_to_end(pc)
        else:
            self._table[pc] = StrideEntry(last_address=address)
            if self.capacity is not None and len(self._table) > self.capacity:
                self._table.popitem(last=False)
        return predicted

    def access_many(self, pcs: np.ndarray, addrs: np.ndarray) -> np.ndarray:
        """:meth:`access` over a sequence of loads; returns the hit mask.

        Leaves the table, its LRU order and the counters exactly as the
        equivalent :meth:`access` calls would.  Which loads find their PC's
        entry is decided by one exact pass in load order, because LRU
        eviction is live on real traces.  Given those entry boundaries,
        the stride recurrence is solved per PC with array operations.
        """
        count = len(pcs)
        table = self._table
        capacity = self.capacity
        carried = {}
        for pc in np.unique(pcs).tolist():
            entry = table.get(pc)
            if entry is not None:
                carried[pc] = (entry.last_address, entry.stride, entry.confirmations)
        # Pass 1: LRU membership.  A missing PC gets a placeholder entry,
        # filled in once its final state is known.
        touch = table.move_to_end
        created = []
        for index, pc in enumerate(pcs.tolist()):
            if pc in table:
                touch(pc)
            else:
                table[pc] = None
                created.append(index)
                if capacity is not None and len(table) > capacity:
                    table.popitem(last=False)
        hits = np.zeros(count, dtype=bool)
        if not count:
            return hits

        # Pass 2: each PC's loads in order.  A load either creates an entry
        # or updates the one left by the PC's previous load (or, for its
        # first load here, the entry carried into this call).
        order = np.argsort(pcs, kind="stable")
        spcs, saddrs = pcs[order], addrs[order]
        fresh = np.zeros(count, dtype=bool)
        fresh[created] = True
        fresh = fresh[order]
        first = np.empty(count, dtype=bool)
        first[0] = True
        np.not_equal(spcs[1:], spcs[:-1], out=first[1:])
        resumed = np.flatnonzero(first & ~fresh)
        entry_state = np.array(
            [carried[pc] for pc in spcs[resumed].tolist()], dtype=np.int64
        ).reshape(-1, 3)

        prev_address = np.roll(saddrs, 1)
        prev_address[resumed] = entry_state[:, 0]
        delta = saddrs - prev_address
        stride = np.where(fresh, 0, delta)  # each entry's stride after the load
        prev_stride = np.roll(stride, 1)
        prev_stride[resumed] = entry_state[:, 1]
        repeated = ~fresh & (delta == prev_stride)
        # Confirmations count the loads since the last reset: a new entry
        # (0), a changed stride (1) or a resumed entry (its count, + 1 if
        # the stride repeats).
        base = np.where(fresh, 0, 1)
        base[resumed] = np.where(repeated[resumed], entry_state[:, 2] + 1, 1)
        position = np.arange(count)
        anchor = np.where(fresh | ~repeated | first, position, 0)
        np.maximum.accumulate(anchor, out=anchor)
        confirmations = base[anchor] + (position - anchor)
        prev_confirmations = np.roll(confirmations, 1)
        prev_confirmations[resumed] = entry_state[:, 2]
        confident = ~fresh & (prev_confirmations >= CONFIRMATIONS_REQUIRED)
        predicted = confident & repeated
        self.predictions += int(np.count_nonzero(confident))
        self.correct += int(np.count_nonzero(predicted))
        hits[order] = predicted

        # Store each PC's final state in its entry, if it is still held.
        last = np.empty(count, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        for pc, address, pc_stride, confirmed in zip(
            spcs[last].tolist(), saddrs[last].tolist(),
            stride[last].tolist(), confirmations[last].tolist(),
        ):
            if pc not in table:
                continue
            entry = table[pc]
            if entry is None:
                table[pc] = StrideEntry(address, pc_stride, confirmed)
            else:
                entry.last_address = address
                entry.stride = pc_stride
                entry.confirmations = confirmed
        return hits

    @property
    def accuracy(self) -> float:
        """Fraction of confident predictions that were correct."""
        return self.correct / self.predictions if self.predictions else 0.0

    def __len__(self) -> int:
        return len(self._table)
