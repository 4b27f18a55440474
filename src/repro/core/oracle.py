"""Oracle mode assignment and the Theorem 1 optimality verifier.

The *oracle assignment* picks, for each interval independently, the
feasible mode with the lowest energy — the true per-interval optimum that
Theorem 1 proves is attained by the inflection-point region policy.  This
module exists to make that claim checkable:

* :func:`oracle_modes` computes the argmin assignment directly from the
  energy functions (no inflection points involved);
* :func:`oracle_energy` is the corresponding minimum total energy;
* :func:`assignment_energy` prices any candidate assignment, so tests can
  confirm that no alternative (including random perturbations of the
  optimal one) does better — the contradiction argument of the appendix.
"""

from __future__ import annotations

import numpy as np

from ..errors import PolicyError
from .energy import ModeEnergyModel
from .envelope import envelope_array
from .policy import DROWSY, SLEEP


def oracle_modes(model: ModeEnergyModel, lengths: np.ndarray) -> np.ndarray:
    """Per-interval energy-argmin mode codes (feasibility respected).

    Ties break toward the less aggressive mode (active over drowsy over
    sleep), mirroring the paper's half-open region boundaries.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    codes = np.zeros(lengths.shape, dtype=np.uint8)
    best = model.active_energy_array(lengths)
    drowsy_ok = lengths >= model.drowsy_min_length
    if np.any(drowsy_ok):
        drowsy = model.drowsy_energy_array(lengths[drowsy_ok])
        better = drowsy < best[drowsy_ok]
        idx = np.flatnonzero(drowsy_ok)[better]
        codes[idx] = DROWSY
        best[idx] = drowsy[better]
    sleep_ok = lengths >= model.sleep_min_length
    if np.any(sleep_ok):
        sleep = model.sleep_energy_array(lengths[sleep_ok])
        better = sleep < best[sleep_ok]
        idx = np.flatnonzero(sleep_ok)[better]
        codes[idx] = SLEEP
        best[idx] = sleep[better]
    return codes


def oracle_energy(
    model: ModeEnergyModel,
    lengths: np.ndarray,
    counts: np.ndarray | None = None,
) -> float:
    """Total energy of the oracle assignment (the Figure 10 envelope sum).

    With ``counts``, ``lengths`` are profile rows of that multiplicity.
    """
    energy = envelope_array(model, np.asarray(lengths, dtype=np.float64))
    if counts is not None:
        energy = energy * counts
    return float(energy.sum())


def assignment_energy(
    model: ModeEnergyModel, lengths: np.ndarray, codes: np.ndarray
) -> float:
    """Total energy of an arbitrary per-interval mode assignment.

    Raises :class:`PolicyError` if any assignment is infeasible — an
    infeasible assignment has no defined energy, so it cannot be compared.
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.shape != lengths.shape:
        raise PolicyError(
            f"assignment shape {codes.shape} does not match lengths "
            f"shape {lengths.shape}"
        )
    if np.any((codes == DROWSY) & (lengths < model.drowsy_min_length)) or np.any(
        (codes == SLEEP) & (lengths < model.sleep_min_length)
    ):
        raise PolicyError("assignment applies a mode to an infeasible interval")
    energy = model.active_energy_array(lengths)
    mask = codes == DROWSY
    if np.any(mask):
        energy[mask] = model.drowsy_energy_array(lengths[mask])
    mask = codes == SLEEP
    if np.any(mask):
        energy[mask] = model.sleep_energy_array(lengths[mask])
    return float(energy.sum())


def is_optimal_assignment(
    model: ModeEnergyModel,
    lengths: np.ndarray,
    codes: np.ndarray,
    tolerance: float = 1e-9,
) -> bool:
    """Whether ``codes`` attains the oracle energy for ``lengths``."""
    return assignment_energy(model, lengths, codes) <= oracle_energy(
        model, lengths
    ) + tolerance
