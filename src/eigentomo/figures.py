"""Report grids: cost-function comparison and per-basis entropy tables.

The cost grid perturbs the dominant eigenstate of a mixed state by seeded
random unitary rotations of varying strength, then tabulates five candidate
costs (l1, l15, l2, kl1, kl2) against the fidelity and the dominant
eigenvalue estimate of each perturbed state.  The entropy table compares the
per-basis Shannon entropy of the mixed statistics with the dominant
eigenstate's.  Output is plain rows for CSV writing; no plotting here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement, reconstruction
from .costs import DENOM_FLOOR, cost_terms
from .states import DensityMatrix, StateVector, eigendecompose

GRID_COSTS = ("l1", "l15", "l2", "kl1", "kl2")

#: Display scalings for the two grid coordinates.
FIDELITY_SCALE = 6000.0
EIGENVALUE_SCALE = 10.0


@dataclass(frozen=True)
class CostGridRow:
    index: int
    strength: float
    fidelity: float  # squared overlap of the perturbed state with the dominant eigenstate
    eps_fidelity: float
    p1_estimate: float
    eps_p1: float
    costs: dict[str, float]


def _grid_cost(kind: str, p: np.ndarray, q: np.ndarray) -> float:
    if kind == "l2":
        return float(((p - q) ** 2).sum())
    return float(cost_terms(kind, p, q, DENOM_FLOOR).sum())


def cost_comparison_grid(
    rho: DensityMatrix,
    bases,
    n_perturbations: int,
    seed: int,
    strength_min: float = 0.01,
    strength_max: float = 0.5,
    floor: float = reconstruction.DEFAULT_FLOOR,
) -> tuple[list[CostGridRow], dict[str, float]]:
    """Cost values on a family of perturbed dominant eigenstates.

    Returns the grid rows plus the Spearman rank correlation of every cost
    against infidelity (1 - F) over the grid.  ``strength_max = 0`` yields
    unperturbed copies of the dominant eigenstate.
    """
    spectrum = eigendecompose(rho)
    dominant = spectrum.vectors[:, 0]
    p1 = float(spectrum.eigenvalues[0])
    data = measurement.exact_dataset(rho, bases)
    rng = np.random.default_rng(seed)
    if strength_max <= 0:
        strengths = np.zeros(n_perturbations)
    else:
        strengths = np.geomspace(
            max(strength_min, 1e-6), strength_max, n_perturbations
        )

    rows: list[CostGridRow] = []
    dominant_state = StateVector.normalized(dominant)
    for index, strength in enumerate(strengths):
        if strength == 0.0:
            psi = dominant_state
        else:
            rotation = measurement._random_rotation(dominant.size, float(strength), rng)
            psi = StateVector.normalized(rotation @ dominant)
        fid = float(abs(dominant_state.overlap(psi)) ** 2)
        q = measurement.basis_probabilities(psi.amplitudes, data.bases)
        estimate, _ = reconstruction.estimate_dominant_eigenvalue(
            data, psi, floor, predicted=q
        )
        costs = {
            kind: _grid_cost(kind, data.probabilities, q)
            for kind in GRID_COSTS
        }
        rows.append(
            CostGridRow(
                index,
                float(strength),
                fid,
                FIDELITY_SCALE * (1.0 - fid),
                estimate,
                EIGENVALUE_SCALE * (p1 - estimate) / p1,
                costs,
            )
        )

    # Imported here so that importing the package does not load scipy.
    from scipy.stats import spearmanr

    infidelity = [1.0 - row.fidelity for row in rows]
    correlations = {}
    for kind in GRID_COSTS:
        values = [row.costs[kind] for row in rows]
        if np.ptp(infidelity) == 0 or np.ptp(values) == 0:
            correlations[kind] = 0.0
        else:
            correlations[kind] = float(spearmanr(infidelity, values).statistic)
    return rows, correlations


def entropy_tables(rho: DensityMatrix, bases) -> tuple[list[tuple], list[tuple]]:
    """Per-basis entropy rows and per-projector probability rows.

    "Pure" is the dominant eigenstate of ``rho``.  Entropy rows are (basis,
    entropy_mixed, entropy_pure); probability rows are (basis, outcome
    string, p_mixed, p_pure).
    """

    def entropy(p: np.ndarray) -> float:
        p = np.clip(p, 0.0, None)
        nz = p[p > 0]
        return float(-(nz * np.log(nz)).sum())

    psi = eigendecompose(rho).vectors[:, 0]
    mixed = measurement.density_probabilities(rho, bases)
    pure = measurement.basis_probabilities(psi, bases)
    outcomes = measurement.outcome_strings(rho.n_qubits)
    probability_rows = [
        (basis, outcome, m, p)
        for basis, mixed_row, pure_row in zip(bases, mixed.tolist(), pure.tolist())
        for outcome, m, p in zip(outcomes, mixed_row, pure_row)
    ]
    entropies = [(basis, entropy(m), entropy(p)) for basis, m, p in zip(bases, mixed, pure)]
    return entropies, probability_rows
