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
from scipy.stats import spearmanr

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


def _perturbed_state(
    base: np.ndarray, strength: float, rng: np.random.Generator
) -> StateVector:
    dim = base.size
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = 0.5 * (g + g.conj().T)
    herm /= np.abs(np.linalg.eigvalsh(herm)).max()
    vals, vecs = np.linalg.eigh(herm)
    unitary = (vecs * np.exp(1j * strength * vals)) @ vecs.conj().T
    return StateVector.normalized(unitary @ base)


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
    dominant = spectrum.eigenvectors[0].amplitudes
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
            psi = _perturbed_state(dominant, float(strength), rng)
        fid = float(abs(dominant_state.overlap(psi)) ** 2)
        estimate, _ = reconstruction.estimate_dominant_eigenvalue(data, psi, floor)
        q = measurement.basis_probabilities(psi.amplitudes, data.bases)
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

    infidelity = [1.0 - row.fidelity for row in rows]
    correlations = {}
    for kind in GRID_COSTS:
        values = [row.costs[kind] for row in rows]
        if np.ptp(infidelity) == 0 or np.ptp(values) == 0:
            correlations[kind] = 0.0
        else:
            correlations[kind] = float(spearmanr(infidelity, values).statistic)
    return rows, correlations


def entropy_tables(
    rho: DensityMatrix, bases, psi: StateVector | None = None
) -> tuple[list[tuple], list[tuple]]:
    """Per-basis entropy rows and per-projector probability rows.

    ``psi`` defaults to the dominant eigenstate of ``rho``.  Entropy rows
    are (basis, entropy_mixed, entropy_pure); probability rows are
    (basis, outcome string, p_mixed, p_pure).
    """
    if psi is None:
        psi = eigendecompose(rho).eigenvectors[0]
    entropy_rows = reconstruction.eigenstate_entropy_profile(rho, psi, bases)
    probability_rows = []
    table = measurement.spin_table(rho.n_qubits)
    for basis in bases:
        mixed = measurement.probabilities_matrix(rho.entries, basis)
        pure = measurement.probabilities_vector(psi.amplitudes, basis)
        for i in range(mixed.size):
            outcome = measurement.outcome_string(table[i])
            probability_rows.append(
                (basis, outcome, float(mixed[i]), float(pure[i]))
            )
    return entropy_rows, probability_rows
