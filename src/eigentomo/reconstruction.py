"""Iterative extraction of leading eigenvalue/eigenstate pairs.

Each step trains a pure state on the current statistics (orthogonal to the
states already found), estimates its eigenvalue as the nonnegativity-safe
minimum ratio of measured to predicted projector probability, subtracts the
pair from the statistics, and renormalizes.  From the second step on, a
step is kept only if it strictly improves the data likelihood of the
assembled approximation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import measurement
from .measurement import MeasurementDataset
from .states import DensityMatrix, StateVector, eigendecompose, fidelity
from .training import TrainConfig, train_next_eigenstate

#: Default denominator floor when estimating eigenvalues.
DEFAULT_FLOOR = 1e-6
#: Deflated record probabilities may undershoot zero by at most this much.
DEFLATION_NEG_TOL = 1e-9
#: Pairwise squared overlap allowed between extracted eigenstates.
PAIR_OVERLAP_TOL = 1e-3
#: Seed offset between consecutive extraction steps (must exceed restarts).
STEP_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class SpectralPair:
    """One extracted (eigenvalue estimate, eigenstate estimate) pair."""

    weight: float
    state: StateVector

    def __post_init__(self):
        if not -1e-12 <= self.weight <= 1 + 1e-12:
            raise ValueError(f"pair weight {self.weight} outside [0, 1]")


@dataclass(frozen=True)
class SpectralApprox:
    """Ordered low-rank approximation; weights sum to at most 1."""

    pairs: tuple[SpectralPair, ...]

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("approximation needs at least one pair")
        total = sum(p.weight for p in pairs)
        if total > 1 + 1e-9:
            raise ValueError(f"pair weights sum to {total} > 1")
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs)):
                sq = abs(pairs[i].state.overlap(pairs[j].state)) ** 2
                if sq > PAIR_OVERLAP_TOL + 1e-12:
                    raise ValueError(
                        f"pairs {i} and {j} overlap too strongly ({sq:.3e})"
                    )
        object.__setattr__(self, "pairs", pairs)

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def n_qubits(self) -> int:
        return self.pairs[0].state.n_qubits

    @property
    def weight_sum(self) -> float:
        return float(sum(p.weight for p in self.pairs))

    def density_matrix(self) -> DensityMatrix:
        """Weighted sum of eigenstate projectors, normalized to unit trace."""
        total = self.weight_sum
        if total <= 0:
            raise ValueError("cannot normalize an approximation with zero weight")
        weights = [pair.weight / total for pair in self.pairs]
        vectors = np.column_stack([pair.state.amplitudes for pair in self.pairs])
        return DensityMatrix.from_eigensystem(weights, vectors)

    @classmethod
    def from_spectrum(cls, rho: DensityMatrix, r: int) -> "SpectralApprox":
        """Exact truncation of a known state, mainly for tests and baselines."""
        spectrum = eigendecompose(rho)
        pairs = tuple(
            SpectralPair(float(spectrum.eigenvalues[i]), spectrum.eigenvectors[i])
            for i in range(r)
        )
        return cls(pairs)


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one extraction step."""

    step: int
    weight_raw: float
    weight: float
    argmin_record: int
    records_discarded: int
    likelihood_before: float | None
    likelihood_after: float | None
    accepted: bool
    orthogonality_ok: bool | None
    eigenstate_fidelity: float | None = None
    accuracy_gap: float | None = None


@dataclass
class IterationReport:
    steps: list[StepRecord]
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "steps": [asdict(s) for s in self.steps],
            "notes": list(self.notes),
        }


def _predicted_probabilities(data: MeasurementDataset, psi: StateVector) -> np.ndarray:
    if data.n_qubits != psi.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    return measurement.basis_probabilities(psi.amplitudes, data.bases)


def estimate_dominant_eigenvalue(
    data: MeasurementDataset, psi: StateVector, floor: float = DEFAULT_FLOOR
) -> tuple[float, int]:
    """Nonnegativity-safe eigenvalue estimate for a trained eigenstate.

    Minimum over all records (with predicted probability at least ``floor``)
    of the ratio measured/predicted, clamped into [0, 1].  Returns the value
    and the index of the minimizing record; ties go to the smallest index.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    predicted = _predicted_probabilities(data, psi)
    mask = predicted >= floor
    if not mask.any():
        raise ValueError(
            f"no record has predicted probability >= {floor}; floor too high"
        )
    ratios = np.full(predicted.shape, np.inf)
    ratios[mask] = data.probabilities[mask] / predicted[mask]
    flat = int(np.argmin(ratios))
    value = float(min(max(ratios.flat[flat], 0.0), 1.0))
    return value, flat


def deflate(
    data: MeasurementDataset,
    psi: StateVector,
    p_hat: float,
    floor: float | None = None,
) -> MeasurementDataset:
    """Subtract a weighted eigenstate contribution from the statistics.

    Record-wise (p - p_hat q) / (1 - p_hat); values in [-1e-9, 0) are clamped
    to zero, anything lower signals an overestimated eigenvalue and raises.
    When the eigenvalue came from a floored estimate, pass the same ``floor``:
    records below it carried no nonnegativity guarantee, so they are clamped
    at zero without triggering the overestimation error.  Per-basis rows are
    renormalized to sum to one afterwards.
    """
    if not 0 <= p_hat < 1:
        raise ValueError(f"p_hat must lie in [0, 1), got {p_hat}")
    predicted = _predicted_probabilities(data, psi)
    deflated = (data.probabilities - p_hat * predicted) / (1.0 - p_hat)
    guarded = deflated if floor is None else deflated[predicted >= floor]
    low = float(guarded.min()) if guarded.size else 0.0
    if low < -DEFLATION_NEG_TOL:
        raise ValueError(
            f"deflation produced probability {low}; eigenvalue overestimated"
        )
    deflated = np.clip(deflated, 0.0, None)
    sums = deflated.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError("deflation removed all probability mass from a basis")
    deflated = deflated / sums[:, None]
    return MeasurementDataset(
        data.n_qubits, data.bases, deflated, None, "exact", None
    )


def log_likelihood(
    approx: SpectralApprox, data: MeasurementDataset, floor: float = 1e-12
) -> float:
    """Data log-likelihood of the normalized approximation; higher is better.

    Records are weighted by shot counts when present, by their probabilities
    otherwise.  Predicted probabilities come from the rank-r factors, as the
    normalized weighted sum of each eigenstate's outcome probabilities.
    """
    total = approx.weight_sum
    if total <= 0:
        raise ValueError("cannot normalize an approximation with zero weight")
    if data.n_qubits != approx.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    q = measurement.mixture_probabilities(
        [pair.weight / total for pair in approx.pairs],
        np.column_stack([pair.state.amplitudes for pair in approx.pairs]),
        data.bases,
    )
    weights = (
        data.counts.astype(float) if data.counts is not None else data.probabilities
    )
    return float((weights * np.log(np.maximum(q, floor))).sum())


def relative_fidelity(rho: DensityMatrix, approx: SpectralApprox) -> float:
    """Achieved fidelity divided by the best possible at the same rank."""
    spectrum = eigendecompose(rho)
    kappa = spectrum.leading_weight(approx.rank)
    return fidelity(rho, approx.density_matrix()) / kappa


def reconstruct(
    data: MeasurementDataset,
    max_rank: int,
    train_config: TrainConfig,
    floor: float = DEFAULT_FLOOR,
    true_rho: DensityMatrix | None = None,
) -> tuple[SpectralApprox, IterationReport]:
    """Extract up to ``max_rank`` eigenpairs from measurement statistics.

    The first step is always kept.  Later steps are kept only while each
    strictly improves the data likelihood; the first rejected step ends the
    iteration.  When the true state is supplied (synthetic runs), per-step
    eigenstate fidelities and the residual accuracy gap are reported.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    truth = eigendecompose(true_rho) if true_rho is not None else None

    current = data
    pairs: list[SpectralPair] = []
    steps: list[StepRecord] = []
    notes: list[str] = []
    remaining = 1.0
    # Log-likelihood of ``pairs``: the ``after`` of the last kept step.
    kept_likelihood = None

    for step in range(1, max_rank + 1):
        config = replace(
            train_config, seed=train_config.seed + (step - 1) * STEP_SEED_STRIDE
        )
        previous = [pair.state for pair in pairs]
        psi, tlog = train_next_eigenstate(current, previous, config)

        if tlog.orthogonality_ok is False:
            notes.append(f"step {step} rejected: orthogonalization failed")
            steps.append(
                StepRecord(step, 0.0, 0.0, -1, 0, None, None, False, False)
            )
            break

        weight_raw, argmin_record = estimate_dominant_eigenvalue(current, psi, floor)
        discarded = int((_predicted_probabilities(current, psi) < floor).sum())
        weight = weight_raw * remaining
        if step == 1 and weight_raw <= 0.0:
            raise ValueError(
                "dominant eigenvalue estimate is zero: a zero-probability "
                "record retains predicted weight above the floor; raise the "
                "floor above the training-error scale"
            )
        candidate = SpectralApprox(tuple(pairs + [SpectralPair(weight, psi)]))

        before = kept_likelihood
        after = log_likelihood(candidate, data)
        accepted = before is None or after > before

        eig_fid = None
        gap = None
        if truth is not None and step <= truth.dim:
            reference = truth.eigenvectors[step - 1]
            eig_fid = float(abs(reference.overlap(psi)) ** 2)
            phase = reference.overlap(psi)
            aligned = psi.amplitudes * (
                np.conj(phase) / abs(phase) if abs(phase) > 0 else 1.0
            )
            gap = float(
                np.linalg.norm(
                    weight * aligned
                    - truth.eigenvalues[step - 1] * reference.amplitudes
                )
            )

        steps.append(
            StepRecord(
                step,
                weight_raw,
                weight,
                argmin_record,
                discarded,
                before,
                after,
                accepted,
                tlog.orthogonality_ok,
                eig_fid,
                gap,
            )
        )
        if not accepted:
            break
        if pairs and weight > pairs[-1].weight:
            notes.append(
                f"step {step} estimate ({weight:.4g}) exceeds the previous "
                f"one ({pairs[-1].weight:.4g}); extraction order inverted"
            )
        pairs.append(SpectralPair(weight, psi))
        kept_likelihood = after
        if step == max_rank:
            break
        if 1.0 - weight_raw < 1e-9:
            notes.append(f"step {step} exhausted the statistics; stopping early")
            break
        current = deflate(current, psi, weight_raw, floor=floor)
        remaining *= 1.0 - weight_raw

    return SpectralApprox(tuple(pairs)), IterationReport(steps, notes)
