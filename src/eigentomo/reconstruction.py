"""Iterative extraction of leading eigenvalue/eigenstate pairs.

Each step trains a pure state on the current statistics within the
orthogonal complement of the states already kept (``costs.CostEngine``
projects the ansatz state there), estimates its eigenvalue as the
nonnegativity-safe minimum ratio of measured to predicted projector
probability (leaving out the records that earlier steps deflated to zero),
subtracts the pair from the statistics, and renormalizes.  From the second
step on, a step is kept only if it strictly improves the data likelihood of
the assembled approximation, a ``SpectralApprox``: the kept weights as one
array and the kept states as the orthonormal columns of one matrix, the
array form of ``states.Spectrum``.

``reconstruct`` computes each step's outcome table (the fitted state's
outcome probabilities on the dataset's bases) once and hands it to the
eigenvalue estimate, the discard count and the deflation through their
``predicted`` argument.  Every table and likelihood, like every step's
``costs.CostEngine``, rotates through the one read-only
``measurement.basis_rotation`` of the dataset's basis list.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import measurement
from .measurement import MeasurementDataset
# ``fidelity`` is bound here by name: the benchmark's layer tracer
# (benchmark/layers.py) wraps it at this lookup site.
from .states import DensityMatrix, Spectrum, StateVector, eigendecompose, fidelity
from .states import GRAM_ATOL, gram_deviation, qubit_count, require_orthonormal
from .training import TrainConfig, train_next_eigenstate

#: Default denominator floor when estimating eigenvalues.
DEFAULT_FLOOR = 1e-6
#: Deflated record probabilities may undershoot zero by at most this much.
DEFLATION_NEG_TOL = 1e-9
#: Predicted probabilities are floored here before the log of the likelihood.
LIKELIHOOD_FLOOR = 1e-12
#: Seed offset between consecutive extraction steps; restarts may not exceed it.
STEP_SEED_STRIDE = 10_000


@dataclass(frozen=True)
class SpectralApprox:
    """Low-rank approximation sum_k p_k |psi_k><psi_k| in one array form:
    the weights p_k, a read-only (r,) array, each in [0, 1] and summing to at
    most 1, and the states psi_k as the orthonormal columns of one read-only
    (2^n, r) matrix ``vectors``, column k for weight k."""

    weights: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        vectors = np.array(self.vectors, dtype=np.complex128, order="C")
        if weights.ndim != 1 or not weights.size or vectors.shape[1:] != weights.shape:
            raise ValueError(f"weights {weights.shape} and columns {vectors.shape} disagree")
        qubit_count(len(vectors))
        if not -1e-12 <= weights.min() <= weights.max() <= 1 + 1e-12:
            raise ValueError(f"weights {weights.tolist()} not all in [0, 1]")
        if not 0 < weights.sum() <= 1 + 1e-9:
            raise ValueError(f"weights sum to {weights.sum()}, outside (0, 1]")
        require_orthonormal(vectors, "approximation states")
        weights.setflags(write=False)
        vectors.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "vectors", vectors)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def n_qubits(self) -> int:
        return qubit_count(len(self.vectors))

    @property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    def state(self, k: int) -> StateVector:
        """The state of weight ``k`` (column k)."""
        return StateVector(self.vectors[:, k], self.n_qubits)

    def density_matrix(self) -> DensityMatrix:
        """Weighted sum of eigenstate projectors, normalized to unit trace."""
        return DensityMatrix.from_eigensystem(self.weights / self.weight_sum, self.vectors)


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
    eigenstate_fidelity: float | None = None
    accuracy_gap: float | None = None
    #: Flat record indices left out of this step's minimum ratio: each earlier
    #: kept step's argmin and the records its deflation drove to zero.
    excluded_records: tuple[int, ...] = ()


@dataclass
class IterationReport:
    """Every step's record, in step order, and the run's notes.

    ``cli``'s ``result.json`` writes ``dataclasses.asdict`` of each step
    under ``"report"`` and the notes under ``"notes"``.
    """

    steps: list[StepRecord]
    notes: list[str] = field(default_factory=list)


def _predicted_probabilities(data: MeasurementDataset, psi: StateVector) -> np.ndarray:
    if data.n_qubits != psi.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    return measurement.basis_probabilities(psi.amplitudes, data.bases)


def _guarded(
    predicted: np.ndarray, floor: float | None, excluded: Sequence[int] | None
) -> np.ndarray:
    """Mask of the records that bound an eigenvalue: predicted probability at
    least ``floor`` (every record when it is None), minus the flat record
    indices in ``excluded``."""
    mask = np.ones(predicted.shape, bool) if floor is None else predicted >= floor
    if excluded:
        mask.flat[list(excluded)] = False
    return mask


def estimate_dominant_eigenvalue(
    data: MeasurementDataset,
    psi: StateVector,
    floor: float = DEFAULT_FLOOR,
    excluded: Sequence[int] | None = None,
    predicted: np.ndarray | None = None,
) -> tuple[float, int]:
    """Nonnegativity-safe eigenvalue estimate for a trained eigenstate.

    Minimum over all records (with predicted probability at least ``floor``,
    and not among the flat record indices ``excluded``) of the ratio
    measured/predicted, clamped into [0, 1].  Returns the value and the flat
    index of the minimizing record; ties go to the smallest index.
    ``predicted`` is psi's outcome table on the dataset's bases, computed
    here when not given.
    """
    if floor <= 0:
        raise ValueError("floor must be positive")
    if predicted is None:
        predicted = _predicted_probabilities(data, psi)
    mask = _guarded(predicted, floor, excluded)
    if not mask.any():
        detail = f" outside the excluded records {sorted(excluded)}" if excluded else ""
        raise ValueError(
            f"no record has predicted probability >= {floor}{detail}; floor too high"
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
    excluded: Sequence[int] | None = None,
    predicted: np.ndarray | None = None,
) -> MeasurementDataset:
    """Subtract a weighted eigenstate contribution from the statistics.

    Record-wise (p - p_hat q) / (1 - p_hat); values in [-1e-9, 0) are clamped
    to zero, anything lower signals an overestimated eigenvalue and raises.
    When the eigenvalue came from a floored estimate, pass the same ``floor``
    and ``excluded``: records below the floor or excluded from the estimate
    carried no nonnegativity guarantee, so they are clamped at zero without
    triggering the overestimation error.  Per-basis rows are renormalized to
    sum to one afterwards.  ``predicted`` is psi's outcome table, as in
    ``estimate_dominant_eigenvalue``.
    """
    if not 0 <= p_hat < 1:
        raise ValueError(f"p_hat must lie in [0, 1), got {p_hat}")
    if predicted is None:
        predicted = _predicted_probabilities(data, psi)
    deflated = (data.probabilities - p_hat * predicted) / (1.0 - p_hat)
    guarded = deflated[_guarded(predicted, floor, excluded)]
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
    return MeasurementDataset(data.n_qubits, data.bases, deflated, None)


def log_likelihood(approx: SpectralApprox, data: MeasurementDataset) -> float:
    """Data log-likelihood of the normalized approximation; higher is better.

    Records are weighted by shot counts when present, by their probabilities
    otherwise.  Predicted probabilities come from the rank-r factors, as the
    normalized weighted sum of each eigenstate's outcome probabilities.
    """
    if data.n_qubits != approx.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    q = measurement.mixture_probabilities(
        approx.weights / approx.weight_sum, approx.vectors, data.bases
    )
    weights = (
        data.counts.astype(float) if data.counts is not None else data.probabilities
    )
    return float((weights * np.log(np.maximum(q, LIKELIHOOD_FLOOR))).sum())


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
    true_rho: DensityMatrix | Spectrum | None = None,
) -> tuple[SpectralApprox, IterationReport]:
    """Extract up to ``max_rank`` eigenpairs from measurement statistics,
    and never more than the 2^n that span the space.

    The first step is always kept.  Later steps are kept only while each
    strictly improves the data likelihood; the first rejected step ends the
    iteration.  A later step of weight 0, or whose state is not orthonormal
    to the kept ones within ``GRAM_ATOL``, is rejected without a likelihood,
    and a note says why.  From the second step on, the eigenvalue estimate
    leaves out every kept step's argmin record and the records its deflation
    drove to zero: they say nothing about the residual.  Each step's training
    diagnostics, such as an aborted restart, join the notes.  When the true state is
    supplied (synthetic runs), per-step eigenstate fidelities and the
    residual accuracy gap are reported.  ``true_rho`` may be given as its
    ``eigendecompose`` spectrum, so that a caller that needs the spectrum
    too decomposes the truth once.
    """
    if max_rank < 1:
        raise ValueError("max_rank must be at least 1")
    truth = true_rho
    if isinstance(truth, DensityMatrix):
        truth = eigendecompose(truth)
    if truth is not None and truth.dim != 2**data.n_qubits:
        raise ValueError(
            f"true_rho has {qubit_count(truth.dim)} qubits, the dataset {data.n_qubits}"
        )
    if train_config.restarts > STEP_SEED_STRIDE:
        raise ValueError(
            f"restarts ({train_config.restarts}) may not exceed the step seed "
            f"stride {STEP_SEED_STRIDE}: later steps would reuse seeds"
        )
    max_rank = min(max_rank, 2**data.n_qubits)

    current = data
    kept: list[StateVector] = []
    weights: list[float] = []
    steps: list[StepRecord] = []
    notes: list[str] = []
    remaining = 1.0
    excluded: tuple[int, ...] = ()
    # Log-likelihood of the kept steps: the ``after`` of the last one.
    kept_likelihood = None

    try:
        for step in range(1, max_rank + 1):
            config = replace(
                train_config, seed=train_config.seed + (step - 1) * STEP_SEED_STRIDE
            )
            psi, log = train_next_eigenstate(current, kept, config)
            notes.extend(f"step {step}: {note}" for note in log.diagnostics)
            # psi's outcome table, once per step: for the estimate, the discard
            # count and the deflation.
            predicted = _predicted_probabilities(current, psi)
            weight_raw, argmin_record = estimate_dominant_eigenvalue(
                current, psi, floor, excluded, predicted
            )
            discarded = int((predicted < floor).sum())
            weight = weight_raw * remaining
            if step == 1 and weight_raw <= 0.0:
                raise ValueError(
                    "dominant eigenvalue estimate is zero: a zero-probability "
                    "record retains predicted weight above the floor; raise the "
                    "floor above the training-error scale"
                )
            columns = np.column_stack([s.amplitudes for s in (*kept, psi)])
            deviation = gram_deviation(columns)
            before = kept_likelihood
            after, accepted = None, False
            if kept and weight == 0.0:
                # A zero-weight column still changes the likelihood's round-off,
                # so the likelihood cannot be trusted to turn the step down.
                notes.append(f"step {step} rejected: its eigenvalue estimate is 0")
            elif kept and not deviation <= GRAM_ATOL:
                # The fit drifted into the span of the kept states, where the
                # projection keeps only round-off orthogonality over |P phi|.
                notes.append(
                    f"step {step} rejected: its state is not orthogonal to the kept "
                    f"states (Gram deviation {deviation:.3g} > {GRAM_ATOL:g})"
                )
            else:
                candidate = SpectralApprox([*weights, weight], columns)
                after = log_likelihood(candidate, data)
                accepted = before is None or after > before
                if not accepted:
                    notes.append(
                        f"step {step} rejected: the likelihood did not rise "
                        f"({after!r} <= {before!r})"
                    )

            eig_fid = None
            gap = None
            if truth is not None:
                reference = truth.eigenvector(step - 1)
                phase = reference.overlap(psi)
                eig_fid = float(abs(phase) ** 2)
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
                    eig_fid,
                    gap,
                    excluded,
                )
            )
            if not accepted:
                break
            if weights and weight > weights[-1]:
                notes.append(
                    f"step {step} estimate ({weight:.4g}) exceeds the previous "
                    f"one ({weights[-1]:.4g}); extraction order inverted"
                )
            approx = candidate
            kept.append(psi)
            weights.append(weight)
            kept_likelihood = after
            if step == max_rank:
                break
            if 1.0 - weight_raw < 1e-9:
                notes.append(f"step {step} exhausted the statistics; stopping early")
                break
            deflated = deflate(current, psi, weight_raw, floor, excluded, predicted)
            # Freed before the next step's fit.
            del predicted
            zeroed = (deflated.probabilities == 0) & (current.probabilities > 0)
            excluded = tuple(
                sorted({*excluded, argmin_record, *np.flatnonzero(zeroed).tolist()})
            )
            current = deflated
            remaining *= 1.0 - weight_raw

    finally:
        # The shared rotation served every step.  Dropped on every exit, a
        # raised one included, it does not stay alive into the caller's next
        # work, such as loading another dataset.
        measurement.basis_rotation.cache_clear()
    return approx, IterationReport(steps, notes)
