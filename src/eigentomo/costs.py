"""Statistical distances between ansatz predictions and measurement data.

Every cost is a sum of per-record terms comparing the dataset probability p
with the ansatz probability q in the same basis/outcome, optionally plus a
penalty on squared overlaps with previously extracted states.  Gradients in
all network parameters are exact and analytic: the per-record sensitivities
are pulled back through the transposed basis rotations (one extra rotation
pass per basis) and contracted against the RBM log-derivative tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement, rbm
from .measurement import MeasurementDataset
from .states import StateVector

COST_KINDS = ("l1", "l15", "kl1", "kl2")

#: Squared-overlap tolerance for the orthonormality of penalty states.
ORTH_STATES_ATOL = 1e-8

#: Floor on the probability inside a divergence's logarithm (kl1, kl2).
DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class CostSpec:
    """Choice of per-record distance plus the states the penalty keeps away.

    The penalty is the total squared overlap with ``orth_states``, at unit
    weight.
    """

    kind: str
    orth_states: tuple[StateVector, ...] = ()

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; expected {COST_KINDS}")
        states = tuple(self.orth_states)
        if states:
            basis = np.column_stack([s.amplitudes for s in states])
            gram = basis.conj().T @ basis
            if np.abs(gram - np.eye(len(states))).max() > ORTH_STATES_ATOL:
                raise ValueError("orth_states must be pairwise orthonormal")
        object.__setattr__(self, "orth_states", states)


def cost_terms(kind: str, p, q, floor: float) -> np.ndarray:
    """Per-record cost terms for dataset probabilities p and ansatz q."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    if kind == "l1":
        return np.abs(p - q)
    if kind == "l15":
        return np.abs(p - q) ** 1.5
    out = np.zeros(p.shape)
    if kind == "kl1":
        mask = p > 0
        out[mask] = p[mask] * (np.log(p[mask]) - np.log(np.maximum(q[mask], floor)))
        return out
    if kind == "kl2":
        mask = q > 0
        out[mask] = q[mask] * (np.log(q[mask]) - np.log(np.maximum(p[mask], floor)))
        return out
    raise ValueError(f"unknown cost kind {kind!r}")


def cost_term_grads(kind: str, p, q, floor: float) -> np.ndarray:
    """Derivative of each per-record term with respect to q.

    The l1 kink at p == q uses the zero subgradient.
    """
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    if kind == "l1":
        return np.sign(q - p)
    if kind == "l15":
        return 1.5 * np.sqrt(np.abs(q - p)) * np.sign(q - p)
    out = np.zeros(p.shape)
    if kind == "kl1":
        mask = (p > 0) & (q >= floor)
        out[mask] = -p[mask] / q[mask]
        return out
    if kind == "kl2":
        mask = q > 0
        out[mask] = np.log(q[mask]) - np.log(np.maximum(p[mask], floor)) + 1.0
        return out
    raise ValueError(f"unknown cost kind {kind!r}")


class CostEngine:
    """Precompiled evaluation of one cost spec against one dataset.

    Works on the flat parameter vector used by the trainer; the public
    ``cost_value``/``cost_gradient`` helpers wrap it for NqsState inputs.
    """

    def __init__(self, spec: CostSpec, data: MeasurementDataset):
        n = data.n_qubits
        if spec.orth_states and any(s.n_qubits != n for s in spec.orth_states):
            raise ValueError("orth_states do not match the dataset qubit count")
        self.spins = rbm.exact_spin_table(n)
        self.spec = spec
        self.n_qubits = n
        self.dim = data.dim
        self.data_probs = data.probabilities
        self.rotations = measurement.basis_rotations(data.bases, n)
        # Plain transpose: record sensitivities are pulled back through U^T.
        self.rotations_t = self.rotations.transpose(0, 1, 3, 2).copy()
        if spec.orth_states:
            self.orth = np.stack([s.amplitudes for s in spec.orth_states])
        else:
            self.orth = None

    def value(self, theta: np.ndarray) -> float:
        return self.value_and_grad(theta)[0]

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        psi, tanh_a, tanh_p = rbm.wavefunction(theta, self.spins)
        probs = self.data_probs
        floor = DENOM_FLOOR
        total = 0.0
        pulled = np.zeros(self.dim, dtype=np.complex128)
        beta = 0.0
        if probs.size:
            rotated = measurement.rotate_states(
                self.rotations, np.broadcast_to(psi, probs.shape)
            )
            q = np.abs(rotated) ** 2
            total += float(cost_terms(self.spec.kind, probs, q, floor).sum())
            g = cost_term_grads(self.spec.kind, probs, q, floor)
            pulled += measurement.rotate_states(
                self.rotations_t, g * rotated.conj()
            ).sum(axis=0)
            beta += float((g * q).sum())
        if self.orth is not None:
            overlaps = self.orth.conj() @ psi
            sq = float((np.abs(overlaps) ** 2).sum())
            total += sq
            pulled += np.conj(self.orth.T @ overlaps)
            beta += sq

        u = pulled * psi
        weights = np.abs(psi) ** 2
        s = self.spins
        ga = np.real(u @ s) - beta * (weights @ s)
        gb = np.real(u @ tanh_a) - beta * (weights @ tanh_a)
        gw = np.real(s.T @ (u[:, None] * tanh_a)) - beta * (
            s.T @ (weights[:, None] * tanh_a)
        )
        pa = -np.imag(u @ s)
        pb = -np.imag(u @ tanh_p)
        pw = -np.imag(s.T @ (u[:, None] * tanh_p))
        return total, rbm.join_parameters((ga, gb, gw), (pa, pb, pw))


def cost_value(spec: CostSpec, state: rbm.NqsState, data: MeasurementDataset) -> float:
    """Total cost of an ansatz state against a dataset."""
    if data.n_qubits != state.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    return CostEngine(spec, data).value(rbm.pack_parameters(state))


def cost_gradient(
    spec: CostSpec, state: rbm.NqsState, data: MeasurementDataset
) -> np.ndarray:
    """Exact analytic gradient of ``cost_value`` in every network parameter.

    The flat vector is laid out like ``rbm.pack_parameters``.
    """
    if data.n_qubits != state.n_qubits:
        raise ValueError("dataset and state disagree in qubit count")
    return CostEngine(spec, data).value_and_grad(rbm.pack_parameters(state))[1]
