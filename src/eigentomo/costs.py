"""Statistical distances between ansatz predictions and measurement data.

Every cost is a sum of per-record terms comparing the dataset probability p
with the ansatz probability q in the same basis/outcome, optionally plus a
penalty on squared overlaps with previously extracted states.  Gradients in
all network parameters are exact and analytic: the per-record sensitivities
are pulled back through the transposed basis rotations (one adjoint pass of
``measurement.BasisRotation``) and contracted against the RBM log-derivative
tables [s | tanh | s (x) tanh] of both networks in one stacked matmul.
``CostEngine`` compiles one spec against one dataset and gives the cost and
its gradient together, on the flat parameter vector.
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


def cost_terms_and_grads(
    kind: str, p: np.ndarray, q: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record cost terms for dataset probabilities p and ansatz q, and
    the derivative of each term with respect to q.

    ``p`` and ``q`` are float arrays of one shape.  Both outputs come from
    one pass over q - p (l1, l15) or over the shared log ratio (kl1, kl2).
    The l1 kink at p == q uses the zero subgradient.
    """
    if kind in ("l1", "l15"):
        diff = q - p
        size = np.abs(diff)
        sign = np.sign(diff)
        if kind == "l1":
            return size, sign
        return size**1.5, 1.5 * np.sqrt(size) * sign
    terms = np.zeros(p.shape)
    grads = np.zeros(p.shape)
    if kind == "kl1":
        mask = p > 0
        pm, qm = p[mask], q[mask]
        terms[mask] = pm * (np.log(pm) - np.log(np.maximum(qm, floor)))
        safe = mask & (q >= floor)
        grads[safe] = -p[safe] / q[safe]
        return terms, grads
    if kind == "kl2":
        mask = q > 0
        qm = q[mask]
        log_ratio = np.log(qm) - np.log(np.maximum(p[mask], floor))
        terms[mask] = qm * log_ratio
        grads[mask] = log_ratio + 1.0
        return terms, grads
    raise ValueError(f"unknown cost kind {kind!r}")


def cost_terms(kind: str, p, q, floor: float) -> np.ndarray:
    """Per-record cost terms for dataset probabilities p and ansatz q."""
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    return cost_terms_and_grads(kind, p, q, floor)[0]


class CostEngine:
    """Precompiled evaluation of one cost spec against one dataset.

    Works on the flat parameter vector of ``rbm.pack_parameters``, the one
    the trainer descends on; ``value_and_grad`` gives the total cost and its
    exact gradient in that layout.  The rotated amplitudes, q and the
    pulled-back product are written into buffers the engine owns (the
    product over the amplitudes, which it no longer needs).
    """

    def __init__(self, spec: CostSpec, data: MeasurementDataset):
        n = data.n_qubits
        if spec.orth_states and any(s.n_qubits != n for s in spec.orth_states):
            raise ValueError("orth_states do not match the dataset qubit count")
        self.spins = rbm.exact_spin_table(n)
        self._ones_spins = np.column_stack([np.ones(len(self.spins)), self.spins])
        self.spec = spec
        self.n_qubits = n
        self.rotation = measurement.BasisRotation(data.bases, n)
        self.data_probs = self.rotation.arrange(data.probabilities)
        self._rotated = np.empty(self.data_probs.shape, dtype=np.complex128)
        self._q = np.empty(self.data_probs.shape)
        if spec.orth_states:
            self.orth = np.stack([s.amplitudes for s in spec.orth_states])
        else:
            self.orth = None

    def value(self, theta: np.ndarray) -> float:
        return self.value_and_grad(theta)[0]

    def value_and_grad(self, theta) -> tuple[float, np.ndarray]:
        psi, tanh = rbm.wavefunction(theta, self.spins)
        probs = self.data_probs
        total = 0.0
        pulled = 0.0
        beta = 0.0
        if probs.size:
            rotated = self.rotation.forward(psi[:, None], out=self._rotated)
            q = np.square(np.abs(rotated, out=self._q), out=self._q)
            terms, g = cost_terms_and_grads(self.spec.kind, probs, q, DENOM_FLOOR)
            total += float(terms.sum())
            # Plain transpose: record sensitivities are pulled back through U^T.
            # The product g conj(U psi) overwrites the rotated amplitudes.
            product = np.multiply(g, np.conjugate(rotated, out=rotated), out=rotated)
            pulled = self.rotation.adjoint(product)
            beta += float((g * q).sum())
        if self.orth is not None:
            overlaps = self.orth.conj() @ psi
            sq = float((np.abs(overlaps) ** 2).sum())
            total += sq
            pulled = pulled + np.conj(self.orth.T @ overlaps)
            beta += sq

        # Per network, d cost / d [a, b, W] = c @ [s | tanh | s (x) tanh] for
        # c = Re u - beta |psi|^2 (amplitude) and -Im u (phase), u = pulled psi:
        # c @ s is the a part and [1 | s]^T (c tanh) the b row above W.  The
        # rows of c are the real and imaginary floats of conj(u - beta |psi|^2).
        c = ((np.conj(pulled) - beta * psi) * np.conj(psi)).view(np.float64)
        c = c.reshape(-1, 2).T
        bias_weights = self._ones_spins.T @ (c[:, :, None] * tanh)
        return total, np.concatenate(
            [c @ self.spins, bias_weights.reshape(2, -1)], axis=1
        ).reshape(-1)
