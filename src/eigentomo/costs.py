"""Statistical distances between ansatz predictions and measurement data.

Every cost is a sum of per-record terms comparing the dataset probability p
with the ansatz probability q in the same basis/outcome.  Gradients in all
network parameters are exact and analytic: the per-record sensitivities are
pulled back through the transposed basis rotations (one adjoint pass of
``measurement.BasisRotation``) into the derivative of the cost in the
amplitudes, which ``rbm.Ansatz.gradient`` contracts into the [a, b, W]
layout.  ``CostEngine`` compiles one spec against one dataset and gives the
cost and its gradient together, on the flat parameter vector or on a stack
of them.  Orthogonality to previously extracted states is no term of the
cost: the engine projects the ansatz state off them, so that a later step
fits within their orthogonal complement whatever the ansatz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement, rbm
from .measurement import MeasurementDataset
from .states import require_orthonormal

COST_KINDS = ("l1", "l15", "kl1", "kl2")

#: Floor on the probability inside a divergence's logarithm (kl1, kl2).
DENOM_FLOOR = 1e-12


@dataclass(frozen=True)
class CostSpec:
    """Choice of per-record distance."""

    kind: str

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ValueError(f"unknown cost kind {self.kind!r}; expected {COST_KINDS}")


def cost_terms_and_grads(
    kind: str, p: np.ndarray, q: np.ndarray, floor: float, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-record cost terms for dataset probabilities p and ansatz q, and
    the derivative of each term with respect to q.

    ``p`` and ``q`` are float arrays of one shape.  Both outputs come from
    one pass over q - p (l1, l15) or over the shared log ratio (kl1, kl2).
    The l1 kink at p == q uses the zero subgradient.  ``out``, if given, is
    a float (3, *q.shape) block: the terms are written to ``out[0]``, the
    derivatives to ``out[1]``, and ``out[2]`` is scratch; both returned
    arrays are views into it.  Without ``out`` a fresh block is allocated.
    """
    if out is None:
        out = np.empty((3, *q.shape))
    terms, grads, scratch = out[0, ...], out[1, ...], out[2, ...]
    if kind in ("l1", "l15"):
        diff = np.subtract(q, p, out=grads)
        size = np.abs(diff, out=terms)
        if kind == "l1":
            return size, np.sign(diff, out=grads)
        root = np.sqrt(size, out=scratch)
        np.copysign(root, diff, out=grads)
        grads *= 1.5
        return np.multiply(size, root, out=terms), grads
    terms.fill(0.0)
    grads.fill(0.0)
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


def _project(rows: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows x minus B^T conj(B) x, one matmul pair per member, so that each
    member of a stack gets the bits of its own single-row call."""
    stacked = rows[:, None, :]
    return (stacked - (stacked @ basis.conj().T) @ basis)[:, 0]


class CostEngine:
    """Precompiled evaluation of one cost spec against one dataset.

    Works on the flat parameter vector of ``rbm.pack_parameters``, the one
    the trainer descends on; ``value_and_grad`` gives the total cost and its
    exact gradient in that layout, for one vector or for each row of an
    (R, P) stack.  ``ansatz`` evaluates the RBM states phi and finishes the
    gradient; the engine holds the rotation (the read-only instance that
    ``measurement.basis_rotation`` shares for the dataset's basis list), and
    owns the cost and the kept states.
    With k > 0 kept states, the rows of the (k, 2^n) matrix V, it fits
    psi = P phi / |P phi|, P = I - V^T conj(V): orthogonal to every kept
    state by construction.  The states psi of a stack go through
    ``rotation.forward`` directly, ``rotation.chunk`` members a call.  An l1
    or l15 call allocates no (n_bases x 2^n) array (kl1 and kl2 still form
    their masked temporaries): the engine owns, each sized for one stack
    chunk, the rotated amplitudes (which the
    pulled-back product then overwrites), q, and the (3, ...) block into
    which ``cost_terms_and_grads`` writes each record's term, its derivative
    and a scratch table.  The costs and gradients it returns are fresh
    arrays.
    """

    def __init__(self, spec: CostSpec, data: MeasurementDataset, kept=()):
        n = data.n_qubits
        if data.n_records == 0:
            raise ValueError("dataset is empty: there is nothing to fit")
        if any(s.n_qubits != n for s in kept):
            raise ValueError("kept states do not match the dataset qubit count")
        self.kept = np.array([s.amplitudes for s in kept], np.complex128).reshape(-1, 2**n)
        if len(self.kept) >= 2**n:
            raise ValueError("kept states must be fewer than 2^n")
        require_orthonormal(self.kept.T, "kept states")
        self.spec = spec
        self.n_qubits = n
        self.rotation = measurement.basis_rotation(data.bases, n)
        probs = self.rotation.arrange(data.probabilities)
        buffer_shape = (self.rotation.chunk, *probs.shape)
        #: The dataset probabilities, repeated for each member of a chunk.
        self.data_probs = np.broadcast_to(probs, buffer_shape)
        self._rotated = np.empty(buffer_shape, dtype=np.complex128)
        self._q = np.empty(buffer_shape)
        self._work = np.empty((3, *buffer_shape))
        self.ansatz = rbm.Ansatz(n, self.rotation.chunk)

    def initial_parameters(self, seed: int) -> np.ndarray:
        """The ansatz's seeded initial draw of one restart."""
        return self.ansatz.initial_parameters(seed, projected=len(self.kept) > 0)

    def wavefunction(self, theta: np.ndarray) -> np.ndarray:
        """(2^n,) normalized amplitudes psi of one flat parameter vector, as
        ``value_and_grad`` scores them."""
        return self._states(np.asarray(theta, dtype=float)[None])[1][0]

    def _states(self, theta: np.ndarray):
        """The ansatz states phi of an (m, P) stack, psi = P phi / |P phi| and
        the (m,) norms |P phi|; without kept states psi is phi and the norms
        are None."""
        phi = self.ansatz.wavefunction(theta)
        if not len(self.kept):
            return phi, phi, None
        projected = _project(phi, self.kept)
        floats = projected.view(np.float64)
        norm = np.sqrt(np.vecdot(floats, floats))
        return phi, projected / norm[:, None], norm

    def value(self, theta: np.ndarray) -> float:
        return self.value_and_grad(theta)[0]

    def value_and_grad(self, theta):
        """Cost and gradient of flat parameters ``theta``: a float and a (P,)
        array, or (R,) costs and (R, P) gradients for an (R, P) stack.

        A stack is evaluated in chunks of members, each member with the bits
        of its own single-vector call.
        """
        theta = np.asarray(theta, dtype=float)
        stack = theta.reshape(-1, theta.shape[-1])
        chunk = self.rotation.chunk
        if len(stack) <= chunk:
            costs, grads = self._evaluate(stack)
        else:
            chunks = range(0, len(stack), chunk)
            costs, grads = map(
                np.concatenate,
                zip(*(self._evaluate(stack[i : i + chunk]) for i in chunks)),
            )
        if theta.ndim == 1:
            return float(costs[0]), grads[0]
        return costs, grads

    def _evaluate(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m,) costs and (m, P) gradients of an (m, P) stack of one chunk."""
        members = len(theta)
        phi, psi, norm = self._states(theta)
        rotated = self.rotation.forward(psi, out=self._rotated[:members])
        q = self._q[:members]
        q = np.square(np.abs(rotated, out=q), out=q)
        terms, g = cost_terms_and_grads(
            self.spec.kind,
            self.data_probs[:members],
            q,
            DENOM_FLOOR,
            out=self._work[:, :members],
        )
        total = terms.reshape(members, -1).sum(axis=1)
        # Plain transpose: record sensitivities are pulled back through U^T.
        # The product g conj(U psi) overwrites the rotated amplitudes.
        product = np.multiply(g, np.conjugate(rotated, out=rotated), out=rotated)
        pulled = self.rotation.adjoint(product)
        beta = np.vecdot(g.reshape(members, -1), q.reshape(members, -1))
        if norm is not None:
            # Through psi = P phi / |P phi|: dC/dphi* = (P G - beta psi) /
            # |P phi| for G = dC/dpsi*, and phi's own normalization term,
            # Re <dC/dphi*|phi>, is then zero.
            pulled = _project(pulled, self.kept.conj())
            pulled -= np.conj(psi) * beta[:, None]
            pulled /= norm[:, None]
            beta = np.zeros(members)
        return total, self.ansatz.gradient(phi, pulled, beta)
