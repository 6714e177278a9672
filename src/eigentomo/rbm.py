"""Restricted-Boltzmann-machine ansatz for pure states.

Two real-valued RBMs over +1/-1 spins define one pure state: the amplitude
network gives the modulus through its normalized marginal, and the phase
network gives the argument through half its log-marginal.  Every
normalization is an exact sum over all 2^n spin configurations inside
``Ansatz.wavefunction``, the one evaluator of the ansatz, which evaluates
both networks as one stacked (2, ...) pass, and the 2R networks of R
parameter vectors as one (R, 2, ...) pass, so a fit is capped at
``EXACT_MODE_MAX_QUBITS`` qubits; ``gibbs_sample``, which draws one
network's visible marginal, serves no fit.  The flat layout [a, b, W] of
each network holds [b; W] as one (n + 1) x n block, so the hidden layer
W^T s + b of every configuration is one matmul with the table [1 | s].

This module alone knows that layout: ``pack_parameters`` writes it, and
``Ansatz(n)``, the one entry point of the fitting pipeline, draws it,
evaluates stacks of it of any size and turns a cost's derivative in the
amplitudes into the gradient in it.  The projection of a later step off
the kept states is no part of the ansatz: ``costs.CostEngine`` applies it
to the states ``Ansatz`` evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement
from .measurement import EXACT_MODE_MAX_QUBITS
from .states import StateVector

#: Most Gibbs chains advanced together by ``gibbs_sample``.
_CHAINS = 256
#: Half-widths of the initial draw.  The phase network starts wider: with
#: near-zero phases everywhere, descent cannot build sign structure.
INIT_SCALE, PHASE_INIT_SCALE = 0.01, 0.5
#: Phase half-width of the draw of a projected fit.  The +-0.5 start is near
#: uniform, and its projection can be a stationary point: on the Bell mixture
#: it is exactly Psi+ once Phi+ is kept, and step 2 stayed at that third
#: eigenvector (p2 0.008, truth 0.09) at nearly every scale up to +-1.
PROJECTED_PHASE_INIT_SCALE = 1.5


def log_sum_exp(values: np.ndarray):
    """Streaming-safe log of a sum of exponentials along the last axis."""
    peak = values.max(axis=-1, keepdims=True)
    return peak[..., 0] + np.log(np.exp(values - peak).sum(axis=-1))


@dataclass(frozen=True)
class RbmParams:
    """Weights and biases of one real-valued RBM with equal layer sizes."""

    weights: np.ndarray
    visible_bias: np.ndarray
    hidden_bias: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        a = np.array(self.visible_bias, dtype=float)
        b = np.array(self.hidden_bias, dtype=float)
        if w.ndim != 2 or a.ndim != 1 or b.ndim != 1:
            raise ValueError("weights must be a matrix and biases vectors")
        if w.shape != (a.size, b.size) or a.size != b.size:
            raise ValueError(
                f"expected square weights matching both biases, got {w.shape}"
            )
        for arr in (w, a, b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "visible_bias", a)
        object.__setattr__(self, "hidden_bias", b)

    @property
    def n_visible(self) -> int:
        return self.visible_bias.size

    @property
    def n_hidden(self) -> int:
        return self.hidden_bias.size


def log_two_cosh(x: np.ndarray) -> np.ndarray:
    """log(2 cosh x) without overflow: log(e^x + e^-x) as |x| + log1p(e^-2|x|)."""
    return np.logaddexp(x, -x)


def _spins(sigma, n: int) -> np.ndarray:
    s = np.asarray(sigma, dtype=float).reshape(-1)
    if s.size != n:
        raise ValueError(f"expected {n} spins, got {s.size}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins must be +1 or -1")
    return s


def _log_marginal(spins: np.ndarray, a, bw) -> tuple[np.ndarray, np.ndarray]:
    """(a.s + sum_j log 2cosh(W^T s + b)_j, W^T s + b) for every row [1 | s]
    of ``spins``.

    ``bw`` is the (n + 1, n) block [b; W], so that W^T s + b is the one
    matmul [1 | s] [b; W].  For a stack of networks, ``a`` is (..., n) and
    ``bw`` (..., n + 1, n), and both outputs carry the leading stack axes.
    """
    theta = spins @ bw
    return a @ spins[:, 1:].T + log_two_cosh(theta).sum(axis=-1), theta


def log_marginal_table(params: RbmParams, spins: np.ndarray) -> np.ndarray:
    """Log marginal of the visible layer for every row of the (k, n) ``spins``."""
    spins = np.asarray(spins, dtype=float)
    return _log_marginal(
        np.column_stack([np.ones(len(spins)), spins]),
        params.visible_bias,
        np.vstack([params.hidden_bias, params.weights]),
    )[0]


def rbm_log_marginal(params: RbmParams, sigma) -> float:
    """Log of the hidden-summed weight exp(a.s) prod_j 2 cosh(W^T s + b)_j."""
    s = _spins(sigma, params.n_visible)
    return float(log_marginal_table(params, s[None, :])[0])


@dataclass(frozen=True)
class NqsState:
    """Pure-state ansatz made of an amplitude RBM and a phase RBM."""

    amplitude_net: RbmParams
    phase_net: RbmParams

    def __post_init__(self):
        if self.amplitude_net.n_visible != self.phase_net.n_visible:
            raise ValueError("amplitude and phase networks disagree in size")

    @property
    def n_qubits(self) -> int:
        return self.amplitude_net.n_visible

    @classmethod
    def uniform_init(
        cls,
        n_qubits: int,
        seed: int,
        scale: float = 0.01,
        phase_scale: float | None = None,
    ):
        """Seeded uniform initialization; the phase network may use its own scale.

        A wider phase initialization breaks the zero-phase symmetry of the
        ansatz, without which gradient descent cannot develop sign structure.
        One generator draws one uniform block per network, amplitude network
        first, as ``Ansatz.initial_parameters`` does, and splits it as [W | a | b].
        """
        n = n_qubits
        scales = (scale, scale if phase_scale is None else phase_scale)
        blocks = _uniform_blocks(n, seed, scales)
        parts = (np.split(block, [n * n, n * (n + 1)]) for block in blocks)
        return cls(*(RbmParams(w.reshape(n, n), a, b) for w, a, b in parts))


def to_state_vector(state: NqsState) -> StateVector:
    """Full amplitude vector in computational-index order (exact mode)."""
    theta = pack_parameters(state)
    return StateVector.normalized(Ansatz(state.n_qubits).wavefunction(theta))


def gibbs_sample(
    params: RbmParams,
    n_samples: int,
    burn_in: int = 100,
    thin: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Block Gibbs sampling of the visible marginal, chains in lockstep.

    K = min(_CHAINS, n_samples) chains start from seeded random visible
    configurations and advance together.  Each sweep resamples every chain's
    hidden layer given its visible one, P(h_j = +1 | s) =
    logistic(2 (W^T s + b)_j), and then its visible layer given the hidden
    one, P(s_i = +1 | h) = logistic(2 (W h + a)_i), from one (K, m + n)
    block of uniforms.  After ``burn_in`` sweeps, every ``thin``-th sweep
    emits each chain's visible configuration.  Returns an (n_samples,
    n_visible) array of +1/-1 spins, chain-major (chain 0's samples in sweep
    order, then chain 1's, ...) and truncated to ``n_samples``; identical
    seeds give identical output.
    """
    # Imported here so that importing the package does not load scipy.
    from scipy.special import expit

    if n_samples < 1 or thin < 1 or burn_in < 0:
        raise ValueError("need n_samples >= 1, thin >= 1, burn_in >= 0")
    n, m = params.n_visible, params.n_hidden
    chains = min(_CHAINS, n_samples)
    per_chain = -(-n_samples // chains)
    rng = np.random.default_rng(seed)
    s = (rng.integers(0, 2, size=(chains, n)) * 2 - 1).astype(float)
    w = params.weights
    a = params.visible_bias
    b = params.hidden_bias
    out = np.empty((per_chain, chains, n), dtype=np.int8)
    for t in range(burn_in + per_chain * thin):
        u = rng.random((chains, m + n))
        h = np.where(u[:, :m] < expit(2.0 * (s @ w + b)), 1.0, -1.0)
        s = np.where(u[:, m:] < expit(2.0 * (h @ w.T + a)), 1.0, -1.0)
        if t >= burn_in and (t - burn_in + 1) % thin == 0:
            out[(t - burn_in) // thin] = s
    return out.transpose(1, 0, 2).reshape(-1, n)[:n_samples]


def pack_parameters(state: NqsState) -> np.ndarray:
    """Flatten both networks as [a, b, W] for amplitude then phase."""
    blocks = [
        np.vstack([net.visible_bias, net.hidden_bias, net.weights])
        for net in (state.amplitude_net, state.phase_net)
    ]
    return np.concatenate(blocks, axis=None)


def n_parameters(n_qubits: int) -> int:
    return 2 * (n_qubits * n_qubits + 2 * n_qubits)


def _network_blocks(theta: np.ndarray, n_qubits: int) -> np.ndarray:
    """A flat parameter vector as a (2, n + 2, n) view: one block [a; b; W]
    per network, amplitude first.  An (R, P) stack gives (R, 2, n + 2, n)."""
    theta = np.asarray(theta, dtype=float)
    n = n_parameters(n_qubits)
    if theta.ndim not in (1, 2) or theta.shape[-1] != n:
        raise ValueError(f"expected {n} parameters, got {theta.shape}")
    return theta.reshape(theta.shape[:-1] + (2, n_qubits + 2, n_qubits))


def _uniform_blocks(n_qubits: int, seed: int, scales) -> list[np.ndarray]:
    """One seeded generator's uniform blocks of n (n + 2) values, one per
    network, each within +-its scale."""
    rng = np.random.default_rng(seed)
    size = n_qubits * (n_qubits + 2)
    return [rng.uniform(-scale, scale, size) for scale in scales]


class Ansatz:
    """The RBM pure state in exact mode: the seeded initial draw of a fit,
    the amplitudes of a stack of flat parameter vectors, and the last step of
    their gradient.  The table [1 | s] and the gradient's block order are
    built once; ``wavefunction`` keeps the tanh tables of its stack for the
    following ``gradient``.
    """

    def __init__(self, n_qubits: int):
        if n_qubits > EXACT_MODE_MAX_QUBITS:
            raise ValueError(
                f"exact mode is capped at {EXACT_MODE_MAX_QUBITS} qubits (got {n_qubits}): "
                f"the fit sums over all 2**{n_qubits} spin configurations"
            )
        # The float table [1 | s] of every spin configuration s: the column of
        # ones carries the hidden bias through the hidden layer's matmul and
        # gives the bias sums of the gradient contraction.
        spins = measurement.spin_table(n_qubits)
        self.spins = np.column_stack([np.ones(len(spins)), spins])
        self._tanh = None
        # Flat index of the gradient [a, b, W] of both networks in their
        # (n + 1) x (n + 1) blocks [[sum c, db], [da, dW]].
        blocks = np.arange(2 * (n_qubits + 1) ** 2).reshape(2, n_qubits + 1, -1)
        self._order = np.concatenate(
            [part for b in blocks for part in (b[1:, 0], b[0, 1:], b[1:, 1:].ravel())]
        )

    def initial_parameters(self, seed: int, projected: bool) -> np.ndarray:
        """The seeded initial draw of one restart: per network one uniform
        block of n (n + 2) values, the same values as draws of a, b and W in
        turn, within +-``INIT_SCALE`` (amplitude) and then
        +-``PHASE_INIT_SCALE``, or +-``PROJECTED_PHASE_INIT_SCALE`` for a fit
        that will be projected off kept states."""
        phase = PROJECTED_PHASE_INIT_SCALE if projected else PHASE_INIT_SCALE
        n = self.spins.shape[1] - 1
        return np.concatenate(_uniform_blocks(n, seed, (INIT_SCALE, phase)))

    def wavefunction(self, theta: np.ndarray) -> np.ndarray:
        """Normalized amplitudes, in computational-index order, of flat
        parameters ``theta``: (2^n,) for one vector, (m, 2^n) for an (m, P)
        stack, member r with the bits of ``theta[r]`` alone.

        All 2m networks go through one stacked ``_log_marginal``.  psi is
        exp(log p / 2 - peak + i phase / 2) over its norm, with the peak the
        row maximum of log p / 2, so no exponent exceeds zero.  The (..., 2,
        2^n, n) tables tanh(W^T s + b), amplitude network first, are the
        log-derivative factors of the gradient; they are kept for the
        following ``gradient``.
        """
        nets = _network_blocks(theta, self.spins.shape[1] - 1)
        log_m, hidden = _log_marginal(self.spins, nets[..., 0, :], nets[..., 1:, :])
        log_p = log_m[..., 0, :]
        log_p -= log_p.max(axis=-1, keepdims=True)
        # (log p, phase) / 2 interleaved: read as complex, the exponent of psi.
        exponent = np.multiply(log_m.swapaxes(-1, -2), 0.5, order="C")
        psi = np.exp(exponent.view(np.complex128)[..., 0])
        floats = psi.view(np.float64)
        floats /= np.sqrt(np.vecdot(floats, floats))[..., None]
        self._tanh = np.tanh(hidden)
        return psi

    def gradient(self, psi: np.ndarray, pulled, beta: np.ndarray) -> np.ndarray:
        """(m, P) gradient in the [a, b, W] layout of a cost C(psi) of the
        (m, P) stack last passed to ``wavefunction``, whose amplitudes are
        ``psi``.

        ``pulled`` is the conjugate of dC/dpsi* and ``beta`` the real
        psi . pulled, which the normalization of psi subtracts.
        """
        members = len(psi)
        # Per network, d cost / d [a, b, W] = c @ [s | tanh | s (x) tanh] for
        # c = Re u - beta |psi|^2 (amplitude) and -Im u (phase), u = pulled psi.
        # The rows of c are the real and imaginary floats of
        # conj(u - beta |psi|^2), and [1 | s]^T (c [1 | tanh]) is the block
        # [[sum c, db], [da, dW]] of each network, in one matmul.
        beta_psi = (psi.view(np.float64) * beta[:, None]).view(np.complex128)
        c = ((np.conj(pulled) - beta_psi) * np.conj(psi)).view(np.float64)
        c = c.reshape(members, -1, 2).transpose(0, 2, 1)
        ones = np.ones((*self._tanh.shape[:-1], 1))
        weighted = c[..., None] * np.concatenate([ones, self._tanh], axis=-1)
        blocks = self.spins.T @ weighted
        return blocks.reshape(members, -1).take(self._order, axis=1)
