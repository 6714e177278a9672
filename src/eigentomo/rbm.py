"""Restricted-Boltzmann-machine ansatz for pure states.

Two real-valued RBMs over +1/-1 spins define one pure state: the amplitude
network gives the modulus through its normalized marginal, and the phase
network gives the argument through half its log-marginal.  For small
registers every normalization is computed exactly by exhaustive summation
inside ``wavefunction``, the one evaluator of the ansatz, which evaluates
both networks as one stacked (2, ...) pass, and the 2R networks of R
parameter vectors as one (R, 2, ...) pass; block Gibbs sampling is
available for the amplitude marginal beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measurement
from .measurement import EXACT_MODE_MAX_QUBITS
from .states import StateVector


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

    @property
    def n_parameters(self) -> int:
        return self.weights.size + self.visible_bias.size + self.hidden_bias.size

    @classmethod
    def zeros(cls, n: int) -> "RbmParams":
        return cls(np.zeros((n, n)), np.zeros(n), np.zeros(n))

    @classmethod
    def uniform_init(cls, n: int, rng: np.random.Generator, scale: float = 0.01):
        return cls(
            rng.uniform(-scale, scale, size=(n, n)),
            rng.uniform(-scale, scale, size=n),
            rng.uniform(-scale, scale, size=n),
        )


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


def exact_spin_table(n_qubits: int) -> np.ndarray:
    """Float (2^n, n) spin table for exhaustive sums, within the exact-mode cap."""
    if n_qubits > EXACT_MODE_MAX_QUBITS:
        raise ValueError(
            f"exact mode is capped at {EXACT_MODE_MAX_QUBITS} qubits "
            f"(got {n_qubits}); use gibbs_sample for larger registers"
        )
    return measurement.spin_table(n_qubits).astype(float)


def _log_marginal(spins: np.ndarray, a, b, w) -> tuple[np.ndarray, np.ndarray]:
    """(a.s + sum_j log 2cosh(W^T s + b)_j, W^T s + b) for every row of ``spins``.

    For a stack of networks, ``a`` is (..., n), ``b`` (..., 1, n) and ``w``
    (..., n, n), and both outputs carry the leading stack axes.
    """
    theta = spins @ w + b
    return a @ spins.T + log_two_cosh(theta).sum(axis=-1), theta


def log_marginal_table(params: RbmParams, spins: np.ndarray) -> np.ndarray:
    """Log marginal of the visible layer for every row of ``spins``."""
    return _log_marginal(
        spins, params.visible_bias, params.hidden_bias, params.weights
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
        """
        rng = np.random.default_rng(seed)
        return cls(
            RbmParams.uniform_init(n_qubits, rng, scale),
            RbmParams.uniform_init(
                n_qubits, rng, scale if phase_scale is None else phase_scale
            ),
        )


def wavefunction(theta: np.ndarray, spins: np.ndarray):
    """Amplitudes and hidden-unit tanh tables of flat parameters ``theta``.

    ``spins`` is the float (2^n, n) spin table.  Returns the normalized
    amplitude vector in computational-index order together with the
    (2, 2^n, n) stack of tanh(W^T s + b), amplitude network first, for every
    row of ``spins``; the tanh tables are the log-derivative factors of the
    analytic cost gradients.  An (R, P) stack of parameter vectors gives
    (R, 2^n) amplitudes and (R, 2, 2^n, n) tables, member r with the bits of
    ``theta[r]`` alone.  All 2R networks go through one stacked
    ``_log_marginal``.  Works on raw arrays, because the trainer calls it on
    every cost evaluation.
    """
    n = spins.shape[1]
    nets = _network_rows(theta, n)
    a, b, w = nets[..., :n], nets[..., None, n : 2 * n], nets[..., 2 * n :]
    log_m, hidden = _log_marginal(spins, a, b, w.reshape(w.shape[:-1] + (n, n)))
    log_p, phase = log_m[..., 0, :], log_m[..., 1, :]
    psi = np.exp(0.5 * (log_p - log_sum_exp(log_p)[..., None]) + 0.5j * phase)
    return psi, np.tanh(hidden)


def to_state_vector(state: NqsState) -> StateVector:
    """Full amplitude vector in computational-index order (exact mode)."""
    spins = exact_spin_table(state.n_qubits)
    return StateVector.normalized(wavefunction(pack_parameters(state), spins)[0])


def gibbs_sample(
    params: RbmParams,
    n_samples: int,
    burn_in: int = 100,
    thin: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Single-chain block Gibbs sampling of the visible marginal.

    Starting from a seeded random visible configuration, each sweep resamples
    the hidden layer given the visible one, P(h_j = +1 | s) =
    logistic(2 (W^T s + b)_j), and then the visible layer given the hidden
    one, P(s_i = +1 | h) = logistic(2 (W h + a)_i).  After ``burn_in``
    sweeps, every ``thin``-th visible configuration is emitted.  Returns an
    (n_samples, n_visible) array of +1/-1 spins; identical seeds give
    identical output.
    """
    # Imported here so that importing the package does not load scipy.
    from scipy.special import expit

    if n_samples < 1 or thin < 1 or burn_in < 0:
        raise ValueError("need n_samples >= 1, thin >= 1, burn_in >= 0")
    n, m = params.n_visible, params.n_hidden
    rng = np.random.default_rng(seed)
    s = (rng.integers(0, 2, size=n) * 2 - 1).astype(float)
    w = params.weights
    a = params.visible_bias
    b = params.hidden_bias
    out = np.empty((n_samples, n), dtype=np.int8)
    total = burn_in + n_samples * thin
    chunk = 8192
    uniforms = np.empty((0, m + n))
    ptr = 0
    emitted = 0
    for t in range(total):
        if ptr == uniforms.shape[0]:
            uniforms = rng.random((min(chunk, total - t), m + n))
            ptr = 0
        u = uniforms[ptr]
        ptr += 1
        h = np.where(u[:m] < expit(2.0 * (s @ w + b)), 1.0, -1.0)
        s = np.where(u[m:] < expit(2.0 * (w @ h + a)), 1.0, -1.0)
        if t >= burn_in and (t - burn_in + 1) % thin == 0:
            out[emitted] = s
            emitted += 1
    return out


def join_parameters(amplitude, phase) -> np.ndarray:
    """Flat vector [a, b, W] of the amplitude then the phase (a, b, W) triple.

    The inverse of ``split_parameters``.
    """
    (a, b, w), (pa, pb, pw) = amplitude, phase
    return np.concatenate([a, b, w.ravel(), pa, pb, pw.ravel()])


def pack_parameters(state: NqsState) -> np.ndarray:
    """Flatten both networks as [a, b, W] for amplitude then phase."""
    amp, phase = state.amplitude_net, state.phase_net
    return join_parameters(
        (amp.visible_bias, amp.hidden_bias, amp.weights),
        (phase.visible_bias, phase.hidden_bias, phase.weights),
    )


def n_parameters(n_qubits: int) -> int:
    return 2 * (n_qubits * n_qubits + 2 * n_qubits)


def _network_rows(theta: np.ndarray, n_qubits: int) -> np.ndarray:
    """A flat parameter vector as a (2, n_parameters / 2) view: one row
    [a, b, W] per network, amplitude first.  An (R, P) stack gives (R, 2, P / 2)."""
    theta = np.asarray(theta, dtype=float)
    n = n_parameters(n_qubits)
    if theta.ndim not in (1, 2) or theta.shape[-1] != n:
        raise ValueError(f"expected {n} parameters, got {theta.shape}")
    return theta.reshape(theta.shape[:-1] + (2, n // 2))


def split_parameters(theta: np.ndarray, n_qubits: int):
    """Views ((a, b, W) amplitude, (a, b, W) phase) into a flat vector.

    The layout is the one ``join_parameters`` writes.
    """
    n = n_qubits
    return tuple(
        (row[:n], row[n : 2 * n], row[2 * n :].reshape(n, n))
        for row in _network_rows(theta, n)
    )


def unpack_parameters(theta: np.ndarray, n_qubits: int) -> NqsState:
    amplitude_net, phase_net = (
        RbmParams(w, a, b) for a, b, w in split_parameters(theta, n_qubits)
    )
    return NqsState(amplitude_net, phase_net)
