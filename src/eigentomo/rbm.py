"""Restricted-Boltzmann-machine ansatz for pure states.

Two real-valued RBMs over +1/-1 spins define one pure state: the amplitude
network gives the modulus through its normalized marginal, and the phase
network gives the argument through half its log-marginal.  For small
registers every normalization is computed exactly by exhaustive summation;
block Gibbs sampling is available for the amplitude marginal beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import jsonio, measurement
from .states import StateVector


#: Largest register for which exact (exhaustive) normalization is used.
EXACT_MODE_MAX_QUBITS = 12


def log_sum_exp(values: np.ndarray) -> float:
    """Streaming-safe log of a sum of exponentials."""
    peak = float(values.max())
    return peak + float(np.log(np.exp(values - peak).sum()))


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
    """log(2 cosh x) without overflow: |x| + log1p(exp(-2|x|))."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


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
    """(a.s + sum_j log 2cosh(W^T s + b)_j, W^T s + b) for every row of ``spins``."""
    theta = spins @ w + b
    return spins @ a + log_two_cosh(theta).sum(axis=-1), theta


def log_marginal_table(params: RbmParams, spins: np.ndarray) -> np.ndarray:
    """Log marginal of the visible layer for every row of ``spins``."""
    return _log_marginal(
        spins, params.visible_bias, params.hidden_bias, params.weights
    )[0]


def rbm_log_marginal(params: RbmParams, sigma) -> float:
    """Log of the hidden-summed weight exp(a.s) prod_j 2 cosh(W^T s + b)_j."""
    s = _spins(sigma, params.n_visible)
    return float(log_marginal_table(params, s[None, :])[0])


def log_partition(params: RbmParams) -> float:
    """Log of the visible-layer normalization, by exhaustive summation.

    Only available up to EXACT_MODE_MAX_QUBITS visible nodes; beyond that,
    draw from the marginal with ``gibbs_sample`` instead.
    """
    spins = exact_spin_table(params.n_visible)
    return log_sum_exp(log_marginal_table(params, spins))


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
    amplitude vector in computational-index order together with
    tanh(W^T s + b) of the amplitude and of the phase network for every row
    of ``spins``; the tanh tables are the log-derivative factors of the
    analytic cost gradients.  Works on raw arrays, because the trainer calls
    it on every cost evaluation.
    """
    amplitude_net, phase_net = split_parameters(theta, spins.shape[1])
    log_p, theta_a = _log_marginal(spins, *amplitude_net)
    log_z = log_sum_exp(log_p)
    phase, theta_p = _log_marginal(spins, *phase_net)
    psi = np.exp(0.5 * (log_p - log_z) + 0.5j * phase)
    return psi, np.tanh(theta_a), np.tanh(theta_p)


def to_state_vector(state: NqsState) -> StateVector:
    """Full amplitude vector in computational-index order (exact mode)."""
    spins = exact_spin_table(state.n_qubits)
    return StateVector.normalized(wavefunction(pack_parameters(state), spins)[0])


def _hidden_on(s: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    return expit(2.0 * (s @ w + b))


def _visible_on(h: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    return expit(2.0 * (w @ h + a))


def gibbs_conditional_hidden(params: RbmParams, sigma) -> np.ndarray:
    """P(h_j = +1 | visible spins): elementwise logistic of 2(W^T s + b)."""
    s = _spins(sigma, params.n_visible)
    return _hidden_on(s, params.weights, params.hidden_bias)


def gibbs_conditional_visible(params: RbmParams, hidden) -> np.ndarray:
    """P(s_i = +1 | hidden spins): elementwise logistic of 2(W h + a)."""
    h = _spins(hidden, params.n_hidden)
    return _visible_on(h, params.weights, params.visible_bias)


def gibbs_sample(
    params: RbmParams,
    n_samples: int,
    burn_in: int = 100,
    thin: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Single-chain block Gibbs sampling of the visible marginal.

    Starting from a seeded random visible configuration, each sweep resamples
    the hidden layer given the visible one and then the visible layer given
    the hidden one.  After ``burn_in`` sweeps, every ``thin``-th visible
    configuration is emitted.  Returns an (n_samples, n_visible) array of
    +1/-1 spins; identical seeds give identical output.
    """
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
        h = np.where(u[:m] < _hidden_on(s, w, b), 1.0, -1.0)
        s = np.where(u[m:] < _visible_on(h, w, a), 1.0, -1.0)
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


def split_parameters(theta: np.ndarray, n_qubits: int):
    """Views ((a, b, W) amplitude, (a, b, W) phase) into a flat vector.

    The layout is the one ``join_parameters`` writes.
    """
    theta = np.asarray(theta, dtype=float)
    n = n_qubits
    if theta.shape != (n_parameters(n),):
        raise ValueError(f"expected {n_parameters(n)} parameters, got {theta.shape}")
    span = 2 * n + n * n
    return tuple(
        (
            theta[offset : offset + n],
            theta[offset + n : offset + 2 * n],
            theta[offset + 2 * n : offset + span].reshape(n, n),
        )
        for offset in (0, span)
    )


def unpack_parameters(theta: np.ndarray, n_qubits: int) -> NqsState:
    amplitude_net, phase_net = (
        RbmParams(w, a, b) for a, b, w in split_parameters(theta, n_qubits)
    )
    return NqsState(amplitude_net, phase_net)


def save_checkpoint(path, state: NqsState, seed: int | None = None) -> None:
    def net_doc(net: RbmParams) -> dict:
        return {
            "W": net.weights.tolist(),
            "a": net.visible_bias.tolist(),
            "b": net.hidden_bias.tolist(),
        }

    jsonio.dump(
        {
            "n": state.amplitude_net.n_visible,
            "m": state.amplitude_net.n_hidden,
            "lambda": net_doc(state.amplitude_net),
            "mu": net_doc(state.phase_net),
            "seed": seed,
        },
        path,
    )


def load_checkpoint(path) -> tuple[NqsState, int | None]:
    doc = jsonio.load(path)

    def net_of(key: str) -> RbmParams:
        sub = doc[key]
        return RbmParams(
            np.asarray(sub["W"], dtype=float),
            np.asarray(sub["a"], dtype=float),
            np.asarray(sub["b"], dtype=float),
        )

    seed = doc.get("seed")
    return (
        NqsState(net_of("lambda"), net_of("mu")),
        int(seed) if seed is not None else None,
    )
