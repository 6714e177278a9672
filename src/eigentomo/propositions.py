"""Randomized brute-force checks of the low-rank optimality bounds.

The four claims verified here, for a state rho with descending eigenvalues
p_1 >= ... >= p_n and eigenvectors v_1, ..., v_n:

1. No pure state beats the dominant eigenvector in fidelity; the optimum
   equals p_1.
2. No pure state beats the dominant eigenvector in trace distance; the
   optimum equals 1 - p_1, and every pure state stays within
   [1 - p_1, 1 - p_n] (a Weyl-inequality sandwich).
3. No rank-r state beats fidelity kappa(r) = p_1 + ... + p_r; the
   renormalized spectral truncation attains it.
4. Every rank-r state built on the top-r eigenvectors with weights
   q_i >= p_i attains trace distance exactly 1 - kappa(r), so the
   trace-distance optimum at fixed rank is massively degenerate.

All checks run on plain Hermitian matrices of any dimension.  Each check
draws its random challengers as one stack and scores the whole stack with
one fidelity or trace-norm call; the rank-r challengers of checks 3 and 4
come from one draw, ``_rank_r_challengers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measurement import bell_mixture, make_w_mixture
# The checks look both fidelities up by these module names at call time, so a
# caller can wrap or replace them.
from .states import fidelity as _default_fidelity
from .states import half_trace_norm, matrix_of
from .states import pure_fidelity as _default_pure_fidelity

DEFAULT_TOL = 1e-10
RANK_FIDELITY_TOL = 1e-9


@dataclass
class PropositionReport:
    """Outcome of one randomized proposition check."""

    proposition: int
    trials: int
    max_violation: float
    passed: bool
    note: str = ""
    witness: dict | None = None
    extras: dict = field(default_factory=dict)


@dataclass
class WeylReport:
    trials: int
    max_violation: float
    passed: bool


def haar_states(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, dim) array of Haar-random unit vectors (normalized Gaussians)."""
    g = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr(G G^dag)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def _sorted_spectrum(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1], vecs[:, ::-1]


def _rank_r_challengers(
    rng: np.random.Generator, dim: int, r: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Random rank-r states as (count, dim, r) orthonormal frames q and
    (count, r) simplex weights w; member k is q_k diag(w_k) q_k^dag."""
    g = rng.normal(size=(count, dim, r)) + 1j * rng.normal(size=(count, dim, r))
    frames, _ = np.linalg.qr(g)
    weights = rng.exponential(size=(count, r))
    weights /= weights.sum(axis=1, keepdims=True)
    return frames, weights


def _witness(rho: np.ndarray, challenger: np.ndarray) -> dict:
    return {
        "rho_re": rho.real.tolist(),
        "rho_im": rho.imag.tolist(),
        "challenger_re": challenger.real.tolist(),
        "challenger_im": challenger.imag.tolist(),
    }


def check_prop1(
    rho,
    n_challengers: int,
    seed: int,
    tol: float = DEFAULT_TOL,
) -> PropositionReport:
    """Haar-random pure states never exceed fidelity p_1 with rho."""
    mat = matrix_of(rho)
    vals, vecs = _sorted_spectrum(mat)
    if vals.size > 1 and vals[0] - vals[1] <= 1e-8:
        return PropositionReport(
            1, 0, 0.0, True, note="degenerate dominant eigenvalue; check skipped"
        )
    rng = np.random.default_rng(seed)
    challengers = haar_states(mat.shape[0], n_challengers, rng)
    fids = _default_pure_fidelity(mat, challengers)
    violation = float(max(0.0, fids.max() - vals[0]))
    attain_err = float(abs(_default_pure_fidelity(mat, vecs[:, 0]) - vals[0]))
    worst = challengers[int(np.argmax(fids))]
    return PropositionReport(
        1,
        n_challengers,
        max(violation, attain_err),
        max(violation, attain_err) <= tol,
        witness=_witness(mat, np.outer(worst, worst.conj())) if violation > tol else None,
        extras={
            "p1": float(vals[0]),
            "max_challenger_fidelity": float(fids.max()),
            "attainment_error": attain_err,
        },
    )


def check_prop2(
    rho, n_challengers: int, seed: int, tol: float = DEFAULT_TOL
) -> PropositionReport:
    """Pure-state trace distances stay within [1 - p_1, 1 - p_n].

    The dominant eigenvector attains the lower bound.
    """
    mat = matrix_of(rho)
    vals, vecs = _sorted_spectrum(mat)
    if vals.size > 1 and vals[0] - vals[1] <= 1e-8:
        return PropositionReport(
            2, 0, 0.0, True, note="degenerate dominant eigenvalue; check skipped"
        )
    rng = np.random.default_rng(seed)
    challengers = haar_states(mat.shape[0], n_challengers, rng)
    diffs = mat[None, :, :] - np.einsum("ku,kv->kuv", challengers, challengers.conj())
    dists = half_trace_norm(diffs)
    lower, upper = 1.0 - vals[0], 1.0 - vals[-1]
    low_viol = float(max(0.0, (lower - dists).max()))
    high_viol = float(max(0.0, (dists - upper).max()))
    top = vecs[:, 0]
    attained = half_trace_norm(mat - np.outer(top, top.conj()))
    attain_err = float(abs(attained - lower))
    violation = max(low_viol, high_viol, attain_err)
    return PropositionReport(
        2,
        n_challengers,
        violation,
        violation <= tol,
        extras={
            "lower": lower,
            "upper": upper,
            "attainment_error": attain_err,
            "min_distance": float(dists.min()),
        },
    )


def check_prop3(
    rho,
    r: int,
    n_challengers: int,
    seed: int,
    tol: float = RANK_FIDELITY_TOL,
) -> PropositionReport:
    """Random rank-r states never exceed fidelity kappa(r); truncation attains it.

    For every challenger, the projector D onto its support and the
    per-eigenvector captured weights k_j are also computed, and the identity
    Tr(D rho D) = sum_j p_j k_j is verified.
    """
    mat = matrix_of(rho)
    dim = mat.shape[0]
    if not 1 <= r <= dim:
        raise ValueError(f"rank {r} out of range 1..{dim}")
    vals, vecs = _sorted_spectrum(mat)
    kappa = float(vals[:r].sum())
    rng = np.random.default_rng(seed)

    frames, weights = _rank_r_challengers(rng, dim, r, n_challengers)
    adjoints = frames.conj().swapaxes(1, 2)
    taus = (frames * weights[:, None, :]) @ adjoints
    fids = _default_fidelity(mat, taus)
    best = int(np.argmax(fids))
    projs = frames @ adjoints
    captured = (np.abs(adjoints @ vecs) ** 2).sum(axis=1)
    lhs = np.real(np.trace(projs @ mat @ projs, axis1=1, axis2=2))
    b13_err = float(np.abs(lhs - captured @ vals).max())

    truncated = (vecs[:, :r] * (vals[:r] / kappa)) @ vecs[:, :r].conj().T
    attain_err = float(abs(_default_fidelity(mat, truncated) - kappa))
    violation = max(0.0, float(fids[best]) - kappa)
    passed = violation <= tol and attain_err <= tol and b13_err <= DEFAULT_TOL * 10
    return PropositionReport(
        3,
        n_challengers,
        float(max(violation, attain_err)),
        passed,
        witness=_witness(mat, taus[best]) if violation > tol else None,
        extras={
            "kappa": kappa,
            "attainment_error": attain_err,
            "b13_max_error": b13_err,
        },
    )


def check_prop4(
    rho, r: int, n_family: int, seed: int, tol: float = DEFAULT_TOL
) -> PropositionReport:
    """A whole family of rank-r states attains trace distance 1 - kappa(r).

    Members use the top-r eigenvectors of rho with weights q_i >= p_i summing
    to one; the feasible slack is distributed by simplex sampling.  The
    conjectured optimality of the renormalized truncation itself is probed by
    random rank-r challengers and reported, never asserted.
    """
    mat = matrix_of(rho)
    dim = mat.shape[0]
    if not 1 <= r <= dim:
        raise ValueError(f"rank {r} out of range 1..{dim}")
    vals, vecs = _sorted_spectrum(mat)
    kappa = float(vals[:r].sum())
    rng = np.random.default_rng(seed)

    shares = rng.exponential(size=(n_family, r))
    shares /= shares.sum(axis=1, keepdims=True)
    top = vecs[:, :r]
    family = (top * (vals[:r] + (1.0 - kappa) * shares)[:, None, :]) @ top.conj().T
    worst = float(np.abs(half_trace_norm(mat - family) - (1.0 - kappa)).max())

    frames, weights = _rank_r_challengers(rng, dim, r, min(n_family, 200))
    probe = (frames * weights[:, None, :]) @ frames.conj().swapaxes(1, 2)
    probe_best = float(half_trace_norm(mat - probe).min())

    return PropositionReport(
        4,
        n_family,
        worst,
        worst <= tol,
        extras={
            "kappa": kappa,
            "trace_conjecture_min_gap": probe_best - (1.0 - kappa),
        },
    )


def _weyl_violation(q_mat: np.ndarray, p_mat: np.ndarray) -> float:
    """Worst violation of the eigenvalue sandwich for M = Q + P.

    With descending eigenvalues (1-indexed): q_j + p_k <= m_i whenever
    j + k - n >= i, and m_i <= q_r + p_s whenever i >= r + s - 1.
    """
    n = q_mat.shape[0]
    q = np.linalg.eigvalsh(q_mat)[::-1]
    p = np.linalg.eigvalsh(p_mat)[::-1]
    m = np.linalg.eigvalsh(q_mat + p_mat)[::-1]
    pair_sums = q[:, None] + p[None, :]
    idx = np.arange(1, n + 1)
    index_sum = idx[:, None] + idx[None, :]
    worst = 0.0
    for i in range(1, n + 1):
        lower_mask = index_sum - n >= i
        if lower_mask.any():
            worst = max(worst, float(pair_sums[lower_mask].max() - m[i - 1]))
        upper_mask = index_sum - 1 <= i
        if upper_mask.any():
            worst = max(worst, float(m[i - 1] - pair_sums[upper_mask].min()))
    return worst


def check_weyl(
    q_matrix, p_matrix, n_trials: int, seed: int, tol: float = DEFAULT_TOL
) -> WeylReport:
    """Weyl's eigenvalue inequality for the given pair plus random pairs."""
    q_mat = matrix_of(q_matrix)
    p_mat = matrix_of(p_matrix)
    if q_mat.shape != p_mat.shape:
        raise ValueError("matrices must share a dimension")
    dim = q_mat.shape[0]
    rng = np.random.default_rng(seed)
    worst = _weyl_violation(q_mat, p_mat)
    for _ in range(n_trials):
        worst = max(
            worst, _weyl_violation(random_hermitian(dim, rng), random_hermitian(dim, rng))
        )
    return WeylReport(n_trials + 1, float(worst), worst <= tol)


@dataclass
class CorpusResult:
    reports: dict[str, list]
    passed: bool

    def max_violation(self) -> float:
        worst = 0.0
        for reports in self.reports.values():
            for rep in reports:
                worst = max(worst, rep.max_violation)
        return worst


def default_corpus(
    seed: int = 0, states_per_dim: int = 25, dims=(2, 4, 8, 16)
) -> list[tuple[str, np.ndarray]]:
    """Seeded random density matrices plus the named reference mixtures."""
    rng = np.random.default_rng(seed)
    corpus = []
    for dim in dims:
        for i in range(states_per_dim):
            corpus.append((f"random-dim{dim}-{i}", random_density(dim, rng)))
    corpus.append(("bell-mixture", bell_mixture().entries))
    corpus.append(
        ("w4-synthetic", make_w_mixture(4, [0.860, 0.063, 0.037], seed=7).entries)
    )
    corpus.append(
        ("w5-synthetic", make_w_mixture(5, [0.824, 0.073, 0.042], seed=7).entries)
    )
    return corpus


def run_corpus(
    corpus=None,
    trials: int = 500,
    rank: int = 2,
    seed: int = 0,
) -> CorpusResult:
    """Run every proposition check plus the Weyl check over a state corpus."""
    if corpus is None:
        corpus = default_corpus(seed)
    reports: dict[str, list] = {"prop1": [], "prop2": [], "prop3": [], "prop4": [], "weyl": []}
    rng = np.random.default_rng(seed + 1)
    passed = True
    for index, (_, mat) in enumerate(corpus):
        base = seed + 1000 * index
        dim = mat.shape[0]
        r = min(rank, dim)
        p1 = check_prop1(mat, trials, base)
        p2 = check_prop2(mat, trials, base + 1)
        p3 = check_prop3(mat, r, max(trials // 5, 20), base + 2)
        p4 = check_prop4(mat, r, max(trials // 5, 20), base + 3)
        probe = haar_states(dim, 1, rng)[0]
        weyl = check_weyl(-np.outer(probe, probe.conj()), mat, 2, base + 4)
        for rep in (p1, p2, p3, p4, weyl):
            passed = passed and rep.passed
        reports["prop1"].append(p1)
        reports["prop2"].append(p2)
        reports["prop3"].append(p3)
        reports["prop4"].append(p4)
        reports["weyl"].append(weyl)
    return CorpusResult(reports, passed)
