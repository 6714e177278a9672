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
   trace-distance optimum at fixed rank is massively degenerate.  That no
   rank-r sigma comes closer is not sampled, as Ky Fan's maximum principle
   (PNAS 35, 652 (1949)) proves it: with P the projector onto ker sigma,
   D >= Tr P (rho - sigma) = Tr P rho >= 1 - kappa(r).

All checks run on plain Hermitian matrices of any dimension.  Each check
draws its random challengers as one stack and scores the whole stack with
one call.  Checks 2 and 3 score in each challenger's own small space:
``pure_trace_distance`` solves one secular equation per pure state, and
``frame_fidelity`` diagonalizes one r x r core per rank-r frame.  Check 4
scores its family in rho's eigenbasis, where every member differs from rho
by a diagonal matrix (``_family_trace_distances``).  The attainment steps
of checks 2 and 3, and check 4's cross-check of its first member, run the
generic eigensolver paths (``half_trace_norm``, ``_default_fidelity``), so
every state also cross-checks the fast scorers against a general
eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measurement import bell_mixture, make_w_mixture
# The checks look their scorers up by these module names at call time, so a
# caller can wrap or replace them.
from .states import fidelity as _default_fidelity
from .states import frame_fidelity, half_trace_norm, matrix_of, pure_trace_distance
from .states import pure_fidelity as _default_pure_fidelity

DEFAULT_TOL = 1e-10
RANK_FIDELITY_TOL = 1e-9
#: Rank of the rank-r checks that ``run_corpus`` runs on each state.
CORPUS_RANK = 2


@dataclass
class PropositionReport:
    """Outcome of one randomized check."""

    trials: int
    max_violation: float
    passed: bool
    note: str = ""
    extras: dict = field(default_factory=dict)


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


def check_prop1(rho, n_challengers: int, seed: int) -> PropositionReport:
    """Haar-random pure states never exceed fidelity p_1 with rho."""
    mat = matrix_of(rho)
    vals, vecs = _sorted_spectrum(mat)
    if vals.size > 1 and vals[0] - vals[1] <= 1e-8:
        return PropositionReport(
            0, 0.0, True, note="degenerate dominant eigenvalue; check skipped"
        )
    rng = np.random.default_rng(seed)
    challengers = haar_states(mat.shape[0], n_challengers, rng)
    fids = _default_pure_fidelity(mat, challengers)
    violation = float(max(0.0, fids.max() - vals[0]))
    attain_err = float(abs(_default_pure_fidelity(mat, vecs[:, 0]) - vals[0]))
    return PropositionReport(
        n_challengers,
        max(violation, attain_err),
        max(violation, attain_err) <= DEFAULT_TOL,
        extras={
            "p1": float(vals[0]),
            "max_challenger_fidelity": float(fids.max()),
            "attainment_error": attain_err,
        },
    )


def check_prop2(rho, n_challengers: int, seed: int) -> PropositionReport:
    """Pure-state trace distances stay within [1 - p_1, 1 - p_n].

    The challengers are scored by ``pure_trace_distance`` (one secular
    solve each); the dominant eigenvector's distance, which attains the
    lower bound, by ``half_trace_norm`` of the explicit difference.
    """
    mat = matrix_of(rho)
    vals, vecs = _sorted_spectrum(mat)
    if vals.size > 1 and vals[0] - vals[1] <= 1e-8:
        return PropositionReport(
            0, 0.0, True, note="degenerate dominant eigenvalue; check skipped"
        )
    rng = np.random.default_rng(seed)
    challengers = haar_states(mat.shape[0], n_challengers, rng)
    dists = pure_trace_distance(mat, challengers)
    lower, upper = 1.0 - vals[0], 1.0 - vals[-1]
    low_viol = float(max(0.0, (lower - dists).max()))
    high_viol = float(max(0.0, (dists - upper).max()))
    top = vecs[:, 0]
    attained = half_trace_norm(mat - np.outer(top, top.conj()))
    attain_err = float(abs(attained - lower))
    violation = max(low_viol, high_viol, attain_err)
    return PropositionReport(
        n_challengers,
        violation,
        violation <= DEFAULT_TOL,
        extras={
            "lower": lower,
            "upper": upper,
            "attainment_error": attain_err,
            "min_distance": float(dists.min()),
        },
    )


def check_prop3(rho, r: int, n_challengers: int, seed: int) -> PropositionReport:
    """Random rank-r states never exceed fidelity kappa(r); truncation attains it.

    The challengers are scored by ``frame_fidelity`` from their frames and
    weights (one r x r core each); the truncation, by ``_default_fidelity``
    on the assembled d x d state.  For every challenger frame Q, the
    captured weights k_j are also computed, and the identity Tr(D rho D) =
    sum_j p_j k_j is verified for D = Q Q^dag, as Tr(Q^dag rho Q).
    """
    mat = matrix_of(rho)
    dim = mat.shape[0]
    if not 1 <= r <= dim:
        raise ValueError(f"rank {r} out of range 1..{dim}")
    vals, vecs = _sorted_spectrum(mat)
    kappa = float(vals[:r].sum())
    rng = np.random.default_rng(seed)

    # Challenger k is frames_k diag(weights_k) frames_k^dag: an orthonormal
    # (dim, r) frame and simplex weights.
    shape = (n_challengers, dim, r)
    frames, _ = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    weights = rng.exponential(size=(n_challengers, r))
    weights /= weights.sum(axis=1, keepdims=True)
    adjoints = frames.conj().swapaxes(1, 2)
    fids = frame_fidelity(mat, frames, weights)
    captured = (np.abs(adjoints @ vecs) ** 2).sum(axis=1)
    lhs = np.real(np.trace(adjoints @ mat @ frames, axis1=1, axis2=2))
    b13_err = float(np.abs(lhs - captured @ vals).max())

    truncated = (vecs[:, :r] * (vals[:r] / kappa)) @ vecs[:, :r].conj().T
    attain_err = float(abs(_default_fidelity(mat, truncated) - kappa))
    violation = max(0.0, float(fids.max()) - kappa)
    passed = (
        violation <= RANK_FIDELITY_TOL
        and attain_err <= RANK_FIDELITY_TOL
        and b13_err <= DEFAULT_TOL * 10
    )
    return PropositionReport(
        n_challengers,
        float(max(violation, attain_err)),
        passed,
        extras={
            "kappa": kappa,
            "max_challenger_fidelity": float(fids.max()),
            "attainment_error": attain_err,
            "b13_max_error": b13_err,
        },
    )


def _family_trace_distances(vals: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Trace distances to rho of the states V_r diag(q) V_r^dag, one per row
    q of the (..., r) ``weights``, from rho's descending spectrum ``vals``.

    V_r holds rho's top-r eigenvectors, so rho - tau is diagonal in rho's
    eigenbasis, with entries p_i - q_i for i <= r and p_i beyond.
    """
    r = weights.shape[-1]
    return 0.5 * (np.abs(vals[:r] - weights).sum(axis=-1) + np.abs(vals[r:]).sum())


def check_prop4(rho, r: int, n_family: int, seed: int) -> PropositionReport:
    """A whole family of rank-r states attains trace distance 1 - kappa(r).

    Members use the top-r eigenvectors of rho with weights q_i >= p_i summing
    to one; the feasible slack is distributed by simplex sampling.  Each
    member is scored in rho's eigenbasis by ``_family_trace_distances``, the
    absolute sum over the whole spectrum, so a non-PSD input still fails.
    The first member is also assembled as a d x d state and scored by
    ``half_trace_norm``; its distance must agree with its eigenbasis value and
    with 1 - kappa.  The lower bound D >= 1 - kappa for every rank-r state is
    not sampled, because Ky Fan's maximum principle proves it (see the
    module docstring).
    """
    mat = matrix_of(rho)
    dim = mat.shape[0]
    if not 1 <= r <= dim:
        raise ValueError(f"rank {r} out of range 1..{dim}")
    vals, vecs = _sorted_spectrum(mat)
    kappa = float(vals[:r].sum())
    shares = np.random.default_rng(seed).exponential(size=(n_family, r))
    shares /= shares.sum(axis=1, keepdims=True)
    family = vals[:r] + (1.0 - kappa) * shares
    dists = _family_trace_distances(vals, family)
    worst = float(np.abs(dists - (1.0 - kappa)).max())
    top = vecs[:, :r]
    attained = float(half_trace_norm(mat - (top * family[0]) @ top.conj().T))
    cross_err = abs(attained - float(dists[0]))
    violation = max(worst, cross_err, abs(attained - (1.0 - kappa)))
    return PropositionReport(
        n_family,
        violation,
        violation <= DEFAULT_TOL,
        extras={
            "kappa": kappa,
            "cross_check_error": cross_err,
        },
    )


def _sandwich_violation(q: np.ndarray, p: np.ndarray, m: np.ndarray) -> float:
    """Worst violation of the eigenvalue sandwich for M = Q + P, from the
    descending spectra q, p and m of Q, P and M.

    With descending eigenvalues (1-indexed): q_j + p_k <= m_i whenever
    j + k - n >= i, and m_i <= q_r + p_s whenever i >= r + s - 1.
    """
    n = q.shape[0]
    pair_sums = q[:, None] + p[None, :]
    idx = np.arange(1, n + 1)
    index_sum = idx[:, None] + idx[None, :]
    # Axis 0 is i; an empty mask leaves -inf or +inf, so that row adds a -inf term.
    i = idx[:, None, None]
    lower = np.where(index_sum - n >= i, pair_sums, -np.inf).max(axis=(1, 2)) - m
    upper = m - np.where(index_sum - 1 <= i, pair_sums, np.inf).min(axis=(1, 2))
    return float(max(0.0, lower.max(), upper.max()))


def check_weyl(q_matrix, p_matrix, n_trials: int, seed: int) -> PropositionReport:
    """Weyl's eigenvalue inequality for the given pair plus random pairs.

    The spectra of Q, P and Q + P of every pair come from one stacked
    ``eigvalsh``.
    """
    q_mat = matrix_of(q_matrix)
    p_mat = matrix_of(p_matrix)
    if q_mat.shape != p_mat.shape:
        raise ValueError("matrices must share a dimension")
    dim = q_mat.shape[0]
    rng = np.random.default_rng(seed)
    pairs = [(q_mat, p_mat)]
    for _ in range(n_trials):
        pairs.append((random_hermitian(dim, rng), random_hermitian(dim, rng)))
    stack = np.array([(q, p, q + p) for q, p in pairs])
    spectra = np.linalg.eigvalsh(stack)[..., ::-1]
    worst = max(_sandwich_violation(q, p, m) for q, p, m in spectra)
    return PropositionReport(n_trials + 1, worst, worst <= DEFAULT_TOL)


@dataclass
class CorpusResult:
    reports: dict[str, list[PropositionReport]]

    @property
    def passed(self) -> bool:
        return all(rep.passed for reports in self.reports.values() for rep in reports)

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


def run_corpus(corpus=None, trials: int = 500, seed: int = 0) -> CorpusResult:
    """Run every proposition check plus the Weyl check over a state corpus,
    the rank-r checks at r = min(``CORPUS_RANK``, dim)."""
    if corpus is None:
        corpus = default_corpus(seed)
    reports: dict[str, list] = {"prop1": [], "prop2": [], "prop3": [], "prop4": [], "weyl": []}
    rng = np.random.default_rng(seed + 1)
    for index, (_, mat) in enumerate(corpus):
        base = seed + 1000 * index
        dim = mat.shape[0]
        r = min(CORPUS_RANK, dim)
        p1 = check_prop1(mat, trials, base)
        p2 = check_prop2(mat, trials, base + 1)
        p3 = check_prop3(mat, r, max(trials // 5, 20), base + 2)
        p4 = check_prop4(mat, r, max(trials // 5, 20), base + 3)
        probe = haar_states(dim, 1, rng)[0]
        weyl = check_weyl(-np.outer(probe, probe.conj()), mat, 2, base + 4)
        reports["prop1"].append(p1)
        reports["prop2"].append(p2)
        reports["prop3"].append(p3)
        reports["prop4"].append(p4)
        reports["weyl"].append(weyl)
    return CorpusResult(reports)
