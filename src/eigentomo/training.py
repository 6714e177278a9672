"""Seeded gradient-descent fitting of the RBM ansatz to measurement data.

Full-batch gradient descent with an adaptive step-halving rule: whenever a
step would increase the cost, the step is reverted, the learning rate halved
and the step retried, up to a fixed number of halvings.  A restart ends when
no halving gives a step that does not increase the cost, after ``patience``
epochs without a relative improvement above ``tol_rel``, once the cost
reaches 1e-15, or at ``max_epochs``.  Restart k draws its initial parameters
from seed ``base_seed + k``; restarts run one after another, and the best by
final cost wins, ties broken by restart index.  ``train_next_eigenstate`` is
the one entry point: with no previous states it is a plain pure-state fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import rbm
from .costs import CostEngine, CostSpec
from .measurement import MeasurementDataset
from .rbm import NqsState
from .states import StateVector

MAX_HALVINGS = 20
INIT_SCALE = 0.01
#: The phase network starts wider: with near-zero phases everywhere, descent
#: cannot build sign structure and stalls on nonnegative-amplitude states.
PHASE_INIT_SCALE = 0.5
#: Total squared overlap with previous states counted as orthogonal.
ORTHOGONALITY_TOL = 1e-3
_COST_FLOOR = 1e-15


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run."""

    cost: CostSpec
    learning_rate: float = 0.05
    max_epochs: int = 20000
    seed: int = 0
    patience: int = 200
    tol_rel: float = 1e-6
    restarts: int = 3

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_epochs < 1 or self.patience < 1 or self.restarts < 1:
            raise ValueError("max_epochs, patience and restarts must be positive")
        if not 0 < self.tol_rel < 1:
            raise ValueError("tol_rel must lie in (0, 1)")


@dataclass
class TrainingLog:
    """Per-epoch rows (epoch, cost, grad_norm, learning_rate, restart)."""

    rows: list[tuple[int, float, float, float, int]]
    winner_restart: int
    best_cost: float
    diagnostics: list[str] = field(default_factory=list)
    orthogonality_ok: bool | None = None


@dataclass
class _RestartResult:
    restart: int
    theta: np.ndarray | None
    cost: float
    rows: list[tuple[int, float, float, float, int]]
    error: str | None = None


def _run_restart(
    engine: CostEngine, config: TrainConfig, restart: int
) -> _RestartResult:
    rng = np.random.default_rng(config.seed + restart)
    n = engine.n_qubits
    theta = rbm.join_parameters(
        *(
            (
                rng.uniform(-scale, scale, size=n),
                rng.uniform(-scale, scale, size=n),
                rng.uniform(-scale, scale, size=(n, n)),
            )
            for scale in (INIT_SCALE, PHASE_INIT_SCALE)
        )
    )
    rows: list[tuple[int, float, float, float, int]] = []

    cost, grad = engine.value_and_grad(theta)
    if not np.isfinite(cost) or not np.all(np.isfinite(grad)):
        return _RestartResult(restart, None, np.inf, rows, "non-finite initial cost")

    lr = config.learning_rate
    best_cost = cost
    best_theta = theta.copy()
    stall = 0
    for epoch in range(1, config.max_epochs + 1):
        # The gradient at the accepted point doubles as the next step's
        # direction, so the common path costs one evaluation per epoch.
        accepted = False
        for _ in range(MAX_HALVINGS + 1):
            candidate = theta - lr * grad
            new_cost, new_grad = engine.value_and_grad(candidate)
            if (
                np.isfinite(new_cost)
                and np.all(np.isfinite(new_grad))
                and new_cost <= cost
            ):
                theta = candidate
                cost = new_cost
                grad = new_grad
                accepted = True
                break
            lr *= 0.5
        gnorm = float(np.linalg.norm(grad))
        if not accepted:
            rows.append((epoch, cost, gnorm, lr, restart))
            break

        rows.append((epoch, cost, gnorm, lr, restart))
        if cost < best_cost:
            improvement = (best_cost - cost) / max(best_cost, _COST_FLOOR)
            best_cost = cost
            best_theta = theta.copy()
            stall = 0 if improvement > config.tol_rel else stall + 1
        else:
            stall += 1
        if stall >= config.patience or cost <= _COST_FLOOR:
            break

    return _RestartResult(restart, best_theta, best_cost, rows)


def train_next_eigenstate(
    data: MeasurementDataset,
    previous: list[StateVector] | tuple[StateVector, ...],
    config: TrainConfig,
) -> tuple[NqsState, TrainingLog]:
    """Fit a pure ansatz state to measurement statistics, orthogonal to
    previously extracted states.

    With an empty ``previous`` this is a plain pure-state fit.  Returns the
    best state over all restarts together with the full training log;
    identical inputs give bit-identical results.  If the trained state fails
    to reach the orthogonality tolerance, the failure is flagged in the log
    and the state is still returned.
    """
    spec = replace(config.cost, orth_states=tuple(previous))
    if data.n_records == 0 and not spec.orth_states:
        raise ValueError("dataset is empty and no orthogonality penalty is active")
    engine = CostEngine(spec, data)
    results = [_run_restart(engine, config, k) for k in range(config.restarts)]

    diagnostics = [
        f"restart {r.restart} aborted: {r.error}" for r in results if r.error
    ]
    survivors = [r for r in results if r.error is None]
    if not survivors:
        raise RuntimeError("all restarts failed: " + "; ".join(diagnostics))
    winner = min(survivors, key=lambda r: (r.cost, r.restart))

    rows = [row for r in results for row in r.rows]
    log = TrainingLog(
        rows=rows,
        winner_restart=winner.restart,
        best_cost=winner.cost,
        diagnostics=diagnostics,
    )
    state = rbm.unpack_parameters(winner.theta, engine.n_qubits)
    if previous:
        psi = rbm.to_state_vector(state)
        total = float(
            sum(abs(prev.overlap(psi)) ** 2 for prev in previous)
        )
        log.orthogonality_ok = total <= ORTHOGONALITY_TOL
        if not log.orthogonality_ok:
            log.diagnostics.append(
                f"orthogonality not reached: total squared overlap {total:.3e}"
            )
    return state, log
