"""Seeded gradient-descent fitting of the RBM ansatz to measurement data.

Full-batch gradient descent with an adaptive step-halving rule: whenever a
step would increase the cost, the step is reverted, the learning rate halved
and the step retried, up to a fixed number of halvings.  A restart ends when
no halving gives a step that does not increase the cost, after ``patience``
epochs without a relative improvement above ``tol_rel``, once the cost
reaches 1e-15, or at ``max_epochs``.  Restart k draws its initial parameters
from seed ``base_seed + k``.  The restarts of one fit run in lockstep: each
tick evaluates one candidate step of every live restart in one stacked cost
call, and a restart that stops leaves the stack; each restart still takes
exactly the steps it would take alone.  The best by final cost wins, ties
broken by restart index.  ``train_next_eigenstate`` is
the one entry point: with no previous states it is a plain pure-state fit.
It returns the winning state vector and a compact log: each restart keeps
one list of end-of-epoch costs, joined into one array at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import rbm
from .costs import CostEngine, CostSpec
from .measurement import MeasurementDataset
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
    """Cost log of one fit.

    ``rows`` is one (E, 3) float64 array of [epoch, cost, restart]: for every
    restart in index order, its end-of-epoch costs for epochs 1..E_k, so E is
    the total epoch count of the fit.
    """

    rows: np.ndarray
    winner_restart: int
    best_cost: float
    diagnostics: list[str] = field(default_factory=list)
    orthogonality_ok: bool | None = None


@dataclass
class _Restart:
    """One restart of a fit: its running state, best parameters and the cost
    at the end of each of its epochs so far."""

    restart: int
    lr: float
    theta: np.ndarray | None = None
    cost: float = np.inf
    error: str | None = None
    stall: int = 0
    halvings: int = 0
    costs: list[float] = field(default_factory=list)


def _initial_parameters(n: int, seed: int) -> np.ndarray:
    """The seeded initial draw of one restart, in the flat parameter layout."""
    rng = np.random.default_rng(seed)
    return rbm.join_parameters(
        *(
            (
                rng.uniform(-scale, scale, size=n),
                rng.uniform(-scale, scale, size=n),
                rng.uniform(-scale, scale, size=(n, n)),
            )
            for scale in (INIT_SCALE, PHASE_INIT_SCALE)
        )
    )


def _fit_restarts(engine: CostEngine, config: TrainConfig) -> list[_Restart]:
    """Run every restart of one fit in lockstep; return the restarts in order.

    Each tick scores one candidate per live restart in one stacked
    ``value_and_grad`` call; a restart that stops leaves the stack.  The
    stacked members carry the bits of single calls, so each restart sees the
    evaluations it would see alone.
    """
    restarts = [_Restart(k, config.learning_rate) for k in range(config.restarts)]
    n = engine.n_qubits
    theta = np.stack([_initial_parameters(n, config.seed + r.restart) for r in restarts])
    cost, grad = engine.value_and_grad(theta)
    finite = np.isfinite(cost) & np.isfinite(grad).all(axis=1)
    for r, ok in zip(restarts, finite.tolist()):
        if ok:
            r.cost = float(cost[r.restart])
        else:
            r.error = "non-finite initial cost"
    live = [r for r in restarts if r.error is None]
    theta, grad = theta[finite], grad[finite]
    # Steps never raise the cost, so a restart's best parameters are those of
    # its last improving step: a row view of that tick's stack, never written.
    for r, row in zip(live, theta):
        r.theta = row
    rates = np.full((len(live), 1), config.learning_rate)
    while live:
        # The gradient at the accepted point doubles as the next step's
        # direction, so the common path costs one evaluation per epoch.
        candidate = theta - rates * grad
        new_cost, new_grad = engine.value_and_grad(candidate)
        new_costs = new_cost.tolist()
        # A NaN or infinite cost fails the comparison; rows with a non-finite
        # gradient are looked up only when the stack has one.
        accepted = [-math.inf < c <= r.cost for c, r in zip(new_costs, live)]
        if not np.isfinite(new_grad).all():
            finite = np.isfinite(new_grad).all(axis=1).tolist()
            accepted = [ok and f for ok, f in zip(accepted, finite)]
        if all(accepted):
            theta, grad = candidate, new_grad
        else:
            mask = np.array(accepted)[:, None]
            theta = np.where(mask, candidate, theta)
            grad = np.where(mask, new_grad, grad)
        halved = False
        stopped = []
        for i, (r, ok, c) in enumerate(zip(live, accepted, new_costs)):
            previous = r.cost
            if ok:
                r.cost = c
            else:
                # Halve the step and retry, up to MAX_HALVINGS times an epoch.
                r.lr *= 0.5
                r.halvings += 1
                halved = True
                if r.halvings <= MAX_HALVINGS:
                    continue
            r.costs.append(r.cost)
            stop = not ok or len(r.costs) == config.max_epochs
            if ok:
                if c < previous:
                    improvement = (previous - c) / max(previous, _COST_FLOOR)
                    r.theta = theta[i]
                    r.stall = 0 if improvement > config.tol_rel else r.stall + 1
                else:
                    r.stall += 1
                stop = stop or r.stall >= config.patience or c <= _COST_FLOOR
            r.halvings = 0
            if stop:
                stopped.append(i)
        if stopped:
            keep = [i for i in range(len(live)) if i not in stopped]
            live = [live[i] for i in keep]
            theta, grad = theta[keep], grad[keep]
        if halved or stopped:
            rates = np.array([[r.lr] for r in live])
    return restarts


def train_next_eigenstate(
    data: MeasurementDataset,
    previous: list[StateVector] | tuple[StateVector, ...],
    config: TrainConfig,
) -> tuple[StateVector, TrainingLog]:
    """Fit a pure ansatz state to measurement statistics, orthogonal to
    previously extracted states.

    With an empty ``previous`` this is a plain pure-state fit.  Returns the
    state vector of the best restart together with the training log;
    identical inputs give bit-identical results.  If the trained state fails
    to reach the orthogonality tolerance, the failure is flagged in the log
    and the state is still returned.
    """
    spec = replace(config.cost, orth_states=tuple(previous))
    if data.n_records == 0 and not spec.orth_states:
        raise ValueError("dataset is empty and no orthogonality penalty is active")
    engine = CostEngine(spec, data)
    results = _fit_restarts(engine, config)

    diagnostics = [
        f"restart {r.restart} aborted: {r.error}" for r in results if r.error
    ]
    survivors = [r for r in results if r.error is None]
    if not survivors:
        raise RuntimeError("all restarts failed: " + "; ".join(diagnostics))
    winner = min(survivors, key=lambda r: (r.cost, r.restart))

    lengths = [len(r.costs) for r in results]
    rows = np.column_stack(
        [
            np.concatenate([np.arange(1, k + 1) for k in lengths]),
            np.concatenate([r.costs for r in results]),
            np.repeat([r.restart for r in results], lengths),
        ]
    )
    log = TrainingLog(
        rows=rows,
        winner_restart=winner.restart,
        best_cost=winner.cost,
        diagnostics=diagnostics,
    )
    psi = rbm.to_state_vector(rbm.unpack_parameters(winner.theta, engine.n_qubits))
    if previous:
        total = float(
            sum(abs(prev.overlap(psi)) ** 2 for prev in previous)
        )
        log.orthogonality_ok = total <= ORTHOGONALITY_TOL
        if not log.orthogonality_ok:
            log.diagnostics.append(
                f"orthogonality not reached: total squared overlap {total:.3e}"
            )
    return psi, log
