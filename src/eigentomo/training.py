"""Seeded L-BFGS fitting of the RBM ansatz to measurement data.

Each restart runs L-BFGS (Liu & Nocedal, Math. Program. 45, 503 (1989)) on
the flat parameter vector: the two-loop recursion over the last ``MEMORY``
pairs gives the search direction, and a strong-Wolfe line search (Nocedal &
Wright, Numerical Optimization, Alg. 3.5/3.6: bracketing, then a zoom by
cubic interpolation with bisection as the fallback) gives the step.  The
first trial step is min(1, 1/|g|_1) on the first iteration and 1 after
that; a step still too short grows by ``EXTRAPOLATION``, and a trial with a
non-finite cost or gradient counts as a step too long.  A restart stops when
an iteration lowers the cost by at most ``FTOL`` relative, when the line
search finds no step that meets both Wolfe conditions (or the direction
does not descend), or when it has used ``max_epochs`` cost evaluations, the
initial one included.  Restart k starts from the engine's
``initial_parameters`` at seed ``base_seed + k``.

The restarts of one fit run in lockstep: each restart is a generator that
yields its next trial point and receives that point's cost and gradient,
and each tick evaluates the pending trials of every live restart in one
stacked cost call.  Stack members carry the bits of single calls, so each
restart takes exactly the steps it would take alone.  The best by final
cost wins, ties broken by restart index.  ``train_next_eigenstate`` is the
one entry point; its ``CostEngine`` fits within the orthogonal complement
of the previous states, if any.  It returns the winning state
vector and a compact log: each restart keeps one list of costs, one per
accepted iteration, joined into one array at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostEngine, CostSpec
from .measurement import MeasurementDataset
from .states import StateVector

#: (s, y) pairs kept by the L-BFGS history.
MEMORY = 10
#: Sufficient-decrease and curvature constants of the strong Wolfe conditions.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
#: Relative cost decrease at or below which a restart has converged: scipy's
#: L-BFGS-B default factr = 1e7 times the float64 epsilon.
FTOL = 1e7 * np.finfo(float).eps
#: Factor by which the line search grows a step that is still too short: the
#: largest extrapolation of Moré & Thuente's search (scipy's L-BFGS-B), which
#: bounds the next step by step + 4 (step - 0).
EXTRAPOLATION = 5.0


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``max_epochs`` caps the cost evaluations of each restart, the initial
    one included.
    """

    cost: CostSpec
    max_epochs: int = 20000
    seed: int = 0
    restarts: int = 3

    def __post_init__(self):
        if self.max_epochs < 1 or self.restarts < 1:
            raise ValueError("max_epochs and restarts must be positive")


@dataclass
class TrainingLog:
    """Cost log of one fit.

    ``rows`` is one (E, 3) float64 array of [iteration, cost, restart]: for
    every restart in index order, its cost after each accepted iteration
    1..E_k, so E is the total iteration count of the fit.
    """

    rows: np.ndarray
    best_cost: float
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class _Restart:
    """One restart of a fit: its current (and best) parameters and cost, and
    the cost after each of its accepted iterations."""

    restart: int
    theta: np.ndarray | None = None
    cost: float = np.inf
    error: str | None = None
    costs: list[float] = field(default_factory=list)


class _History:
    """The last ``MEMORY`` L-BFGS pairs (s, y) of one restart, oldest first,
    with the inner products the two-loop recursion reads.

    With R the upper triangle of S Y^T (R_ij = s_i . y_j, i <= j), the first
    loop of the recursion solves R alpha = S g and the second R^T w =
    D alpha - gamma (Y g - Y Y^T alpha), D = diag(R).  Both are products
    with R^{-1}, which is kept up to date: appending a pair adds one column,
    and dropping the oldest keeps the trailing block.
    """

    def __init__(self, size: int):
        self.s = np.empty((MEMORY, size))
        self.y = np.empty((MEMORY, size))
        self.r_inv = np.zeros((MEMORY, MEMORY))
        self.yy = np.empty((MEMORY, MEMORY))
        self.sy = np.empty(MEMORY)
        self.k = 0

    def direction(self, g: np.ndarray) -> np.ndarray:
        """The L-BFGS search direction -H g."""
        k = self.k
        if not k:
            return -g
        s, y, r_inv = self.s[:k], self.y[:k], self.r_inv[:k, :k]
        gamma = self.sy[k - 1] / self.yy[k - 1, k - 1]
        alpha = r_inv @ (s @ g)
        w = (self.sy[:k] * alpha - gamma * (y @ g - self.yy[:k, :k] @ alpha)) @ r_inv
        return (gamma * alpha) @ y - w @ s - gamma * g

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Append the pair (s, y), dropping the oldest when full; a pair
        without positive curvature s . y is skipped."""
        sy, yy = s @ y, y @ y
        if not sy > 0:
            return
        k = self.k
        if k == MEMORY:
            for table in (self.s, self.y, self.sy):
                table[:-1] = table[1:]
            for table in (self.r_inv, self.yy):
                table[:-1, :-1] = table[1:, 1:]
            k -= 1
        self.r_inv[:k, k] = -(self.r_inv[:k, :k] @ (self.s[:k] @ y)) / sy
        self.r_inv[k, k] = 1.0 / sy
        self.yy[k, :k] = self.yy[:k, k] = self.y[:k] @ y
        self.yy[k, k] = yy
        self.sy[k] = sy
        self.s[k], self.y[k] = s, y
        self.k = k + 1


def _interpolate(lo: tuple, hi: tuple) -> float:
    """Next zoom trial between (step, cost, slope) brackets ``lo`` and ``hi``:
    the minimizer of the cubic through both (Nocedal & Wright, eq. 3.59), or
    the midpoint when that minimizer is missing or not in the middle 60 % of
    the bracket."""
    (a, fa, da), (b, fb, db) = lo, hi
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    disc = d1 * d1 - da * db
    if disc >= 0 and math.isfinite(disc):
        d2 = math.copysign(math.sqrt(disc), b - a)
        denominator = db - da + 2.0 * d2
        if denominator:
            step = b - (b - a) * (db + d2 - d1) / denominator
            margin = 0.2 * abs(b - a)
            if min(a, b) + margin <= step <= max(a, b) - margin:
                return step
    return 0.5 * (a + b)


def _wolfe_search(theta, direction, cost, slope, step, budget):
    """Strong-Wolfe line search from ``theta`` along ``direction``, whose cost
    there is ``cost`` with directional derivative ``slope`` < 0.

    A generator: it yields each trial point and receives that point's
    (cost, grad).  Returns (point, cost, grad, trials); all but trials are
    None when no trial met both conditions before ``budget`` trials were
    used or the bracket shrank to nothing.
    """
    lo = (0.0, cost, slope)
    hi = (math.inf, math.inf, math.nan)
    for trials in range(1, budget + 1):
        point = theta + step * direction
        f, g = yield point
        d = float(g @ direction)
        if not (math.isfinite(f) and math.isfinite(d)):
            hi = (step, math.inf, math.nan)
        elif f > cost + WOLFE_C1 * step * slope or f >= lo[1]:
            hi = (step, f, d)
        elif abs(d) <= -WOLFE_C2 * slope:
            return point, f, g, trials
        else:
            if d * (hi[0] - step) >= 0:
                hi = lo
            lo = (step, f, d)
        if math.isinf(hi[0]):
            step = EXTRAPOLATION * step
        elif math.isfinite(hi[1]):
            step = _interpolate(lo, hi)
        else:
            step = 0.5 * (lo[0] + hi[0])
        if not min(lo[0], hi[0]) < step < max(lo[0], hi[0]):
            break
    return None, None, None, trials


def _lbfgs(r: _Restart, theta: np.ndarray, max_evals: int):
    """Run one restart's L-BFGS from ``theta``, recording into ``r``.

    A generator: it yields each point to evaluate, the initial one first,
    and receives that point's (cost, grad).
    """
    cost, grad = yield theta
    if not (math.isfinite(cost) and np.isfinite(grad).all()):
        r.error = "non-finite initial cost"
        return
    r.theta, r.cost = theta, cost
    history = _History(theta.size)
    step = min(1.0, 1.0 / float(np.abs(grad).sum() or 1.0))
    evals = 1
    while evals < max_evals:
        direction = history.direction(grad)
        slope = float(direction @ grad)
        if not slope < 0:
            return
        point, new_cost, new_grad, trials = yield from _wolfe_search(
            theta, direction, cost, slope, step, max_evals - evals
        )
        evals += trials
        if point is None:
            return
        r.theta, r.cost = point, new_cost
        r.costs.append(new_cost)
        if cost - new_cost <= FTOL * max(abs(cost), abs(new_cost), 1.0):
            return
        history.add(point - theta, new_grad - grad)
        theta, cost, grad, step = point, new_cost, new_grad, 1.0


def _fit_restarts(engine: CostEngine, config: TrainConfig) -> list[_Restart]:
    """Run every restart of one fit in lockstep; return the restarts in order.

    Each tick scores the pending trial of every live restart in one stacked
    ``value_and_grad`` call; a restart that stops leaves the stack.
    """
    restarts = [_Restart(k) for k in range(config.restarts)]
    draw = engine.initial_parameters
    live = [
        _lbfgs(r, draw(config.seed + r.restart), config.max_epochs) for r in restarts
    ]
    trials = [next(fit) for fit in live]
    while live:
        costs, grads = engine.value_and_grad(np.stack(trials))
        pending = []
        trials = []
        for fit, cost, grad in zip(live, costs.tolist(), grads):
            try:
                trials.append(fit.send((cost, grad)))
            except StopIteration:
                continue
            pending.append(fit)
        live = pending
    return restarts


def train_next_eigenstate(
    data: MeasurementDataset,
    previous: list[StateVector] | tuple[StateVector, ...],
    config: TrainConfig,
) -> tuple[StateVector, TrainingLog]:
    """Fit a pure ansatz state to measurement statistics, orthogonal to
    previously extracted states.

    ``previous`` must be orthonormal; with an empty ``previous`` this is a
    plain pure-state fit.  Returns the state vector of the best restart
    together with the training log; identical inputs give bit-identical
    results.
    """
    engine = CostEngine(config.cost, data, previous)
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
    log = TrainingLog(rows=rows, best_cost=winner.cost, diagnostics=diagnostics)
    psi = StateVector.normalized(engine.wavefunction(winner.theta))
    return psi, log
