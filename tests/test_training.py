import numpy as np
import pytest

from eigentomo import costs, measurement as ms, rbm, training
from eigentomo import states as st


def quick_config(seed=0, **overrides):
    base = dict(
        cost=costs.CostSpec("l15"),
        max_epochs=3000,
        seed=seed,
        restarts=2,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            quick_config(max_epochs=0)
        with pytest.raises(ValueError):
            quick_config(restarts=0)


class TestTrainPureState:
    def test_recovers_ground_state(self):
        target = st.StateVector.normalized([1, 0, 0, 0])
        data = ms.exact_dataset(st.DensityMatrix.from_pure(target), ["zz", "xx"])
        psi, log = training.train_next_eigenstate(data, [], quick_config(seed=1))
        assert abs(target.overlap(psi)) ** 2 >= 0.999
        assert log.best_cost < 1e-3

    def test_recovers_bell_state(self):
        target = ms.bell_states()[0]
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ms.generate_basis_set(2, "full")
        )
        psi, _ = training.train_next_eigenstate(
            data, [], quick_config(seed=2, max_epochs=6000)
        )
        assert abs(target.overlap(psi)) ** 2 >= 0.999

    def test_mixed_data_approaches_dominant_eigenstate(self, bell_rho, bell_dataset):
        config = quick_config(seed=3, max_epochs=30000)
        psi, _ = training.train_next_eigenstate(bell_dataset, [], config)
        assert st.pure_fidelity(bell_rho, psi) >= 0.899

    def test_empty_dataset_rejected(self):
        # Kept states add no term to the cost, so an empty dataset leaves
        # nothing to fit whether or not there are any.
        data = ms.MeasurementDataset(1, (), np.zeros((0, 2)), None)
        kept = [st.StateVector.normalized([1, 0])]
        for previous in ([], kept):
            with pytest.raises(ValueError, match="dataset is empty"):
                training.train_next_eigenstate(data, previous, quick_config())

    def test_deterministic_logs(self, bell_dataset):
        config = quick_config(seed=4, max_epochs=400, restarts=2)
        _, log_a = training.train_next_eigenstate(bell_dataset, [], config)
        _, log_b = training.train_next_eigenstate(bell_dataset, [], config)
        assert np.array_equal(log_a.rows, log_b.rows)
        assert log_a.best_cost == log_b.best_cost

    def test_restart_seed_offsets(self, bell_dataset):
        # Restart k of a lockstep fit is, bit for bit, a lone fit seeded
        # base + k: same iterates, same costs, same final parameters.
        engine = costs.CostEngine(costs.CostSpec("l15"), bell_dataset)
        multi = quick_config(seed=10, max_epochs=150, restarts=3)
        fits = training._fit_restarts(engine, multi)
        for k, fit in enumerate(fits):
            single = quick_config(seed=10 + k, max_epochs=150, restarts=1)
            (alone,) = training._fit_restarts(engine, single)
            assert fit.costs == alone.costs and fit.cost == alone.cost
            assert fit.theta.tobytes() == alone.theta.tobytes()

    def test_best_so_far_non_increasing(self, bell_dataset):
        _, log = training.train_next_eigenstate(
            bell_dataset, [], quick_config(seed=5, max_epochs=500, restarts=1)
        )
        costs_logged = log.rows[:, 1]
        best = np.minimum.accumulate(costs_logged)
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))

    def test_log_layout(self, bell_dataset):
        # One row per accepted iteration, grouped by restart, numbered from 1.
        config = quick_config(seed=6, max_epochs=200, restarts=3)
        _, log = training.train_next_eigenstate(bell_dataset, [], config)
        rows = log.rows
        assert rows.dtype == np.float64 and rows.shape[1] == 3
        restart = rows[:, 2]
        assert np.all(np.diff(restart) >= 0)
        for k in range(3):
            iterations = rows[restart == k, 0]
            assert len(iterations) > 0
            assert np.array_equal(iterations, np.arange(1, len(iterations) + 1))
        assert any(rows[restart == k, 1][-1] == log.best_cost for k in range(3))

    def test_aborted_restart_leaves_the_others_unchanged(
        self, bell_dataset, monkeypatch
    ):
        config = quick_config(seed=20, max_epochs=300, restarts=3)
        _, clean = training.train_next_eigenstate(bell_dataset, [], config)
        evaluate = costs.CostEngine.value_and_grad
        stack_sizes = []

        def first_cost_of_restart1_nan(self, theta):
            cost, grad = evaluate(self, theta)
            if not stack_sizes:
                cost = cost.copy()
                cost[1] = np.nan
            stack_sizes.append(len(theta))
            return cost, grad

        monkeypatch.setattr(
            costs.CostEngine, "value_and_grad", first_cost_of_restart1_nan
        )
        _, log = training.train_next_eigenstate(bell_dataset, [], config)
        assert log.diagnostics == ["restart 1 aborted: non-finite initial cost"]
        assert np.array_equal(log.rows, clean.rows[clean.rows[:, 2] != 1])
        # One stacked call per tick: the survivors share each evaluation.
        assert stack_sizes[:2] == [3, 2]
        assert len(stack_sizes) < len(log.rows)

    def test_all_restarts_failing_raises(self, bell_dataset, monkeypatch):
        def broken(self, theta):
            return np.full(len(theta), np.nan), np.full(theta.shape, np.nan)

        monkeypatch.setattr(costs.CostEngine, "value_and_grad", broken)
        with pytest.raises(RuntimeError, match="all restarts failed"):
            training.train_next_eigenstate(bell_dataset, [], quick_config(seed=7))


def _recording_engine(monkeypatch):
    """Patch ``CostEngine.value_and_grad`` to record every stacked call as a
    list of (theta, cost, grad) members."""
    evaluate = costs.CostEngine.value_and_grad
    calls = []

    def recorded(self, theta):
        cost, grad = evaluate(self, theta)
        calls.append(list(zip(theta.copy(), cost.tolist(), grad.copy())))
        return cost, grad

    monkeypatch.setattr(costs.CostEngine, "value_and_grad", recorded)
    return calls


class TestLbfgs:
    def test_accepted_steps_meet_strong_wolfe(self, bell_dataset, monkeypatch):
        calls = _recording_engine(monkeypatch)
        _, log = training.train_next_eigenstate(
            bell_dataset, [], quick_config(seed=8, max_epochs=400, restarts=1)
        )
        points = [member for call in calls for member in call]
        # The iterates: the initial point, then each accepted trial in turn.
        accepted = [points[0]]
        remaining = iter(points[1:])
        for cost in log.rows[:, 1]:
            accepted.append(next(p for p in remaining if p[1] == cost))
        assert len(accepted) > 10
        for (x0, f0, g0), (x1, f1, g1) in zip(accepted, accepted[1:]):
            slope = float(g0 @ (x1 - x0))
            assert slope < 0
            assert f1 <= f0 + training.WOLFE_C1 * slope + 1e-12 * abs(f0)
            assert abs(float(g1 @ (x1 - x0))) <= -training.WOLFE_C2 * slope * (
                1 + 1e-9
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bell_fit_reaches_scipy_lbfgsb_cost(self, bell_dataset, seed):
        optimize = pytest.importorskip("scipy.optimize")
        engine = costs.CostEngine(costs.CostSpec("l15"), bell_dataset)
        start = rbm.Ansatz(2).initial_parameters(seed, projected=False)
        reference = optimize.minimize(
            engine.value_and_grad, start, jac=True, method="L-BFGS-B",
            options={"maxfun": 30000, "maxiter": 30000},
        )
        _, log = training.train_next_eigenstate(
            bell_dataset, [], quick_config(seed=seed, max_epochs=30000, restarts=1)
        )
        assert log.best_cost == pytest.approx(reference.fun, rel=1e-6)

    @pytest.mark.parametrize("max_epochs", [1, 2, 25])
    def test_evaluations_capped_per_restart(
        self, bell_dataset, monkeypatch, max_epochs
    ):
        calls = _recording_engine(monkeypatch)
        config = quick_config(seed=9, max_epochs=max_epochs, restarts=3)
        _, log = training.train_next_eigenstate(bell_dataset, [], config)
        # A restart is a member of every tick until it stops, so the tick
        # count is the largest number of points any restart scored.
        assert len(calls) == max_epochs
        assert len(log.rows) <= 3 * (max_epochs - 1)

    def test_nonsmooth_l1_fit_stops_cleanly(self, bell_dataset):
        engine = costs.CostEngine(costs.CostSpec("l1"), bell_dataset)
        config = quick_config(
            cost=costs.CostSpec("l1"), seed=15, max_epochs=30000, restarts=2
        )
        fits = training._fit_restarts(engine, config)
        for fit in fits:
            initial = engine.value(
                rbm.Ansatz(2).initial_parameters(15 + fit.restart, projected=False)
            )
            assert fit.error is None
            assert fit.cost <= initial
            assert fit.costs == sorted(fit.costs, reverse=True)

    def test_infinite_cost_beyond_a_wall_shortens_the_step(self):
        # 5 (theta - 1/2)^2 below theta = 1 and +inf from 1 on.  Each first
        # trial moves theta by 1 and lands past the wall.
        trials = []

        class WallEngine:
            def initial_parameters(self, seed):
                return np.array([0.1 + 0.05 * seed])

            def value_and_grad(self, thetas):
                theta = thetas[:, 0]
                trials.extend(theta.tolist())
                inside = theta < 1.0
                cost = np.where(inside, 5.0 * (theta - 0.5) ** 2, np.inf)
                grad = np.where(inside, 10.0 * (theta - 0.5), np.nan)
                return cost, grad[:, None]

        fits = training._fit_restarts(
            WallEngine(), quick_config(seed=0, max_epochs=50, restarts=3)
        )
        assert any(theta >= 1.0 for theta in trials)
        for fit in fits:
            assert fit.error is None
            assert np.isfinite(fit.theta).all() and np.isfinite(fit.cost)
            assert fit.costs and np.isfinite(fit.costs).all()
            assert fit.cost == pytest.approx(0.0, abs=1e-12)


class TestTrainNextEigenstate:
    def test_orthogonal_complement_recovery(self):
        # With the kept states spanning all but one direction, the fit can
        # only return that remaining direction, up to phase, whatever the
        # data say.
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            dim = 2**n
            unitary, _ = np.linalg.qr(
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            )
            previous = [st.StateVector.normalized(col) for col in unitary.T[:-1]]
            remaining = st.StateVector.normalized(unitary[:, -1])
            data = ms.exact_dataset(
                st.DensityMatrix.from_pure(previous[0]),
                ms.generate_basis_set(n, "full"),
            )
            psi, _ = training.train_next_eigenstate(
                data, previous, quick_config(seed=12)
            )
            assert abs(remaining.overlap(psi)) ** 2 == pytest.approx(1.0, abs=1e-14)
            for kept in previous:
                assert abs(kept.overlap(psi)) ** 2 <= 1e-28

    def test_projected_restarts_draw_wider_phases(self, bell_dataset):
        # A fit with kept states draws its phase network within
        # +-PROJECTED_PHASE_INIT_SCALE; the amplitude network and a plain
        # fit keep the step-1 draw.
        kept = (st.StateVector.normalized([1, 0, 0, 1]),)
        plain = costs.CostEngine(costs.CostSpec("l15"), bell_dataset)
        projected = costs.CostEngine(costs.CostSpec("l15"), bell_dataset, kept)
        half = rbm.n_parameters(2) // 2
        for seed in range(5):
            a, b = (e.initial_parameters(seed) for e in (plain, projected))
            ansatz = rbm.Ansatz(2)
            assert np.array_equal(a, ansatz.initial_parameters(seed, projected=False))
            assert np.array_equal(a[:half], b[:half])
            assert np.allclose(
                b[half:],
                a[half:] * rbm.PROJECTED_PHASE_INIT_SCALE / rbm.PHASE_INIT_SCALE,
                rtol=1e-15, atol=1e-16,
            )

    def test_second_bell_component(self, bell_rho, bell_dataset):
        from eigentomo import reconstruction as rc

        spectrum = st.eigendecompose(bell_rho)
        deflated = rc.deflate(bell_dataset, spectrum.eigenvector(0), 0.9)
        config = quick_config(seed=14, max_epochs=30000)
        psi, _ = training.train_next_eigenstate(
            deflated, [spectrum.eigenvector(0)], config
        )
        assert abs(spectrum.eigenvector(1).overlap(psi)) ** 2 >= 0.999
        assert abs(spectrum.eigenvector(0).overlap(psi)) ** 2 <= 1e-28

