import numpy as np
import pytest

from eigentomo import costs, measurement as ms, training
from eigentomo import states as st


def quick_config(seed=0, **overrides):
    base = dict(
        cost=costs.CostSpec("l15"),
        learning_rate=0.5,
        max_epochs=3000,
        seed=seed,
        patience=150,
        tol_rel=1e-6,
        restarts=2,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            quick_config(learning_rate=-1.0)
        with pytest.raises(ValueError):
            quick_config(tol_rel=1.5)
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
        config = quick_config(seed=3, max_epochs=30000, patience=400, tol_rel=1e-7)
        psi, _ = training.train_next_eigenstate(bell_dataset, [], config)
        assert st.pure_fidelity(bell_rho, psi) >= 0.899

    def test_empty_dataset_rejected(self):
        data = ms.MeasurementDataset(1, (), np.zeros((0, 2)), None, "exact")
        with pytest.raises(ValueError):
            training.train_next_eigenstate(data, [], quick_config())

    def test_deterministic_logs(self, bell_dataset):
        config = quick_config(seed=4, max_epochs=400, restarts=2)
        _, log_a = training.train_next_eigenstate(bell_dataset, [], config)
        _, log_b = training.train_next_eigenstate(bell_dataset, [], config)
        assert np.array_equal(log_a.rows, log_b.rows)
        assert log_a.winner_restart == log_b.winner_restart

    def test_restart_seed_offsets(self, bell_dataset):
        multi = quick_config(seed=10, max_epochs=150, restarts=3, patience=150)
        _, log_multi = training.train_next_eigenstate(bell_dataset, [], multi)
        single = quick_config(seed=11, max_epochs=150, restarts=1, patience=150)
        _, log_single = training.train_next_eigenstate(bell_dataset, [], single)
        restart1 = log_multi.rows[log_multi.rows[:, 2] == 1]
        assert np.array_equal(restart1[:, 1], log_single.rows[:, 1])

    def test_best_so_far_non_increasing(self, bell_dataset):
        _, log = training.train_next_eigenstate(
            bell_dataset, [], quick_config(seed=5, max_epochs=500, restarts=1)
        )
        costs_logged = log.rows[:, 1]
        best = np.minimum.accumulate(costs_logged)
        assert all(b <= a + 1e-15 for a, b in zip(best, best[1:]))

    def test_log_layout(self, bell_dataset):
        # Unbounded patience: every restart runs the full epoch budget.
        config = quick_config(seed=6, max_epochs=200, restarts=3, patience=10**6)
        _, log = training.train_next_eigenstate(bell_dataset, [], config)
        rows = log.rows
        assert rows.dtype == np.float64 and rows.shape == (3 * 200, 3)
        restart = rows[:, 2]
        assert np.all(np.diff(restart) >= 0)
        for k in range(3):
            assert np.array_equal(rows[restart == k, 0], np.arange(1, 201))
        assert rows[restart == log.winner_restart, 1][-1] == log.best_cost

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
            return np.nan, np.full(theta.shape, np.nan)

        monkeypatch.setattr(costs.CostEngine, "value_and_grad", broken)
        with pytest.raises(RuntimeError, match="all restarts failed"):
            training.train_next_eigenstate(bell_dataset, [], quick_config(seed=7))


class TestTrainNextEigenstate:
    def test_orthogonal_complement_recovery(self):
        # With the penalty states spanning all but one direction, the only
        # zero-penalty states are that remaining direction up to phase.
        data = ms.MeasurementDataset(2, (), np.zeros((0, 4)), None, "exact")
        previous = [
            st.StateVector.normalized([1, 0, 0, 0]),
            st.StateVector.normalized([0, 1, 0, 0]),
            st.StateVector.normalized([0, 0, 1, 0]),
        ]
        config = quick_config(seed=12, max_epochs=6000, tol_rel=1e-9, patience=300)
        psi, log = training.train_next_eigenstate(data, previous, config)
        assert abs(psi.amplitudes[3]) ** 2 >= 0.99
        assert log.orthogonality_ok is True

    def test_penalty_alone_drives_overlap_down(self):
        data = ms.MeasurementDataset(2, (), np.zeros((0, 4)), None, "exact")
        previous = [st.StateVector.normalized([1, 0, 0, 0])]
        config = quick_config(
            seed=13, max_epochs=8000, restarts=1, tol_rel=1e-9, patience=400
        )
        psi, log = training.train_next_eigenstate(data, previous, config)
        assert abs(previous[0].overlap(psi)) ** 2 <= 1e-4

    def test_second_bell_component(self, bell_rho, bell_dataset):
        from eigentomo import reconstruction as rc

        spectrum = st.eigendecompose(bell_rho)
        deflated = rc.deflate(bell_dataset, spectrum.eigenvectors[0], 0.9)
        config = quick_config(seed=14, max_epochs=30000, patience=400, tol_rel=1e-7)
        psi, log = training.train_next_eigenstate(
            deflated, [spectrum.eigenvectors[0]], config
        )
        assert abs(spectrum.eigenvectors[1].overlap(psi)) ** 2 >= 0.999
        assert abs(spectrum.eigenvectors[0].overlap(psi)) ** 2 <= 1e-3
        assert log.orthogonality_ok is True

