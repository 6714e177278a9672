import tracemalloc

import numpy as np
import pytest

from eigentomo import costs, figures, measurement as ms, rbm
from eigentomo import states as st

from conftest import (
    dense_rotation,
    network_parts,
    reference_wavefunction,
)


def finite_difference_gradient(engine, theta, step=1e-5):
    """Fourth-order central differences: (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h."""
    grad = np.empty_like(theta)
    for i in range(theta.size):
        shifted = np.repeat(theta[None], 4, axis=0)
        shifted[:, i] += step * np.array([-2.0, -1.0, 1.0, 2.0])
        far_minus, minus, plus, far_plus = (engine.value(t) for t in shifted)
        grad[i] = (far_minus - 8 * minus + 8 * plus - far_plus) / (12 * step)
    return grad


def random_state(n, seed):
    return rbm.NqsState.uniform_init(n, seed=seed, scale=0.4, phase_scale=0.8)


def value_and_grad(spec, state, data):
    return costs.CostEngine(spec, data).value_and_grad(rbm.pack_parameters(state))


def reference_value_and_grad(spec, data, theta, kept=()):
    """Cost, gradient and gradient scale through dense per-basis unitaries,
    with each network's gradient assembled from two matmuls: c @ s for a, and
    [1 | s]^T (c tanh) for the b row above W.  With ``kept`` states the cost
    is scored on psi = P phi / |P phi| for the dense projector P = I - V V^dag,
    and its derivative G in psi is taken back to phi by the chain rule,
    (P G - beta psi) / |P phi|.  The scale, the sum over s of |u phi| +
    |beta| |phi|^2 for the two terms of c = conj(u phi) - beta |phi|^2, with
    |u| bounded by the terms that P G and beta psi cancel, bounds every
    gradient entry and the terms it cancels."""
    n = data.n_qubits
    phi, tanh = reference_wavefunction(theta, n)
    projector = np.eye(2**n) - sum(
        np.outer(state.amplitudes, state.amplitudes.conj()) for state in kept
    )
    norm = np.linalg.norm(projector @ phi)
    psi = projector @ phi / norm
    dense = np.array([dense_rotation(basis) for basis in data.bases])
    rotated = dense @ psi
    q = np.abs(rotated) ** 2
    terms, g = costs.cost_terms_and_grads(
        spec.kind, data.probabilities, q, costs.DENOM_FLOOR
    )
    total, beta = terms.sum(), (g * q).sum()
    # G = dC/dpsi*, and u = conj(dC/dphi*) with its real beta = phi . u.
    grad_psi = np.einsum("bji,bj->i", dense.conj(), g * rotated)
    grad_phi = (projector @ grad_psi - beta * psi) / norm
    pulled = np.conj(grad_phi)
    beta_phi = np.real(phi @ pulled)
    bound = (
        np.abs(grad_psi) + np.abs(projector - np.eye(2**n)) @ np.abs(grad_psi)
        + abs(beta) * np.abs(psi)
    ) / norm
    c = (np.conj(pulled) - beta_phi * phi) * np.conj(phi)
    spins = ms.spin_table(n).astype(float)
    ones_spins = np.column_stack([np.ones(2**n), spins])
    grads = [
        np.concatenate([row @ spins, (ones_spins.T @ (row[:, None] * t)).ravel()])
        for row, t in zip((c.real, c.imag), tanh)
    ]
    scale = np.sum(bound * np.abs(phi) + abs(beta_phi) * np.abs(phi) ** 2)
    return total, np.concatenate(grads), scale


class TestCostSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            costs.CostSpec("l2")

    def test_rejects_non_orthonormal_states(self, bell_dataset):
        # The projector I - V V^dag onto the complement of the kept states
        # needs them orthonormal.
        a = st.StateVector.normalized([1.0, 0.0, 0.0, 0.0])
        spec = costs.CostSpec("l15")
        for sq in (1e-3, 1e-8):
            b = st.StateVector.normalized([np.sqrt(sq), 0.0, np.sqrt(1 - sq), 0.0])
            with pytest.raises(ValueError, match="orthonormal"):
                costs.CostEngine(spec, bell_dataset, (a, b))

    def test_rejects_kept_states_that_leave_nothing(self, bell_dataset):
        basis = [st.StateVector.normalized(np.eye(4)[i]) for i in range(4)]
        with pytest.raises(ValueError, match="fewer than"):
            costs.CostEngine(costs.CostSpec("l15"), bell_dataset, basis)

    def test_rejects_kept_states_of_another_size(self, bell_dataset):
        other = st.StateVector.normalized([1.0, 0.0])
        with pytest.raises(ValueError, match="qubit count"):
            costs.CostEngine(costs.CostSpec("l15"), bell_dataset, (other,))


class TestCostTerms:
    def test_half_quarter_arithmetic(self):
        assert costs.cost_terms("l1", 0.5, 0.25, 1e-12) == pytest.approx(0.25)
        assert costs.cost_terms("l15", 0.5, 0.25, 1e-12) == pytest.approx(0.125)
        assert costs.cost_terms("kl1", 0.5, 0.25, 1e-12) == pytest.approx(
            0.5 * np.log(2)
        )

    def test_kl2_mirror(self):
        assert costs.cost_terms("kl2", 0.25, 0.5, 1e-12) == pytest.approx(
            0.5 * np.log(2)
        )

    def test_zero_probability_terms_vanish(self):
        assert costs.cost_terms("kl1", 0.0, 0.3, 1e-12) == 0.0
        assert costs.cost_terms("kl2", 0.3, 0.0, 1e-12) == 0.0

    def test_denominator_floor_keeps_terms_finite(self):
        value = costs.cost_terms("kl1", np.array([0.5]), np.array([0.0]), 1e-12)
        assert np.isfinite(value).all()

    def test_terms_and_grads_equal_closed_forms(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(6), size=5)
        q = rng.dirichlet(np.ones(6), size=5)
        # Zeros on either side, a q below the floor and a kink at p == q.
        p[0, :3] = 0.0
        q[1, :2] = 0.0
        q[2, 0] = 1e-14
        q[3, :] = p[3, :]
        floor = costs.DENOM_FLOOR
        with np.errstate(divide="ignore", invalid="ignore"):
            log_pq = np.log(p) - np.log(np.maximum(q, floor))
            log_qp = np.log(q) - np.log(np.maximum(p, floor))
            closed = {
                "l1": (np.abs(p - q), np.sign(q - p)),
                "l15": (
                    np.abs(p - q) * np.sqrt(np.abs(p - q)),
                    1.5 * np.sqrt(np.abs(q - p)) * np.sign(q - p),
                ),
                "kl1": (
                    np.where(p > 0, p * log_pq, 0.0),
                    np.where((p > 0) & (q >= floor), -p / q, 0.0),
                ),
                "kl2": (
                    np.where(q > 0, q * log_qp, 0.0),
                    np.where(q > 0, log_qp + 1.0, 0.0),
                ),
            }
        for kind in costs.COST_KINDS:
            terms, grads = costs.cost_terms_and_grads(kind, p, q, floor)
            assert np.array_equal(terms, closed[kind][0]), kind
            assert np.array_equal(grads, closed[kind][1]), kind
            assert np.array_equal(costs.cost_terms(kind, p, q, floor), terms), kind

    def test_total_cost_non_negative_on_distributions(self):
        # Individual divergence terms may be negative; the sum over a full
        # outcome distribution never is.
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.dirichlet(np.ones(8))
            q = rng.dirichlet(np.ones(8))
            for kind in costs.COST_KINDS:
                assert costs.cost_terms(kind, p, q, 1e-12).sum() >= -1e-12


class TestCostValue:
    def test_zero_at_exact_reproduction(self):
        state = random_state(2, seed=3)
        vec = rbm.to_state_vector(state)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(vec), ms.generate_basis_set(2, "full")
        )
        for kind in costs.COST_KINDS:
            value, _ = value_and_grad(costs.CostSpec(kind), state, data)
            assert value == pytest.approx(0.0, abs=1e-9)

    def test_kept_states_score_the_projected_state(self, bell_dataset):
        # With kept states the engine scores P phi / |P phi|, which is
        # orthogonal to them, instead of the RBM state phi.
        state = random_state(2, seed=4)
        phi = rbm.to_state_vector(state).amplitudes
        kept = st.StateVector.normalized([1.0, 0.0, 0.0, 1.0])
        projected = st.StateVector.normalized(
            phi - kept.amplitudes * np.vdot(kept.amplitudes, phi)
        )
        engine = costs.CostEngine(costs.CostSpec("l15"), bell_dataset, (kept,))
        psi = engine.wavefunction(rbm.pack_parameters(state))
        assert np.allclose(psi, projected.amplitudes, rtol=0, atol=1e-15)
        assert abs(np.vdot(kept.amplitudes, psi)) ** 2 <= 1e-28
        q = np.stack([ms.probabilities_vector(psi, b) for b in bell_dataset.bases])
        want = costs.cost_terms("l15", bell_dataset.probabilities, q, 1e-12).sum()
        assert engine.value(rbm.pack_parameters(state)) == pytest.approx(
            want, rel=1e-12
        )

    def test_empty_dataset_rejected(self):
        data = ms.MeasurementDataset(2, (), np.zeros((0, 4)), None)
        with pytest.raises(ValueError, match="dataset is empty"):
            costs.CostEngine(costs.CostSpec("l15"), data)

    def test_mismatched_sizes_rejected(self, bell_dataset):
        state = random_state(3, seed=5)
        with pytest.raises(ValueError, match="expected 16 parameters"):
            value_and_grad(costs.CostSpec("l1"), state, bell_dataset)

    def test_value_and_grad_consistent_with_value(self, bell_dataset):
        spec = costs.CostSpec("l15")
        engine = costs.CostEngine(spec, bell_dataset)
        theta = rbm.pack_parameters(random_state(2, seed=6))
        value, _ = engine.value_and_grad(theta)
        assert value == pytest.approx(engine.value(theta), rel=1e-12)


class TestStackedEvaluation:
    """A stack of parameter vectors scores each member with the bits of its
    own single-vector call, in one rotation call, with and without kept
    states."""

    @pytest.mark.parametrize("n, mode", [(1, "full"), (2, "full"), (3, "full"),
                                         (4, "compressed"), (5, "compressed")])
    def test_members_bitwise_equal_to_single_calls(self, n, mode):
        rng = np.random.default_rng(400 + n)
        target = rbm.to_state_vector(random_state(n, seed=400 + n))
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ms.generate_basis_set(n, mode, seed=n)
        )
        orth = (rbm.to_state_vector(random_state(n, seed=500 + n)),)
        thetas = rng.uniform(-0.5, 0.5, (5, rbm.n_parameters(n)))
        for kind, kept in [(kind, kept) for kind in costs.COST_KINDS
                           for kept in ((), orth)]:
            engine = costs.CostEngine(costs.CostSpec(kind), data, kept)
            singles = [engine.value_and_grad(theta) for theta in thetas]
            for size in (1, 2, 3, 5):
                values, grads = engine.value_and_grad(thetas[-size:])
                assert values.shape == (size,)
                assert grads.shape == (size, rbm.n_parameters(n))
                for (value, grad), got, got_grad in zip(singles[-size:], values, grads):
                    assert got == value
                    assert np.array_equal(got_grad, grad)

    @staticmethod
    def w6_data():
        rho = ms.make_w_mixture(6, [0.80, 0.07, 0.04], seed=7)
        return ms.exact_dataset(rho, ms.generate_basis_set(6, "compressed", 7))

    @staticmethod
    def spy_forward(engine, patch):
        """Record the vectors of each ``engine.rotation.forward`` call."""
        calls = []
        forward = engine.rotation.forward

        def spy(vectors, out):
            calls.append(vectors.copy())
            return forward(vectors, out=out)

        patch.setattr(engine.rotation, "forward", spy)
        return calls

    def test_wavefunction_is_the_scored_state_of_each_member(self, monkeypatch):
        # W6 on its 205 compressed bases.  psi of one vector has the bits of
        # the psi that value_and_grad rotates, for each member of a 2-stack.
        data = self.w6_data()
        thetas = np.random.default_rng(6).uniform(-0.5, 0.5, (2, rbm.n_parameters(6)))
        for kept in ((), (ms.w_state(6),)):
            engine = costs.CostEngine(costs.CostSpec("l15"), data, kept)
            # Both engines share one rotation: each spy is undone before the
            # next engine's.
            with monkeypatch.context() as patch:
                calls = self.spy_forward(engine, patch)
                engine.value_and_grad(thetas)
            (scored,) = calls
            for theta, psi in zip(thetas, scored):
                assert np.array_equal(engine.wavefunction(theta), psi)
            with pytest.raises(ValueError, match="expected 96 parameters"):
                engine.wavefunction(thetas)

    def test_one_rotation_call_per_stack(self, monkeypatch):
        # W6's 205 compressed bases: a 3-member stack is one forward call of
        # three members.
        data = self.w6_data()
        thetas = np.random.default_rng(16).uniform(-0.5, 0.5, (3, rbm.n_parameters(6)))
        for kept in ((), (ms.w_state(6),)):
            engine = costs.CostEngine(costs.CostSpec("l15"), data, kept)
            with monkeypatch.context() as patch:
                calls = self.spy_forward(engine, patch)
                engine.value_and_grad(thetas)
            assert [len(vectors) for vectors in calls] == [3], len(kept)


class TestEngineBuffers:
    """The cost pass writes into buffers the engine owns, and what a call
    returns is its own."""

    def test_call_allocates_less_than_one_table(self):
        # W8 on its 615 compressed bases.  After a warm-up call of as many
        # members, one call of one or two members peaks below a single
        # (bases x 2^n) float table: the rotated amplitudes, q, the terms and
        # their derivatives all live in the engine's buffers, which a smaller
        # stack reuses.
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(ms.w_state(8)),
            ms.generate_basis_set(8, "compressed", 7),
        )
        assert data.probabilities.shape == (615, 256)
        table = data.probabilities.nbytes
        thetas = np.random.default_rng(8).uniform(-0.5, 0.5, (2, rbm.n_parameters(8)))
        for kept in ((), (ms.w_state(8),)):
            engine = costs.CostEngine(costs.CostSpec("l15"), data, kept)
            for warm_up, call in [(thetas[0], thetas[1]), (thetas, thetas),
                                  (thetas, thetas[1])]:
                engine.value_and_grad(warm_up)
                tracemalloc.start()
                try:
                    engine.value_and_grad(call)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < table, (len(kept), call.shape, peak)

    def test_results_do_not_alias_the_buffers(self):
        # Stacks of 1, 3, 1 and 3 members: the buffers grow on the second
        # call, and the later calls reuse them.  Results kept from the first
        # calls survive later ones.
        n = 5
        target = rbm.to_state_vector(random_state(n, seed=905))
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ms.generate_basis_set(n, "compressed", 5)
        )
        orth = (rbm.to_state_vector(random_state(n, seed=906)),)
        thetas = np.random.default_rng(907).uniform(-0.5, 0.5, (3, rbm.n_parameters(n)))
        for kind in costs.COST_KINDS:
            for kept in ((), orth):
                engine = costs.CostEngine(costs.CostSpec(kind), data, kept)
                _, grad = engine.value_and_grad(thetas[0])
                values, grads = engine.value_and_grad(thetas)
                saved = [grad.copy(), values.copy(), grads.copy()]
                for theta in thetas[1:]:
                    engine.value_and_grad(theta)
                engine.value_and_grad(thetas[::-1])
                for got, want in zip((grad, values, grads), saved):
                    assert np.array_equal(got, want), kind

    def test_cost_terms_returns_fresh_arrays(self):
        rng = np.random.default_rng(9)
        p, q1, q2 = rng.dirichlet(np.ones(8), size=(3, 4))
        for kind in costs.COST_KINDS:
            first = costs.cost_terms(kind, p, q1, costs.DENOM_FLOOR)
            kept = first.copy()
            second = costs.cost_terms(kind, p, q2, costs.DENOM_FLOOR)
            assert not np.shares_memory(first, second)
            assert np.array_equal(first, kept), kind


class TestCostGradient:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_two_matmul_reference(self, n):
        # The one-contraction gradient and the split-0 rotation against the
        # two-matmul assembly over dense unitaries, for every cost kind, with
        # and without a kept state; the last draw has log p / 2 spanning more
        # than 1400.
        rng = np.random.default_rng(700 + n)
        mode = "full" if n <= 3 else "compressed"
        target = rbm.to_state_vector(random_state(n, seed=700 + n))
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(target), ms.generate_basis_set(n, mode, seed=n)
        )
        orth = (rbm.to_state_vector(random_state(n, seed=800 + n)),)
        thetas = rng.uniform(-0.5, 0.5, (3, rbm.n_parameters(n)))
        thetas[-1, :n] = 1500.0 * rng.choice([-1.0, 1.0], n) / n
        for kind in costs.COST_KINDS:
            for kept in ((), orth):
                spec = costs.CostSpec(kind)
                engine = costs.CostEngine(spec, data, kept)
                values, grads = engine.value_and_grad(thetas)
                for theta, value, grad in zip(thetas, values, grads):
                    want, want_grad, scale = reference_value_and_grad(
                        spec, data, theta, kept
                    )
                    assert abs(value - want) <= 1e-12 * abs(want)
                    assert np.abs(grad - want_grad).max() <= 1e-12 * scale

    def test_gradient_zero_at_smooth_minimum(self):
        state = random_state(2, seed=7)
        vec = rbm.to_state_vector(state)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(vec), ms.generate_basis_set(2, "full")
        )
        _, grad = value_and_grad(costs.CostSpec("kl1"), state, data)
        assert np.linalg.norm(grad) <= 1e-8

    def test_projected_gradient_zero_at_smooth_minimum(self):
        # Data of the projected state itself: the cost and its gradient
        # through the projection vanish there.
        state = random_state(2, seed=8)
        kept = st.StateVector.normalized([1.0, 1.0j, 0.0, 1.0])
        theta = rbm.pack_parameters(state)
        probe = ms.MeasurementDataset(2, ("zz",), np.full((1, 4), 0.25), None)
        engine = costs.CostEngine(costs.CostSpec("kl1"), probe, (kept,))
        psi = st.StateVector.normalized(engine.wavefunction(theta))
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(psi), ms.generate_basis_set(2, "full")
        )
        engine = costs.CostEngine(costs.CostSpec("kl1"), data, (kept,))
        value, grad = engine.value_and_grad(theta)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(grad) <= 1e-8

    def test_matches_finite_differences_all_kinds(self):
        rng = np.random.default_rng(10)
        cases = [(2, "full"), (3, "full")] * 10
        cases += [(4, "compressed"), (5, "compressed")] * 3
        for instance, (n, mode) in enumerate(cases):
            target = random_state(n, seed=100 + instance)
            data = ms.exact_dataset(
                st.DensityMatrix.from_pure(rbm.to_state_vector(target)),
                ms.generate_basis_set(n, mode, seed=instance),
            )
            orth = rbm.to_state_vector(random_state(n, seed=200 + instance))
            theta = rng.uniform(-0.5, 0.5, rbm.n_parameters(n))
            for kind in costs.COST_KINDS:
                engine = costs.CostEngine(costs.CostSpec(kind), data, (orth,))
                _, grad = engine.value_and_grad(theta)
                expected = finite_difference_gradient(engine, theta)
                scale = np.maximum(np.abs(expected), 1e-8)
                assert (np.abs(grad - expected) / scale).max() <= 1e-5

    def test_gradient_structure_shapes(self, bell_dataset):
        _, grad = value_and_grad(
            costs.CostSpec("l15"), random_state(2, seed=11), bell_dataset
        )
        assert grad.shape == (rbm.n_parameters(2),)
        (a, b, w), (pa, pb, pw) = network_parts(grad, 2)
        assert w.shape == pw.shape == (2, 2)
        assert a.shape == b.shape == pa.shape == pb.shape == (2,)


class TestMonotoneSensitivity:
    def test_l15_non_decreasing_away_from_minimum(self):
        state = random_state(2, seed=12)
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(rbm.to_state_vector(state)),
            ms.generate_basis_set(2, "full"),
        )
        engine = costs.CostEngine(costs.CostSpec("l15"), data)
        theta = rbm.pack_parameters(state)
        rng = np.random.default_rng(13)
        monotone = 0
        for _ in range(50):
            direction = rng.normal(size=theta.size)
            direction /= np.linalg.norm(direction)
            values = [
                engine.value(theta + t * direction)
                for t in (0.0, 0.002, 0.004, 0.008)
            ]
            monotone += int(all(b >= a - 1e-12 for a, b in zip(values, values[1:])))
        assert monotone >= 45


class TestCostRankingGrid:
    def test_l15_tracks_fidelity_better_than_kl1(self, w4_rho):
        bases = ms.generate_basis_set(4, "compressed", 7)
        _, correlations = figures.cost_comparison_grid(
            w4_rho, bases, 50, seed=21
        )
        assert correlations["l15"] >= 0.8
        assert correlations["l15"] > correlations["kl1"]
