import numpy as np
import pytest

from eigentomo import measurement as ms
from eigentomo import propositions as pr
from eigentomo import states as st

from conftest import random_density_matrix


class TestProp1:
    def test_bell_mixture_never_beaten(self, bell_rho):
        report = pr.check_prop1(bell_rho.entries, 10_000, seed=1)
        assert report.passed
        assert report.max_violation <= 1e-12
        assert report.extras["p1"] == pytest.approx(0.9, abs=1e-12)

    def test_degenerate_state_skipped(self):
        report = pr.check_prop1(np.eye(4) / 4, 100, seed=2)
        assert report.passed
        assert "degenerate" in report.note
        assert report.trials == 0

    def test_random_dim_six(self):
        rng = np.random.default_rng(3)
        report = pr.check_prop1(random_density_matrix(6, rng), 10_000, seed=4)
        assert report.passed

    def test_faulty_fidelity_detected(self, bell_rho, inflated_fidelities):
        report = pr.check_prop1(bell_rho.entries, 1000, seed=5)
        assert not report.passed
        assert report.extras["attainment_error"] > 0.01


class TestProp2:
    def test_bell_mixture_bounds(self, bell_rho):
        report = pr.check_prop2(bell_rho.entries, 10_000, seed=8)
        assert report.passed
        assert report.extras["lower"] == pytest.approx(0.1, abs=1e-12)
        assert report.extras["upper"] == pytest.approx(0.999, abs=1e-12)
        assert report.extras["attainment_error"] <= 1e-10

    def test_pure_state_attains_zero(self):
        psi = ms.bell_states()[0]
        rho = st.DensityMatrix.from_pure(psi).entries
        # Dominant eigenvalue 1: every challenger distance is within [0, 1].
        report = pr.check_prop2(rho, 2000, seed=9)
        assert report.passed
        assert report.extras["min_distance"] >= -1e-12


class TestProp3:
    def test_bell_mixture_rank_two(self, bell_rho):
        report = pr.check_prop3(bell_rho.entries, 2, 1000, seed=10)
        assert report.passed
        assert report.extras["kappa"] == pytest.approx(0.99, abs=1e-12)
        assert report.extras["b13_max_error"] <= 1e-10

    def test_full_rank_trivial(self, bell_rho):
        report = pr.check_prop3(bell_rho.entries, 4, 200, seed=11)
        assert report.passed
        assert report.extras["kappa"] == pytest.approx(1.0, abs=1e-12)

    def test_w_mixture_bound(self, w4_rho):
        report = pr.check_prop3(w4_rho.entries, 2, 300, seed=12)
        assert report.passed
        assert report.extras["kappa"] == pytest.approx(0.923, abs=1e-9)

    def test_faulty_fidelity_detected(self, bell_rho, inflated_fidelities):
        report = pr.check_prop3(bell_rho.entries, 2, 200, seed=13)
        assert not report.passed


class TestProp4:
    def test_bell_mixture_family(self, bell_rho):
        report = pr.check_prop4(bell_rho.entries, 2, 100, seed=14)
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_explicit_member(self, bell_rho):
        spectrum = st.eigendecompose(bell_rho)
        basis = spectrum.vectors[:, :2]
        tau = (basis * np.array([0.91, 0.09])) @ basis.conj().T
        assert st.trace_distance(bell_rho, tau) == pytest.approx(0.01, abs=1e-10)

    def test_truncation_is_in_family(self, bell_rho):
        sigma = st.optimal_rank_r(bell_rho, 2)
        assert st.trace_distance(bell_rho, sigma) == pytest.approx(0.01, abs=1e-10)

    def test_random_dim_eight(self):
        rng = np.random.default_rng(15)
        report = pr.check_prop4(random_density_matrix(8, rng), 3, 100, seed=16)
        assert report.passed
        assert report.extras["trace_conjecture_min_gap"] >= -1e-10


class TestScoringCalls:
    def test_one_stacked_call_per_check_plus_attainment(self, bell_rho, monkeypatch):
        calls = []
        for name in ("_default_fidelity", "_default_pure_fidelity", "half_trace_norm"):
            def wrapped(*args, _name=name, _inner=getattr(pr, name)):
                calls.append((_name, np.shape(args[-1])))
                return _inner(*args)

            monkeypatch.setattr(pr, name, wrapped)
        mat = bell_rho.entries
        expected = [
            (lambda: pr.check_prop1(mat, 500, seed=1), [
                ("_default_pure_fidelity", (500, 4)),
                ("_default_pure_fidelity", (4,)),
            ]),
            (lambda: pr.check_prop2(mat, 100, seed=2), [
                ("half_trace_norm", (100, 4, 4)),
                ("half_trace_norm", (4, 4)),
            ]),
            (lambda: pr.check_prop3(mat, 2, 50, seed=3), [
                ("_default_fidelity", (50, 4, 4)),
                ("_default_fidelity", (4, 4)),
            ]),
            # The family, then the conjecture probe (capped at 200 challengers).
            (lambda: pr.check_prop4(mat, 2, 300, seed=4), [
                ("half_trace_norm", (300, 4, 4)),
                ("half_trace_norm", (200, 4, 4)),
            ]),
        ]
        for check, pinned in expected:
            calls.clear()
            assert check().passed
            assert calls == pinned


class TestWeyl:
    def test_commuting_diagonal(self):
        q = np.diag([0.5, 0.3, 0.2]).astype(complex)
        p = np.diag([0.1, 0.6, 0.3]).astype(complex)
        report = pr.check_weyl(q, p, 0, seed=17)
        assert report.passed
        assert report.max_violation == 0.0

    def test_pure_projector_against_bell_mixture(self, bell_rho):
        rng = np.random.default_rng(18)
        phi = pr.haar_states(4, 1, rng)[0]
        diff = bell_rho.entries - np.outer(phi, phi.conj())
        m = np.linalg.eigvalsh(diff)[::-1]
        p = np.array([0.9, 0.09, 0.009, 0.001])
        assert 1 - p[0] - 1e-10 <= abs(m[-1]) <= 1 - p[-1] + 1e-10
        for i in range(3):
            assert p[i + 1] - 1e-10 <= m[i] <= p[i] + 1e-10
        report = pr.check_weyl(-np.outer(phi, phi.conj()), bell_rho.entries, 5, seed=19)
        assert report.passed

    def test_random_dim_five_pairs(self):
        rng = np.random.default_rng(20)
        report = pr.check_weyl(
            pr.random_hermitian(5, rng), pr.random_hermitian(5, rng), 200, seed=21
        )
        assert report.passed
        assert report.max_violation <= 1e-10


class TestCorpus:
    def test_small_corpus_passes(self):
        corpus = pr.default_corpus(seed=1, states_per_dim=3, dims=(2, 4))
        result = pr.run_corpus(corpus, trials=200, seed=1)
        assert result.passed
        assert result.max_violation() <= 1e-9

    def test_corpus_composition(self):
        corpus = pr.default_corpus(seed=0, states_per_dim=25, dims=(2, 4, 8, 16))
        assert len(corpus) == 103
        dims = {mat.shape[0] for _, mat in corpus}
        assert dims == {2, 4, 8, 16, 32}

    def test_fault_injection_fails_corpus(self, inflated_fidelities):
        corpus = pr.default_corpus(seed=2, states_per_dim=2, dims=(2,))
        result = pr.run_corpus(corpus, trials=100, seed=2)
        assert not result.passed
