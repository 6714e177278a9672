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

    def test_faulty_trace_distance_detected(self, monkeypatch):
        # A qubit: the nearest of 1000 challengers lies within 0.02 of 1 - p_1.
        monkeypatch.setattr(
            pr, "pure_trace_distance", lambda a, v: st.pure_trace_distance(a, v) - 0.02
        )
        report = pr.check_prop2(np.diag([0.8, 0.2]).astype(complex), 1000, seed=22)
        assert not report.passed
        assert report.extras["min_distance"] < report.extras["lower"] - 1e-3
        assert report.extras["attainment_error"] <= 1e-12


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

    def test_faulty_challenger_fidelity_detected(self, inflated_fidelities):
        # Rank 1 on a qubit: the best of 200 challengers lies within 0.02 of
        # kappa, so the challenger path breaks the bound, not only attainment.
        rho = np.diag([0.8, 0.2]).astype(complex)
        report = pr.check_prop3(rho, 1, 200, seed=13)
        assert not report.passed
        assert report.extras["max_challenger_fidelity"] > report.extras["kappa"]


class TestProp4:
    def test_bell_mixture_family(self, bell_rho):
        report = pr.check_prop4(bell_rho.entries, 2, 100, seed=14)
        assert report.passed
        assert report.max_violation <= 1e-10

    def test_explicit_member(self, bell_rho):
        spectrum = st.eigendecompose(bell_rho)
        basis = spectrum.vectors[:, :2]
        tau = (basis * np.array([0.91, 0.09])) @ basis.conj().T
        assert st.half_trace_norm(bell_rho.entries - tau) == pytest.approx(0.01, abs=1e-10)

    def test_truncation_is_in_family(self, bell_rho):
        sigma = st.optimal_rank_r(bell_rho, 2)
        assert st.half_trace_norm(bell_rho.entries - sigma.entries) == pytest.approx(
            0.01, abs=1e-10
        )

    def test_random_dim_eight(self):
        rng = np.random.default_rng(15)
        report = pr.check_prop4(random_density_matrix(8, rng), 3, 100, seed=16)
        assert report.passed
        assert report.extras["cross_check_error"] <= 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 16, 32])
    def test_eigenbasis_distances_match_assembled_members(self, dim):
        rng = np.random.default_rng(30 + dim)
        mat = random_density_matrix(dim, rng)
        vals, vecs = pr._sorted_spectrum(mat)
        for r in range(1, dim + 1):
            # Family members (q >= p on the top r) and arbitrary weights alike.
            shares = rng.exponential(size=(3, r))
            shares /= shares.sum(axis=1, keepdims=True)
            weights = np.vstack([
                vals[:r] + (1.0 - vals[:r].sum()) * shares,
                rng.normal(size=(2, r)),
            ])
            top = vecs[:, :r]
            members = (top * weights[:, None, :]) @ top.conj().T
            np.testing.assert_allclose(
                pr._family_trace_distances(vals, weights),
                st.half_trace_norm(mat - members),
                rtol=0, atol=1e-12,
            )

    def test_full_rank_family_is_rho(self, bell_rho):
        report = pr.check_prop4(bell_rho.entries, 4, 50, seed=24)
        assert report.passed
        assert report.extras["kappa"] == pytest.approx(1.0, abs=1e-12)
        assert report.max_violation <= 1e-12
        vals, _ = pr._sorted_spectrum(bell_rho.entries)
        assert pr._family_trace_distances(vals, vals[None, :])[0] == pytest.approx(
            0.0, abs=1e-15
        )

    def test_non_psd_input_fails(self):
        # A negative eigenvalue outside the top r adds |p_i| to every member's
        # distance, which the closed form 1 - kappa would miss.
        report = pr.check_prop4(np.diag([0.7, 0.4, -0.1]).astype(complex), 2, 50, seed=25)
        assert not report.passed
        assert report.extras["cross_check_error"] <= 1e-12

    def test_faulty_family_member_detected(self, bell_rho, monkeypatch):
        # Every member is scored, not only the cross-checked first one.
        inner = pr._family_trace_distances

        def off_on_last(vals, weights):
            dists = inner(vals, weights).copy()
            dists[-1] += 0.02
            return dists

        monkeypatch.setattr(pr, "_family_trace_distances", off_on_last)
        report = pr.check_prop4(bell_rho.entries, 2, 100, seed=14)
        assert not report.passed
        assert report.max_violation == pytest.approx(0.02, abs=1e-12)
        assert report.extras["cross_check_error"] <= 1e-12

    def test_faulty_trace_distance_detected(self, bell_rho, monkeypatch):
        monkeypatch.setattr(pr, "half_trace_norm", lambda a: st.half_trace_norm(a) - 0.02)
        report = pr.check_prop4(bell_rho.entries, 2, 100, seed=14)
        assert not report.passed
        assert report.extras["cross_check_error"] == pytest.approx(0.02, abs=1e-12)


class TestScoringCalls:
    def test_one_stacked_call_per_check_plus_attainment(self, bell_rho, monkeypatch):
        calls = []
        names = (
            "_default_fidelity", "_default_pure_fidelity", "half_trace_norm",
            "pure_trace_distance", "frame_fidelity",
        )
        for name in names:
            # Records the challenger argument: the one after rho, or the only one.
            def wrapped(*args, _name=name, _inner=getattr(pr, name)):
                calls.append((_name, np.shape(args[1] if len(args) > 1 else args[0])))
                return _inner(*args)

            monkeypatch.setattr(pr, name, wrapped)
        mat = bell_rho.entries
        expected = [
            (lambda: pr.check_prop1(mat, 500, seed=1), [
                ("_default_pure_fidelity", (500, 4)),
                ("_default_pure_fidelity", (4,)),
            ]),
            (lambda: pr.check_prop2(mat, 100, seed=2), [
                ("pure_trace_distance", (100, 4)),
                ("half_trace_norm", (4, 4)),
            ]),
            (lambda: pr.check_prop3(mat, 2, 50, seed=3), [
                ("frame_fidelity", (50, 4, 2)),
                ("_default_fidelity", (4, 4)),
            ]),
            # The family scores in rho's eigenbasis; only its first member is
            # assembled, as a cross-check.
            (lambda: pr.check_prop4(mat, 2, 300, seed=4), [
                ("half_trace_norm", (4, 4)),
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


def looped_weyl_violation(q: np.ndarray, p: np.ndarray, m: np.ndarray) -> float:
    """``_sandwich_violation`` as one loop over i, one mask pair per i."""
    n = q.shape[0]
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


class TestWeylViolation:
    def test_matches_loop_bitwise(self):
        rng = np.random.default_rng(23)
        for n in range(1, 33):
            phi = pr.haar_states(n, 1, rng)[0]
            pairs = [
                (pr.random_hermitian(n, rng), pr.random_hermitian(n, rng)),
                (-np.outer(phi, phi.conj()), random_density_matrix(n, rng)),
            ]
            for q_mat, p_mat in pairs:
                spectra = [np.linalg.eigvalsh(a)[::-1] for a in (q_mat, p_mat, q_mat + p_mat)]
                assert pr._sandwich_violation(*spectra) == looped_weyl_violation(*spectra)

    def test_matches_loop_on_unrelated_spectra(self):
        # True spectra satisfy the sandwich, so both versions read 0.  Unrelated
        # descending spectra for Q, P and a wider one for Q + P give positive terms.
        for n in range(1, 33):
            rng = np.random.default_rng(n)
            spectra = [np.sort(rng.normal(size=n) * scale)[::-1] for scale in (1.0, 1.0, 5.0)]
            got = pr._sandwich_violation(*spectra)
            assert got > 0.0
            assert got == looped_weyl_violation(*spectra)


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

    def test_dim_sixty_four_passes(self, monkeypatch):
        # Check 4 assembles one d x d member at d = 64, never a (k, d, d) stack.
        calls = []
        inner_check, inner_norm = pr.check_prop4, pr.half_trace_norm

        def check_prop4(*args):
            calls.append("check_prop4")
            return inner_check(*args)

        def half_trace_norm(a):
            calls.append(np.shape(a))
            return inner_norm(a)

        monkeypatch.setattr(pr, "check_prop4", check_prop4)
        monkeypatch.setattr(pr, "half_trace_norm", half_trace_norm)
        mat = pr.random_density(64, np.random.default_rng(64))
        result = pr.run_corpus([("random-dim64", mat)], trials=200, seed=3)
        assert result.passed
        assert result.max_violation() <= 1e-9
        # Check 2's attainment step, then check 4's cross-check.
        assert calls == [(64, 64), "check_prop4", (64, 64)]

    def test_fault_injection_fails_corpus(self, inflated_fidelities):
        corpus = pr.default_corpus(seed=2, states_per_dim=2, dims=(2,))
        result = pr.run_corpus(corpus, trials=100, seed=2)
        assert not result.passed
