"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
as they complete).  Reconstruction runs use exact-probability datasets, the
l15 cost, and fixed seeds, so every criterion is reproducible bit-for-bit.
"""

import itertools
import subprocess
import sys
import time

import conftest

import numpy as np

from eigentomo import costs, figures, measurement as ms, propositions as pr
from eigentomo import rbm, reconstruction as rc, states as st, training

RECON_FLOOR = 1e-2


def recon_config(seed=3, **overrides):
    base = dict(
        cost=costs.CostSpec("l15"),
        max_epochs=30000,
        seed=seed,
        restarts=3,
    )
    base.update(overrides)
    return training.TrainConfig(**base)


def verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, detail


def test_criterion_1_bell_mixture_end_to_end(bell_rho, bell_dataset):
    started = time.monotonic()
    approx, report = rc.reconstruct(
        bell_dataset, 2, recon_config(), floor=RECON_FLOOR, true_rho=bell_rho
    )
    elapsed = time.monotonic() - started
    s1, s2 = report.steps[0], report.steps[1]
    fid = st.fidelity(bell_rho, approx.density_matrix())
    checks = {
        "overlap1 >= 0.999": s1.eigenstate_fidelity >= 0.999,
        "p1b in [0.895, 0.905]": 0.895 <= s1.weight <= 0.905,
        "overlap2 >= 0.999": s2.eigenstate_fidelity >= 0.999,
        "p2b in [0.065, 0.090]": 0.065 <= s2.weight <= 0.090,
        "F >= 0.95": fid >= 0.95,
        "runtime <= 300 s": elapsed <= 300,
    }
    detail = (
        f"ov1={s1.eigenstate_fidelity:.6f} p1b={s1.weight:.5f} "
        f"ov2={s2.eigenstate_fidelity:.6f} p2b={s2.weight:.5f} "
        f"F={fid:.4f} in {elapsed:.0f}s"
    )
    verdict(1, all(checks.values()), detail + " | " + str(checks))


def test_criterion_2_synthetic_w4_reconstruction(w4_rho):
    started = time.monotonic()
    data = ms.exact_dataset(w4_rho, ms.generate_basis_set(4, "compressed", 7))
    approx, report = rc.reconstruct(
        data, 2, recon_config(), floor=RECON_FLOOR, true_rho=w4_rho
    )
    elapsed = time.monotonic() - started
    ov1 = report.steps[0].eigenstate_fidelity
    rf = rc.relative_fidelity(w4_rho, approx)
    checks = {
        "rank == 2": approx.rank == 2,
        "overlap1 >= 0.98": ov1 >= 0.98,
        "RF >= 0.95": rf >= 0.95,
        "runtime <= 1800 s": elapsed <= 1800,
    }
    detail = f"ov1={ov1:.5f} RF={rf:.4f} rank={approx.rank} in {elapsed:.0f}s"
    verdict(2, all(checks.values()), detail + " | " + str(checks))


def test_criterion_3_proposition_suite(w4_rho):
    started = time.monotonic()
    result = pr.run_corpus(trials=1000, seed=0)
    worst = result.max_violation()
    attained = st.fidelity(w4_rho, st.optimal_rank_r(w4_rho, 2))
    kappa = st.eigendecompose(w4_rho).leading_weight(2)
    elapsed = time.monotonic() - started
    checks = {
        "all checks passed": result.passed,
        "max violation <= 1e-9": worst <= 1e-9,
        "kappa attained within 1e-9": abs(attained - kappa) <= 1e-9,
        "runtime <= 600 s": elapsed <= 600,
    }
    detail = f"max violation {worst:.2e} over 103 states in {elapsed:.0f}s"
    verdict(3, all(checks.values()), detail + " | " + str(checks))


def test_criterion_4_rbm_correctness():
    started = time.monotonic()
    rng = np.random.default_rng(100)

    # Marginalization identity against the exhaustive hidden-layer sum.
    worst_rel = 0.0
    for draw in range(50):
        n = int(rng.integers(1, 7))
        params = rbm.RbmParams(
            rng.normal(scale=0.6, size=(n, n)),
            rng.normal(scale=0.6, size=n),
            rng.normal(scale=0.6, size=n),
        )
        sigma = rng.choice([1.0, -1.0], size=n)
        brute = 0.0
        for h_bits in itertools.product((1.0, -1.0), repeat=n):
            h = np.asarray(h_bits)
            brute += np.exp(
                sigma @ params.weights @ h
                + params.visible_bias @ sigma
                + params.hidden_bias @ h
            )
        value = np.exp(rbm.rbm_log_marginal(params, sigma))
        worst_rel = max(worst_rel, abs(value - brute) / brute)
    marginal_ok = worst_rel <= 1e-9

    # Gibbs sampler total-variation distance against the exact marginal.
    params = rbm.RbmParams(
        rng.normal(scale=0.4, size=(4, 4)),
        rng.normal(scale=0.4, size=4),
        rng.normal(scale=0.4, size=4),
    )
    samples = rbm.gibbs_sample(params, 1_000_000, burn_in=100, thin=1, seed=9)
    bits = (samples < 0).astype(np.int64)
    freq = np.bincount(
        bits @ (1 << np.arange(3, -1, -1)), minlength=16
    ) / samples.shape[0]
    spins = ms.spin_table(4).astype(float)
    log_p = rbm.log_marginal_table(params, spins)
    exact = np.exp(log_p - rbm.log_sum_exp(log_p))
    tv = 0.5 * np.abs(freq - exact).sum()
    gibbs_ok = tv <= 0.01

    # Analytic gradients of all four cost kinds against central differences.
    worst_grad = 0.0
    for instance in range(20):
        n = 2 + instance % 2
        target = rbm.NqsState.uniform_init(
            n, seed=300 + instance, scale=0.4, phase_scale=0.8
        )
        data = ms.exact_dataset(
            st.DensityMatrix.from_pure(rbm.to_state_vector(target)),
            ms.generate_basis_set(n, "full"),
        )
        theta = rng.uniform(-0.5, 0.5, rbm.n_parameters(n))
        for kind in costs.COST_KINDS:
            engine = costs.CostEngine(costs.CostSpec(kind), data)
            _, grad = engine.value_and_grad(theta)
            for i in range(theta.size):
                plus = theta.copy()
                plus[i] += 1e-5
                minus = theta.copy()
                minus[i] -= 1e-5
                fd = (engine.value(plus) - engine.value(minus)) / 2e-5
                worst_grad = max(
                    worst_grad, abs(grad[i] - fd) / max(abs(fd), 1e-8)
                )
    grad_ok = worst_grad <= 1e-5

    elapsed = time.monotonic() - started
    detail = (
        f"marginal rel err {worst_rel:.2e}, gibbs TV {tv:.4f}, "
        f"grad rel err {worst_grad:.2e} in {elapsed:.0f}s"
    )
    verdict(4, marginal_ok and gibbs_ok and grad_ok, detail)


def test_criterion_5_eigenvalue_estimator_contracts():
    rng = np.random.default_rng(200)

    rho = st.DensityMatrix(np.diag([0.6, 0.25, 0.1, 0.05]).astype(complex), 2)
    data = ms.exact_dataset(rho, ms.generate_basis_set(2, "full"))
    top = st.StateVector.normalized([1, 0, 0, 0])
    value, _ = rc.estimate_dominant_eigenvalue(data, top, 1e-6)
    exact_ok = abs(value - 0.6) <= 1e-10

    nonneg_worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 5))
        dim = 2**n
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        if trial % 2:
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        else:
            v = np.linalg.eigh(mat)[1][:, -1] + 0.05 * (
                rng.normal(size=dim) + 1j * rng.normal(size=dim)
            )
        psi = st.StateVector.normalized(v)
        dataset = ms.exact_dataset(mat, ms.generate_basis_set(n, "compressed", trial))
        floor = 1e-6
        estimate, _ = rc.estimate_dominant_eigenvalue(dataset, psi, floor)
        predicted = np.stack(
            [ms.probabilities_vector(psi.amplitudes, b) for b in dataset.bases]
        )
        kept = predicted >= floor
        residual = dataset.probabilities[kept] - estimate * predicted[kept]
        nonneg_worst = min(nonneg_worst, float(residual.min()))
    nonneg_ok = nonneg_worst >= -1e-9

    deflated = rc.deflate(data, top, 0.6)
    residual_state = np.diag([0.0, 0.625, 0.25, 0.125]).astype(complex)
    expected = ms.exact_dataset(residual_state, data.bases)
    consistency = np.abs(deflated.probabilities - expected.probabilities).max()
    consistency_ok = consistency <= 1e-9

    detail = (
        f"diagonal exactness {abs(value - 0.6):.1e}, worst residual "
        f"{nonneg_worst:.1e}, deflation consistency {consistency:.1e}"
    )
    verdict(5, exact_ok and nonneg_ok and consistency_ok, detail)


def test_criterion_6_determinism(tmp_path):
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "eigentomo.cli", *[str(a) for a in args]],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    pairs = []
    for tag in ("a", "b"):
        synth_dir = tmp_path / f"synth_{tag}"
        cli("synth", "--preset", "bell-mixture", "--seed", 5, "--out-dir", synth_dir)
        rec_dir = tmp_path / f"rec_{tag}"
        cli(
            "reconstruct", "--dataset", synth_dir / "dataset.jsonl",
            "--truth", synth_dir / "state.json", "--max-rank", 1,
            "--epochs", 500, "--restarts", 2, "--lr", 0.5, "--seed", 3,
            "--floor", RECON_FLOOR, "--out-dir", rec_dir,
        )
        ver_dir = tmp_path / f"ver_{tag}"
        cli(
            "verify", "--dims", "2,4", "--trials", 50, "--states-per-dim", 2,
            "--seed", 1, "--out-dir", ver_dir,
        )
        pairs.append((synth_dir, rec_dir, ver_dir))

    (synth_a, rec_a, ver_a), (synth_b, rec_b, ver_b) = pairs
    identical = {
        "dataset": (synth_a / "dataset.jsonl").read_bytes()
        == (synth_b / "dataset.jsonl").read_bytes(),
        "state": (synth_a / "state.json").read_bytes()
        == (synth_b / "state.json").read_bytes(),
        "result": (rec_a / "result.json").read_bytes()
        == (rec_b / "result.json").read_bytes(),
        "report": (rec_a / "report.csv").read_bytes()
        == (rec_b / "report.csv").read_bytes(),
        "verify": (ver_a / "verify_report.json").read_bytes()
        == (ver_b / "verify_report.json").read_bytes(),
    }
    verdict(6, all(identical.values()), f"bit-identical outputs: {identical}")


def test_criterion_7_entropy_reduction(w4_rho):
    bases = ms.generate_basis_set(4, "full")
    entropy_rows, _ = figures.entropy_tables(w4_rho, bases)
    reduced = sum(1 for _, mixed, pure in entropy_rows if pure <= mixed)
    share = reduced / len(entropy_rows)
    verdict(
        7,
        share >= 0.95,
        f"dominant-eigenstate entropy reduced in {reduced}/81 bases",
    )


def test_criterion_8_cost_ranking(w4_rho):
    bases = ms.generate_basis_set(4, "compressed", 7)
    _, correlations = figures.cost_comparison_grid(w4_rho, bases, 50, seed=21)
    ok = correlations["l15"] >= 0.8 and correlations["l15"] > correlations["kl1"]
    verdict(
        8,
        ok,
        f"spearman l15={correlations['l15']:.3f} kl1={correlations['kl1']:.3f}",
    )
