import csv
import hashlib
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from eigentomo import cli, reconstruction
from eigentomo import measurement as ms
from eigentomo import states as st

from conftest import MALFORMED_DATASETS, MALFORMED_STATE_FILES, drift_at_step_three


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "eigentomo.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynth:
    def test_bell_preset(self, tmp_path):
        out = tmp_path / "bell"
        run_cli("synth", "--preset", "bell-mixture", "--out-dir", out)
        data = ms.MeasurementDataset.load_jsonl(out / "dataset.jsonl")
        assert data.n_records == 36
        assert len(data.bases) == 9
        rho = st.load_density_matrix(out / "state.json")
        spectrum = st.eigendecompose(rho)
        assert np.allclose(spectrum.eigenvalues, [0.9, 0.09, 0.009, 0.001])
        assert (out / "manifest.json").exists()
        assert (out / "target.json").exists()

    def test_w_mixture_compressed(self, tmp_path):
        out = tmp_path / "w4"
        run_cli(
            "synth", "--w", 4, "--spectrum", "0.860,0.063,0.037",
            "--bases", "compressed", "--seed", 7, "--out-dir", out,
        )
        data = ms.MeasurementDataset.load_jsonl(out / "dataset.jsonl")
        assert len(data.bases) == 61
        assert data.n_records == 61 * 16

    def test_w6_files_pinned(self, tmp_path):
        # Every bit of make_w_mixture (its rotation and from_eigensystem) and
        # of both writers, below anything the acceptance tolerances notice.
        # The digests are those of numpy 2.4 with its OpenBLAS; another
        # LAPACK build may round eigh or qr differently.
        out = tmp_path / "w6"
        run_cli(
            "synth", "--w", 6, "--spectrum", "0.80,0.07,0.04",
            "--bases", "compressed", "--seed", 7, "--out-dir", out,
        )
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("state.json", "target.json", "dataset.jsonl")
        }
        assert digests == {
            "state.json": "f0ede08253adccfb35e83982b2c4306af5420189d9df2932fbae253e9a873fe4",
            "target.json": "b390173ada52d8573b596e728843126389300a056e96910cc037c6cbd2751a60",
            "dataset.jsonl": "81532c32b75c2c22ca8ed9c803e467ce8d556b605cbd79400ead2530ae5e6784",
        }

    def test_single_qubit_pure_w(self, tmp_path):
        out = tmp_path / "w1"
        run_cli("synth", "--w", 1, "--spectrum", "1.0", "--out-dir", out)
        rho = st.load_density_matrix(out / "state.json")
        assert rho.n_qubits == 1
        assert st.eigendecompose(rho).eigenvalues[0] == pytest.approx(1.0)

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "sampled"
        run_cli(
            "synth", "--preset", "bell-mixture", "--shots", 256,
            "--seed", 3, "--out-dir", out,
        )
        data = ms.MeasurementDataset.load_jsonl(out / "dataset.jsonl")
        assert data.mode == "sampled"
        assert data.counts.sum(axis=1).tolist() == [256] * 9

    def test_usage_error_without_source(self, tmp_path):
        proc = run_cli("synth", "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2

    def test_negative_shots_usage_error(self, tmp_path):
        proc = run_cli(
            "synth", "--preset", "bell-mixture", "--shots", -5,
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert "argument --shots:" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "dataset.jsonl").exists()

    # The rejected flag is flags[-2].
    @pytest.mark.parametrize(
        "flags",
        [
            ("--spectrum", "1.0", "--w", 0),
            ("--w", 2, "--spectrum", "0.9", "--perturbation", "nan"),
            ("--w", 2, "--spectrum", "0.9", "--perturbation", -0.1),
            ("--w", 2, "--spectrum", "0.9", "--seed", -1),
            ("--preset", "bell-mixture", "--bases", "compressed", "--seed", -1),
            # Full bases, exact: nothing draws from the seed.
            ("--preset", "bell-mixture", "--seed", -1),
            ("--preset", "bell-mixture", "--shots", 2**63),
            ("--preset", "bell-mixture", "--shots", "99999999999999999999"),
        ],
    )
    def test_out_of_range_numbers_usage_error(self, tmp_path, flags):
        proc = run_cli("synth", *flags, "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2
        assert f"argument {flags[-2]}:" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "dataset.jsonl").exists()

    @pytest.mark.parametrize("spectrum", ["abc", "0.5,nan", "-0.1", "0.5,,0.2", None])
    def test_bad_spectrum_usage_error(self, tmp_path, spectrum):
        flags = [] if spectrum is None else [f"--spectrum={spectrum}"]
        proc = run_cli("synth", "--w", 2, *flags, "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2
        assert "--spectrum" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "dataset.jsonl").exists()

    def test_spectrum_without_w_usage_error(self, tmp_path):
        proc = run_cli(
            "synth", "--preset", "bell-mixture", "--spectrum", "0.5,0.5",
            "--out-dir", tmp_path / "out", check=False,
        )
        assert proc.returncode == 2
        assert "--spectrum applies only with --w" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "out").exists()

    def test_w_above_exact_mode_cap_usage_error(self, capsys):
        # Parsing only: no 13-qubit state is built.
        cap = ms.EXACT_MODE_MAX_QUBITS
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(
                ["synth", "--w", str(cap + 1), "--spectrum", "1.0"]
            )
        assert exc.value.code == 2
        assert f"--w: '{cap + 1}' exceeds {cap}" in capsys.readouterr().err
        assert cli.build_parser().parse_args(["synth", "--w", str(cap)]).w == cap

    def test_invalid_spectrum_is_runtime_error(self, tmp_path):
        proc = run_cli(
            "synth", "--w", 2, "--spectrum", "0.5,0.9", "--out-dir", tmp_path,
            check=False,
        )
        assert proc.returncode == 1


@pytest.fixture(scope="module")
def bell_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("bellrun")
    synth_dir = root / "synth"
    run_cli("synth", "--preset", "bell-mixture", "--out-dir", synth_dir)
    rec_dir = root / "rec"
    run_cli(
        "reconstruct",
        "--dataset", synth_dir / "dataset.jsonl",
        "--truth", synth_dir / "state.json",
        "--target", synth_dir / "target.json",
        "--max-rank", 2, "--floor", 1e-2,
        "--lr", 0.5, "--epochs", 30000, "--restarts", 2, "--seed", 3,
        "--out-dir", rec_dir,
    )
    return synth_dir, rec_dir


@pytest.fixture(scope="module")
def w4_state_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("w4synth")
    run_cli(
        "synth", "--w", 4, "--spectrum", "0.860,0.063,0.037",
        "--seed", 7, "--out-dir", out,
    )
    return out / "state.json"


class TestReconstructCommand:
    def test_report_columns_populated(self, bell_run):
        _, rec_dir = bell_run
        rows = read_csv(rec_dir / "report.csv")
        assert rows[0] == [
            "n_qubits", "p1", "p2", "kappa2", "p3", "overlap1", "p1b",
            "overlap2", "p2b", "fidelity", "relative_fidelity",
            "fidelity_target", "overlap1_target",
        ]
        record = dict(zip(rows[0], rows[1]))
        assert record["n_qubits"] == "2"
        for column in rows[0][1:]:
            assert record[column] != ""
        assert float(record["fidelity"]) >= 0.95
        assert float(record["p1"]) == pytest.approx(0.9, abs=1e-9)

    def test_result_file_structure(self, bell_run):
        _, rec_dir = bell_run
        doc = json.loads((rec_dir / "result.json").read_text())
        assert len(doc["pairs"]) == 2
        assert set(doc["pairs"][0]) == {"p", "state"}
        assert doc["report"][0]["accepted"] is True
        assert doc["report"][0]["step"] == 1
        psi = doc["pairs"][0]["state"]
        assert len(psi["re"]) == 4 and psi["n_qubits"] == 2

    def test_result_file_is_the_list_document(self, bell_run):
        # The state documents are written from arrays, with the bytes that
        # json.dumps gives their nested lists.
        _, rec_dir = bell_run
        text = (rec_dir / "result.json").read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_max_rank_three_runs_three_steps(self, tmp_path):
        synth_dir = tmp_path / "synth"
        run_cli("synth", "--preset", "bell-mixture", "--out-dir", synth_dir)
        proc = run_cli(
            "reconstruct", "--dataset", synth_dir / "dataset.jsonl",
            "--max-rank", 3, "--floor", 1e-2, "--restarts", 3, "--seed", 3,
            "--out-dir", tmp_path / "rec", check=False,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "rec" / "result.json").read_text())
        assert len(doc["pairs"]) == 3
        assert [step["accepted"] for step in doc["report"]] == [True, True, True]

    def test_truth_decomposed_once(self, tmp_path, monkeypatch):
        # The per-step eigenstate figures and the report row share one
        # spectrum of the truth, whichever module looks eigendecompose up.
        synth_dir = tmp_path / "synth"
        code = cli.main(["synth", "--preset", "bell-mixture", "--out-dir", str(synth_dir)])
        assert code == 0
        calls = []
        decompose = st.eigendecompose

        def counting(rho):
            calls.append(rho)
            return decompose(rho)

        for module in (st, cli, reconstruction):
            monkeypatch.setattr(module, "eigendecompose", counting)
        code = cli.main(
            ["reconstruct", "--dataset", str(synth_dir / "dataset.jsonl"),
             "--truth", str(synth_dir / "state.json"), "--max-rank", "2",
             "--floor", "1e-2", "--epochs", "200", "--restarts", "1",
             "--out-dir", str(tmp_path / "rec")]
        )
        assert code == 0
        assert len(calls) == 1
        doc = json.loads((tmp_path / "rec" / "result.json").read_text())
        assert doc["report"][0]["eigenstate_fidelity"] is not None
        record = dict(zip(*read_csv(tmp_path / "rec" / "report.csv")))
        assert float(record["p1"]) == pytest.approx(0.9, abs=1e-9)

    @pytest.mark.parametrize(
        "synth_flags",
        [
            ["--preset", "bell-mixture"],
            ["--preset", "bell-mixture", "--shots", "10000", "--seed", "11"],
            ["--w", "4", "--spectrum", "0.860,0.063,0.037", "--bases", "compressed",
             "--seed", "7"],
        ],
        ids=["bell", "bell-shots", "w4-compressed"],
    )
    def test_report_fidelity_matches_generic_path(self, tmp_path, synth_flags):
        # The report takes F from the approximation's rank-r frame; it equals
        # the fidelity of the assembled density matrix up to round-off, and
        # the relative fidelity is that F over kappa.
        synth_dir, rec_dir = tmp_path / "synth", tmp_path / "rec"
        assert cli.main(["synth", *synth_flags, "--out-dir", str(synth_dir)]) == 0
        code = cli.main(
            ["reconstruct", "--dataset", str(synth_dir / "dataset.jsonl"),
             "--truth", str(synth_dir / "state.json"), "--max-rank", "2",
             "--floor", "1e-2", "--epochs", "300", "--restarts", "1",
             "--seed", "3", "--out-dir", str(rec_dir)]
        )
        assert code == 0
        pairs = json.loads((rec_dir / "result.json").read_text())["pairs"]
        columns = [
            np.array(pair["state"]["re"]) + 1j * np.array(pair["state"]["im"])
            for pair in pairs
        ]
        approx = reconstruction.SpectralApprox(
            [pair["p"] for pair in pairs], np.column_stack(columns)
        )
        assert approx.rank == 2
        truth = st.load_density_matrix(synth_dir / "state.json")
        generic = st.fidelity(truth, approx.density_matrix())
        kappa = st.eigendecompose(truth).leading_weight(2)
        record = dict(zip(*read_csv(rec_dir / "report.csv")))
        assert abs(float(record["fidelity"]) - generic) <= 1e-12
        assert abs(float(record["relative_fidelity"]) - generic / kappa) <= 1e-12

    def test_missing_dataset_flag_usage_error(self, tmp_path):
        proc = run_cli("reconstruct", "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].endswith(
            "the following arguments are required: --dataset"
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--epochs", 0),
            ("--restarts", 0),
            ("--restarts", 10_001),
            ("--max-rank", -1),
            ("--lr", 0),
            ("--lr", "nan"),
            ("--floor", -1e-2),
            ("--seed", -1),
        ],
    )
    def test_out_of_range_numbers_usage_error(self, tmp_path, flag, value):
        proc = run_cli(
            "reconstruct", "--dataset", tmp_path / "missing.jsonl", flag, value,
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert f"argument {flag}:" in proc.stderr.splitlines()[-1]

    def test_non_finite_probability_runtime_error(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"n_qubits": 1, "mode": "exact", "seed": null}\n'
            '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
            '{"basis": "z", "outcome": "-", "p": NaN, "shots": null}\n'
        )
        proc = run_cli(
            "reconstruct", "--dataset", path, "--out-dir", tmp_path, check=False
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower() and "finite" in proc.stderr

    def test_drifted_step_keeps_the_run(self, tmp_path, monkeypatch, capsys):
        # The diagonal 3-qubit mixture whose step 3 drifts out of the
        # orthogonal complement (by construction, see ``drift_at_step_three``):
        # exit 0 at rank 2.
        rho = st.DensityMatrix(
            np.diag([0.3, 0.2, 0.15, 0.12, 0.1, 0.07, 0.04, 0.02]).astype(complex), 3
        )
        ms.exact_dataset(rho, ms.generate_basis_set(3, "full")).save_jsonl(
            tmp_path / "dataset.jsonl"
        )
        monkeypatch.setattr(reconstruction, "train_next_eigenstate", drift_at_step_three)
        code = cli.main(
            ["reconstruct", "--dataset", str(tmp_path / "dataset.jsonl"),
             "--max-rank", "8", "--floor", "1e-2", "--epochs", "300", "--restarts", "2",
             "--seed", "3", "--out-dir", str(tmp_path / "rec")]
        )
        assert code == 0, capsys.readouterr().err
        doc = json.loads((tmp_path / "rec" / "result.json").read_text())
        assert len(doc["pairs"]) == 2
        assert [step["accepted"] for step in doc["report"]] == [True, True, False]
        assert doc["report"][2]["likelihood_after"] is None
        assert doc["notes"][0].startswith("step 3 rejected")

    def test_out_of_order_dataset_single_error_line(self, tmp_path, bell_dataset):
        # A whole dataset with its first two basis blocks swapped.
        bell_dataset.save_jsonl(tmp_path / "sorted.jsonl")
        header, *records = (tmp_path / "sorted.jsonl").read_text().splitlines(True)
        path = tmp_path / "swapped.jsonl"
        path.write_text("".join([header, *records[4:8], *records[:4], *records[8:]]))
        proc = run_cli(
            "reconstruct", "--dataset", path, "--out-dir", tmp_path, check=False
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "error: record 5: basis 'xx' after 'xy', expected each basis once, "
            "in sorted order"
        ]
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("flag", ["--truth", "--target"])
    def test_state_file_of_another_qubit_count_single_error_line(
        self, tmp_path, bell_dataset, flag
    ):
        bell_dataset.save_jsonl(tmp_path / "dataset.jsonl")
        state = tmp_path / "state.json"
        if flag == "--truth":
            st.save_density_matrix(state, st.DensityMatrix(np.eye(8) / 8, 3))
        else:
            st.save_state_vector(state, ms.w_state(3))
        proc = run_cli(
            "reconstruct", "--dataset", tmp_path / "dataset.jsonl", flag, state,
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: ") and "3 qubits, the dataset 2" in line
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("flag", ["--truth", "--target"])
    def test_state_file_of_the_wrong_kind_names_the_file(
        self, tmp_path, bell_rho, bell_dataset, flag
    ):
        bell_dataset.save_jsonl(tmp_path / "dataset.jsonl")
        state = tmp_path / "state.json"
        if flag == "--truth":  # a state vector where a density matrix belongs
            st.save_state_vector(state, ms.bell_states()[0])
        else:
            st.save_density_matrix(state, bell_rho)
        proc = run_cli(
            "reconstruct", "--dataset", tmp_path / "dataset.jsonl", flag, state,
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: state file {state}: ")
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("damage", ["unclosed", "not_utf8"])
    @pytest.mark.parametrize("flag", ["--truth", "--target"])
    def test_state_file_syntax_names_the_file(
        self, tmp_path, bell_rho, bell_dataset, flag, damage
    ):
        # Both state files given, one of them damaged: the message names it.
        bell_dataset.save_jsonl(tmp_path / "dataset.jsonl")
        truth, target = tmp_path / "truth.json", tmp_path / "target.json"
        st.save_density_matrix(truth, bell_rho)
        st.save_state_vector(target, ms.bell_states()[0])
        state = truth if flag == "--truth" else target
        text = state.read_bytes()
        if damage == "unclosed":
            state.write_bytes(text.rstrip()[:-1] + b"\n")
        else:
            state.write_bytes(text.replace(b'"re"', b'"r\xffe"'))
        proc = run_cli(
            "reconstruct", "--dataset", tmp_path / "dataset.jsonl", "--truth", truth,
            "--target", target, "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: state file {state}: ")
        assert not (tmp_path / "result.json").exists()

    def test_dataset_not_utf8_names_the_record(self, tmp_path, bell_dataset):
        path = tmp_path / "dataset.jsonl"
        bell_dataset.save_jsonl(path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3].replace(b'"p"', b'"\xffp"')
        path.write_bytes(b"\n".join(lines))
        proc = run_cli("reconstruct", "--dataset", path, "--out-dir", tmp_path, check=False)
        assert proc.returncode == 1
        assert proc.stderr == "error: record 3: not UTF-8 text: byte 0xff at column 35\n"

    @pytest.mark.parametrize("name", sorted(MALFORMED_DATASETS))
    def test_malformed_dataset_runtime_error(self, tmp_path, name):
        text, match = MALFORMED_DATASETS[name]
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text)
        proc = run_cli(
            "reconstruct", "--dataset", path, "--out-dir", tmp_path, check=False
        )
        assert proc.returncode == 1
        assert re.search(f"^error: .*{match}", proc.stderr, re.MULTILINE)

    @pytest.mark.parametrize("flag", ["--truth", "--target"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_STATE_FILES))
    def test_malformed_state_file_runtime_error(self, tmp_path, flag, name):
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(
            '{"n_qubits": 1, "mode": "exact", "seed": null}\n'
            '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
            '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n'
        )
        text, match = MALFORMED_STATE_FILES[name]
        state = tmp_path / f"{name}.json"
        state.write_text(text)
        proc = run_cli(
            "reconstruct", "--dataset", dataset, flag, state,
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 1
        assert re.fullmatch(f"error: .*{match}.*\n", proc.stderr)

    def test_nonexistent_dataset_runtime_error(self, tmp_path):
        proc = run_cli(
            "reconstruct", "--dataset", tmp_path / "missing.jsonl",
            "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 1
        assert "error" in proc.stderr.lower()


class TestVerifyCommand:
    def test_smoke_run_fast_and_passing(self, tmp_path):
        started = time.monotonic()
        proc = run_cli(
            "verify", "--dims", "2", "--trials", 10, "--states-per-dim", 2,
            "--out-dir", tmp_path,
        )
        assert time.monotonic() - started < 5.0
        assert proc.returncode == 0
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["passed"] is True
        assert set(doc["checks"]) == {"prop1", "prop2", "prop3", "prop4", "weyl"}

    @pytest.mark.parametrize("flag", ["--trials", "--states-per-dim"])
    def test_non_positive_counts_usage_error(self, tmp_path, flag):
        proc = run_cli(
            "verify", "--dims", "2", flag, 0, "--out-dir", tmp_path, check=False
        )
        assert proc.returncode == 2
        assert f"argument {flag}:" in proc.stderr.splitlines()[-1]

    def test_negative_seed_usage_error(self, tmp_path):
        proc = run_cli("verify", "--dims", "2", "--seed", -5, "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2
        assert "argument --seed:" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "verify_report.json").exists()

    @pytest.mark.parametrize("dims", ["0", "2,0", "x", "2,-4", ""])
    def test_bad_dims_usage_error(self, tmp_path, dims):
        proc = run_cli("verify", "--dims", dims, "--out-dir", tmp_path, check=False)
        assert proc.returncode == 2
        assert "argument --dims:" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "verify_report.json").exists()

    def test_fault_injection_exits_three(self, tmp_path, inflated_fidelities):
        code = cli.main(
            ["verify", "--dims", "2", "--trials", "10", "--states-per-dim", "2",
             "--out-dir", str(tmp_path)]
        )
        assert code == 3
        doc = json.loads((tmp_path / "verify_report.json").read_text())
        assert doc["passed"] is False


class TestFigdataCommand:
    def test_fig4_row_counts(self, tmp_path, w4_state_file):
        run_cli(
            "figdata", "--mode", "fig4", "--state", w4_state_file,
            "--out-dir", tmp_path,
        )
        entropy = read_csv(tmp_path / "fig4_entropy.csv")
        probs = read_csv(tmp_path / "fig4_probabilities.csv")
        assert len(entropy) == 81 + 1
        assert len(probs) == 1296 + 1
        assert entropy[0] == ["basis", "entropy_mixed", "entropy_pure"]

    def test_fig3_zero_perturbation(self, tmp_path, w4_state_file):
        run_cli(
            "figdata", "--mode", "fig3", "--state", w4_state_file,
            "--bases", "compressed", "--perturbations", 3,
            "--strength-max", 0, "--out-dir", tmp_path,
        )
        rows = read_csv(tmp_path / "fig3.csv")
        header, first = rows[0], dict(zip(rows[0], rows[1]))
        assert "cost_l15" in header and "cost_l2" in header
        assert float(first["eps_fidelity"]) == pytest.approx(0.0, abs=1e-9)
        assert float(first["fidelity"]) == pytest.approx(1.0, abs=1e-12)

    def test_strength_max_below_min_usage_error(self, tmp_path, w4_state_file):
        proc = run_cli(
            "figdata", "--mode", "fig3", "--state", w4_state_file,
            "--strength-min", 0.3, "--strength-max", 0.1, "--out-dir", tmp_path,
            check=False,
        )
        assert proc.returncode == 2
        assert "--strength-min" in proc.stderr.splitlines()[-1]
        assert not (tmp_path / "fig3.csv").exists()

    def test_non_positive_floor_usage_error(self, tmp_path, w4_state_file):
        proc = run_cli(
            "figdata", "--mode", "fig3", "--state", w4_state_file,
            "--floor", 0, "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert "argument --floor:" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--perturbations", 0),
            ("--strength-min", "nan"),
            ("--strength-min", -0.01),
            ("--strength-max", "inf"),
            ("--seed", -2),
        ],
    )
    def test_out_of_range_numbers_usage_error(self, tmp_path, flag, value):
        proc = run_cli(
            "figdata", "--mode", "fig3", "--state", tmp_path / "missing.json",
            flag, value, "--out-dir", tmp_path, check=False,
        )
        assert proc.returncode == 2
        assert f"argument {flag}:" in proc.stderr.splitlines()[-1]

    @pytest.mark.parametrize("name", sorted(MALFORMED_STATE_FILES))
    def test_malformed_state_file_runtime_error(self, tmp_path, name):
        text, match = MALFORMED_STATE_FILES[name]
        state = tmp_path / f"{name}.json"
        state.write_text(text)
        proc = run_cli(
            "figdata", "--mode", "fig4", "--state", state, "--out-dir", tmp_path,
            check=False,
        )
        assert proc.returncode == 1
        assert re.fullmatch(f"error: .*{match}.*\n", proc.stderr)

    def test_state_vector_file_names_the_file(self, tmp_path):
        state = tmp_path / "psi.json"
        st.save_state_vector(state, ms.w_state(4))
        proc = run_cli(
            "figdata", "--mode", "fig4", "--state", state, "--out-dir", tmp_path,
            check=False,
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: state file {state}: ")

    @pytest.mark.parametrize("damage", ["unclosed", "not_utf8"])
    def test_state_file_syntax_names_the_file(self, tmp_path, damage):
        state = tmp_path / "rho.json"
        st.save_density_matrix(state, st.DensityMatrix.from_pure(ms.w_state(4)))
        text = state.read_bytes()
        if damage == "unclosed":
            state.write_bytes(text.rstrip()[:-1] + b"\n")
        else:
            state.write_bytes(text.replace(b'"im"', b'"i\xffm"'))
        proc = run_cli(
            "figdata", "--mode", "fig4", "--state", state, "--out-dir", tmp_path,
            check=False,
        )
        assert proc.returncode == 1
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: state file {state}: ")

    def test_fig3_summary_spearman(self, tmp_path, w4_state_file):
        run_cli(
            "figdata", "--mode", "fig3", "--state", w4_state_file,
            "--bases", "compressed", "--perturbations", 50, "--seed", 21,
            "--out-dir", tmp_path,
        )
        doc = json.loads((tmp_path / "fig3_summary.json").read_text())
        corr = doc["spearman_vs_infidelity"]
        assert corr["l15"] >= 0.8
        assert corr["l15"] > corr["kl1"]


class TestManifests:
    def test_synth_reruns_bit_identically(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("synth", "--preset", "bell-mixture", "--seed", 5, "--out-dir", a)
        manifest = json.loads((a / "manifest.json").read_text())
        argv = manifest["argv"]
        argv[argv.index("--out-dir") + 1] = str(b)
        run_cli(*argv)
        for name in ("state.json", "target.json", "dataset.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_reconstruct_reruns_bit_identically(self, tmp_path):
        synth = tmp_path / "synth"
        run_cli("synth", "--preset", "bell-mixture", "--out-dir", synth)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(
            "reconstruct", "--dataset", synth / "dataset.jsonl",
            "--truth", synth / "state.json", "--target", synth / "target.json",
            "--floor", 1e-2, "--lr", 0.5, "--epochs", 200, "--restarts", 2,
            "--seed", 3, "--out-dir", a,
        )
        argv = json.loads((a / "manifest.json").read_text())["argv"]
        argv[argv.index("--out-dir") + 1] = str(b)
        run_cli(*argv)
        for name in ("result.json", "report.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_verify_reruns_bit_identically(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(
            "verify", "--dims", "2,4", "--trials", 10, "--states-per-dim", 2,
            "--seed", 4, "--out-dir", a,
        )
        argv = json.loads((a / "manifest.json").read_text())["argv"]
        argv[argv.index("--out-dir") + 1] = str(b)
        run_cli(*argv)
        name = "verify_report.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_floats_written_as_shortest_repr(self, tmp_path):
        # Every float in a file is Python's repr, the shortest text that
        # reads back to the same double, and the dataset reloads bit for bit.
        synth, rec = tmp_path / "synth", tmp_path / "rec"
        run_cli(
            "synth", "--preset", "bell-mixture", "--shots", 1000, "--seed", 11,
            "--out-dir", synth,
        )
        run_cli(
            "reconstruct", "--dataset", synth / "dataset.jsonl",
            "--truth", synth / "state.json", "--target", synth / "target.json",
            "--epochs", 200, "--restarts", 1, "--seed", 3, "--out-dir", rec,
        )
        tokens = []

        def parse_float(text):
            tokens.append(text)
            return float(text)

        for path in (synth / "dataset.jsonl", synth / "state.json", rec / "result.json"):
            for line in path.read_text().splitlines():
                json.loads(line, parse_float=parse_float)
        _, row = read_csv(rec / "report.csv")
        tokens += [cell for cell in row if not cell.isdigit()]
        # At least the dataset's 36 probabilities and the state's 32 entries.
        assert len(tokens) > 36 + 32
        assert [t for t in tokens if t != repr(float(t))] == []

        rho = ms.bell_mixture()
        want = ms.sample_dataset(rho, ms.generate_basis_set(2, "full", 11), 1000, 11)
        got = ms.MeasurementDataset.load_jsonl(synth / "dataset.jsonl")
        assert np.array_equal(
            got.probabilities.view(np.int64), want.probabilities.view(np.int64)
        )
        assert np.array_equal(got.counts, want.counts)

    def test_manifest_records_resolved_flags(self, tmp_path):
        run_cli(
            "synth", "--w", 2, "--spectrum", "0.8,0.1", "--out-dir", tmp_path,
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["flags"]["bases"] == "full"
        assert manifest["flags"]["seed"] == 0
        assert manifest["duration_s"] >= 0


def assert_manifest_lists(out_dir, inputs):
    """The manifest's ``outputs`` are the files in ``out_dir`` beside it, and
    its ``inputs`` are ``inputs``, in order."""
    manifest = json.loads((out_dir / "manifest.json").read_text())
    written = [p for p in out_dir.iterdir() if p.name != "manifest.json"]
    assert sorted(manifest["outputs"]) == sorted(str(p) for p in written)
    assert manifest["inputs"] == [str(p) for p in inputs]
    assert manifest["duration_s"] >= 0


#: Command -> (argv without --out-dir, files read) for a synth directory.
RUNNER_COMMANDS = {
    "synth": lambda s: (["synth", "--preset", "bell-mixture"], []),
    "reconstruct": lambda s: (
        ["reconstruct", "--dataset", s / "dataset.jsonl", "--truth", s / "state.json",
         "--target", s / "target.json", "--floor", "1e-2", "--epochs", "50",
         "--restarts", "1"],
        [s / "dataset.jsonl", s / "state.json", s / "target.json"],
    ),
    "verify": lambda s: (
        ["verify", "--dims", "2", "--trials", "10", "--states-per-dim", "2"], []
    ),
    "figdata-fig3": lambda s: (
        ["figdata", "--mode", "fig3", "--state", s / "state.json",
         "--perturbations", "3"],
        [s / "state.json"],
    ),
    "figdata-fig4": lambda s: (
        ["figdata", "--mode", "fig4", "--state", s / "state.json"], [s / "state.json"]
    ),
}


class TestRunner:
    """``main`` runs each command and writes its one manifest."""

    @pytest.fixture(scope="class")
    def synth_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("runner") / "synth"
        assert cli.main(["synth", "--preset", "bell-mixture", "--out-dir", str(out)]) == 0
        return out

    @pytest.mark.parametrize("command", sorted(RUNNER_COMMANDS))
    def test_manifest_lists_what_the_command_read_and_wrote(
        self, tmp_path, synth_dir, command
    ):
        argv, inputs = RUNNER_COMMANDS[command](synth_dir)
        out = tmp_path / "out"
        assert cli.main([str(a) for a in argv] + ["--out-dir", str(out)]) == 0
        assert_manifest_lists(out, inputs)

    def test_failed_verification_still_writes_its_manifest(
        self, tmp_path, inflated_fidelities
    ):
        argv, inputs = RUNNER_COMMANDS["verify"](None)
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 3
        assert_manifest_lists(tmp_path, inputs)

    def test_malformed_dataset_writes_no_manifest(self, tmp_path):
        text, _ = MALFORMED_DATASETS["p_nan"]
        path = tmp_path / "dataset.jsonl"
        path.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        code = cli.main(["reconstruct", "--dataset", str(path), "--out-dir", str(out)])
        assert code == 1
        assert list(out.iterdir()) == []

    def test_command_raising_after_an_output_writes_no_manifest(
        self, tmp_path, synth_dir, monkeypatch
    ):
        # result.json is written before the report row fails.
        def failing(*args):
            raise RuntimeError("report row failed")

        monkeypatch.setattr(cli, "_table_row", failing)
        argv, _ = RUNNER_COMMANDS["reconstruct"](synth_dir)
        code = cli.main([str(a) for a in argv] + ["--out-dir", str(tmp_path)])
        assert code == 1
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


class TestReadme:
    def test_documented_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
        commands = [
            line
            for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("eigentomo ")
        ]
        parser = cli.build_parser()
        parsed = [parser.parse_args(shlex.split(command)[1:]) for command in commands]
        assert {args.command for args in parsed} == {
            "synth", "reconstruct", "verify", "figdata"
        }


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        # scipy is imported inside the two functions that use it
        # (figures.cost_comparison_grid, rbm.gibbs_sample), so synth,
        # reconstruct and verify never load it.
        code = (
            "import sys, eigentomo.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        code = (
            "import sys, eigentomo; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('eigentomo', 'numpy'))))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "['eigentomo']"

    def test_module_entry_prints_the_version(self):
        assert run_cli("--version").stdout == "0.1.0\n"
