import numpy as np
import pytest

from eigentomo import measurement as ms
from eigentomo import propositions as pr
from eigentomo import rbm
from eigentomo import states as st
from eigentomo import training

#: One line per acceptance criterion, echoed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return mat / np.trace(mat).real


def random_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


#: The README convention's local rotation of each axis: its rows are the bras
#: of the axis eigenstates, ordered (+1, -1), so that measuring the rotated
#: state in the computational basis measures the original along the axis.
LOCAL_ROTATIONS = {
    "z": np.eye(2, dtype=complex),
    "x": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "y": np.array([[1, -1j], [1, 1j]]) / np.sqrt(2),
}


def dense_rotation(basis: str) -> np.ndarray:
    """The full 2^n x 2^n unitary of ``basis``: a Kronecker product of local rotations."""
    dense = np.ones((1, 1))
    for axis in basis:
        dense = np.kron(dense, LOCAL_ROTATIONS[axis])
    return dense


def drift_at_step_three(data, previous, config):
    """Stand-in for ``training.train_next_eigenstate`` on a diagonal mixture
    of decreasing weights: steps 1 and 2 return the computational basis states
    0 and 1, its two leading eigenvectors, and step 3 returns basis state 2
    with 1e-6 of state 0 mixed in, a fit that drifted out of the orthogonal
    complement of the kept states.  Training itself is skipped, so no
    round-off in a fit decides which step drifts."""
    step = len(previous)
    amplitudes = np.zeros(data.dim)
    amplitudes[step] = 1.0
    if step == 2:
        amplitudes[0] = 1e-6
    log = training.TrainingLog(rows=np.zeros((0, 3)), best_cost=0.0)
    return st.StateVector.normalized(amplitudes), log


def network_parts(theta: np.ndarray, n: int):
    """((a, b, W) amplitude, (a, b, W) phase): slices of a flat parameter
    vector in the [a, b, W] layout, one network after the other."""
    size = n * (n + 2)
    return tuple(
        (net[:n], net[n : 2 * n], net[2 * n :].reshape(n, n))
        for net in (theta[:size], theta[size : 2 * size])
    )


def reference_wavefunction(theta: np.ndarray, n: int):
    """Amplitudes and (2, 2^n, n) tanh tables of flat RBM parameters, one
    network at a time: W^T s + b as a matmul plus the bias, and psi normalized
    through ``rbm.log_sum_exp`` of the amplitude log-marginal."""
    spins = ms.spin_table(n).astype(float)
    log_m, tanh = [], []
    for a, b, w in network_parts(theta, n):
        hidden = spins @ w + b
        log_m.append(a @ spins.T + rbm.log_two_cosh(hidden).sum(axis=1))
        tanh.append(np.tanh(hidden))
    log_p, phase = log_m
    psi = np.exp(0.5 * (log_p - rbm.log_sum_exp(log_p)) + 0.5j * phase)
    return psi, np.array(tanh)


def dense_probabilities(mat: np.ndarray, basis: str) -> np.ndarray:
    """Reference outcome probabilities: the diagonal of U mat U^dagger."""
    dense = dense_rotation(basis)
    return np.real(np.diag(dense @ mat @ dense.conj().T))


@pytest.fixture(scope="session")
def bell_rho() -> st.DensityMatrix:
    return ms.bell_mixture()


@pytest.fixture(scope="session")
def bell_dataset(bell_rho) -> ms.MeasurementDataset:
    return ms.exact_dataset(bell_rho, ms.generate_basis_set(2, "full"))


@pytest.fixture(scope="session")
def w4_rho() -> st.DensityMatrix:
    return ms.make_w_mixture(4, [0.860, 0.063, 0.037], seed=7)


@pytest.fixture(autouse=True)
def fresh_rotation_memo():
    """Each test starts without a shared ``measurement.basis_rotation``, so no
    test rotates with one that another test built, under a patched split
    point, say."""
    ms.basis_rotation.cache_clear()


@pytest.fixture
def inflated_fidelities(monkeypatch):
    """Make the proposition checks see every fidelity 0.02 too high: the
    generic and pure ones and the rank-r challengers' ``frame_fidelity``."""
    monkeypatch.setattr(
        pr, "_default_fidelity", lambda a, b: st.fidelity(a, b) + 0.02
    )
    monkeypatch.setattr(
        pr, "frame_fidelity", lambda a, q, w: st.frame_fidelity(a, q, w) + 0.02
    )
    monkeypatch.setattr(
        pr, "_default_pure_fidelity", lambda a, b: st.pure_fidelity(a, b) + 0.02
    )


_HEADER = '{"n_qubits": 1, "mode": "exact", "seed": null}\n'
_SAMPLED_HEADER = '{"n_qubits": 1, "mode": "sampled", "seed": 1}\n'

#: Dataset files the loader must reject: name -> (file text, error pattern).
MALFORMED_DATASETS = {
    "duplicate": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n',
        "record 3: basis 'z' after 'z', expected each basis once",
    ),
    "outcome_length": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-+", "p": 0.5, "shots": null}\n',
        "invalid outcome '-\\+': expected 1 characters",
    ),
    "outcome_character": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "0", "p": 0.5, "shots": null}\n',
        "invalid outcome '0': expected 1 characters",
    ),
    "record_not_object": (_HEADER + '["z", "+", 1.0]\n', "not a JSON object"),
    "object_split_across_lines": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-",\n'
        + '"p": 0.5, "shots": null}\n',
        "record 2: Expecting property name enclosed in double quotes at column 32",
    ),
    "string_split_across_lines": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null, "note": "a\n'
        + 'b"}\n',
        "record 2: Invalid control character at column 67",
    ),
    "two_objects_on_one_line": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}, '
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        "record 1: Extra data at column 56",
    ),
    "split_and_doubled_in_one_block": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}, '
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null, "x": [1\n'
        + '2]}\n',
        "record 1: Extra data at column 56",
    ),
    "duplicate_before_bad_json": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome" "-", "p": 0.5, "shots": null}\n',
        "record 2: invalid outcome '\\+': expected 1 characters over \\+, -, here '-'",
    ),
    "missing_basis": (
        _HEADER + '{"outcome": "+", "p": 0.5, "shots": null}\n',
        "record 1 has no 'basis' field",
    ),
    "missing_p": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "shots": null}\n',
        "record 2 has no 'p' field",
    ),
    # The record order is the format: bases sorted, each a block of 2^n
    # records with the outcomes in index order.
    "interleaved_bases": (
        _HEADER
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        "record 2: basis 'z', expected 'x', whose block lists 1 of 2 outcomes",
    ),
    "unsorted_blocks": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n',
        "record 3: basis 'x' after 'z', expected each basis once, in sorted order",
    ),
    "repeated_block": (
        _HEADER
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n',
        "record 3: basis 'x' after 'x', expected each basis once",
    ),
    "block_too_long": (
        _HEADER
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        "record 3: basis 'x' after 'x', expected each basis once",
    ),
    "outcomes_out_of_order": (
        _HEADER
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n',
        "record 1: invalid outcome '-': expected 1 characters over \\+, -, here '\\+'",
    ),
    "basis_not_string": (
        _HEADER + '{"basis": ["z"], "outcome": "+", "p": 1.0, "shots": null}\n',
        "is not a length-1 string",
    ),
    "missing_outcome": (
        _HEADER + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n',
        "lists 1 outcomes",
    ),
    "shots_disagree_with_p": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": 999}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": 1}\n',
        "basis 'z': record probabilities disagree with the shot counts",
    ),
    "basis_without_shots": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": 0}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": 0}\n',
        "sampled basis 'z' has no shots",
    ),
    "exact_mode_with_shots": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": 5}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": 5}\n',
        "mode 'exact' contradicts the shots",
    ),
    "sampled_mode_without_shots": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        "mode 'sampled' contradicts the shots",
    ),
    "mode_missing_with_shots": (
        '{"n_qubits": 1, "seed": 1}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": 5}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": 5}\n',
        'header mode must be "exact" or "sampled", got None',
    ),
    "mode_missing_without_shots": (
        '{"n_qubits": 1, "seed": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        'header mode must be "exact" or "sampled", got None',
    ),
    "mixed_null_and_integer_shots": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": 10}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "record 2: shots null, expected an integer as in record 1",
    ),
    "n_qubits_above_cap": (
        '{"n_qubits": 13, "mode": "exact", "seed": null}\n'
        + '{"basis": "zzzzzzzzzzzzz", "outcome": "+++++++++++++", "p": 1.0, '
        + '"shots": null}\n',
        "header n_qubits must be an integer in 1..12, got 13",
    ),
    "n_qubits_not_integer": (
        '{"n_qubits": 1.5, "mode": "exact", "seed": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n',
        "header n_qubits must be an integer in 1..12, got 1.5",
    ),
    "seed_list": (
        '{"n_qubits": 1, "mode": "exact", "seed": [1]}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "header seed must be an integer, got \\[1\\]",
    ),
    "seed_float": (
        '{"n_qubits": 1, "mode": "exact", "seed": 1.7}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "header seed must be an integer, got 1.7",
    ),
    "seed_bool": (
        '{"n_qubits": 1, "mode": "exact", "seed": true}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "header seed must be an integer, got True",
    ),
    "p_string": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": "0.5", "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": null}\n',
        "p must be a number, got '0.5'",
    ),
    "p_bool": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": true, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0, "shots": null}\n',
        "p must be a number, got True",
    ),
    "shots_not_integer": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": 2.5}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.5, "shots": 2}\n',
        "shots must be an integer, got 2.5",
    ),
    "shots_beyond_int64": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": 99999999999999999999}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": 0}\n',
        "record value out of range",
    ),
    # Python's json reads NaN and Infinity, but they are no JSON numbers.
    "p_nan": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": NaN, "shots": null}\n',
        "record 2: p must be finite, got nan",
    ),
    "p_infinity": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": Infinity, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "record 1: p must be finite, got inf",
    ),
    "shots_negative": (
        _SAMPLED_HEADER
        + '{"basis": "z", "outcome": "+", "p": 1.5, "shots": 3}\n'
        + '{"basis": "z", "outcome": "-", "p": -0.5, "shots": -1}\n',
        "record 2: shots must be nonnegative, got -1",
    ),
    "basis_sum_not_one": (
        _HEADER
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.4, "shots": null}\n',
        "basis 'z': per-basis probabilities do not sum to 1",
    ),
    "below_negativity_floor": (
        _HEADER
        + '{"basis": "x", "outcome": "+", "p": 0.5, "shots": null}\n'
        + '{"basis": "x", "outcome": "-", "p": 0.5, "shots": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.1, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": -0.1, "shots": null}\n',
        "basis 'z': a record probability is below the negativity floor",
    ),
    "header_not_json": (
        '{"n_qubits": 1, "mode": "exact" "seed": null}\n'
        + '{"basis": "z", "outcome": "+", "p": 1.0, "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "header: Expecting ',' delimiter at column 33",
    ),
    "p_beyond_float64": (
        _HEADER
        + '{"basis": "z", "outcome": "+", "p": 1' + "0" * 400 + ', "shots": null}\n'
        + '{"basis": "z", "outcome": "-", "p": 0.0, "shots": null}\n',
        "record value out of range",
    ),
}

#: State files (``--truth``, ``--target``, ``figdata --state``) the loaders
#: must reject: name -> (file text, error pattern).
MALFORMED_STATE_FILES = {
    "n_qubits_null": (
        '{"n_qubits": null, "re": [1.0, 0.0], "im": [0.0, 0.0]}',
        "n_qubits must be an integer, got None",
    ),
    "n_qubits_list": (
        '{"n_qubits": [2], "re": [1.0, 0.0], "im": [0.0, 0.0]}',
        "n_qubits must be an integer, got \\[2\\]",
    ),
    "n_qubits_bool": (
        '{"n_qubits": true, "re": [1.0, 0.0], "im": [0.0, 0.0]}',
        "n_qubits must be an integer, got True",
    ),
    "top_level_list": ("[1.0, 0.0]", "does not hold a JSON object"),
    "n_qubits_huge": (
        '{"n_qubits": 1000000000000, "re": [1.0, 0.0], "im": [0.0, 0.0]}',
        "n_qubits 1000000000000 does not match dimension 2",
    ),
    "re_missing": (
        '{"n_qubits": 1, "im": [0.0, 0.0]}', "field 're' must be an array of finite numbers"
    ),
    "im_missing": (
        '{"n_qubits": 1, "re": [1.0, 0.0]}', "field 'im' must be an array of finite numbers"
    ),
    "re_strings": (
        '{"n_qubits": 1, "re": ["1.0", "0.0"], "im": [0.0, 0.0]}',
        "field 're' must be an array of finite numbers",
    ),
    "im_booleans": (
        '{"n_qubits": 1, "re": [1.0, 0.0], "im": [false, false]}',
        "field 'im' must be an array of finite numbers",
    ),
    "im_null_entry": (
        '{"n_qubits": 1, "re": [1.0, 0.0], "im": [0.0, null]}',
        "field 'im' must be an array of finite numbers",
    ),
    "re_nan": (
        '{"n_qubits": 1, "re": [NaN, 0.0], "im": [0.0, 0.0]}',
        "field 're' must be an array of finite numbers",
    ),
    "im_beyond_float64": (
        '{"n_qubits": 1, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, 1e400], [0, 0]]}',
        "field 'im' must be an array of finite numbers",
    ),
    "re_ragged": (
        '{"n_qubits": 1, "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}',
        "field 're' must be an array of finite numbers",
    ),
    "im_shorter": (
        '{"n_qubits": 2, "re": [0.5, 0.5, 0.5, 0.5], "im": [0]}',
        "field 'im' has shape \\(1,\\), 're' \\(4,\\)",
    ),
    "im_row_of_a_matrix": (
        '{"n_qubits": 1, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [0, 0]}',
        "field 'im' has shape \\(2,\\), 're' \\(2, 2\\)",
    ),
}
