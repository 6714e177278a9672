"""Pauli product-basis measurements on small qubit registers.

A basis label is a string over {x, y, z}, one local axis per qubit; qubit 0
is the leftmost character and the most significant bit of the computational
index.  Outcomes are tuples of +1/-1 spins, and outcome (s_0, ..., s_{n-1})
maps to the rotated-basis index whose bit k is 0 for s_k = +1.  Datasets
carry a full grid of 2^n outcome records per basis (zero-probability
outcomes included), sorted by basis label and then by outcome index.

Every basis rotation goes through one kernel, ``BasisRotation``: it splits
each U_b into a dense left factor on the first k qubits and a dense right
factor on the others, and applies each distinct left factor once per pass.
A fixed cost model picks k for each basis list (small registers take k = 0,
one dense unitary per basis and no per-prefix loop).  Every outcome
probability comes from ``mixture_probabilities``, the table
sum_k w_k |U_b v_k|^2 of a weighted set of states, which rotates through it.
A pure state is the one-state case, and a density matrix is its eigensystem
(``density_probabilities``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import jsonio
from .states import HERM_ATOL, DensityMatrix, StateVector, matrix_of, qubit_count

_SQ2 = 1.0 / np.sqrt(2.0)
_ROTATIONS = {
    "z": np.eye(2, dtype=np.complex128),
    "x": _SQ2 * np.array([[1, 1], [1, -1]], dtype=np.complex128),
    "y": _SQ2 * np.array([[1, -1j], [1, 1j]], dtype=np.complex128),
}
for _mat in _ROTATIONS.values():
    _mat.setflags(write=False)
_AXES = frozenset(_ROTATIONS)

#: Record probabilities may undershoot zero by at most this much before clamping.
PROBABILITY_FLOOR = -1e-12
#: Per-basis probabilities must sum to one within this tolerance.
BASIS_SUM_ATOL = 1e-9
#: Sampled probabilities must equal count / basis total within this tolerance.
COUNT_RATIO_ATOL = 1e-12
#: Largest register for exhaustive 2^n tables (RBM exact mode, dataset loading).
EXACT_MODE_MAX_QUBITS = 12
#: Rotated vectors per ``BasisRotation.forward`` call in ``mixture_probabilities``
#: and, at most, per stack chunk of ``CostEngine.value_and_grad``.
_BLOCK_VECTORS = 256
#: Modelled cost of one prefix group's Python-level loop iteration, in complex
#: multiply-adds, for the split-point choice of ``BasisRotation``.
_GROUP_OVERHEAD_MACS = 5000


def local_rotation(axis: str) -> np.ndarray:
    """Unitary whose rows are the bras of the axis eigenstates, ordered (+1, -1).

    Measuring the rotated state in the computational basis is equivalent to
    measuring the original state along the given Pauli axis.
    """
    if axis not in _ROTATIONS:
        raise ValueError(f"invalid measurement axis {axis!r}; expected one of x, y, z")
    return _ROTATIONS[axis].copy()


def validate_basis(basis: str, n_qubits: int) -> None:
    if not isinstance(basis, str) or len(basis) != n_qubits or not set(basis) <= _AXES:
        raise ValueError(
            f"basis {basis!r} is not a length-{n_qubits} string over x, y, z"
        )


@lru_cache(maxsize=None)
def spin_table(n_qubits: int) -> np.ndarray:
    """(2^n, n) table of +1/-1 spins; row i is the outcome at basis index i."""
    dim = 2**n_qubits
    idx = np.arange(dim)[:, None]
    bits = (idx >> (n_qubits - 1 - np.arange(n_qubits))) & 1
    table = (1 - 2 * bits).astype(np.int8)
    table.setflags(write=False)
    return table


def outcome_string(outcome) -> str:
    return "".join("+" if s == 1 else "-" for s in outcome)


@lru_cache(maxsize=None)
def outcome_strings(n_qubits: int) -> tuple[str, ...]:
    """Outcome strings of every basis index, in index order."""
    return tuple(outcome_string(row) for row in spin_table(n_qubits))


def _kron_rotations(labels: list[str]) -> np.ndarray:
    """(len(labels), 2^m, 2^m) stack of the Kronecker products of the local
    rotations along each label; all labels have the same length m >= 0."""
    stack = np.ones((len(labels), 1, 1), dtype=np.complex128)
    for k in range(len(labels[0]) if labels else 0):
        local = np.array([_ROTATIONS[label[k]] for label in labels])
        dim = 2 * stack.shape[1]
        stack = (stack[:, :, None, :, None] * local[:, None, :, None, :]).reshape(
            len(labels), dim, dim
        )
    return stack


def _split_point(n_qubits: int, bases) -> int:
    """The k minimizing the modelled cost of one ``BasisRotation`` pass.

    With G_k distinct k-qubit prefixes among the B bases, the left factors
    cost G_k 4^k 2^(n-k) multiply-adds, the right factors B 2^k 4^(n-k), and
    each prefix group a fixed loop overhead.  A pure function of its
    arguments (ties go to the smaller k), so runs stay bit-identical.
    """
    n_bases = len(bases)

    def cost(k: int) -> int:
        groups = len({basis[:k] for basis in bases})
        return (
            groups * (4**k * 2 ** (n_qubits - k) + _GROUP_OVERHEAD_MACS)
            + n_bases * 2**k * 4 ** (n_qubits - k)
        )

    return min(range(n_qubits + 1), key=cost)


class BasisRotation:
    """The unitaries U_b of a list of bases, each split as U_b = L_b (x) R_b.

    L_b is the dense product of the local rotations of the first n_L qubits
    and R_b that of the others.  The split n_L comes from a cost model
    (``_split_point``), not from a fixed n // 2: n_L = 0, the pick for small
    registers, is one empty left factor with the dense U_b as right factors.
    A state psi, read as the 2^{n_L} x 2^{n_R} matrix P, rotates as
    U_b psi = L_b P R_b^T.  Bases sharing a left prefix g share Y_g = L_g P,
    so the forward pass applies each distinct left factor once, then one
    matmul Y_g [R_b1^T ... R_bk^T] per prefix.  The adjoint sum_b U_b^T x_b
    takes one matmul [X_b1 ... X_bk] [R_b1; ...; R_bk] per prefix, which also
    sums the group, and one matmul by the stacked L_g^T.

    Rotated vectors are laid out (2^{n_L}, r, n_bases, 2^{n_R}) for r states,
    with the bases in ``order`` (grouped by prefix, otherwise in list order):
    in that layout the bases of one prefix form one strided matrix.
    ``arrange`` puts a per-basis table into the same layout.  Both passes
    also take a leading stack axis of m members; each member goes through
    the matmuls of the unstacked call, so it has the same bits.
    """

    def __init__(self, bases, n_qubits: int):
        bases = list(bases)
        for basis in bases:
            validate_basis(basis, n_qubits)
        n_left = _split_point(n_qubits, bases)
        self.shape = (1 << n_left, 1 << (n_qubits - n_left))
        d_left, d_right = self.shape
        prefixes = sorted({basis[:n_left] for basis in bases})
        suffixes = sorted({basis[n_left:] for basis in bases})
        prefix_of = {label: i for i, label in enumerate(prefixes)}
        suffix_of = {label: i for i, label in enumerate(suffixes)}
        group, suffix = np.array(
            [(prefix_of[b[:n_left]], suffix_of[b[n_left:]]) for b in bases],
            dtype=np.intp,
        ).reshape(-1, 2).T
        #: Basis indices grouped by left prefix: ``order[bounds[g]:bounds[g + 1]]``
        #: are the bases of prefix group g.
        self.order = np.argsort(group, kind="stable")
        self.bounds = np.searchsorted(
            group[self.order], np.arange(len(prefixes) + 1)
        ).tolist()
        self._left = _kron_rotations(prefixes).reshape(-1, d_left, d_left)
        # Row (g, m) of the stack is row m of L_g: the adjoint's last matmul.
        self._left_t = self._left.transpose(2, 0, 1).reshape(d_left, -1)
        # Per prefix group, [R_b1; ...; R_bk] with rows (b, j) = row j of R_b;
        # its transpose is [R_b1^T ... R_bk^T].
        right = _kron_rotations(suffixes)[suffix[self.order]].reshape(-1, d_right)
        self._columns = [
            slice(a * d_right, b * d_right)
            for a, b in zip(self.bounds, self.bounds[1:])
        ]
        self._right = [right[cols] for cols in self._columns]

    @property
    def n_groups(self) -> int:
        return len(self._left)

    def arrange(self, table: np.ndarray) -> np.ndarray:
        """A (n_bases, 2^n) table with rows in list order, in the layout of
        ``forward`` for r = 1."""
        d_left, d_right = self.shape
        rows = np.asarray(table)[self.order].reshape(-1, d_left, d_right)
        return np.ascontiguousarray(rows.transpose(1, 0, 2))[:, None]

    def forward(
        self,
        vectors: np.ndarray,
        first: int = 0,
        last: int | None = None,
        out: np.ndarray | None = None,
    ):
        """U_b v_k for the columns v_k of a (2^n, r) array and the bases of prefix
        groups ``first`` to ``last`` (exclusive; default all), laid out
        (2^{n_L}, r, n, 2^{n_R}) for the n bases ``order[bounds[first]:bounds[last]]``.

        An (m, 2^n, r) stack gives an (m, 2^{n_L}, r, n, 2^{n_R}) result.
        ``out``, if given, is a C-contiguous complex array of that shape that
        receives the result.
        """
        d_left, d_right = self.shape
        if last is None:
            last = self.n_groups
        groups = slice(first, last)
        *stack, _, rank = vectors.shape
        states = vectors.reshape(-1, d_left, d_right, rank).transpose(0, 1, 3, 2)
        members = len(states)
        offset = self.bounds[first] * d_right
        width = self.bounds[last] * d_right - offset
        if out is None:
            out = np.empty(
                (*stack, d_left, rank, width // d_right, d_right), np.complex128
            )
        columns = out.reshape(members, d_left * rank, width)
        prefix_products = self._left[groups, None] @ states.reshape(
            members, d_left, rank * d_right
        )
        for y, cols, right in zip(
            prefix_products, self._columns[groups], self._right[groups]
        ):
            np.matmul(
                y.reshape(members, -1, d_right),
                right.T,
                out=columns[:, :, cols.start - offset : cols.stop - offset],
            )
        return out

    def adjoint(self, rotated: np.ndarray) -> np.ndarray:
        """sum_b U_b^T x_b over one vector x_b per basis, given in the layout of
        ``forward`` (r = 1); the plain transpose, with no conjugation.

        A stack of m such layouts gives an (m, 2^n) result.
        """
        d_left, d_right = self.shape
        stack = rotated.shape[:-4]
        x = rotated.reshape(-1, d_left, rotated.shape[-2] * d_right)
        sums = np.empty((len(x), self.n_groups, d_left, d_right), np.complex128)
        for total, cols, right in zip(sums.swapaxes(0, 1), self._columns, self._right):
            np.matmul(x[:, :, cols], right, out=total)
        return (self._left_t @ sums.reshape(len(x), -1, d_right)).reshape(*stack, -1)


def mixture_probabilities(weights, vectors, bases) -> np.ndarray:
    """(n_bases, 2^n) table of sum_k w_k |U_b v_k|^2 over the columns v_k of
    ``vectors``.

    The columns go through ``BasisRotation.forward`` in chunks, each with
    runs of whole prefix groups, so that a call holds about
    ``_BLOCK_VECTORS`` rotated vectors and each prefix's left factor meets
    each column once.
    """
    w = np.asarray(weights, dtype=float)
    v = np.ascontiguousarray(vectors, dtype=np.complex128)
    dim, rank = v.shape
    if w.shape != (rank,):
        raise ValueError(f"weights of shape {w.shape} do not match {rank} vectors")
    rotation = BasisRotation(bases, qubit_count(dim))
    bounds, n_groups = rotation.bounds, rotation.n_groups
    largest = max((b - a for a, b in zip(bounds, bounds[1:])), default=1)
    step = max(1, _BLOCK_VECTORS // largest)
    d_left, d_right = rotation.shape
    table = np.zeros((d_left, len(rotation.order), d_right))
    for start in range(0, rank, step):
        columns = slice(start, start + step)
        max_bases = _BLOCK_VECTORS // min(step, rank - start)
        first = 0
        for last in range(1, n_groups + 1):
            if last < n_groups and bounds[last + 1] - bounds[first] <= max_bases:
                continue
            rotated = rotation.forward(v[:, columns], first, last)
            table[:, bounds[first] : bounds[last]] += np.einsum(
                "k,ikbj->ibj", w[columns], np.abs(rotated) ** 2
            )
            first = last
    probs = np.empty((len(rotation.order), dim))
    probs[rotation.order] = table.transpose(1, 0, 2).reshape(-1, dim)
    return probs


def basis_probabilities(amplitudes, bases) -> np.ndarray:
    """(n_bases, 2^n) outcome probabilities of a pure state in each basis."""
    vec = np.asarray(amplitudes, dtype=np.complex128).reshape(-1, 1)
    return mixture_probabilities(np.ones(1), vec, bases)


def probabilities_vector(amplitudes, basis: str) -> np.ndarray:
    """Outcome probabilities of a pure state measured in ``basis``."""
    return basis_probabilities(amplitudes, [basis])[0]


def density_probabilities(rho, bases) -> np.ndarray:
    """(n_bases, 2^n) outcome probabilities of a density matrix, from its eigensystem.

    ``rho`` may be a raw Hermitian matrix (negative eigenvalues allowed); a
    matrix that is not Hermitian within ``HERM_ATOL`` raises ValueError.
    """
    mat = matrix_of(rho)
    if np.abs(mat - mat.conj().T).max() > HERM_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    return mixture_probabilities(eigenvalues, eigenvectors, bases)


def generate_basis_set(n_qubits: int, mode: str = "full", seed: int = 0) -> list[str]:
    """All 3^n bases, or a seeded random subset of about 3n(3/2)^n of them.

    The compressed subset is drawn uniformly without replacement and always
    contains the all-z basis; output is sorted and duplicate-free.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    labels = ["".join(t) for t in itertools.product("xyz", repeat=n_qubits)]
    if mode == "full":
        return labels
    if mode != "compressed":
        raise ValueError(f"unknown basis-set mode {mode!r}")
    total = len(labels)
    count = min(total, round(3 * n_qubits * 1.5**n_qubits))
    all_z = "z" * n_qubits
    pool = [b for b in labels if b != all_z]
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(pool), size=count - 1, replace=False) if count > 1 else []
    return sorted([all_z] + [pool[i] for i in picked])


@dataclass(frozen=True)
class MeasurementDataset:
    """Projective measurement statistics, grouped per basis.

    ``probabilities[b, i]`` is the probability of outcome index ``i`` in
    ``bases[b]``.  ``counts`` carries per-outcome shot counts in sampled mode
    and is None in exact mode.
    """

    n_qubits: int
    bases: tuple[str, ...]
    probabilities: np.ndarray
    counts: np.ndarray | None
    mode: str
    seed: int | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
        if self.mode not in ("exact", "sampled"):
            raise ValueError(f"unknown dataset mode {self.mode!r}")
        dim = 2**self.n_qubits
        bases = tuple(self.bases)
        for basis in bases:
            validate_basis(basis, self.n_qubits)
        if list(bases) != sorted(set(bases)):
            raise ValueError("bases must be sorted and duplicate-free")
        probs = np.array(self.probabilities, dtype=float)
        if probs.shape != (len(bases), dim):
            raise ValueError(
                f"probabilities shape {probs.shape} does not match "
                f"({len(bases)}, {dim})"
            )
        if not np.all(np.isfinite(probs)):
            raise ValueError("record probabilities must be finite")
        if probs.size and probs.min() < PROBABILITY_FLOOR:
            raise ValueError("a record probability is below the negativity floor")
        probs = np.clip(probs, 0.0, None)
        if probs.size:
            sums = probs.sum(axis=1)
            if np.abs(sums - 1.0).max() > BASIS_SUM_ATOL:
                raise ValueError("per-basis probabilities do not sum to 1")
        counts = self.counts
        if counts is not None:
            counts = np.array(counts, dtype=np.int64)
            if counts.shape != probs.shape or counts.min() < 0:
                raise ValueError("invalid shot-count array")
            totals = counts.sum(axis=1)
            if np.any(totals == 0):
                raise ValueError("a sampled basis has no shots")
            if np.abs(probs - counts / totals[:, None]).max() > COUNT_RATIO_ATOL:
                raise ValueError("record probabilities disagree with the shot counts")
            counts.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def n_records(self) -> int:
        return self.probabilities.size

    def save_jsonl(self, path) -> None:
        """Write a header line, then one line per (basis, outcome) record.

        Record lines are formatted directly and match ``jsonio.dumps`` of
        ``{"basis", "outcome", "p", "shots"}`` byte for byte.
        """
        outcomes = [f'"outcome": "{s}", "p": ' for s in outcome_strings(self.n_qubits)]
        if self.counts is not None:
            counts = self.counts.tolist()
        else:
            counts = [["null"] * self.dim] * len(self.bases)
        with open(path, "w", encoding="utf-8") as fh:
            header = {"n_qubits": self.n_qubits, "mode": self.mode, "seed": self.seed}
            fh.write(jsonio.dumps(header))
            fh.write("\n")
            for basis, probs, shots in zip(
                self.bases, self.probabilities.tolist(), counts
            ):
                prefix = f'{{"basis": "{basis}", '
                fh.write(
                    "".join(
                        f'{prefix}{outcome}{jsonio.format_float(p)}, "shots": {k}}}\n'
                        for outcome, p, k in zip(outcomes, probs, shots)
                    )
                )

    @classmethod
    def load_jsonl(cls, path) -> "MeasurementDataset":
        """Read a file written by ``save_jsonl``, filling per-basis rows line by line.

        The header's ``n_qubits`` must be an integer up to the exact-mode cap,
        each (basis, outcome) pair must appear exactly once, and each outcome
        must be ``n_qubits`` characters over ``+``/``-``; anything else raises
        ValueError.
        """
        with open(path, "r", encoding="utf-8") as fh:
            header = next((jsonio.loads(line) for line in fh if line.strip()), None)
            if not isinstance(header, dict):
                raise ValueError(f"dataset file {path} has no header object")
            n_qubits = header.get("n_qubits")
            # Checked before outcome_strings builds its 2^n map.
            if type(n_qubits) is not int or not 1 <= n_qubits <= EXACT_MODE_MAX_QUBITS:
                raise ValueError(
                    f"header n_qubits must be an integer in 1..{EXACT_MODE_MAX_QUBITS}, "
                    f"got {n_qubits!r}"
                )
            dim = 2**n_qubits
            index_of = {s: i for i, s in enumerate(outcome_strings(n_qubits))}
            # basis -> (probabilities, shot counts, outcome indices seen)
            rows: dict[str, tuple[np.ndarray, np.ndarray, set]] = {}
            have_counts = False
            for line in fh:
                if not line.strip():
                    continue
                doc = jsonio.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError(f"record {doc!r} is not a JSON object")
                outcome = doc.get("outcome")
                i = index_of.get(outcome) if isinstance(outcome, str) else None
                if i is None:
                    raise ValueError(
                        f"invalid outcome {outcome!r}: expected {n_qubits} "
                        "characters over +, -"
                    )
                basis = doc["basis"]
                try:
                    row = rows[basis]
                except (KeyError, TypeError):
                    validate_basis(basis, n_qubits)
                    row = rows[basis] = (
                        np.zeros(dim),
                        np.zeros(dim, dtype=np.int64),
                        set(),
                    )
                probs, counts, seen = row
                if i in seen:
                    raise ValueError(
                        f"duplicate record for basis {basis!r}, outcome {outcome!r}"
                    )
                seen.add(i)
                probs[i] = doc["p"]
                shots = doc.get("shots")
                if shots is not None:
                    counts[i] = shots
                    have_counts = True
        bases = sorted(rows)
        for basis in bases:
            listed = len(rows[basis][2])
            if listed != dim:
                raise ValueError(
                    f"basis {basis!r} lists {listed} outcomes, expected {dim}"
                )
        probs = np.array([rows[basis][0] for basis in bases]).reshape(-1, dim)
        counts = None
        if have_counts:
            counts = np.array([rows[basis][1] for basis in bases])
        seed = header.get("seed")
        return cls(
            n_qubits,
            tuple(bases),
            probs,
            counts,
            header.get("mode", "exact"),
            int(seed) if seed is not None else None,
        )


def _sorted_unique_bases(bases, n_qubits: int) -> list[str]:
    out = sorted(set(bases))
    if not out:
        raise ValueError("at least one basis is required")
    for basis in out:
        validate_basis(basis, n_qubits)
    return out


def exact_dataset(rho, bases) -> MeasurementDataset:
    """Exact outcome probabilities of ``rho`` over the given bases."""
    mat = matrix_of(rho)
    n = qubit_count(mat.shape[0])
    basis_list = _sorted_unique_bases(bases, n)
    probs = density_probabilities(mat, basis_list)
    return MeasurementDataset(n, tuple(basis_list), probs, None, "exact", None)


def sample_dataset(rho, bases, shots_per_basis: int, seed: int) -> MeasurementDataset:
    """Empirical frequencies from multinomial sampling, reproducible per seed."""
    if shots_per_basis < 1:
        raise ValueError("shots_per_basis must be at least 1")
    mat = matrix_of(rho)
    n = qubit_count(mat.shape[0])
    basis_list = _sorted_unique_bases(bases, n)
    p = np.clip(density_probabilities(mat, basis_list), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots_per_basis, p / p.sum(axis=1, keepdims=True))
    probs = counts / float(shots_per_basis)
    return MeasurementDataset(n, tuple(basis_list), probs, counts, "sampled", int(seed))


def w_state(n_qubits: int) -> StateVector:
    """Equal superposition of all single-excitation computational states."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    for k in range(n_qubits):
        amps[1 << (n_qubits - 1 - k)] = 1.0
    return StateVector.normalized(amps)


def bell_states() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """The four two-qubit Bell states (phi+, phi-, psi+, psi-)."""
    phi_p = StateVector.normalized([1, 0, 0, 1])
    phi_m = StateVector.normalized([1, 0, 0, -1])
    psi_p = StateVector.normalized([0, 1, 1, 0])
    psi_m = StateVector.normalized([0, 1, -1, 0])
    return phi_p, phi_m, psi_p, psi_m


def bell_mixture(eigenvalues=(0.9, 0.09, 0.009, 0.001)) -> DensityMatrix:
    """Mixture of the four Bell states with the given weights."""
    p = np.asarray(eigenvalues, dtype=float)
    if p.shape != (4,) or p.min() < 0 or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("eigenvalues must be four nonnegative numbers summing to 1")
    basis = np.column_stack([s.amplitudes for s in bell_states()])
    return DensityMatrix.from_eigensystem(p, basis)


def _random_rotation(dim: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded random unitary exp(i angle H), H a random Hermitian matrix
    scaled to spectral radius 1, so no eigenphase exceeds ``angle`` radians."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    herm = 0.5 * (g + g.conj().T)
    herm /= np.abs(np.linalg.eigvalsh(herm)).max()
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * angle * vals)) @ vecs.conj().T


def make_w_mixture(
    n_qubits: int,
    spectrum,
    seed: int,
    perturbation: float = 0.25,
) -> DensityMatrix:
    """Mixed state whose dominant eigenstate is a perturbed W state.

    The requested leading eigenvalues are reproduced exactly; the remaining
    probability mass is spread uniformly over the rest of the spectrum.  The
    eigenbasis is the W-state-anchored orthonormal basis rotated by a seeded
    random unitary with rotation angle at most ``perturbation`` radians, so
    ``perturbation=0`` yields an unperturbed W-state dominant eigenstate.
    """
    dim = 2**n_qubits
    requested = np.asarray(spectrum, dtype=float)
    if requested.ndim != 1 or requested.size < 1 or requested.size > dim:
        raise ValueError("spectrum must be a nonempty vector of at most dim entries")
    if requested.min() < 0 or requested.sum() > 1 + 1e-12:
        raise ValueError("spectrum entries must be nonnegative and sum to at most 1")
    if np.any(np.diff(requested) > 1e-12):
        raise ValueError("spectrum must be non-increasing")
    leftover = max(1.0 - requested.sum(), 0.0)
    n_rest = dim - requested.size
    if n_rest == 0:
        if leftover > 1e-12:
            raise ValueError("a full-length spectrum must sum to 1")
        rest = np.empty(0)
    else:
        rest = np.full(n_rest, leftover / n_rest)
        if rest.size and rest[0] > requested[-1] + 1e-12:
            raise ValueError(
                "uniform remainder exceeds the smallest requested eigenvalue"
            )
    eigenvalues = np.concatenate([requested, rest])

    anchor = np.column_stack([w_state(n_qubits).amplitudes, np.eye(dim)])
    q, _ = np.linalg.qr(anchor)
    overlap = complex(np.vdot(w_state(n_qubits).amplitudes, q[:, 0]))
    if overlap.real < 0:
        q = -q

    if perturbation != 0.0:
        q = _random_rotation(dim, perturbation, np.random.default_rng(seed)) @ q

    return DensityMatrix.from_eigensystem(eigenvalues, q)
