"""Pauli product-basis measurements on small qubit registers.

A basis label is a string over {x, y, z}, one local axis per qubit; qubit 0
is the leftmost character and the most significant bit of the computational
index.  Outcomes are tuples of +1/-1 spins, and outcome (s_0, ..., s_{n-1})
maps to the rotated-basis index whose bit k is 0 for s_k = +1.  Datasets
carry a full grid of 2^n outcome records per basis (zero-probability
outcomes included), sorted by basis label and then by outcome index; that
order is the file format, and the loader reads records by position in it:
the exact bytes ``save_jsonl`` writes as columns, any other layout of a UTF-8
file one JSON value per line, record by record, under the same rules and
messages.

Every basis rotation goes through one kernel, ``BasisRotation``: it splits
each U_b into a dense left factor on the first k qubits and a dense right
factor on the others, and applies each distinct left factor once per pass.
A fixed cost model picks k for each basis list (small registers take k = 0,
one dense unitary per basis and no per-prefix loop).  Both passes take a
stack of state vectors, one batch axis: single states (a reconstruct step's
outcome table, the figure grids, each eigenstate of a ``SpectralApprox`` in
the likelihood) and, in one call, the states of a ``CostEngine`` parameter
stack.
``basis_rotation`` builds the kernel once per basis list and shares it:
every ``CostEngine`` of a reconstruct and every ``mixture_probabilities``
call on its bases use one instance, whose factor and index arrays are
read-only.

The input's representation picks how outcome probabilities are computed.
A weighted set of states (a pure state, a ``SpectralApprox``) goes through
``mixture_probabilities``, the table sum_k w_k |U_b v_k|^2, which rotates
each state through ``BasisRotation``.  A density matrix goes through
``density_probabilities``, which rotates nothing: it reads the 4^n Pauli
expectations Tr(rho P) once (``pauli_expectations``), and each basis's
2^n probabilities are the Walsh-Hadamard transform of the 2^n strings
that measuring in that basis sees.
"""

from __future__ import annotations

import contextlib
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .states import HERM_ATOL, DensityMatrix, StateVector, matrix_of, qubit_count

_SQ2 = 1.0 / np.sqrt(2.0)
#: Local rotation of each axis: its rows are the bras of the axis eigenstates,
#: ordered (+1, -1), so measuring the rotated state in the computational basis
#: measures the original along the axis.
_ROTATIONS = {
    "z": np.eye(2, dtype=np.complex128),
    "x": _SQ2 * np.array([[1, 1], [1, -1]], dtype=np.complex128),
    "y": _SQ2 * np.array([[1, -1j], [1, 1j]], dtype=np.complex128),
}
for _mat in _ROTATIONS.values():
    _mat.setflags(write=False)
_AXES = frozenset(_ROTATIONS)
#: Code of each axis's Pauli matrix in ``pauli_expectations`` indices (I is 0).
_PAULI_CODES = {"x": 1, "y": 2, "z": 3}

#: Record probabilities may undershoot zero by at most this much before clamping.
PROBABILITY_FLOOR = -1e-12
#: Per-basis probabilities must sum to one within this tolerance.
BASIS_SUM_ATOL = 1e-9
#: Sampled probabilities must equal count / basis total within this tolerance.
COUNT_RATIO_ATOL = 1e-12
#: Largest register for exhaustive 2^n tables (RBM exact mode, dataset loading).
EXACT_MODE_MAX_QUBITS = 12
#: Bytes of a dataset file the columnar reader reads at a time.  On one Xeon
#: core, w8 loads in 0.10 s at 128 KiB and 0.14 s at 16 KiB.
_CHUNK_BYTES = 1 << 17
#: Modelled cost of one prefix group's Python-level loop iteration, in complex
#: multiply-adds, for the split-point choice of ``BasisRotation``.
_GROUP_OVERHEAD_MACS = 5000


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


@lru_cache(maxsize=None)
def outcome_strings(n_qubits: int) -> tuple[str, ...]:
    """Outcome strings ('+' or '-' per spin) of every basis index, in index order."""
    return tuple(
        "".join("+" if s == 1 else "-" for s in row) for row in spin_table(n_qubits)
    )


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
    registers, is one empty left factor with the dense U_b as right factors,
    so that each pass is one stacked matmul against [U_b1^T ... U_bB^T] or
    [U_b1; ...; U_bB], with no product by the 1 x 1 left factor.
    A state psi, read as the 2^{n_L} x 2^{n_R} matrix P, rotates as
    U_b psi = L_b P R_b^T.  Bases sharing a left prefix g share Y_g = L_g P,
    so the forward pass applies each distinct left factor once, then one
    matmul Y_g [R_b1^T ... R_bk^T] per prefix.  The adjoint sum_b U_b^T x_b
    takes one matmul [X_b1 ... X_bk] [R_b1; ...; R_bk] per prefix, which also
    sums the group, and one matmul by the stacked L_g^T.

    Both passes work on a stack of m state vectors.  Rotated vectors are laid
    out (m, 2^{n_L}, n_bases, 2^{n_R}), with the bases in ``order`` (grouped
    by prefix, otherwise in list order): in that layout the bases of one
    prefix form one strided matrix.  ``arrange`` puts a per-basis table into
    the layout of one member.  Each member goes through the matmuls of a
    one-member call, so it has the same bits.
    The factor and index arrays are read-only, since ``basis_rotation``
    shares one instance among all its callers.
    """

    def __init__(self, bases, n_qubits: int):
        bases = list(bases)
        for basis in bases:
            validate_basis(basis, n_qubits)
        n_left = _split_point(n_qubits, bases)
        self.shape = (1 << n_left, 1 << (n_qubits - n_left))
        d_left, d_right = self.shape
        # An empty list keeps one empty prefix group, so each pass has one.
        prefixes = sorted({basis[:n_left] for basis in bases}) or [""]
        suffixes = sorted({basis[n_left:] for basis in bases})
        prefix_of = {label: i for i, label in enumerate(prefixes)}
        suffix_of = {label: i for i, label in enumerate(suffixes)}
        group, suffix = np.array(
            [(prefix_of[b[:n_left]], suffix_of[b[n_left:]]) for b in bases],
            dtype=np.intp,
        ).reshape(-1, 2).T
        #: Basis indices grouped by left prefix, the basis order of the layout.
        self.order = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[self.order], np.arange(len(prefixes) + 1))
        self._left = _kron_rotations(prefixes).reshape(-1, d_left, d_left)
        # Row (g, m) of the stack is row m of L_g: the adjoint's last matmul.
        self._left_t = self._left.transpose(2, 0, 1).reshape(d_left, -1)
        # Per prefix group, [R_b1; ...; R_bk] with rows (b, j) = row j of R_b;
        # its transpose is [R_b1^T ... R_bk^T].
        right = _kron_rotations(suffixes)[suffix[self.order]].reshape(-1, d_right)
        self._columns = tuple(
            slice(a * d_right, b * d_right) for a, b in zip(bounds, bounds[1:])
        )
        self._right = tuple(right[cols] for cols in self._columns)
        for array in (self.order, self._left, self._left_t, right, *self._right):
            array.setflags(write=False)

    def arrange(self, table: np.ndarray) -> np.ndarray:
        """A (n_bases, 2^n) table with rows in list order, in the layout of
        one ``forward`` member: (2^{n_L}, n_bases, 2^{n_R})."""
        d_left, d_right = self.shape
        rows = np.asarray(table)[self.order].reshape(-1, d_left, d_right)
        return np.ascontiguousarray(rows.transpose(1, 0, 2))

    def forward(self, vectors: np.ndarray, out: np.ndarray | None = None):
        """U_b v for each row v of an (m, 2^n) stack and every basis, laid out
        (m, 2^{n_L}, n_bases, 2^{n_R}).

        ``out``, if given, is a C-contiguous complex array of that shape that
        receives the result.
        """
        d_left, d_right = self.shape
        states = vectors.reshape(-1, d_left, d_right)
        members = len(states)
        if out is None:
            out = np.empty((members, d_left, len(self.order), d_right), np.complex128)
        columns = out.reshape(members, d_left, -1)
        if d_left == 1:
            # n_L = 0: one prefix group, whose left factor [[1]] is skipped.
            np.matmul(states, self._right[0].T, out=columns)
            return out
        prefix_products = self._left[:, None] @ states
        for y, cols, right in zip(prefix_products, self._columns, self._right):
            np.matmul(y, right.T, out=columns[:, :, cols])
        return out

    def adjoint(self, rotated: np.ndarray) -> np.ndarray:
        """sum_b U_b^T x_b over one vector x_b per basis, for each member of an
        (m, 2^{n_L}, n_bases, 2^{n_R}) stack in the layout of ``forward``; the
        plain transpose, with no conjugation.  Returns (m, 2^n).
        """
        d_left, d_right = self.shape
        members = len(rotated)
        x = rotated.reshape(members, d_left, -1)
        if d_left == 1:
            # n_L = 0: one prefix group, whose left factor [[1]] is skipped.
            return (x @ self._right[0]).reshape(members, -1)
        sums = np.empty((members, len(self._left), d_left, d_right), np.complex128)
        for total, cols, right in zip(sums.swapaxes(0, 1), self._columns, self._right):
            np.matmul(x[:, :, cols], right, out=total)
        return (self._left_t @ sums.reshape(members, -1, d_right)).reshape(members, -1)


@lru_cache(maxsize=1)
def basis_rotation(bases: tuple[str, ...], n_qubits: int) -> BasisRotation:
    """The ``BasisRotation`` of a basis list, built once and shared.

    A one-entry memo keyed by ``(bases, n_qubits)``: a reconstruct rotates one
    basis list throughout, so every step's ``costs.CostEngine`` and every
    ``mixture_probabilities`` call get the same read-only instance.  Another
    list replaces it.  ``bases`` must be a tuple (hashable).
    """
    return BasisRotation(bases, n_qubits)


def mixture_probabilities(weights, vectors, bases) -> np.ndarray:
    """(n_bases, 2^n) table of sum_k w_k |U_b v_k|^2 over the columns v_k of
    ``vectors``.

    Each column goes through its own one-member ``forward`` pass of the
    shared ``basis_rotation`` of ``bases``, so the rank does not set the
    size of a pass, and the terms w_k |U_b v_k|^2 are added in column order.
    """
    w = np.asarray(weights, dtype=float)
    dim, rank = np.shape(vectors)
    if w.shape != (rank,):
        raise ValueError(f"weights of shape {w.shape} do not match {rank} vectors")
    v = np.ascontiguousarray(np.transpose(vectors), dtype=np.complex128)
    rotation = basis_rotation(tuple(bases), qubit_count(dim))
    d_left, d_right = rotation.shape
    table = np.zeros((d_left, len(rotation.order), d_right))
    for weight, column in zip(w, v):
        rotated = rotation.forward(column[None])[0]
        table += weight * np.abs(rotated) ** 2
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


def pauli_expectations(rho) -> np.ndarray:
    """(4^n,) real table of Tr(rho P) over every Pauli string P.

    String (c_0, ..., c_{n-1}), with I, X, Y, Z = 0, 1, 2, 3 and qubit 0
    first, has index sum_k c_k 4^(n-1-k); entry 0 is the trace.  ``rho`` may
    be a raw Hermitian matrix (negative eigenvalues allowed); a matrix with a
    non-finite entry, or one that is not Hermitian within ``HERM_ATOL``,
    raises ValueError.

    One pass per qubit k maps each of its 2 x 2 blocks [r00, r01, r10, r11]
    to [r00 + r11, r01 + r10, i(r01 - r10), r00 - r11], the traces of the
    block against I, X, Y and Z; n passes cost O(n 4^n) and hold two
    rho-sized work arrays.
    """
    mat = matrix_of(rho)
    n = qubit_count(mat.shape[0])
    if not np.isfinite(mat).all():
        raise ValueError("matrix entries must be finite")
    if np.abs(mat - mat.conj().T).max() > HERM_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    # Before pass k the layout is (Pauli codes of qubits < k, row bits of
    # qubits >= k, column bits of qubits >= k); pass k moves qubit k's row and
    # column bits into its code.
    work = np.empty((2, 4**n), dtype=np.complex128)
    table = mat
    for k in range(n):
        rest = 2 ** (n - 1 - k)
        blocks = table.reshape(4**k, 2, rest, 2, rest)
        r00, r01 = blocks[:, 0, :, 0], blocks[:, 0, :, 1]
        r10, r11 = blocks[:, 1, :, 0], blocks[:, 1, :, 1]
        table = work[k % 2].reshape(4**k, 4, rest, rest)
        np.add(r00, r11, out=table[:, 0])
        np.add(r01, r10, out=table[:, 1])
        np.subtract(r01, r10, out=table[:, 2])
        table[:, 2] *= 1j
        np.subtract(r00, r11, out=table[:, 3])
    return table.real.ravel()


def _pauli_index(bases, n_qubits: int) -> np.ndarray:
    """(n_bases, 2^n) map to ``pauli_expectations`` indices: entry m of row b
    is the string with basis b's axis on the qubits whose bits are set in
    mask m (qubit 0 the most significant bit) and I on the others."""
    for basis in bases:
        validate_basis(basis, n_qubits)
    # Column j holds the code of qubit n - 1 - j, the qubit of mask bit j.
    codes = np.array(
        [[_PAULI_CODES[axis] for axis in reversed(basis)] for basis in bases],
        dtype=np.intp,
    ).reshape(-1, n_qubits)
    index = np.zeros((len(codes), 2**n_qubits), dtype=np.intp)
    for j in range(n_qubits):
        low = index[:, : 1 << j]
        np.add(low, codes[:, j, None] * 4**j, out=index[:, 1 << j : 2 << j])
    return index


def _walsh_hadamard(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis of a
    (rows, 2^n) float array, in n butterfly passes; ``table`` is overwritten."""
    rows, dim = table.shape
    out = np.empty_like(table)
    half = dim // 2
    while half:
        src = table.reshape(rows, dim // (2 * half), 2, half)
        dst = out.reshape(src.shape)
        np.add(src[:, :, 0], src[:, :, 1], out=dst[:, :, 0])
        np.subtract(src[:, :, 0], src[:, :, 1], out=dst[:, :, 1])
        table, out = out, table
        half //= 2
    return table


def density_probabilities(rho, bases) -> np.ndarray:
    """(n_bases, 2^n) outcome probabilities of a density matrix, from its
    Pauli expectations.

    The projector on outcome s of basis b is prod_k (I + s_k sigma_{b_k}) / 2,
    so p_b(s) = 2^-n sum_m t_b[m] prod_{k in m} s_k over the masks m, where
    t_b[m] is the expectation of the string with b's axis on m's qubits and
    I elsewhere: one Walsh-Hadamard transform per basis, O(n_bases n 2^n).
    ``rho`` is checked as by ``pauli_expectations``.
    """
    table = pauli_expectations(rho)
    n = (table.size - 1).bit_length() // 2  # table.size is 4^n
    probs = _walsh_hadamard(table[_pauli_index(bases, n)])
    probs *= 0.5**n
    return probs


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
    seed: int | None = None

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be at least 1")
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

        def reject(bad_rows: np.ndarray, message: str) -> None:
            """Raise ``message`` for the first basis whose row is flagged."""
            if bad_rows.any():
                raise ValueError(f"basis {bases[np.argmax(bad_rows)]!r}: {message}")

        reject(~np.isfinite(probs).all(axis=1), "record probabilities must be finite")
        reject(
            probs.min(axis=1) < PROBABILITY_FLOOR,
            "a record probability is below the negativity floor",
        )
        probs = np.clip(probs, 0.0, None)
        reject(
            np.abs(probs.sum(axis=1) - 1.0) > BASIS_SUM_ATOL,
            "per-basis probabilities do not sum to 1",
        )
        counts = self.counts
        if counts is not None:
            counts = np.array(counts, dtype=np.int64)
            if counts.shape != probs.shape:
                raise ValueError(
                    f"invalid shot-count array of shape {counts.shape}, "
                    f"expected {probs.shape}"
                )
            reject(counts.min(axis=1) < 0, "invalid shot-count array: a count is negative")
            totals = counts.sum(axis=1)
            if np.any(totals == 0):
                raise ValueError(f"sampled basis {bases[np.argmin(totals)]!r} has no shots")
            reject(
                np.abs(probs - counts / totals[:, None]).max(axis=1) > COUNT_RATIO_ATOL,
                "record probabilities disagree with the shot counts",
            )
            counts.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "counts", counts)

    @property
    def mode(self) -> str:
        """"sampled" exactly when the dataset has shot counts, else "exact"."""
        return "exact" if self.counts is None else "sampled"

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def n_records(self) -> int:
        return self.probabilities.size

    def save_jsonl(self, path) -> None:
        """Write a header line, then one line per (basis, outcome) record.

        Record lines are formatted directly and match ``json.dumps`` of
        ``{"basis", "outcome", "p", "shots"}`` byte for byte: ``repr`` of a
        float is the text ``json.dumps`` writes for it.  The tables are
        converted to Python numbers one basis block at a time.
        """
        outcomes = [f'"outcome": "{s}", "p": ' for s in outcome_strings(self.n_qubits)]
        no_shots = ["null"] * self.dim
        with open(path, "w", encoding="utf-8") as fh:
            header = {"n_qubits": self.n_qubits, "mode": self.mode, "seed": self.seed}
            fh.write(json.dumps(header))
            fh.write("\n")
            for b, basis in enumerate(self.bases):
                probs = self.probabilities[b].tolist()
                shots = no_shots if self.counts is None else self.counts[b].tolist()
                prefix = f'{{"basis": "{basis}", '
                fh.write(
                    "".join(
                        f'{prefix}{outcome}{p!r}, "shots": {k}}}\n'
                        for outcome, p, k in zip(outcomes, probs, shots)
                    )
                )

    @classmethod
    def load_jsonl(cls, path) -> "MeasurementDataset":
        """Read a UTF-8 file written by ``save_jsonl``: its exact bytes as
        columns (``_canonical_columns``), any other layout record by record in
        file order, one ``json.loads`` per non-blank line.

        The record order is the format: record k (from 1, after the header)
        is outcome (k - 1) mod 2^n, in index order, of its block of 2^n
        records; a block's first record opens a basis that sorts after the
        previous block's, and the rest name that basis.  The header's
        ``n_qubits`` must be an integer up to the exact-mode cap, its ``mode``
        "sampled" if the records carry shots and "exact" if not, and its
        ``seed`` an integer or null.  Each
        non-blank line must hold one JSON value, and each record an object
        with a valid ``basis``, a finite number ``p`` and a ``shots`` that is
        null in every record or a nonnegative integer within int64 in every
        record (booleans are neither).  Any other file, one out of order or
        ending inside a block or not UTF-8 included, raises ValueError naming
        the header or the record; a non-finite ``p`` or a negative ``shots``
        is found once the file is read, and a basis whose records break a
        rule of ``MeasurementDataset`` is named by its label.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = iter(fh.readline, "")  # keeps fh.tell() working
            try:
                header = next((json.loads(line) for line in lines if line.strip()), None)
            except json.JSONDecodeError as exc:
                message = exc.msg.removesuffix(" at")
                raise ValueError(f"header: {message} at column {exc.pos + 1}") from None
            except UnicodeDecodeError:
                raise ValueError(_undecodable_line(path)) from None
            if not isinstance(header, dict):
                raise ValueError(f"dataset file {path} has no header object")
            n_qubits = header.get("n_qubits")
            # Checked before outcome_strings builds its 2^n table.
            if type(n_qubits) is not int or not 1 <= n_qubits <= EXACT_MODE_MAX_QUBITS:
                raise ValueError(
                    f"header n_qubits must be an integer in 1..{EXACT_MODE_MAX_QUBITS}, "
                    f"got {n_qubits!r}"
                )
            mode = header.get("mode")
            if mode not in ("exact", "sampled"):
                raise ValueError(f'header mode must be "exact" or "sampled", got {mode!r}')
            seed = header.get("seed")
            if seed is not None and type(seed) is not int:
                raise ValueError(f"header seed must be an integer, got {seed!r}")
            columns = None
            # A pipe cannot tell(), and a lone CR that ends the header makes
            # the position a cookie past 2^64, which a seek rejects.
            with contextlib.suppress(ValueError, IndexError, OverflowError):
                columns = _canonical_columns(path, fh.tell(), n_qubits)
            if columns:
                bases, probs, counts = columns
            else:
                dim = 2**n_qubits
                outcomes = outcome_strings(n_qubits)
                bases, rows = [], []
                have_counts = False
                r = 0
                # A p beyond float64 or shots beyond int64 overflow the numpy store.
                try:
                    for r, line in enumerate((line for line in fh if not line.isspace()), 1):
                        doc = json.loads(line)
                        if not isinstance(doc, dict):
                            raise ValueError(f"record {r} is not a JSON object: {doc!r}")
                        try:
                            basis, p = doc["basis"], doc["p"]
                        except KeyError as exc:
                            raise ValueError(f"record {r} has no {exc} field") from None
                        i = (r - 1) % dim
                        if i == 0:
                            try:
                                validate_basis(basis, n_qubits)
                            except ValueError as exc:
                                raise ValueError(f"record {r}: {exc}") from None
                            if bases and basis <= bases[-1]:
                                raise ValueError(
                                    f"record {r}: basis {basis!r} after {bases[-1]!r}, "
                                    "expected each basis once, in sorted order"
                                )
                            bases.append(basis)
                            probs, counts = np.zeros(dim), np.zeros(dim, dtype=np.int64)
                            rows.append((probs, counts))
                        elif basis != bases[-1]:
                            raise ValueError(
                                f"record {r}: basis {basis!r}, expected {bases[-1]!r}, "
                                f"whose block lists {i} of {dim} outcomes"
                            )
                        outcome = doc.get("outcome")
                        if outcome != outcomes[i]:
                            raise ValueError(
                                f"record {r}: invalid outcome {outcome!r}: expected "
                                f"{n_qubits} characters over +, -, here {outcomes[i]!r}"
                            )
                        if type(p) is not float and type(p) is not int:
                            raise ValueError(f"record {r}: p must be a number, got {p!r}")
                        probs[i] = p
                        shots = doc.get("shots")
                        if r == 1:
                            have_counts = shots is not None
                        elif (shots is not None) != have_counts:
                            found = "null" if shots is None else repr(shots)
                            raise ValueError(
                                f"record {r}: shots {found}, expected "
                                f"{'an integer' if have_counts else 'null'} as in record 1"
                            )
                        if shots is not None:
                            if type(shots) is not int:
                                raise ValueError(
                                    f"record {r}: shots must be an integer, got {shots!r}"
                                )
                            counts[i] = shots
                except OverflowError as exc:
                    raise ValueError(
                        f"record value out of range at record {r}: {exc}"
                    ) from None
                except json.JSONDecodeError as exc:
                    message = exc.msg.removesuffix(" at")
                    raise ValueError(f"record {r}: {message} at column {exc.pos + 1}") from None
                except UnicodeDecodeError:
                    raise ValueError(_undecodable_line(path)) from None
                if r % dim:
                    raise ValueError(
                        f"basis {bases[-1]!r} lists {r % dim} outcomes, expected {dim}: "
                        f"the file ends after record {r}"
                    )
                probs = np.array([probs for probs, _ in rows]).reshape(-1, dim)
                counts = np.array([counts for _, counts in rows]) if have_counts else None
        # Python's json reads NaN and Infinity, which are no JSON numbers, and
        # a number beyond float64's range as infinity.  Record k is flat entry
        # k - 1 of the tables.
        bad = np.flatnonzero(~np.isfinite(probs))
        if bad.size:
            raise ValueError(
                f"record {bad[0] + 1}: p must be finite, got {float(probs.flat[bad[0]])!r}"
            )
        if counts is not None:
            bad = np.flatnonzero(counts < 0)
            if bad.size:
                raise ValueError(
                    f"record {bad[0] + 1}: shots must be nonnegative, "
                    f"got {int(counts.flat[bad[0]])}"
                )
        if (counts is not None) != (mode == "sampled"):
            raise ValueError(
                f"mode {mode!r} contradicts the shots: a dataset is "
                "'sampled' exactly when it has shot counts"
            )
        return cls(n_qubits, tuple(bases), probs, counts, seed)


def _canonical_columns(path, start: int, n_qubits: int):
    """(bases, probabilities, counts or None) of the records from byte ``start``
    of the file at ``path`` if each is the line ``save_jsonl`` writes, else
    None.  Each chunk of whole blocks is checked as arrays: every byte but p
    and shots against its outcome's template, with the block's basis filled
    in, and p and shots against a byte class.  Its p fields go through one
    ``json.loads``, and its shots likewise, so each value has the per-record
    parse's bits; a parse that raises is the caller's to catch."""
    dim = 2**n_qubits
    heads = np.array([list(f'{{"basis": "{"x" * n_qubits}", "outcome": "{o}", "p": '.encode())
                      for o in outcome_strings(n_qubits)], np.uint8)
    width, label = heads.shape[1], slice(11, 11 + n_qubits)  # the basis, after {"basis": "
    head_commas, mid = np.flatnonzero(heads[0] == ord(",")), np.frombuffer(b', "shots": ', np.uint8)
    labels, counts, data, k = bytearray(), None, b"", 0
    with open(path, "rb") as raw:
        raw.seek(start)  # lines are counted first, so each column is allocated once
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: raw.read(_CHUNK_BYTES), b""))
        probs = np.empty(lines)
        raw.seek(start)
        while chunk := raw.read(_CHUNK_BYTES):
            buf = np.frombuffer(data := data + chunk, np.uint8)
            ends = np.flatnonzero(buf == ord("\n"))
            if not (ends := ends[: len(ends) // dim * dim]).size:
                continue
            starts = np.r_[0, ends[:-1] + 1]
            rows = sliding_window_view(buf, width)[starts].reshape(-1, dim, width)
            expected = np.array(np.broadcast_to(heads, rows.shape))
            expected[..., label] = rows[:, :1, label]
            commas = np.flatnonzero(buf[: ends[-1]] == ord(",")).reshape(-1, 3)
            p_end = commas[:, 2]  # each line's third comma, once its first two are its head's
            p_text = buf[_spans(starts + width, p_end + 1)].tobytes()  # each p and its comma
            shots = buf[_spans(p_end + len(mid), ends)].tobytes()  # each shots and its brace
            sampled = shots != b"null}" * len(ends)
            if (
                not (rows == expected).all()
                or not (commas[:, :2] == starts[:, None] + head_commas).all()
                or not (sliding_window_view(buf, len(mid))[p_end] == mid).all()
                or not (buf[ends - 1] == ord("}")).all()
                or p_text.translate(None, b"0123456789+-.eE,")
                or sampled and shots.translate(None, b"0123456789") != b"}" * len(ends)
                or labels and sampled != (counts is not None)  # one kind of shots throughout
            ):
                return None
            probs[k : k + len(ends)] = json.loads(b"[" + p_text[:-1] + b"]")
            if sampled:
                counts = np.empty(lines, np.int64) if counts is None else counts
                counts[k : k + len(ends)] = json.loads(b"[" + shots[:-1].replace(b"}", b",") + b"]")
            k += len(ends)
            labels += rows[:, 0, label].tobytes()
            data = data[ends[-1] + 1 :]
            del buf, ends, starts, rows, expected, commas, p_text, shots  # before the next read
    bases = [labels[i : i + n_qubits].decode() for i in range(0, len(labels), n_qubits)]
    if data or k != lines or labels.translate(None, b"xyz") or bases != sorted(set(bases)):
        return None
    return bases, probs.reshape(-1, dim), None if counts is None else counts.reshape(-1, dim)


def _spans(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The indices of the ranges [starts[j], stops[j]), concatenated."""
    lengths = stops - starts
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


def _undecodable_line(path) -> str:
    """The rejection of a file that is not UTF-8, naming the first line that
    does not decode as ``MeasurementDataset.load_jsonl`` counts lines."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for r, line in enumerate(line for line in fh if line.strip()):
            try:
                line.encode()
            except UnicodeEncodeError as exc:  # at the first undecodable byte
                where = f"record {r}" if r else "header"
                byte = ord(line[exc.start]) - 0xDC00
                return f"{where}: not UTF-8 text: byte {byte:#x} at column {exc.start + 1}"


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
    return MeasurementDataset(n, tuple(basis_list), probs, None)


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
    return MeasurementDataset(n, tuple(basis_list), probs, counts, int(seed))


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


def bell_mixture() -> DensityMatrix:
    """The mixture of the four Bell states (phi+, phi-, psi+, psi-) with
    weights 0.9, 0.09, 0.009 and 0.001: the ``bell-mixture`` preset."""
    basis = np.column_stack([s.amplitudes for s in bell_states()])
    return DensityMatrix.from_eigensystem([0.9, 0.09, 0.009, 0.001], basis)


def _random_rotation(dim: int, angle: float, rng: np.random.Generator) -> np.ndarray:
    """Seeded random unitary exp(i angle H), H a random Hermitian matrix
    scaled to spectral radius 1, so no eigenphase exceeds ``angle`` radians."""
    # In place, through the ufuncs and operand order of
    # 0.5 * (g + g^dag) and (vecs * phases) @ vecs^dag, so every bit is theirs.
    g = np.empty((dim, dim), dtype=np.complex128)
    g.real = rng.normal(size=(dim, dim))
    g.imag = rng.normal(size=(dim, dim))
    np.add(g, g.conj().T, out=g)
    g *= 0.5
    g /= np.abs(np.linalg.eigvalsh(g)).max()
    vals, vecs = np.linalg.eigh(g)
    adjoint = vecs.conj().T
    vecs *= np.exp(1j * angle * vals)
    return vecs @ adjoint


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
