"""Command-line front end: synthesize, reconstruct, verify, and report.

Subcommands
-----------
synth        build a synthetic mixed state plus a measurement dataset
reconstruct  run the iterative eigenpair extraction on a dataset file
verify       run the randomized optimality-bound checks over a state corpus
figdata      emit cost-comparison and entropy grids as CSV

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 verification
failure.  Each ``cmd_*`` returns its exit code with the files it read and
wrote; ``main`` times the command and, unless it raised, writes the one
``manifest.json`` with the resolved flags, those files and the duration.
Re-running the recorded argv reproduces all outputs byte-identically in
exact mode.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import __version__, figures, jsonio, measurement, propositions, reconstruction
from .costs import COST_KINDS, CostSpec
# ``fidelity`` is not called in this module.  It stays bound here because the
# benchmark's layer tracer (benchmark/layers.py) wraps it at this lookup site.
from .states import (
    eigendecompose,
    fidelity,
    frame_fidelity,
    load_density_matrix,
    load_state_vector,
    pure_fidelity,
    save_density_matrix,
    save_state_vector,
    state_doc,
)
from .training import TrainConfig

REPORT_COLUMNS = (
    "n_qubits",
    "p1",
    "p2",
    "kappa2",
    "p3",
    "overlap1",
    "p1b",
    "overlap2",
    "p2b",
    "fidelity",
    "relative_fidelity",
    "fidelity_target",
    "overlap1_target",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _recorded_argv(args) -> list[str]:
    """The subcommand's declared options with their resolved values.

    Replaying this argv reproduces the run: every option that holds a value
    is listed, in declaration order.  The subcommands declare no flag option,
    so every recorded option takes a value.
    """
    argv = [args.command]
    for action in args.parser._actions:
        if not action.option_strings or action.dest not in vars(args):
            continue
        value = getattr(args, action.dest)
        if value is not None:
            argv += [action.option_strings[0], str(value)]
    return argv


def _write_manifest(args, inputs, outputs, duration_s: float) -> None:
    flags = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "parser")
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "argv": _recorded_argv(args),
        "flags": flags,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "duration_s": duration_s,
    }
    jsonio.dump(manifest, os.path.join(args.out_dir, "manifest.json"))


def _out_path(args, name: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def cmd_synth(args) -> tuple[int, list, list]:
    if args.preset == "bell-mixture":
        if args.spectrum is not None:
            args.parser.error("--spectrum applies only with --w")
        rho = measurement.bell_mixture()
        target = measurement.bell_states()[0]
    else:
        if args.spectrum is None:
            args.parser.error("--spectrum is required with --w")
        spectrum = [float(x) for x in args.spectrum.split(",")]
        rho = measurement.make_w_mixture(
            args.w, spectrum, seed=args.seed, perturbation=args.perturbation
        )
        target = measurement.w_state(args.w)

    bases = measurement.generate_basis_set(rho.n_qubits, args.bases, args.seed)
    if args.shots > 0:
        dataset = measurement.sample_dataset(rho, bases, args.shots, args.seed)
    else:
        dataset = measurement.exact_dataset(rho, bases)

    state_path = _out_path(args, "state.json")
    target_path = _out_path(args, "target.json")
    dataset_path = _out_path(args, "dataset.jsonl")
    save_density_matrix(state_path, rho)
    save_state_vector(target_path, target)
    dataset.save_jsonl(dataset_path)
    print(
        f"synth: {rho.n_qubits} qubits, {len(bases)} bases, "
        f"{dataset.n_records} records -> {args.out_dir}"
    )
    return 0, [], [state_path, target_path, dataset_path]


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _table_row(approx, report, truth, spectrum, target) -> dict:
    row: dict = {key: None for key in REPORT_COLUMNS}
    row["n_qubits"] = approx.n_qubits
    accepted = [s for s in report.steps if s.accepted]
    if accepted:
        row["p1b"] = accepted[0].weight
        row["overlap1"] = accepted[0].eigenstate_fidelity
    if len(accepted) > 1:
        row["p2b"] = accepted[1].weight
        row["overlap2"] = accepted[1].eigenstate_fidelity
    if truth is not None:
        row["p1"] = float(spectrum.eigenvalues[0])
        if spectrum.dim > 1:
            row["p2"] = float(spectrum.eigenvalues[1])
            row["kappa2"] = spectrum.leading_weight(2)
        if spectrum.dim > 2:
            row["p3"] = float(spectrum.eigenvalues[2])
        # F(rho, sigma) from sigma's rank-r frame: the r x r core of
        # states.frame_fidelity, without forming sigma or its square root.
        # Equals fidelity(truth, approx.density_matrix()) up to round-off.
        weights = approx.weights / approx.weight_sum
        row["fidelity"] = float(
            frame_fidelity(truth, approx.vectors[None], weights[None])[0]
        )
        # reconstruction.relative_fidelity, without a second fidelity and eigh.
        kappa = spectrum.leading_weight(approx.rank)
        row["relative_fidelity"] = row["fidelity"] / kappa
        if target is not None:
            row["fidelity_target"] = pure_fidelity(truth, target)
    if target is not None:
        row["overlap1_target"] = float(abs(target.overlap(approx.state(0))) ** 2)
    return row


def cmd_reconstruct(args) -> tuple[int, list, list]:
    dataset = measurement.MeasurementDataset.load_jsonl(args.dataset)
    truth = load_density_matrix(args.truth) if args.truth else None
    target = load_state_vector(args.target) if args.target else None
    # reconstruct checks the truth's qubit count before its first fit.
    if target is not None and target.n_qubits != dataset.n_qubits:
        raise ValueError(
            f"--target {args.target} has {target.n_qubits} qubits, "
            f"the dataset {dataset.n_qubits}"
        )
    # Decomposed once, for the per-step figures and for the report row.
    spectrum = eigendecompose(truth) if truth is not None else None
    config = TrainConfig(
        cost=CostSpec(kind=args.cost),
        max_epochs=args.epochs,
        seed=args.seed,
        restarts=args.restarts,
    )
    approx, report = reconstruction.reconstruct(
        dataset,
        args.max_rank,
        config,
        floor=args.floor,
        true_rho=spectrum,
    )

    result_path = _out_path(args, "result.json")
    jsonio.dump(
        {
            "pairs": [
                {
                    "p": p,
                    "state": state_doc(column, approx.n_qubits),
                }
                for p, column in zip(approx.weights.tolist(), approx.vectors.T)
            ],
            "report": [dataclasses.asdict(s) for s in report.steps],
            "notes": report.notes,
        },
        result_path,
    )

    row = _table_row(approx, report, truth, spectrum, target)
    report_path = _out_path(args, "report.csv")
    _write_csv(report_path, REPORT_COLUMNS, [[_fmt(row[k]) for k in REPORT_COLUMNS]])

    summary = ", ".join(
        f"p{s.step}={s.weight:.4f}" for s in report.steps if s.accepted
    )
    print(f"reconstruct: rank {approx.rank} ({summary}) -> {args.out_dir}")
    inputs = [args.dataset] + [p for p in (args.truth, args.target) if p]
    return 0, inputs, [result_path, report_path]


def cmd_verify(args) -> tuple[int, list, list]:
    dims = tuple(int(d) for d in args.dims.split(","))
    corpus = propositions.default_corpus(
        seed=args.seed, states_per_dim=args.states_per_dim, dims=dims
    )
    result = propositions.run_corpus(corpus, trials=args.trials, seed=args.seed)

    report_path = _out_path(args, "verify_report.json")
    doc = {
        "passed": result.passed,
        "max_violation": result.max_violation(),
        "n_states": len(corpus),
        "checks": {},
    }
    for name, reports in result.reports.items():
        doc["checks"][name] = {
            "n": len(reports),
            "max_violation": max((rep.max_violation for rep in reports), default=0.0),
            "all_passed": all(rep.passed for rep in reports),
            "notes": sorted({rep.note for rep in reports if rep.note}),
        }
    jsonio.dump(doc, report_path)

    status = "pass" if result.passed else "FAIL"
    print(
        f"verify: {len(corpus)} states, max violation "
        f"{result.max_violation():.3e} -> {status}"
    )
    return (0 if result.passed else 3), [], [report_path]


def cmd_figdata(args) -> tuple[int, list, list]:
    if 0 < args.strength_max < args.strength_min:
        args.parser.error("--strength-min must not exceed a positive --strength-max")
    rho = load_density_matrix(args.state)
    bases = measurement.generate_basis_set(rho.n_qubits, args.bases, args.seed)
    if args.mode == "fig3":
        rows, correlations = figures.cost_comparison_grid(
            rho,
            bases,
            args.perturbations,
            args.seed,
            strength_min=args.strength_min,
            strength_max=args.strength_max,
            floor=args.floor,
        )
        # The scalar fields of a row in declaration order, then one cost each.
        scalars = [
            f.name for f in dataclasses.fields(figures.CostGridRow) if f.name != "costs"
        ]
        grid_path = _out_path(args, "fig3.csv")
        _write_csv(
            grid_path,
            scalars + [f"cost_{kind}" for kind in figures.GRID_COSTS],
            (
                [_fmt(getattr(row, name)) for name in scalars]
                + [_fmt(row.costs[kind]) for kind in figures.GRID_COSTS]
                for row in rows
            ),
        )
        summary_path = _out_path(args, "fig3_summary.json")
        jsonio.dump(
            {
                "n_perturbations": len(rows),
                "spearman_vs_infidelity": correlations,
            },
            summary_path,
        )
        outputs = [grid_path, summary_path]
        print(
            "figdata fig3: spearman "
            + ", ".join(f"{k}={v:.3f}" for k, v in correlations.items())
        )
    else:
        entropies, probability_rows = figures.entropy_tables(rho, bases)
        entropy_path = _out_path(args, "fig4_entropy.csv")
        _write_csv(
            entropy_path,
            ["basis", "entropy_mixed", "entropy_pure"],
            ([basis, _fmt(hm), _fmt(hp)] for basis, hm, hp in entropies),
        )
        prob_path = _out_path(args, "fig4_probabilities.csv")
        _write_csv(
            prob_path,
            ["basis", "outcome", "p_mixed", "p_pure"],
            ([b, o, _fmt(pm), _fmt(pp)] for b, o, pm, pp in probability_rows),
        )
        outputs = [entropy_path, prob_path]
        reduced = sum(1 for _, hm, hp in entropies if hp <= hm)
        print(
            f"figdata fig4: entropy reduced in {reduced}/{len(entropies)} bases"
        )
    return 0, [args.state], outputs


def _bounded(convert, strict: bool, limit=math.inf, limit_name: str = ""):
    """Argument type: a finite number, positive if ``strict``, else nonnegative,
    and at most ``limit``, which the error calls ``limit_name``.

    argparse reports a rejected value as a usage error (exit code 2).
    """

    def parse(text: str):
        value = convert(text)
        if not math.isfinite(value) or value < 0 or (strict and value == 0):
            bound = "positive" if strict else "nonnegative"
            raise argparse.ArgumentTypeError(f"{text!r} is not a {bound} number")
        if value > limit:
            raise argparse.ArgumentTypeError(f"{text!r} exceeds {limit}, {limit_name}")
        return value

    parse.__name__ = convert.__name__
    return parse


POSITIVE_INT = _bounded(int, strict=True)
NONNEGATIVE_INT = _bounded(int, strict=False)
POSITIVE_FLOAT = _bounded(float, strict=True)
NONNEGATIVE_FLOAT = _bounded(float, strict=False)


def _comma_separated(item):
    """Argument type: comma-separated entries that the argument type ``item``
    accepts, kept as given.

    The manifest records the text, so a replay passes the same string.
    """

    def parse(text: str) -> str:
        for part in text.split(","):
            item(part)
        return text

    parse.__name__ = item.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base random seed")
    common.add_argument(
        "--out-dir", default=".", help="directory for output files and the manifest"
    )

    parser = argparse.ArgumentParser(
        prog="eigentomo",
        description="Iterative low-rank tomography of mixed quantum states.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", parents=[common], help="synthesize a state and a dataset"
    )
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--preset", choices=["bell-mixture"], help="named reference mixture"
    )
    group.add_argument(
        "--w",
        # A larger register's dataset would exceed what load_jsonl reads.
        type=_bounded(int, True, measurement.EXACT_MODE_MAX_QUBITS, "the qubit cap"),
        help="qubit count of a synthetic W mixture",
    )
    p_synth.add_argument(
        "--spectrum",
        type=_comma_separated(NONNEGATIVE_FLOAT),
        help="comma-separated leading eigenvalues for --w",
    )
    p_synth.add_argument(
        "--perturbation",
        type=NONNEGATIVE_FLOAT,
        default=0.25,
        help="rotation angle bound applied to the W eigenbasis",
    )
    p_synth.add_argument(
        "--bases", choices=["full", "compressed"], default="full",
        help="measurement bases: all 3^n or a random subset",
    )
    p_synth.add_argument(
        "--shots",
        type=NONNEGATIVE_INT,
        default=0,
        help="shots per basis for sampled statistics (0 = exact probabilities)",
    )
    p_synth.set_defaults(func=cmd_synth, parser=p_synth)

    p_rec = sub.add_parser(
        "reconstruct", parents=[common], help="run the iterative reconstruction"
    )
    p_rec.add_argument("--dataset", required=True, help="dataset file (JSON lines)")
    p_rec.add_argument("--truth", help="ground-truth density-matrix file (optional)")
    p_rec.add_argument("--target", help="target pure-state file (optional)")
    p_rec.add_argument("--max-rank", type=POSITIVE_INT, default=2)
    p_rec.add_argument(
        "--floor",
        type=POSITIVE_FLOAT,
        default=reconstruction.DEFAULT_FLOOR,
        help="denominator floor for the eigenvalue estimate",
    )
    p_rec.add_argument("--cost", choices=COST_KINDS, default="l15")
    p_rec.add_argument(
        "--lr",
        type=POSITIVE_FLOAT,
        default=0.05,
        help="ignored: the L-BFGS fit has no learning rate; still parsed so "
        "that older command lines run",
    )
    p_rec.add_argument(
        "--epochs",
        type=POSITIVE_INT,
        default=20000,
        help="cost evaluations per restart of each step, the initial one included",
    )
    p_rec.add_argument(
        "--restarts",
        # More would let a step's restart seeds reach the next step's.
        type=_bounded(
            int, True, reconstruction.STEP_SEED_STRIDE, "the seed offset between steps"
        ),
        default=3,
        help="fits per step from different seeds; the lowest cost wins",
    )
    p_rec.set_defaults(func=cmd_reconstruct, parser=p_rec)

    p_ver = sub.add_parser(
        "verify", parents=[common], help="verify the optimality bounds"
    )
    p_ver.add_argument(
        "--dims",
        type=_comma_separated(POSITIVE_INT),
        default="2,4,8,16",
        help="comma-separated dimensions",
    )
    p_ver.add_argument("--trials", type=POSITIVE_INT, default=500)
    p_ver.add_argument("--states-per-dim", type=POSITIVE_INT, default=25)
    p_ver.set_defaults(func=cmd_verify, parser=p_ver)

    p_fig = sub.add_parser(
        "figdata", parents=[common], help="emit report grids as CSV"
    )
    p_fig.add_argument("--mode", choices=["fig3", "fig4"], required=True)
    p_fig.add_argument("--state", required=True, help="density-matrix file")
    p_fig.add_argument("--bases", choices=["full", "compressed"], default="full")
    p_fig.add_argument("--perturbations", type=POSITIVE_INT, default=50)
    p_fig.add_argument("--strength-min", type=NONNEGATIVE_FLOAT, default=0.01)
    p_fig.add_argument("--strength-max", type=NONNEGATIVE_FLOAT, default=0.5)
    p_fig.add_argument(
        "--floor", type=POSITIVE_FLOAT, default=reconstruction.DEFAULT_FLOOR
    )
    p_fig.set_defaults(func=cmd_figdata, parser=p_fig)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, time.monotonic() - started)
        return code
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
