"""Where the traced run wraps eigentomo, and how spans become layer metrics.

Each wrap point names the module (and class) in which the *caller* looks the
function up.  ``reconstruction`` imports ``train_next_eigenstate`` by name and
``propositions`` binds ``states.fidelity`` as ``_default_fidelity`` at import
time, so those functions are wrapped at those names.  A wrap point whose
attribute has gone raises ``tracing.MissingWrapPoint`` and fails the traced
run, instead of letting the metric silently drop to zero.
"""

from __future__ import annotations

import importlib

from tracing import Tracer, summarize


def _training_outcome(args, kwargs, result):
    previous = args[1] if len(args) > 1 else kwargs["previous"]
    _, log = result
    return {
        "step": len(previous) + 1,
        "epochs": len(log.rows),
        "best_cost": float(log.best_cost),
        "aborted": sum("aborted" in note for note in log.diagnostics),
    }


#: (span name, module of the lookup site, attribute or "Class.attribute").
WRAP_POINTS = (
    ("cli.main", "cli", "main"),
    ("measurement.exact_dataset", "measurement", "exact_dataset"),
    ("measurement.sample_dataset", "measurement", "sample_dataset"),
    ("measurement.save_jsonl", "measurement", "MeasurementDataset.save_jsonl"),
    ("measurement.load_jsonl", "measurement", "MeasurementDataset.load_jsonl"),
    ("jsonio.dump", "jsonio", "dump"),
    ("costs.value_and_grad", "costs", "CostEngine.value_and_grad"),
    ("training.train_next_eigenstate", "reconstruction", "train_next_eigenstate"),
    ("rbm.to_state_vector", "rbm", "to_state_vector"),
    ("reconstruction.reconstruct", "reconstruction", "reconstruct"),
    (
        "reconstruction.estimate_dominant_eigenvalue",
        "reconstruction",
        "estimate_dominant_eigenvalue",
    ),
    ("reconstruction.deflate", "reconstruction", "deflate"),
    ("reconstruction.log_likelihood", "reconstruction", "log_likelihood"),
    ("propositions.run_corpus", "propositions", "run_corpus"),
    ("propositions.check_prop1", "propositions", "check_prop1"),
    ("propositions.check_prop2", "propositions", "check_prop2"),
    ("propositions.check_prop3", "propositions", "check_prop3"),
    ("propositions.check_prop4", "propositions", "check_prop4"),
    ("propositions.check_weyl", "propositions", "check_weyl"),
    ("states.fidelity", "states", "fidelity"),
    ("states.fidelity", "cli", "fidelity"),
    ("states.fidelity", "reconstruction", "fidelity"),
    ("states.fidelity", "propositions", "_default_fidelity"),
    ("states.pure_fidelity", "states", "pure_fidelity"),
    ("states.pure_fidelity", "cli", "pure_fidelity"),
    ("states.pure_fidelity", "propositions", "_default_pure_fidelity"),
    ("states.eigendecompose", "states", "eigendecompose"),
    ("states.eigendecompose", "cli", "eigendecompose"),
    ("states.eigendecompose", "reconstruction", "eigendecompose"),
)

OBSERVERS = {"training.train_next_eigenstate": _training_outcome}


def install(tracer: Tracer, package: str = "eigentomo") -> None:
    """Wrap every point of ``WRAP_POINTS``; on a missing one, undo and raise."""
    try:
        for name, module, attr in WRAP_POINTS:
            owner = importlib.import_module(f"{package}.{module}")
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            tracer.wrap(owner, leaf, name, OBSERVERS.get(name))
    except BaseException:
        tracer.restore()
        raise


def trace_summary(spans) -> dict:
    """What a traced process reports: per-name totals and training outcomes."""
    return {
        "spans": summarize(spans),
        "training": [
            dict(extra, s=end - start)
            for _, start, end, _, extra in spans
            if extra is not None
        ],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: dict, main: dict, result_doc, n_records: int,
                  untraced_run_s: float, traced_run_s: float) -> dict[str, float]:
    """Per-layer values, one per ``per_layer`` metric of ``BENCHMARK.json``.

    ``setup`` and ``main`` are ``trace_summary`` outputs; ``result_doc`` is
    the parsed ``result.json`` (None for ``verify``).  A layer the workload
    never calls reads 0, and so does a ratio whose base is 0.
    """

    def total(name: str, field: str = "s") -> float:
        return sum(part["spans"].get(name, {}).get(field, 0) for part in (setup, main))

    training = main["training"]

    def by_step(step: int, field: str) -> float:
        return sum(t[field] for t in training if t["step"] == step)

    steps = result_doc["report"] if result_doc else []
    estimated = [s for s in steps if s["argmin_record"] >= 0]
    vg_calls = total("costs.value_and_grad", "calls")
    epochs = sum(t["epochs"] for t in training)
    out = {
        "measurement.exact_dataset.s": total("measurement.exact_dataset"),
        "measurement.sample_dataset.s": total("measurement.sample_dataset"),
        "measurement.save_jsonl.s": total("measurement.save_jsonl"),
        "measurement.load_jsonl.s": total("measurement.load_jsonl"),
        "jsonio.dump.s": total("jsonio.dump"),
        "costs.value_and_grad.calls": vg_calls,
        "costs.value_and_grad.s": total("costs.value_and_grad"),
        "costs.value_and_grad.us_per_call": 1e6 * _ratio(total("costs.value_and_grad"), vg_calls),
        "training.train_next_eigenstate.s": total("training.train_next_eigenstate"),
        "training.train_next_eigenstate.step1.s": by_step(1, "s"),
        "training.train_next_eigenstate.step2.s": by_step(2, "s"),
        "training.self_s": total("training.train_next_eigenstate") - total("costs.value_and_grad"),
        "training.epochs": epochs,
        "training.useful_eval_ratio": _ratio(epochs, vg_calls),
        "training.best_cost.step1": by_step(1, "best_cost"),
        "training.best_cost.step2": by_step(2, "best_cost"),
        "training.restarts_aborted": sum(t["aborted"] for t in training),
        "rbm.to_state_vector.s": total("rbm.to_state_vector"),
        "reconstruction.reconstruct.s": total("reconstruction.reconstruct"),
        "reconstruction.log_likelihood.s": total("reconstruction.log_likelihood"),
        "reconstruction.log_likelihood.calls": total("reconstruction.log_likelihood", "calls"),
        "reconstruction.estimate_dominant_eigenvalue.s": total(
            "reconstruction.estimate_dominant_eigenvalue"
        ),
        "reconstruction.deflate.s": total("reconstruction.deflate"),
        "reconstruction.steps_accepted_ratio": _ratio(
            sum(1 for s in steps if s["accepted"]), len(steps)
        ),
        "reconstruction.records_discarded_ratio": _ratio(
            sum(s["records_discarded"] for s in estimated), n_records * len(estimated)
        ),
        "propositions.check_prop1.s": total("propositions.check_prop1"),
        "propositions.check_prop2.s": total("propositions.check_prop2"),
        "propositions.check_prop3.s": total("propositions.check_prop3"),
        "propositions.check_prop4.s": total("propositions.check_prop4"),
        "propositions.check_weyl.s": total("propositions.check_weyl"),
        "states.fidelity.s": total("states.fidelity"),
        "states.pure_fidelity.s": total("states.pure_fidelity"),
        "states.eigendecompose.s": total("states.eigendecompose"),
        "cli.self_s": total("cli.main", "self_s"),
        "trace.overhead_s": traced_run_s - untraced_run_s,
        "trace.overhead_ratio": _ratio(traced_run_s - untraced_run_s, untraced_run_s),
    }
    return out
