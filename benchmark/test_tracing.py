"""Self-tests of the benchmark's tracing wrappers.

    python3 -m unittest discover -s benchmark -p 'test_*.py'
"""

from __future__ import annotations

import importlib
import json
import sys
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from tracing import MissingWrapPoint, Tracer, self_times, summarize  # noqa: E402


class ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def fake_module():
    mod = types.ModuleType("fake")

    def inner():
        return "inner"

    def outer():
        return mod.inner() + mod.inner()

    class Engine:
        def method(self):
            return 1

        @classmethod
        def build(cls):
            return cls

    mod.inner, mod.outer, mod.Engine = inner, outer, Engine
    return mod


class SelfTimeTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        mod = fake_module()
        # outer [0, 10]; inner [1, 3] and [5, 6]
        tracer = Tracer(clock=ScriptedClock(0.0, 1.0, 3.0, 5.0, 6.0, 10.0))
        tracer.wrap(mod, "inner", "inner")
        tracer.wrap(mod, "outer", "outer")
        self.assertEqual(mod.outer(), "innerinner")
        names = [span[0] for span in tracer.spans]
        self.assertEqual(names, ["outer", "inner", "inner"])
        self.assertEqual(self_times(tracer.spans), [7.0, 2.0, 1.0])
        summary = summarize(tracer.spans)
        self.assertEqual(summary["outer"], {"calls": 1, "s": 10.0, "self_s": 7.0})
        self.assertEqual(summary["inner"], {"calls": 2, "s": 3.0, "self_s": 3.0})

    def test_grandchildren_are_not_subtracted_twice(self):
        spans = [
            ["a", 0.0, 10.0, -1, None],
            ["b", 2.0, 8.0, 0, None],
            ["c", 3.0, 4.0, 1, None],
        ]
        self.assertEqual(self_times(spans), [4.0, 5.0, 1.0])

    def test_recursion_counts_outer_span_only(self):
        spans = [["f", 0.0, 4.0, -1, None], ["f", 1.0, 2.0, 0, None]]
        self.assertEqual(summarize(spans)["f"], {"calls": 2, "s": 4.0, "self_s": 4.0})


class RestoreTest(unittest.TestCase):
    def test_originals_restored_after_traced_run(self):
        mod = fake_module()
        before = {"inner": mod.inner, "outer": mod.outer}
        method = vars(mod.Engine)["method"]
        build = vars(mod.Engine)["build"]
        tracer = Tracer()
        tracer.wrap(mod, "inner", "inner")
        tracer.wrap(mod, "outer", "outer")
        tracer.wrap(mod.Engine, "method", "method")
        tracer.wrap(mod.Engine, "build", "build")
        self.assertIsNot(mod.inner, before["inner"])
        self.assertEqual(mod.Engine().method(), 1)
        self.assertIs(mod.Engine.build(), mod.Engine)
        tracer.restore()
        self.assertIs(mod.inner, before["inner"])
        self.assertIs(mod.outer, before["outer"])
        self.assertIs(vars(mod.Engine)["method"], method)
        self.assertIs(vars(mod.Engine)["build"], build)
        self.assertEqual([s[0] for s in tracer.spans], ["method", "build"])

    def test_eigentomo_wrap_points_restored(self):
        def current():
            out = []
            for _, module, attr in layers.WRAP_POINTS:
                owner = importlib.import_module(f"eigentomo.{module}")
                *classes, leaf = attr.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                out.append(vars(owner)[leaf])
            return out

        before = current()
        tracer = Tracer()
        layers.install(tracer)
        self.assertTrue(all(a is not b for a, b in zip(current(), before)))
        tracer.restore()
        self.assertTrue(all(a is b for a, b in zip(current(), before)))


class MissingWrapPointTest(unittest.TestCase):
    def test_missing_attribute_is_named(self):
        with self.assertRaisesRegex(MissingWrapPoint, r"fake\.gone"):
            Tracer().wrap(fake_module(), "gone", "fake.gone")

    def test_install_fails_and_undoes_when_a_name_is_gone(self):
        rec = importlib.import_module("eigentomo.reconstruction")
        original = rec.log_likelihood
        cli = importlib.import_module("eigentomo.cli")
        main = cli.main
        del rec.log_likelihood
        try:
            with self.assertRaisesRegex(
                MissingWrapPoint, r"eigentomo\.reconstruction\.log_likelihood"
            ):
                layers.install(Tracer())
            self.assertIs(cli.main, main)
        finally:
            rec.log_likelihood = original


class DeclarationTest(unittest.TestCase):
    def test_layer_metrics_are_the_declared_per_layer_metrics(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        empty = {"spans": {}, "training": []}
        reported = layers.layer_metrics(empty, empty, None, 0, 1.0, 1.0)
        self.assertEqual(sorted(reported), sorted(m["name"] for m in spec["per_layer"]))


if __name__ == "__main__":
    unittest.main()
