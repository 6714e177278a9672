"""Run one eigentomo command in a fresh process and report what it cost.

    python3 benchmark/worker.py --root CHECKOUT --report OUT.json \
        [--import-only | [--spans SPANS.json] [--repeat-seconds S --out-base DIR] -- ARGV...]

Times the import of ``eigentomo`` and ``eigentomo.cli.main(ARGV)`` with
``time.perf_counter`` and reads this process's peak resident memory after
the command.  A ``SpeedProbe`` measures how fast the machine runs: in a
burst right after the import, and every 0.1 s while a command runs.  The
report gives the mean probe duration of each timed window next to its wall
time.  With ``--repeat-seconds`` the command runs repeatedly in this
process, the k-th time with ``--out-dir DIR/repK`` appended, for as long as
the projected end of the next repetition stays within S seconds of the first
start; it always runs once.  An exception from the command is printed to
standard error and reported as ``rc`` 1, so the report is written whatever
the command does; the first nonzero ``rc`` ends the repetitions.  With
``--spans`` the command runs once under the tracer of ``layers.py``, the
spans are written to SPANS.json and their summary goes into the report.  The
package is imported from CHECKOUT/src only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

#: Wall-clock seconds between two probes.
PROBE_INTERVAL_S = 0.1
#: Small-array numpy operations per probe; one probe takes 0.2-0.4 ms.
PROBE_OPS = 100
#: Probes run back to back to measure the speed right after the import.
BURST_PROBES = 300


class SpeedProbe:
    """Times a fixed piece of work every ``PROBE_INTERVAL_S`` of wall time.

    A shared host runs this process's code up to twice as slow at one time as
    at another.  The probe, interpreter-bound small-array numpy work like most
    of eigentomo's, slows down with it, so the mean probe duration during a
    timed window says how fast the machine ran in it.  The probe runs from a
    ``SIGALRM`` handler between the command's bytecodes and costs well under
    1 % of the time.  Create it after numpy has been imported: a handler that
    runs inside an import must not use the module being imported.
    """

    def __init__(self):
        import numpy

        self.durations: list[float] = []
        self._array = numpy.ones((9, 4))

    def probe(self, signum=None, frame=None) -> None:
        array = self._array
        started = time.perf_counter()
        for _ in range(PROBE_OPS):
            float((array * 1.0001).sum())
        self.durations.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def reset(self) -> None:
        self.durations.clear()

    def burst(self) -> float:
        """Mean duration of ``BURST_PROBES`` probes run now, back to back."""
        self.reset()
        for _ in range(BURST_PROBES):
            self.probe()
        return self.window()

    def window(self) -> float:
        """Mean probe duration since the last call; probes once if none ran."""
        if not self.durations:
            self.probe()
        mean = statistics.fmean(self.durations)
        self.durations.clear()
        return mean


def runtime_record() -> dict:
    import numpy
    import scipy

    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {
            "name": info.get("name"),
            "version": info.get("version"),
            "config": info.get("openblas configuration"),
        }
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "eigentomo_threads_env": os.environ.get("EIGENTOMO_THREADS"),
    }


def run_once(cli, argv) -> tuple[int, float, float]:
    """(exit code, wall seconds, CPU seconds) of one ``cli.main(argv)``."""
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the command crashed: a nonzero rc, not a lost report
        traceback.print_exc()
        rc = 1
    return rc, time.perf_counter() - started, time.process_time() - cpu_started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--repeat-seconds", type=float, default=0.0)
    parser.add_argument("--out-base")
    parser.add_argument("argv", nargs="*")
    args = parser.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    started = time.perf_counter()
    import eigentomo.cli as cli

    import_s = time.perf_counter() - started
    speed = SpeedProbe()
    report: dict = {"import_s": import_s, "import_probe_s": speed.burst()}
    speed.start()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"worker: eigentomo imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if not args.import_only:
        tracer = None
        if args.spans:
            import layers
            from tracing import Tracer

            tracer = Tracer()
            layers.install(tracer)
        rc, command_s, command_cpu_s, command_probe_s = 0, [], [], []
        phase_started = time.perf_counter()
        while True:
            argv = list(args.argv)
            if args.out_base:
                argv += ["--out-dir", os.path.join(args.out_base, f"rep{len(command_s) + 1}")]
            speed.reset()
            rc, wall_s, cpu_s = run_once(cli, argv)
            command_probe_s.append(speed.window())
            command_s.append(wall_s)
            command_cpu_s.append(cpu_s)
            projected = time.perf_counter() - phase_started + wall_s
            if rc != 0 or tracer is not None or projected > args.repeat_seconds:
                break
        if tracer is not None:
            tracer.restore()
        report.update(rc=rc, command_s=command_s, command_cpu_s=command_cpu_s,
                      command_probe_s=command_probe_s)
        if tracer is not None:
            report["trace"] = layers.trace_summary(tracer.spans)
            names = sorted({span[0] for span in tracer.spans})
            index = {name: i for i, name in enumerate(names)}
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "fields": ["name", "start", "end", "parent"],
                        "names": names,
                        "spans": [[index[n], s, e, p] for n, s, e, p, _ in tracer.spans],
                    },
                    fh,
                )
    speed.stop()
    # ru_maxrss is in KiB on Linux.
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["runtime"] = runtime_record()
    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
