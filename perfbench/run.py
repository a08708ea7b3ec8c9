"""Benchmark of the swanson CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

One client thread drives ``swanson.cli.main(argv)`` in this process as a
closed loop: each case starts when the previous one has returned.  The seed
gives the cases and ``--seconds`` their number (``workloads.plan``), sized so
that the run lasts about that long at the commit the benchmark was written
for; how fast the cases run never changes which ones run.  Case 0 runs twice,
and every repeat of a case must give its first run's bytes.  Outputs are
checked after the timed loop.  Times are scaled to a reference host by
probes of the host taken all through the timed loop (``HostSampler``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
distinct case twice, untraced and then traced (``tracing.py``), and reports
the per-layer metrics as means per traced case.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts cases that raised, exited with an unexpected code, failed
their output check or repeated with different bytes; ``failed / attempted``
is the fail fraction.  ``correct`` is false when an exception escaped
``main`` or a repeated case gave different bytes; a wrong number in an output
is a failed case, counted in ``failed``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import hostprobe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_RUNS = 9  # imports timed for setup_s, 4 before the cases, 5 after
# Wall time between two host probes, how far around a stretch of time the
# probes that scale it are taken from, and the probes after each import.
PROBE_EVERY_S = 0.1
PROBE_WINDOW_S = 1.0
SETUP_PROBES = 4

# name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "case_s_p50": "s",
    "case_s_tail": "s",
    "items_per_s": "1/s",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
}

_SPAN_NAMES = [f"{mod}.{attr}" for mod, attr, _ in tracing.SPANS]
PER_LAYER = {}
for _name in _SPAN_NAMES:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".self_s"] = "s"
PER_LAYER.update({
    "numeric.tridiag_eigs.rows": "count",
    "numeric.tridiag_eigs.levels": "count",
    "numeric.fd_discretize.points": "count",
    "numeric.quad_halfline.integrand_evals": "count",
    "numeric.quad_halfline.nonconvergent": "count",
    "specialfn.kummer.degree_sum": "count",
    "diffop.residual.points": "count",
    "params.solve_inverse.failures": "count",
    "jets.Jet.ops": "count",
    "jets.Jet.self_s": "s",
    "cli.case.self_s": "s",
    "cli.sweep.busy_over_wall": "1",
    "numeric.fd_worst_rel_err": "1",
    "trace.overhead_ratio": "1",
})


class HostSampler:
    """Probes the host all through the timed work.

    While ``running``, a SIGALRM handler runs ``hostprobe.probe`` every
    PROBE_EVERY_S of wall time.  Python runs the handler in the main thread
    between two bytecodes of whatever runs there, so the probes also fall in
    the middle of a case, on the vCPU that runs it.  ``within`` gives the
    CPU time the probes took inside a stretch of time, which is taken out of
    the case's own times, and ``factor`` how much faster than the host
    during a stretch the reference host is.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.cpus: list[float] = []
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a probe held up past the next tick
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.cpus.append(hostprobe.probe())
            self.starts.append(start)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, start: float, end: float) -> list[float]:
        return self.cpus[bisect.bisect_left(self.starts, start):
                         bisect.bisect_left(self.starts, end)]

    def within(self, start: float, end: float) -> float:
        """CPU seconds of the probes that started in [start, end)."""
        return sum(self._between(start, end))

    def factor(self, start: float, end: float) -> float:
        """How much faster than the host during [start, end] the reference
        host is, from the probes that started in that stretch widened by
        PROBE_WINDOW_S on each side; 1 if there are none."""
        cpus = self._between(start - PROBE_WINDOW_S, end + PROBE_WINDOW_S)
        if not cpus:
            return 1.0
        return hostprobe.PROBE_NOMINAL_S / statistics.fmean(cpus)


class CaseRun:
    """One main(argv) call: exit code, captured output, wall and CPU time.

    With a sampler, the times leave out the probes that started during the
    call.  ``host`` scales them to the reference host; it is 1 until the
    caller sets it.
    """

    def __init__(self, cli, case: workloads.Case, sampler=None):
        self.case = case
        out, err = io.StringIO(), io.StringIO()
        self.error = None
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.rc = cli.main(list(case.argv))
        except Exception as exc:  # a crash is a measured failure, not a stop
            self.rc = None
            self.error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        self.seconds = end - start
        self.cpu_seconds = time.process_time() - cpu
        self.start, self.end = start, end
        self.host = 1.0
        if sampler is not None:
            probes = sampler.within(start, end)
            self.seconds -= probes
            self.cpu_seconds -= probes
        self.out = out.getvalue()
        self.err = err.getvalue()

    def same_output(self, other: "CaseRun") -> bool:
        return (self.rc, self.out, self.err) == (other.rc, other.out, other.err)


def measure_setup(runs: int) -> list[float]:
    """Wall times of `import swanson.cli`, each in a fresh interpreter.

    Each is scaled to the reference host by probes that the same
    interpreter runs right after the import.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import time; t = time.perf_counter(); import swanson.cli; "
            "t = time.perf_counter() - t; import hostprobe; "
            f"p = sum(hostprobe.probe() for _ in range({SETUP_PROBES})); "
            f"print(repr(t * {SETUP_PROBES} * hostprobe.PROBE_NOMINAL_S / p))")
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout))
    return times


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are too few."""
    s = sorted(times)
    if len(s) <= 10:
        return s[-1], 100.0, 0
    i = len(s) - 11
    return s[i], 100.0 * i / (len(s) - 1), len(s) - 1 - i


def case_times(runs: list[CaseRun], scaled: bool = True) -> list[float]:
    """Time of each distinct case: the median over its runs, so that a burst
    of load on the machine during one pass does not reach the tail."""
    by_case: dict[int, list[float]] = {}
    for r in runs:
        by_case.setdefault(id(r.case), []).append(
            r.seconds * r.host if scaled else r.seconds)
    return [statistics.median(t) for t in by_case.values()]


def judge(workload: str, runs: list[CaseRun], default_tols: dict):
    """(verdict per run, correct).

    The first run of each case is checked against the workload's oracle;
    every later run of it must repeat the first one's exit code and bytes,
    and shares its verdict.
    """
    verdicts, first, correct = [], {}, True
    for r in runs:
        key = id(r.case)
        if r.error is not None:
            correct = False
            verdict = workloads.Verdict(r.error)
        elif key in first:
            ref_run, ref = first[key]
            verdict = workloads.Verdict(ref.problem, ref.fd_rel_err)
            if not r.same_output(ref_run):
                correct = False
                verdict.problem = "repeat gave different output"
        else:
            verdict = workloads.check(workload, r.case, r.rc, r.out,
                                      default_tols)
        first.setdefault(key, (r, verdict))
        verdicts.append(verdict)
    return verdicts, correct


def report_failures(runs, verdicts, limit: int = 8) -> None:
    shown = 0
    for k, (r, v) in enumerate(zip(runs, verdicts)):
        if v.problem and shown < limit:
            print(f"  failed case {k}: {' '.join(r.case.argv[:8])[:100]} "
                  f"-> {v.problem}")
            shown += 1
    failed = sum(1 for v in verdicts if v.problem)
    if failed > shown:
        print(f"  ... and {failed - shown} more failed cases")


def run_end_to_end(cli, workload, pool, order) -> dict:
    # the first import writes the .pyc files and is not counted
    setup = measure_setup(1 + SETUP_RUNS // 2)[1:]
    sampler = HostSampler()
    with sampler.running():
        runs = [CaseRun(cli, pool[i], sampler) for i in order]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(SETUP_RUNS - len(setup))
    for r in runs:  # a factor takes probes from after its case, too
        r.host = sampler.factor(r.start, r.end)

    verdicts, correct = judge(workload, runs, cli.DEFAULT_TOLS)
    failed = sum(1 for v in verdicts if v.problem)
    items = sum(r.case.items for r in runs)
    times = case_times(runs)
    tail_s, tail_pct, beyond = tail(times)
    wall = sum(r.seconds * r.host for r in runs)
    metrics = {
        "setup_s": statistics.median(setup),
        "case_s_p50": statistics.median(times),
        "case_s_tail": tail_s,
        "items_per_s": items / wall,
        "cpu_s_per_item": sum(r.cpu_seconds * r.host for r in runs) / items,
        "peak_rss_mb": peak_rss_mb,
    }
    raw_wall = sum(r.seconds for r in runs)
    raw_times = case_times(runs, scaled=False)
    hosts = [r.host for r in runs]
    notes = {"setup_s": f"(median of {len(setup)})",
             "case_s_p50": f"(of {len(times)} cases, each the median of "
                           f"its {len(runs) / len(times):.3g} runs; "
                           f"unscaled {statistics.median(raw_times):.6g} s)",
             "case_s_tail": f"(p{tail_pct:.1f} of {len(times)} cases, "
                            f"{beyond} beyond; unscaled "
                            f"{tail(raw_times)[0]:.6g} s)",
             "items_per_s": f"({items} items in {wall:.3f} s; unscaled "
                            f"{items / raw_wall:.6g} 1/s)"}
    print(f"{workload}: {len(runs)} cases in {raw_wall:.3f} s, host factor "
          f"{min(hosts):.3f} to {max(hosts):.3f} from {len(sampler.cpus)} "
          f"probes")
    for name, unit in END_TO_END.items():
        print(f"  {name} = {metrics[name]:.6g} {unit} {notes.get(name, '')}")
    print(f"  fail_frac = {failed / len(runs):.4g} ({failed}/{len(runs)})")
    report_failures(runs, verdicts)
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in END_TO_END.items()}}


def run_traced(cli, workload, pool, order) -> dict:
    tracer = tracing.Tracer()
    runs, per_case = [], []
    for i in sorted(set(order)):
        runs.append(CaseRun(cli, pool[i]))
        tracer.install()
        try:
            tracer.begin_case()
            run = CaseRun(cli, pool[i])
            per_case.append(tracer.end_case(run.seconds))
        finally:
            tracer.uninstall()
        runs.append(run)
    plain, traced = runs[0::2], runs[1::2]
    verdicts, correct = judge(workload, runs, cli.DEFAULT_TOLS)
    failed = sum(1 for v in verdicts if v.problem)

    n = len(traced)
    totals: dict[str, float] = {}
    for counts in per_case:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0.0) + value
    metrics = {}
    for name in PER_LAYER:
        metrics[name] = totals.get(name, 0.0) / n
    wall_sweep = totals.get("cli.cmd_sweep.wall_s", 0.0)
    metrics["cli.sweep.busy_over_wall"] = (
        totals.get("cli._sweep_one.wall_s", 0.0) / wall_sweep
        if wall_sweep else 0.0)
    fd = [v.fd_rel_err for v in verdicts if v.fd_rel_err is not None]
    metrics["numeric.fd_worst_rel_err"] = max(fd, default=0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in plain))

    print(f"{workload}: {n} cases, each untraced then traced")
    self_times = sorted(((v, k) for k, v in metrics.items()
                         if k.endswith(".self_s")), reverse=True)
    case_s = statistics.fmean(r.seconds for r in traced)
    for value, name in self_times:
        print(f"  {name:42s} {value:10.4f} s  {100 * value / case_s:5.1f} %")
    for name, unit in PER_LAYER.items():
        if unit != "s":
            print(f"  {name:42s} {metrics[name]:.6g} {unit}")
    report_failures(runs, verdicts)
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u}
                        for k, u in PER_LAYER.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.UNIT_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "swanson" / "cli.py").is_file():
        print(f"error: no swanson sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import swanson.cli as cli

    os.environ["SWANSON_WORKERS"] = str(len(os.sched_getaffinity(0)))
    pool, order = workloads.plan(args.workload,
                                 np.random.default_rng(args.seed), args.seconds)
    digest = hashlib.sha256(
        json.dumps([pool[i].argv for i in order]).encode()).hexdigest()
    print(f"inputs: seed {args.seed}, {len(order)} runs of {len(pool)} cases, "
          f"sha256 {digest}")
    run = run_traced if args.trace else run_end_to_end
    result = run(cli, args.workload, pool, order)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
