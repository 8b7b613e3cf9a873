"""vista-align benchmark.

    python3 perfbench/run.py --workload loc-s --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and README.md) from the source tree next
to this directory, checks every output against goldens recorded from the
reference version, and prints as its last stdout line one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` a separate traced run reports the
per-layer ones and the tracing overhead.

`--smoke` runs the smallest instance of a workload once; `--record-goldens`
rewrites the workload's golden file from the current source tree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"
WORK_ROOT = ROOT / ".bench_work"
# Set-up is repeated and its median reported: at least 3 times, and while
# the repeats total under a second, so that short set-ups are steady too.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 3, 1.0, 25

# End-to-end metrics (reported with --trace 0) and their units.
END_TO_END = [
    ("setup_s", "s"), ("pipeline_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("precision_s4", "ratio"), ("recall_s4", "ratio"),
    ("top1_correct", "ratio"), ("static_kept", "ratio"),
]
# Per-operation timings and quality that some workloads lack, or that vary
# between runs more than any bound allows on a noisy host. A traced run takes
# them from its set-up and untraced passes and reports them with the
# per-layer metrics; 0 where the workload has no such operation.
SPECIFIC = [
    ("e2e.simulate_s", "s", "simulate"), ("e2e.build_map_s", "s", "build-map"),
    ("e2e.match_s", "s", "match"), ("e2e.evaluate_s", "s", "evaluate"),
    ("e2e.pair_solve_match_s", "s", "pair_match"),
    ("e2e.pair_solve_nomatch_s", "s", "pair_nomatch"),
    ("e2e.dynamic_rejected", "ratio", None),
]
TRACE_OVERHEAD = [("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio")]


class OpFailed(Exception):
    """An operation raised or exited with a failure code; its unit stops."""


class Quality(Counter):
    """Pooled correctness counts; ratios are formed at the end."""

    best = None

    def add(self, **counts):
        self.update({k: int(v) for k, v in counts.items()})

    def top(self, cardinality, correct):
        if cardinality >= 0 and (self.best is None or cardinality > self.best[0]):
            self.best = (cardinality, bool(correct))

    def ratios(self):
        if self.best is not None:
            self.add(top1=1, top1_correct=self.best[1])
            self.best = None

        def r(num, den):
            return self[num] / self[den] if self[den] else 0.0

        return {"precision_s4": r("hyp_correct", "hyp"),
                "recall_s4": r("recalled", "overlapping"),
                "top1_correct": r("top1_correct", "top1"),
                "static_kept": r("static_kept", "static"),
                "e2e.dynamic_rejected": r("dynamic_rejected", "dynamic")}


class Bench:
    """Runs operations, times them, and checks their outputs."""

    def __init__(self, workload, goldens, recording):
        self.workload = workload
        self.goldens = goldens
        self.recording = recording
        self.work = str(WORK_ROOT / ("%s-%d" % (workload.name, os.getpid())))
        os.makedirs(self.work, exist_ok=True)
        self.ops = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.tracer = None
        self.unit_time = 0.0
        self._last_failed = False

    def golden_for(self, scene):
        """The golden record of one pool scene."""
        key = "s%d" % scene
        if self.recording:
            return self.goldens.setdefault(key, {})
        return self.goldens.get(key, {})

    def op(self, name, fn):
        from tracer import patched
        self.attempted += 1
        self._last_failed = False
        with (patched(self.tracer) if self.tracer else contextlib.nullcontext()):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:
                self._fail("%s raised %s: %s" % (name, type(exc).__name__, exc))
                raise OpFailed(name) from exc
            dt = time.perf_counter() - t0
        if self.tracer is None:
            self.ops[name].append(dt)
        self.unit_time += dt
        return result

    def cli(self, name, argv):
        from vista_align import cli

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run([name] + argv)

        rc = self.op(name, call)
        if rc not in (0, 2):
            self._fail("%s exited %d" % (name, rc))
            raise OpFailed(name)
        return rc

    def check(self, digest, golden, field):
        """Compare digest() with golden[field] exactly, or record it."""
        from workloads import GoldenMismatch

        def equal(_, expected):
            if digest() != expected:
                raise GoldenMismatch("%s differs from golden" % field)
        self.check_with(equal, lambda _: digest(), None, golden, field)

    def check_with(self, checker, digester, obj, golden, field):
        """Run checker(obj, golden[field]); a mismatch or an unreadable
        output fails the last operation. When recording, store digester(obj)."""
        from workloads import GoldenMismatch
        if self.recording:
            golden[field] = digester(obj)
            return
        try:
            if field not in golden:
                raise GoldenMismatch("no golden recorded for %s" % field)
            checker(obj, golden[field])
        except (GoldenMismatch, OSError, ValueError, KeyError) as exc:
            self._fail("golden check %s: %s" % (field, exc))

    def _fail(self, message):
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True
        self.failures.append(message)


def warm_up(n):
    """One solve of an n x n submap pair, so that the first solve in the
    process (several times slower than later ones) is not timed."""
    import numpy as np
    from vista_align import alignment, core, submap
    pts = np.random.default_rng(0).uniform(0.0, 10.0, size=(n, 3))
    moved = core.RigidTransform(core.rotation_z(30.0), [1.0, 0.0, 0.0]).apply(pts)
    alignment.solve_submap_pair(submap.Submap([0, 0], range(n), pts),
                                submap.Submap([0, 0], range(n), moved),
                                core.Hyperparameters())


def run_unit(bench, wl, state, unit, quality):
    """Run one unit; return its summed op time."""
    bench.unit_time = 0.0
    try:
        wl.run_unit(bench, state, unit, bench.golden_for(wl.scene(unit)), quality)
    except OpFailed:
        pass
    return bench.unit_time


def run_pass(bench, wl, state, units, quality):
    """Run each unit once; return the op time of each unit."""
    times = [run_unit(bench, wl, state, u, quality) for u in units]
    if quality is not None and hasattr(wl, "pass_quality"):
        wl.pass_quality(state, quality)
    return times


def setup(bench, wl, units):
    t0 = time.perf_counter()
    # At least 1,024 candidates: warms the large-array paths too, and keeps
    # the set-up long enough to time steadily.
    warm_up(max(wl.submap_size, 32))
    state = wl.setup(bench, units)
    return state, time.perf_counter() - t0


def percentile_summary(values):
    """Median plus the highest of p99/p90/p75 with >= 10 samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    for p in (99, 90, 75):
        if n * (100 - p) / 100 >= 10:
            out["p%d" % p] = values[min(n - 1, int(round(p / 100 * (n - 1))))]
            break
    return out


def environment():
    import numpy as np
    env = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
           "numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads()
    return env


def _blas_threads():
    import ctypes
    import glob
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return os.environ.get("OPENBLAS_NUM_THREADS", "default")


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def timed_run(wl, bench, units, seconds, smoke):
    setup_times = []
    while not setup_times or not smoke and (
            len(setup_times) < SETUP_MIN_REPEATS
            or sum(setup_times) < SETUP_MIN_SECONDS
            and len(setup_times) < SETUP_MAX_REPEATS):
        state, dt = setup(bench, wl, units)
        setup_times.append(dt)
    # The first pass runs in full and gives the quality metrics; then units
    # repeat one at a time until the run has measured `seconds`.
    quality = Quality()
    t_start = time.perf_counter()
    unit_times = run_pass(bench, wl, state, units, quality)
    while time.perf_counter() - t_start < seconds:
        unit = units[len(unit_times) % len(units)]
        unit_times.append(run_unit(bench, wl, state, unit, None))
    pipeline = wl.pipeline(unit_times, bench.ops)
    q = quality.ratios()
    metrics = {
        "setup_s": median_or_zero(setup_times),
        "pipeline_s": median_or_zero(pipeline),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_rate": 1.0 - bench.failed / max(1, bench.attempted),
    }
    metrics.update({k: q[k] for k in ("precision_s4", "recall_s4",
                                      "top1_correct", "static_kept")})
    samples = {"setup": setup_times, "pipeline": pipeline, **bench.ops}
    return metrics, END_TO_END, samples


def traced_run(wl, bench, units):
    from tracer import EXACT_COUNTS, PER_LAYER, Tracer
    state, _ = setup(bench, wl, units)
    units = units if wl.trace_units is None else units[:wl.trace_units]
    # Untraced and traced passes alternate, so that drift within the run
    # does not show as tracing overhead.
    quality = Quality()
    untraced, walls, passes, spans = [], [], [], []
    for k in range(2):
        untraced.append(sum(run_pass(bench, wl, state, units,
                                     quality if k == 0 else None)))
        bench.tracer = Tracer()
        walls.append(sum(run_pass(bench, wl, state, units, None)))
        passes.append(bench.tracer)
        spans.extend(bench.tracer.dump("%s-pass%d" % (wl.name, k)))
        bench.tracer = None
    specific = {name: median_or_zero(bench.ops[op]) for name, _, op in SPECIFIC if op}
    specific["e2e.dynamic_rejected"] = quality.ratios()["e2e.dynamic_rejected"]
    per_pass = [p.metrics() for p in passes]
    bench.attempted += 1          # the exact-count check
    differing = [n for n in EXACT_COUNTS if per_pass[0][n] != per_pass[1][n]]
    if differing:
        bench.failed += 1
        bench.failures.append("counts differ between traced passes: %s" % differing)
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name, _ in PER_LAYER}
    base = statistics.median(untraced)
    overhead = statistics.median(walls) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / base if base else 0.0
    metrics.update(specific)
    units_list = PER_LAYER + TRACE_OVERHEAD + [(n, u) for n, u, _ in SPECIFIC]
    with open(WORK_ROOT / ("trace-%s-%d.json" % (wl.name, os.getpid())), "w") as fh:
        json.dump(spans, fh)
    return metrics, units_list, {"untraced_pass": untraced, "traced_pass": walls}


def record_goldens(wl, bench):
    for batch in wl.record_batches():
        state, _ = setup(bench, wl, batch)
        run_pass(bench, wl, state, batch, None)
        print("recorded %s scene %d" % (wl.name, wl.scene(batch[0])), flush=True)
    if bench.failed:
        raise SystemExit("recording failed: %s" % bench.failures)
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(GOLDEN_DIR / ("%s.json" % wl.name), "w") as fh:
        json.dump(bench.goldens, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["loc-s", "match-m", "pairs-m"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest instance, one pass, one set-up")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vista_align" / "__init__.py").is_file():
        print("error: no source tree at %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("VISTA_ALIGN_THREADS", None)   # run at the program's defaults
    # One BLAS thread, set before numpy loads. On a 2-vCPU host OpenBLAS's
    # default of one thread per core made a 1,296-candidate solve 3-4x slower
    # and its time 4x more variable.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    import warnings
    warnings.simplefilter("ignore")
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    golden_path = GOLDEN_DIR / ("%s.json" % wl.name)
    goldens = {}
    if not args.record_goldens:
        if not golden_path.is_file():
            print("error: missing golden file %s" % golden_path, file=sys.stderr)
            return 2
        with open(golden_path) as fh:
            goldens = json.load(fh)
    bench = Bench(wl, goldens, args.record_goldens)
    try:
        if args.record_goldens:
            record_goldens(wl, bench)
            return 0
        units = wl.units(args.seed, args.smoke, goldens)
        if args.trace:
            metrics, units_list, samples = traced_run(wl, bench, units)
        else:
            metrics, units_list, samples = timed_run(
                wl, bench, units, 0.0 if args.smoke else args.seconds, args.smoke)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    for message in bench.failures:
        print("failure: %s" % message, file=sys.stderr)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"samples": {k: percentile_summary(v)
                                  for k, v in samples.items() if v}}))
    print(json.dumps({
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units_list}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
