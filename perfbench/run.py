"""Closed-loop benchmark of the oddsphere CLI workflows.

    python3 perfbench/run.py --workload check|realize|catalog|all \
        --seed N --seconds S --trace 0|1

One client in one process and one thread issues each operation only after
the previous one completes.  An operation is one in-process call of
`oddsphere.cli.main([...])` with its JSON document on a substituted stdin and
stdout and stderr captured, so interpreter start-up is not measured.  Every
output is checked against what its input's construction implies
(`workloads.py`); a wrong answer, an exception or an operation that runs past
OP_LIMIT_S is logged to stderr with its input and counted as failed.

Times are scaled to one machine speed.  On a shared 2-vCPU x86-64 virtual
machine the CPU slowed by up to half for seconds at a time, in CPU time as
much as in wall time, so raw timings of the same code spread by 20-30%
between runs.
Each operation's wall time is multiplied by REF_NOMINAL_S over the mean time
of a fixed reference loop (`reference_seconds`) run just before and after it
and, on a CPU-time timer, every PROBE_INTERVAL_S during it; the probes' own
time is taken out.  The loop is benchmark code that no change to oddsphere
touches, so a slower program still reads slower.  The human-readable lines
also give the unscaled figures.

Set-up (imports of `oddsphere` from `src/`, seeded input generation and one
warm-up operation) runs SETUP_REPS times, re-importing the package each time;
`setup_s` is the median.

--trace 0 runs the closed loop for S seconds and reports the end-to-end
metrics.  --trace 1 repeats passes over the first round of the pool for S
seconds, each pass once untraced and once with every public function of the
layer modules wrapped (`tracer.py`), and reports per-layer metrics per pass:
`.calls`, `.self_s` (span time minus the time its child spans cover) and
`.errors`, plus counts taken at the layer boundaries.  A pass is the same
operations every time, so the counts repeat exactly for a seed.  Self times
are scaled by their operation's speed factor and include the speed probes
(about 3% of CPU time).  The spans of the first traced pass, with unscaled
times, are written to perfbench/out/ when the run ends.

Human-readable lines, with sample counts, go to stdout first; the last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import traceback
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer, aggregate, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, Op, build_pool, check_output  # noqa: E402

SETUP_REPS = 5
OP_LIMIT_S = 10.0
PROBE_INTERVAL_S = 0.05
# Time of reference_seconds() on an unloaded vCPU of a 2-vCPU Intel Xeon VM
# with CPython 3.11.  Reported times are scaled to that speed; the constant
# only sets the scale, and changing it changes every reported time.
REF_NOMINAL_S = 0.0016
_REF_MASKS = [(i * 2654435761) & 0xFFFF for i in range(256)]

# Functions whose calls and self time the trace reports one by one.
FUNCTIONS = (
    "complexes.minimal_nonfaces",
    "complexes.complex_from_nonfaces",
    "recognizer.recognize",
    "recognizer.validate_certificate",
    "recognizer.find_max_odd_cycle",
    "recognizer.alternating_blocks",
    "gale.realize_gale_vectors",
    "gale.reconstruct_points",
    "gale.recover_nonfaces",
    "gale.rational_polygon",
    "oracle.hull_facets",
    "oracle.is_vertex",
    "oracle.betti_mod2",
    "oracle.is_pseudomanifold",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.linear_feasible_nonneg",
    "catalog.are_isomorphic",
    "catalog.instantiate",
    "catalog.catalog",
    "serialize.parse",
    "serialize.dumps",
    "cli.main",
)
# serialize.parse is these document readers taken together.
PARSERS = (
    "serialize.complex_from_doc",
    "serialize.family_from_doc",
    "serialize.points_from_doc",
    "serialize.fraction_from_str",
)


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout(f"no result within {OP_LIMIT_S} s")


class ProgramMissing(Exception):
    pass


def reference_seconds() -> float:
    """Wall time of a fixed loop of the program's two kinds of work.

    Fraction arithmetic (the geometry) and bit-mask subset tests (the
    combinatorics), in plain Python that no change to oddsphere touches.
    On a shared machine whose speed drifts by tens of percent over seconds,
    the loop slows down with the program, so dividing by it removes the drift.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(i, i + 7)
    for a in _REF_MASKS[:60]:
        sum(1 for b in _REF_MASKS if a & b == b)
    return perf_counter() - start


def import_program():
    """A fresh import of oddsphere from this checkout: (package, {layer: module})."""
    if not (SRC / "oddsphere" / "cli.py").is_file():
        raise ProgramMissing(f"no oddsphere sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "oddsphere" or n.startswith("oddsphere.")]:
        del sys.modules[name]
    package = importlib.import_module("oddsphere")
    if Path(package.__file__).resolve().parent != SRC / "oddsphere":
        raise ProgramMissing(f"imported oddsphere from {package.__file__}, not {SRC}")
    # `oddsphere.catalog` read off the package is the function, so fetch modules by name.
    return package, {layer: importlib.import_module(f"oddsphere.{layer}") for layer in LAYERS}


class Session:
    """Runs, times and checks operations for one workload, counting every attempt.

    An operation's time is its wall time scaled to REF_NOMINAL_S machine
    speed.  The speed is sampled with reference_seconds() just before and
    after the call and, through SIGPROF, every PROBE_INTERVAL_S of CPU time
    during it; the in-call probes' own time is taken out of the wall time.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.last_ref = reference_seconds()
        self._probes: list[float] = []
        signal.signal(signal.SIGALRM, _alarm)
        signal.signal(signal.SIGPROF, self._probe)

    def _probe(self, signum, frame):
        self._probes.append(reference_seconds())

    @contextlib.contextmanager
    def timing(self):
        """Times the block; the yielded object gets .wall and .scaled seconds."""
        timed = types.SimpleNamespace(wall=0.0, scaled=0.0)
        self._probes = []
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = perf_counter()
        try:
            yield timed
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            timed.wall = perf_counter() - start - sum(self._probes)
            refs = [self.last_ref, *self._probes]
            self.last_ref = reference_seconds()
            refs.append(self.last_ref)
            timed.scaled = timed.wall * REF_NOMINAL_S / statistics.fmean(refs)

    def run(self, cli, op: Op, label: str) -> tuple[float, float, bool]:
        """(scaled seconds, wall seconds, correct) for one operation."""
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(op.stdin)
        rc, problem = None, None
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            with self.timing() as timed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code
        except Exception:
            problem = traceback.format_exc()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            sys.stdin = stdin
        if problem is None:
            problem = check_output(op, rc, out.getvalue(), err.getvalue())
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(
                f"FAILED workload={self.workload} op={label} kind={op.kind} argv={list(op.argv)}\n"
                f"  reason: {problem}\n  stderr: {err.getvalue().strip()}\n  input: {op.stdin}",
                file=sys.stderr,
            )
        return timed.scaled, timed.wall, problem is None


def set_up(workload, seed: int, session: Session):
    """Scaled set-up times, the package, its layer modules and the input pool.

    The warm-up operation is built from a fixed seed, so set-up does the same
    work for every --seed apart from generating the pool.
    """
    times = []
    for rep in range(SETUP_REPS):
        with session.timing() as timed:
            package, modules = import_program()
            pool = build_pool(workload, seed, modules["complexes"])
            warmup = workload.build_round(random.Random("warmup"), modules["complexes"], 0)[workload.warmup_index]
        times.append(timed.scaled + session.run(modules["cli"], warmup, f"warmup{rep}")[0])
    return times, package, modules, pool


def closed_loop(session: Session, cli, pool: list[Op], seconds: float):
    """Scaled and wall latencies and the count of correct operations."""
    scaled, wall, correct = [], [], 0
    start = perf_counter()
    while not wall or perf_counter() - start < seconds:
        i = len(wall)
        latency, seconds_taken, ok = session.run(cli, pool[i % len(pool)], str(i))
        scaled.append(latency)
        wall.append(seconds_taken)
        correct += ok
    return scaled, wall, correct


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(workload, seed: int, seconds: float, session: Session):
    setup_times, _, modules, pool = set_up(workload, seed, session)
    scaled, wall, correct = closed_loop(session, modules["cli"], pool, seconds)
    ops, p90 = len(scaled), _p90(scaled)
    metrics = {
        "ops_per_s": _metric(correct / sum(scaled), "1/s"),
        "op_p50_ms": _metric(1000 * statistics.median(scaled), "ms"),
        "op_p90_ms": _metric(1000 * p90, "ms"),
        "correct_frac": _metric(correct / ops, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
    }
    samples = {
        "ops_per_s": f"{correct} correct of {ops} ops; unscaled {correct / sum(wall):.4g}",
        "op_p50_ms": f"{ops} ops; unscaled {1000 * statistics.median(wall):.4g}",
        "op_p90_ms": f"{ops} ops, {sum(x > p90 for x in scaled)} above; unscaled {1000 * _p90(wall):.4g}",
        "correct_frac": f"{correct} of {ops} ops",
        "peak_rss_mb": "whole process",
        "setup_s": f"median of {SETUP_REPS} set-ups",
    }
    return metrics, samples


def _per_pass(value: float, passes: int):
    value /= passes
    return int(value) if float(value).is_integer() else value


def per_layer(workload, seed: int, seconds: float, session: Session):
    _, package, modules, pool = set_up(workload, seed, session)
    cli = modules["cli"]
    sample = pool[: len(pool) // workload.pool_rounds]  # the first round
    tracer = Tracer(modules, package)
    untraced = traced = 0.0
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for j, op in enumerate(sample):
            untraced += session.run(cli, op, f"pass{passes}.{j}.untraced")[0]
        tracer.install()
        try:
            for j, op in enumerate(sample):
                tracer.op = passes * len(sample) + j
                scaled, wall, _ = session.run(cli, op, f"pass{passes}.{j}.traced")
                tracer.finish_op(op.kind, scaled / wall)
                traced += scaled
        finally:
            tracer.uninstall()
        tracer.keep_spans = False  # later passes repeat the first; sum them only
        passes += 1
    leftover = installed_wrappers(modules, package)
    if leftover:
        raise RuntimeError(f"tracing wrappers left installed: {leftover}")

    totals = aggregate(tracer.totals)
    layers = {layer: [row for name, row in totals.items() if name.startswith(f"{layer}.")] for layer in LAYERS}
    totals["serialize.parse"] = [sum(totals[name][i] for name in PARSERS if name in totals) for i in range(3)]
    metrics = {}
    for name in FUNCTIONS:
        calls, self_s, _ = totals.get(name, (0, 0.0, 0))
        metrics[f"{name}.calls"] = _metric(_per_pass(calls, passes), "count")
        metrics[f"{name}.self_s"] = _metric(self_s / passes, "s")
    for layer, rows in layers.items():
        metrics[f"{layer}.calls"] = _metric(_per_pass(sum(r[0] for r in rows), passes), "count")
        metrics[f"{layer}.self_s"] = _metric(sum(r[1] for r in rows) / passes, "s")
        metrics[f"{layer}.errors"] = _metric(_per_pass(sum(r[2] for r in rows), passes), "count")
    counters = tracer.counters
    subsets = counters["oracle.hull_facets.subsets"]
    polygons = totals.get("gale.rational_polygon", (0, 0.0, 0))[0]
    realize_calls, _, realize_errors = totals.get("gale.realize_gale_vectors", (0, 0.0, 0))
    metrics["oracle.hull_facets.subsets"] = _metric(_per_pass(subsets, passes), "count")
    metrics["oracle.hull_facets.facet_ratio"] = _metric(
        counters["oracle.hull_facets.facets"] / subsets if subsets else 0.0, "ratio"
    )
    metrics["gale.polygon_useful_ratio"] = _metric(
        (realize_calls - realize_errors) / polygons if polygons else 0.0, "ratio"
    )
    metrics["max_coord_bits"] = _metric(counters["max_coord_bits"], "bits")
    metrics["trace_overhead_frac"] = _metric(1 - untraced / traced, "ratio")

    path = OUT / f"spans-{workload.name}.json"
    OUT.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "ops": [{"op": j, "kind": op.kind, "argv": op.argv, "input": op.stdin} for j, op in enumerate(sample)],
                "columns": ["op", "id", "parent", "name", "start", "end", "error"],
                "spans": [span.as_row() for span in tracer.spans],
            },
            fh,
        )
    print(f"{workload.name}: spans of the first traced pass written to {path}", file=sys.stderr)
    for kind in sorted({op.kind for op in sample}):
        top = sorted(aggregate(tracer.totals, {kind}).items(), key=lambda kv: -kv[1][1])[:3]
        listing = ", ".join(f"{name} {row[1] / passes:.4f} s" for name, row in top)
        print(f"{workload.name}/{kind}: largest self time per pass: {listing}", file=sys.stderr)
    samples = {name: f"per pass of {len(sample)} ops, {passes} passes" for name in metrics}
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    session = Session(name)
    measure = per_layer if trace else end_to_end
    metrics, samples = measure(workload, seed, seconds, session)
    for metric, entry in metrics.items():
        print(f"{name:8} {metric:40} {entry['value']:>14.6g} {entry['unit']:6} ({samples[metric]})")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
