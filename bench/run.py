"""Time the simulator on the jobs its users run.

    python3 bench/run.py                       # all four workloads
    python3 bench/run.py --trace               # all four, traced
    python3 bench/run.py --workload chaos --seed 3 --seconds 15 --trace 0

Without ``--workload`` each workload runs in its own fresh subprocess.
A workload run repeats passes of its job for ``--seconds`` (at least
two passes), checks every output against the first pass and against
the committed reference in ``bench/reference/``, and prints every
metric as ``workload metric value unit``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
the BENCHMARK.json metrics -- end-to-end ones untraced, per-layer ones
with ``--trace 1``.  The full result, with every metric, sample and
output digest, goes to ``--out-dir`` for ``compare.py``; the run's
spans go next to it as JSONL.

``--trace 1`` runs one untraced pass, then one pass under cProfile,
and charges the profiled host time to the program's layers (see
layers.py).  ``--record`` rewrites the reference for the seed.

The exit code is 0 when every output checked, 1 when one did not, and
2 when the program cannot be run at all (no ``src/repro`` in the
checkout).
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import gc
import json
import os
import pstats
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

from common import (BENCH_DIR, CATALOGUE, E2E, LAYERS, OTHER, PER_LAYER,
                    REFERENCE_DIR, RESULTS_DIR, ROOT, SRC, Spans, percentile)

WORKLOAD_NAMES = ("paper-tiny", "hot-32x8", "serving", "chaos")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Time the simulator's end-to-end jobs.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this process "
                             "(default: every workload, one subprocess each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed the workload inputs are built from")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured window; passes repeat until it ends")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: profile one pass and report per-layer "
                             "metrics")
    parser.add_argument("--quick", action="store_true",
                        help="about one second per pass, for tests")
    parser.add_argument("--record", action="store_true",
                        help="write this seed's outputs as the reference")
    parser.add_argument("--out-dir", default=RESULTS_DIR,
                        help="directory for result files and spans")
    parser.add_argument("--reference-dir", default=REFERENCE_DIR,
                        help="directory of the reference digests")
    return parser


def _program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def _child_env() -> "dict[str, str]":
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def measure_setup(probe: str, count: int) -> "list[float]":
    """Seconds from starting a fresh interpreter until the workload's
    first machine is built (and the interpreter has exited)."""
    times = []
    for _ in range(count):
        # No timeout: waiting with one polls in steps of up to 50 ms,
        # which would quantize the measurement.
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                       env=_child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _run_pass(workload, spans: Spans, profiler=None):
    gc.collect()
    with spans.span("pass", profiled=profiler is not None):
        if profiler is None:
            return workload.run_pass(spans)
        profiler.enable()
        try:
            return workload.run_pass(spans)
        finally:
            profiler.disable()


def _stem(args) -> str:
    return "%s-seed%d-%s%s" % (args.workload, args.seed,
                               "quick" if args.quick else "full",
                               "-trace" if args.trace else "")


def _reference_key(workload, args) -> str:
    return "%s/%s" % ("quick" if args.quick else "full",
                      args.seed if workload.seeded else "any")


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _load_reference(args) -> dict:
    path = os.path.join(args.reference_dir, args.workload + ".json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def check_items(done, reference: "dict[str, str]"):
    """``(attempted, failures, first-pass digests)`` over every item of
    every pass: an item fails on its own check, on a digest that
    differs from the reference, or on one that differs from pass 1."""
    attempted = 0
    failures = []
    first: "dict[str, str]" = {}
    for index, out in enumerate(done):
        for name, value, problem in out.items:
            attempted += 1
            expected = first.setdefault(name, value)
            if problem is None and reference.get(name, value) != value:
                problem = "output differs from the reference"
            if problem is None and expected != value:
                problem = "output differs from pass 1"
            if problem is not None:
                failures.append("pass %d %s: %s" % (index, name, problem))
    return attempted, failures, first


def untraced_metrics(done, spans: Spans, setup) -> "dict[str, float]":
    pass_s = spans.durations("pass")
    values = {
        "wall_s": median(pass_s),
        "work_per_s": sum(out.work for out in done) / sum(pass_s),
        "setup_s": median(setup),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    warm = spans.durations("warm_pass")
    if warm:
        values["warm_ms"] = 1000.0 * median(warm)
    cells = spans.durations("cell", cached=False)
    if cells:
        values["cell_p50_s"] = median(cells)
        values["cell_p75_s"] = percentile(cells, 75)
    runs = spans.durations("run_chaos")
    if runs:
        values["run_p50_ms"] = 1000.0 * median(runs)
        values["run_p99_ms"] = 1000.0 * percentile(runs, 99)
    values.update(done[-1].exact)
    values.update(done[-1].counters)
    return values


def traced_metrics(done, spans: Spans, profiler) -> "dict[str, float]":
    import layers
    charged = layers.attribute(pstats.Stats(profiler))
    total = sum(self_s for self_s, _calls in charged.values())
    work = done[-1].work
    values = {}
    for layer in LAYERS + (OTHER,):
        self_s, calls = charged[layer]
        values[layer + ".self_s"] = self_s
        values[layer + ".share"] = self_s / total
        values[layer + ".calls_per_kitem"] = 1000.0 * calls / work
    values.update(done[-1].counters)
    base_s, traced_s = spans.durations("pass")
    values["trace_overhead_pct"] = 100.0 * (traced_s / base_s - 1.0)
    return values


def run_passes(workload, spans: Spans, seconds: float, profiler=None):
    """``(finished passes, None)``, or the passes before the one that
    raised and a line saying what it raised."""
    done = []
    try:
        if profiler is not None:
            done.append(_run_pass(workload, spans))
            done.append(_run_pass(workload, spans, profiler))
        else:
            start = time.perf_counter()
            while len(done) < 2 or time.perf_counter() - start < seconds:
                done.append(_run_pass(workload, spans))
    except Exception as exc:                # noqa: BLE001 - counted as failed
        traceback.print_exc()
        return done, "pass %d raised %s: %s" % (len(done),
                                                 type(exc).__name__, exc)
    return done, None


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    import passes
    workdir = os.path.join(args.out_dir, "tmp")
    os.makedirs(workdir, exist_ok=True)
    workload = passes.WORKLOADS[args.workload](args.seed, args.quick,
                                               workdir)
    setup = ([] if args.trace else
             measure_setup(workload.probe, 3 if args.quick else 5))
    spans = Spans()
    profiler = cProfile.Profile() if args.trace else None
    done, crashed = run_passes(workload, spans, args.seconds, profiler)

    reference_file = _load_reference(args)
    key = _reference_key(workload, args)
    reference = {} if args.record else reference_file.get(key, {})
    attempted, failures, first = check_items(done, reference)
    if crashed is not None:
        attempted += 1
        failures.append(crashed)
    for failure in failures:
        print("FAIL %s %s" % (args.workload, failure), file=sys.stderr)

    values: "dict[str, float]" = {}
    if profiler is not None and len(done) == 2:
        values = traced_metrics(done, spans, profiler)
    elif profiler is None and done:
        values = untraced_metrics(done, spans, setup)
    values["fail_ratio"] = len(failures) / attempted

    if args.record and not failures:
        reference_file[key] = first
        os.makedirs(args.reference_dir, exist_ok=True)
        _write_json(os.path.join(args.reference_dir,
                                 args.workload + ".json"), reference_file)

    stem = os.path.join(args.out_dir, _stem(args))
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "quick": args.quick}
    if "trace_overhead_pct" in values:
        summary["trace_overhead_pct"] = values["trace_overhead_pct"]
    spans.write(stem + ".spans.jsonl", summary)
    result = dict(summary,
                  work_unit=workload.work_unit,
                  reference=key if reference else None,
                  passes=len(done),
                  attempted=attempted,
                  failed=len(failures),
                  failures=failures,
                  digests=first,
                  setup_samples=setup,
                  pass_samples=spans.durations("pass"),
                  metrics={name: dict(dataclasses.asdict(CATALOGUE[name]),
                                      value=value)
                           for name, value in values.items()})
    _write_json(stem + ".json", result)

    for name, value in values.items():
        print("%s %s %r %s" % (args.workload, name, value,
                               CATALOGUE[name].unit))
    wanted = PER_LAYER if args.trace else E2E
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in wanted if m.name in values},
    }))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", args.out_dir,
               "--reference-dir", args.reference_dir]
        cmd += ["--quick"] * args.quick + ["--record"] * args.record
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print("bench: %s exited with %d" % (name, proc.returncode),
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, metric)] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not _program_present():
        print("bench: no program at %s" % os.path.join(SRC, "repro"),
              file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
