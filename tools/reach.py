#!/usr/bin/env python
"""Reach audit: every ``src/`` function is called by a job a user runs.

Runs the fixed job list below in this process, at ``--jobs 1``, under
``sys.setprofile``, and records every code object of ``src/repro``
that is called.  Every function ``def`` in ``src/repro`` (found with
``ast``) that no job called must be listed, with a reason, in
``tools/reach_allowlist.txt``.  Exits 1 when a function is unreached
and not listed, and also when a listed function is now reached or no
longer exists, so the list can only shrink.

The jobs are every ``python -m repro`` command of ``tools/ci_check.sh``
(a command the script repeats only to check determinism runs once) and
that script's two JSONL validations; the subcommands the script does
not run; the four ``bench/passes.py`` workloads at quick size; and the
examples that ``tests/integration/test_examples.py`` runs.

Usage::

    python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import runpy
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allowlist.txt")


# -- what exists ------------------------------------------------------------

def defs() -> "dict[tuple[str, int], str]":
    """``{(path, first line): qualname}`` of every def in ``src/repro``.

    ``path`` is relative to ``src/`` (``repro/sim/engine.py``) and the
    first line is that of the first decorator, as in ``co_firstlineno``.
    """
    found = {}
    for folder, _dirs, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                _collect(tree, [], rel, found)
    return found


def _collect(node, scope: "list[str]", rel: str, found: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno]
                        + [d.lineno for d in child.decorator_list])
            found[rel, first] = ".".join(scope + [child.name])
            _collect(child, scope + [child.name, "<locals>"], rel, found)
        elif isinstance(child, ast.ClassDef):
            _collect(child, scope + [child.name], rel, found)
        else:
            _collect(child, scope, rel, found)


def read_allowlist() -> "dict[str, str]":
    """``{"repro/<path>.py:<qualname>": reason}`` from the allowlist;
    ``#`` starts a comment line."""
    entries = {}
    with open(ALLOWLIST) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, reason = line.partition(" ")
                entries[name] = reason.strip()
    return entries


# -- the jobs ---------------------------------------------------------------

def _repro(*argv: str, code: int = 0):
    """A job that runs ``python -m repro ARGV`` and expects exit
    ``code``."""
    def job():
        from repro.harness.cli import main
        got = main(list(argv))
        if got != code:
            raise RuntimeError("exit code %d, expected %d" % (got, code))
    job.__name__ = "repro " + " ".join(argv)
    return job


def _example(script: str, *argv: str):
    """A job that runs ``examples/SCRIPT ARGV`` as ``__main__``."""
    def job():
        path = os.path.join(ROOT, "examples", script)
        saved = sys.argv
        sys.argv = [path] + list(argv)
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                raise RuntimeError("exit code %s" % exc.code) from None
        finally:
            sys.argv = saved
    job.__name__ = " ".join(("example", script) + argv)
    return job


def _bench_pass(name: str, workdir: str):
    """A job that runs one quick pass of a ``bench/passes.py``
    workload."""
    def job():
        bench = os.path.join(ROOT, "bench")
        if bench not in sys.path:
            sys.path.insert(0, bench)
        import passes
        from common import Spans
        passes.WORKLOADS[name](0, True, workdir).run_pass(Spans())
    job.__name__ = "bench pass " + name
    return job


def _write_plan(path: str, sampled: bool):
    """A job that writes a fault plan file: a sampled one, or the one
    ``tools/ci_check.sh`` writes, whose rules are live from cycle 0."""
    def job():
        from repro.faults import FaultPlan
        if sampled:
            plan = FaultPlan.sample(random.Random(0), num_nodes=4)
        else:
            plan = (FaultPlan().drop(0.2, kinds="requests").duplicate(0.3)
                    .delay(0.2, 40))
        with open(path, "w") as fh:
            json.dump(plan.to_dict(), fh)
    job.__name__ = "write a %s fault plan" % ("sampled" if sampled
                                               else "live")
    return job


def _validate(path: str):
    def job():
        from repro.obs import validate_jsonl
        if validate_jsonl(path) <= 0:
            raise RuntimeError("%s is empty" % path)
    job.__name__ = "validate " + os.path.basename(path)
    return job


def jobs(work: str) -> list:
    """The audited jobs, in order, writing their files under ``work``."""
    cache = os.path.join(work, "cache")
    kvcache = os.path.join(work, "kvcache")
    tiny2 = ("--preset", "tiny", "--apps", "fft", "water-nsq", "--skip-pit",
             "--jobs", "1", "--cache-dir", cache)
    saved = [os.path.join(work, "campaign%d.json" % i) for i in (1, 2)]
    plan = os.path.join(work, "plan.json")
    live_plan = os.path.join(work, "live-plan.json")
    return [
        # tools/ci_check.sh
        _repro("evaluate", *tiny2),
        _repro("evaluate", *tiny2),
        _repro("run", "fft", "--preset", "tiny", "--no-cache",
               "--trace-out", os.path.join(work, "trace.jsonl"),
               "--metrics-out", os.path.join(work, "metrics.json")),
        _validate(os.path.join(work, "trace.jsonl")),
        _repro("run", "fft", "--preset", "tiny", "--no-cache",
               "--policy", "scoma-70"),
        _repro("trace", "fft", "--preset", "tiny", "--seed", "3",
               "--top", "3", "--out", os.path.join(work, "spans.jsonl"),
               "--chrome", os.path.join(work, "chrome.json")),
        _validate(os.path.join(work, "spans.jsonl")),
        _repro("verify", "--suite", "litmus"),
        _repro("verify", "--fuzz", "40", "--seed", "0"),
        _repro("chaos", "--seed", "7", "--rounds", "4"),
        _repro("chaos", "--seed", "7", "--rounds", "4", "--trace"),
        _write_plan(live_plan, sampled=False),
        _repro("chaos", "--seed", "7", "--rounds", "4", "--plan", live_plan),
        _repro("chaos", "--seed", "7", "--rounds", "4", "--plan", live_plan,
               "--trace"),
        _repro("chaos", "--seed", "7", "--rounds", "4", "--plan", live_plan,
               "--no-retry", code=1),
        _repro("top", "--apps", "fft", "--preset", "tiny", "--no-cache"),
        _repro("run", "kvstore", "--preset", "tiny", "--no-cache",
               "--metrics"),
        _repro("run", "kvstore", "--preset", "tiny", "--cache-dir", kvcache),
        _repro("run", "kvstore", "--preset", "tiny", "--cache-dir", kvcache,
               "--metrics"),
        _repro("chaos", "--test", "txn2pc", "--seed", "11", "--rounds", "2"),
        # The subcommands and options the script does not run.
        _repro("suite", "fft", "--preset", "tiny", "--cache-dir", cache),
        _repro("metrics", "fft", "--preset", "tiny", "--cache-dir", cache),
        _repro("metrics", "fft", "--preset", "tiny", "--cache-dir", cache,
               "--format", "csv"),
        _repro("trace", "fft", "--preset", "tiny", "--policy", "dyn-lru"),
        _repro("analyze", "fft", "--preset", "tiny"),
        _repro("microbench"),
        _repro("list"),
        # The paper's evaluation (every table and figure), then the
        # same campaign saved twice from the warm cache and compared.
        _repro("evaluate", "--preset", "tiny", "--cache-dir", cache),
        *(_repro("evaluate", "--preset", "tiny", "--cache-dir", cache,
                 "--save", path) for path in saved),
        _repro("compare", *saved),
        _repro("run", "fft", "--preset", "tiny", "--no-cache",
               "--check-invariants"),
        _repro("run", "txn2pc", "--preset", "tiny", "--no-cache",
               "--metrics"),
        _write_plan(plan, sampled=True),
        _repro("chaos", "--plan", plan, "--rounds", "2"),
        # bench/passes.py
        *(_bench_pass(name, work)
          for name in ("paper-tiny", "hot-32x8", "serving", "chaos")),
        # tests/integration/test_examples.py
        *(_example(script) for script in (
            "microbench_latency.py", "fault_containment.py",
            "page_migration.py", "message_passing.py")),
        *(_example(script, "water-spa", "tiny")
          for script in ("quickstart.py", "adaptive_policies.py")),
    ]


def reached(work: str) -> "set[tuple[str, int]]":
    """``(path, first line)`` of every ``src/repro`` code object that
    the jobs called."""
    codes = set()
    record = codes.add

    def hook(frame, _event, _arg):
        # A C call reports its caller's frame, which is already recorded.
        record(frame.f_code)

    for job in jobs(work):
        start = time.perf_counter()
        out = io.StringIO()
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                job()
        except Exception:
            print(out.getvalue(), file=sys.stderr)
            raise
        finally:
            sys.setprofile(None)
        print("  %6.1fs  %s" % (time.perf_counter() - start, job.__name__))
    prefix = PACKAGE + os.sep
    return {(os.path.relpath(code.co_filename, SRC).replace(os.sep, "/"),
             code.co_firstlineno)
            for code in codes if code.co_filename.startswith(prefix)}


def main() -> int:
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as work:
        called = reached(work)
    every = defs()
    unreached = {"%s:%s" % (path, every[path, line]): line
                 for path, line in every if (path, line) not in called}
    allowed = read_allowlist()
    problems = ["UNREACHED %s (line %d): no job calls it; delete it, or "
                "list it with a reason in tools/reach_allowlist.txt"
                % (name, unreached[name])
                for name in sorted(set(unreached) - set(allowed))]
    names = {"%s:%s" % (path, qualname)
             for (path, _line), qualname in every.items()}
    for name in sorted(set(allowed) - set(unreached)):
        problems.append(
            "REACHED %s: a job calls it now; drop its allowlist line" % name
            if name in names else
            "GONE %s: no such def; drop its allowlist line" % name)
    print("reach: %d of %d src/ functions reached, %d allowlisted"
          % (len(every) - len(unreached), len(every), len(allowed)))
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
