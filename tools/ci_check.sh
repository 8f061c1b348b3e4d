#!/usr/bin/env bash
# CI gate: tier-1 tests + a 2-worker mini-campaign smoke test.
#
# Usage: tools/ci_check.sh [extra pytest args...]
#
# The smoke test runs a real two-application campaign through the
# parallel scheduler twice against a throwaway cache directory: the
# first pass exercises the multiprocessing pool end-to-end, the second
# must be served entirely from the result cache and its rendered output
# must be byte-identical to the first.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== tier-1 tests =="
# Line-coverage floor rides along when pytest-cov is available; the CI
# image may not ship it, so gate on the import and never install here.
if python -c "import pytest_cov" 2> /dev/null; then
    python -m pytest -x -q \
        --cov=repro --cov-fail-under=80 --cov-report=term:skip-covered "$@"
else
    echo "pytest-cov not installed; skipping the 80% coverage floor"
    python -m pytest -x -q "$@"
fi

echo "== 2-worker mini-campaign smoke test =="
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

python -m repro evaluate --preset tiny --apps fft water-nsq --skip-pit \
    --jobs 2 --cache-dir "$workdir/cache" > "$workdir/cold.txt"
python -m repro evaluate --preset tiny --apps fft water-nsq --skip-pit \
    --jobs 2 --cache-dir "$workdir/cache" > "$workdir/warm.txt"

# Strip the nondeterministic progress/wall-clock lines, then the two
# campaign reports must match byte for byte.
for f in cold warm; do
    grep -v -e '^  \[' -e '^campaign:' "$workdir/$f.txt" > "$workdir/$f.tables"
done
if ! diff -u "$workdir/cold.tables" "$workdir/warm.tables"; then
    echo "FAIL: warm-cache campaign diverged from the cold run" >&2
    exit 1
fi
if ! grep -q 'cached' "$workdir/warm.txt"; then
    echo "FAIL: warm run did not hit the result cache" >&2
    exit 1
fi

echo "== observability smoke test =="
python -m repro run fft --preset tiny --no-cache \
    --trace-out "$workdir/trace.jsonl" \
    --metrics-out "$workdir/metrics.json" > /dev/null
python - "$workdir" <<'EOF'
import json
import sys

workdir = sys.argv[1]
from repro.obs import validate_jsonl

events = validate_jsonl(workdir + "/trace.jsonl")
assert events > 0, "trace.jsonl is empty"
# Each kind comes from its own probe point: a point that stops firing
# leaves its kind out of the trace.
kinds = {json.loads(line)["kind"] for line in open(workdir + "/trace.jsonl")}
missing = {"access", "fault"} - kinds
assert not missing, "fft/scoma trace has no %s events" % sorted(missing)

snapshot = json.load(open(workdir + "/metrics.json"))
cell = snapshot["fft/scoma"]
assert cell is not None, "metrics.json has no snapshot for the cell"
families = sum(len(cell[s]) for s in
               ("counters", "gauges", "histograms", "series"))
assert families > 0, "metrics snapshot is empty"
print("observability smoke: %d events, %d metric families OK"
      % (events, families))
EOF
echo "== causal tracing smoke: record, validate, deterministic ids =="
# Record the same traced cell twice: the span exports must validate
# (schema + causal integrity) and be byte-identical across runs —
# span ids are derived from seeds, never from wall clock or id().
python -m repro trace fft --preset tiny --seed 3 --top 3 \
    --out "$workdir/spans1.jsonl" --chrome "$workdir/chrome.json" \
    > "$workdir/trace1.txt"
python -m repro trace fft --preset tiny --seed 3 --top 3 \
    --out "$workdir/spans2.jsonl" > /dev/null
if ! diff -u "$workdir/spans1.jsonl" "$workdir/spans2.jsonl"; then
    echo "FAIL: same-seed traced runs exported different span ids" >&2
    exit 1
fi
python - "$workdir" <<'EOF'
import json
import sys

workdir = sys.argv[1]
from repro.obs.tracing import validate_spans_jsonl

spans = validate_spans_jsonl(workdir + "/spans1.jsonl")
assert spans > 0, "span export is empty"
chrome = json.load(open(workdir + "/chrome.json"))
assert chrome["traceEvents"], "chrome export has no trace events"
report = open(workdir + "/trace1.txt").read()
assert "= duration" in report, "trace report lost the sum==duration check"
print("tracing smoke: %d spans validated, chrome export OK" % spans)
EOF

echo "== tracing overhead gate (hot loop, 15% tolerance) =="
python tools/trace_overhead.py

echo "== protocol conformance: litmus suite + fixed-seed fuzz smoke =="
python -m repro verify --suite litmus
python -m repro verify --fuzz 40 --seed 0

echo "== chaos smoke: seeded fault-injection campaign, twice, then traced =="
# The campaign must pass (every verdict acceptable) and be perfectly
# reproducible: two invocations with the same seed diff clean.
python -m repro chaos --seed 7 --rounds 4 > "$workdir/chaos1.txt"
python -m repro chaos --seed 7 --rounds 4 > "$workdir/chaos2.txt"
if ! diff -u "$workdir/chaos1.txt" "$workdir/chaos2.txt"; then
    echo "FAIL: chaos campaign is not reproducible across invocations" >&2
    exit 1
fi
# Hop spans are a send probe wrapped around the fault plane's: tracing
# must not change a single verdict.
python -m repro chaos --seed 7 --rounds 4 --trace > "$workdir/chaos3.txt"
if ! diff -u "$workdir/chaos1.txt" "$workdir/chaos3.txt"; then
    echo "FAIL: tracing perturbs the chaos campaign" >&2
    exit 1
fi

echo "== live dashboard smoke =="
python -m repro top --apps fft --preset tiny --no-cache > "$workdir/top.txt"
grep -q 'fft' "$workdir/top.txt" || {
    echo "FAIL: repro top produced no cells" >&2
    exit 1
}

echo "== serving smoke: kvstore metrics + seeded txn2pc chaos =="
# A tiny kvstore cell's serving summary must report request latency.
python -m repro run kvstore --preset tiny --no-cache --metrics \
    > "$workdir/kv.txt"
grep -q 'p50=' "$workdir/kv.txt" || {
    echo "FAIL: kvstore --metrics reported no request latency" >&2
    exit 1
}
# A plain run fills a cache entry without a metrics snapshot; that
# entry must not serve a later --metrics run (no silent downgrade).
python -m repro run kvstore --preset tiny --cache-dir "$workdir/kvcache" \
    > /dev/null
python -m repro run kvstore --preset tiny --cache-dir "$workdir/kvcache" \
    --metrics > "$workdir/kv-warm.txt"
grep -q 'p50=' "$workdir/kv-warm.txt" || {
    echo "FAIL: a plain cache entry served kvstore --metrics" >&2
    exit 1
}
# One seeded 2PC chaos round, twice: verdicts must be acceptable and
# the reports byte-identical.
python -m repro chaos --test txn2pc --seed 11 --rounds 2 \
    > "$workdir/2pc1.txt"
python -m repro chaos --test txn2pc --seed 11 --rounds 2 \
    > "$workdir/2pc2.txt"
if ! diff -u "$workdir/2pc1.txt" "$workdir/2pc2.txt"; then
    echo "FAIL: txn2pc chaos campaign is not reproducible" >&2
    exit 1
fi

echo "== benchmark smoke: four workloads, quick, untraced and traced =="
# Every output digest must match bench/reference, and the untraced and
# traced runs must agree on outputs and exact counters.
bash bench/smoke.sh

echo "== exact benchmark gate: call counts, counters and digests =="
# The traced smoke runs must match tools/bench_reference exactly:
# every layer's calls_per_kitem, every exact counter and every output
# digest.  Any difference is REGRESSED.  To re-record after a change
# that moves them on purpose, run bash bench/smoke.sh, then
#   cp bench/results/smoke/*-trace.json tools/bench_reference/
# and quote the old and new calls_per_kitem in CHANGES.md.
python3 bench/compare.py tools/bench_reference/*.json \
    -- bench/results/smoke/*-trace.json

echo "== wall-clock floor: hot-32x8 --quick work_per_s =="
# The exact gate cannot see a slower data structure that keeps the
# same call count, so one coarse wall-clock check stays.  When the
# floor was set, ten runs of
# `bench/run.py --quick --seconds 0 --workload hot-32x8` on a shared
# 2-vCPU x86-64 host (CPython 3.11) read 145K-185K refs/s.
# The floor is 0.75 x their minimum (145146): 0.75 is one minus the
# 0.25 work_per_s bound in BENCHMARK.json.
python3 - <<'EOF'
import json
import sys

FLOOR = 108859
result = json.load(open("bench/results/smoke/hot-32x8-seed0-quick.json"))
rate = result["metrics"]["work_per_s"]["value"]
print("hot-32x8 work_per_s %.0f (floor %d)" % (rate, FLOOR))
if rate < FLOOR:
    sys.exit("FAIL: hot-32x8 work_per_s is below the floor")
EOF

echo "== cold-start ceiling: chaos --quick setup_s =="
# tests/test_cold_start.py keeps numpy and multiprocessing out of a
# plain launch and numpy out of every workload; this catches any other
# heavy import that creeps in.
# When the ceiling was set, ten runs of
# `bench/run.py --quick --seconds 0 --workload chaos` on a shared
# 2-vCPU x86-64 host (CPython 3.11) read setup_s 0.140-0.211 s.
# The ceiling is 1.25 x their maximum (0.2113 s): 1.25 is one plus
# the 0.25 setup_s bound in BENCHMARK.json.
python3 - <<'EOF'
import json
import sys

CEILING = 0.264
result = json.load(open("bench/results/smoke/chaos-seed0-quick.json"))
setup = result["metrics"]["setup_s"]["value"]
print("chaos setup_s %.3f s (ceiling %.3f s)" % (setup, CEILING))
if setup > CEILING:
    sys.exit("FAIL: chaos setup_s is above the cold-start ceiling")
EOF

echo "== campaign-memory ceiling: paper-tiny --quick peak_rss_mb =="
# Every campaign cell closes its machine (Machine.close), so one cell's
# model is live at a time; a finished machine left as a reference
# cycle waits for the cyclic GC and the peak grows with the campaign.
# When the ceiling was set, ten runs of
# `bench/run.py --quick --seconds 0 --workload paper-tiny` on a shared
# 2-vCPU x86-64 host (CPython 3.11) read peak_rss_mb 26.35-26.48 MB
# (42.64-42.79 MB with finished machines left to the GC).
# The ceiling is 1.15 x their maximum (26.48 MB): 1.15 is one plus the
# 0.15 peak_rss_mb bound in BENCHMARK.json.
python3 - <<'EOF'
import json
import sys

CEILING = 30.45
result = json.load(open("bench/results/smoke/paper-tiny-seed0-quick.json"))
rss = result["metrics"]["peak_rss_mb"]["value"]
print("paper-tiny peak_rss_mb %.2f MB (ceiling %.2f MB)" % (rss, CEILING))
if rss > CEILING:
    sys.exit("FAIL: paper-tiny peak_rss_mb is above the campaign-memory "
             "ceiling")
EOF

echo "== serving-memory ceiling: serving --quick peak_rss_mb =="
# Per-line bookkeeping is ints and short lists (presence bitmasks, one
# shared empty sharer set, packed directory-cache keys, list LRU sets),
# and the workloads draw their inputs without numpy.
# When the ceiling was set, ten runs of
# `bench/run.py --quick --seconds 0 --workload serving` on a shared
# 2-vCPU x86-64 host (CPython 3.11) read peak_rss_mb 27.17-27.44 MB
# (42.75-42.88 MB while kvstore imported numpy; 45.11-45.22 MB with a
# container per line as well).  tests/sim/test_line_bookkeeping.py
# bounds the per-line bookkeeping with tracemalloc.
# The ceiling is 1.15 x their maximum (27.44 MB): 1.15 is one plus the
# 0.15 peak_rss_mb bound in BENCHMARK.json.
python3 - <<'EOF'
import json
import sys

CEILING = 31.56
result = json.load(open("bench/results/smoke/serving-seed0-quick.json"))
rss = result["metrics"]["peak_rss_mb"]["value"]
print("serving peak_rss_mb %.2f MB (ceiling %.2f MB)" % (rss, CEILING))
if rss > CEILING:
    sys.exit("FAIL: serving peak_rss_mb is above the serving-memory "
             "ceiling")
EOF

echo "== sweep-memory ceiling: hot-32x8 --quick peak_rss_mb =="
# The synthetic workload keeps only its seeded draws, builds each
# sweep's ops from the write flags and imports no numpy.
# When the ceiling was set, ten runs of
# `bench/run.py --quick --seconds 0 --workload hot-32x8` on a shared
# 2-vCPU x86-64 host (CPython 3.11) read peak_rss_mb 32.46-32.75 MB
# (48.20-48.23 MB while it imported numpy).
# tests/workloads/test_synthetic.py bounds the sweep's own memory with
# tracemalloc.
# The ceiling is 1.15 x their maximum (32.75 MB): 1.15 is one plus the
# 0.15 peak_rss_mb bound in BENCHMARK.json.
python3 - <<'EOF'
import json
import sys

CEILING = 37.66
result = json.load(open("bench/results/smoke/hot-32x8-seed0-quick.json"))
rss = result["metrics"]["peak_rss_mb"]["value"]
print("hot-32x8 peak_rss_mb %.2f MB (ceiling %.2f MB)" % (rss, CEILING))
if rss > CEILING:
    sys.exit("FAIL: hot-32x8 peak_rss_mb is above the sweep-memory "
             "ceiling")
EOF

echo "== benchmark tests =="
python3 -m pytest bench/tests -q

echo "ci_check: OK"
