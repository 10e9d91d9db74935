#!/usr/bin/env bash
# Repo verification: tier-1 tests, end-to-end benchmark smoke, example smokes.
#
#   scripts/verify.sh            # tier-1 pytest, e2e benchmark smoke, examples
#   scripts/verify.sh --fast     # quickstart smoke only
#
# Mirrors the tier-1 gate in ROADMAP.md; run it before every commit.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${1:-}" != "--fast" ]]; then
    echo "== tier-1 test suite =="
    python -m pytest -x -q

    echo "== end-to-end benchmark: harness tests + smoke run (in-run checks) =="
    python -m pytest -q benchmarks/e2e
    TRACES=0 benchmarks/e2e/run.sh --smoke

    # tier-1 does not collect benchmarks/, and this is the only
    # direct-socket-vs-relay measurement left (paper Table III, ~3 s)
    echo "== paper Table III: direct socket vs the hub (shape checks) =="
    python -m pytest -q benchmarks/bench_table3_middleware_local.py --benchmark-disable
fi

echo "== metric-name taxonomy lint =="
python scripts/check_metric_names.py

# Example smokes run with ResourceWarning as an error, so an unclosed hub or
# link socket (or file) fails the check.  Most such warnings fire inside a
# destructor, where Python can only print "Exception ignored ...
# ResourceWarning" and carry on — hence the grep on stderr.
smoke() {
    local log rc=0
    log=$(mktemp)
    python -W error::ResourceWarning "$@" 2> "$log" || rc=$?
    cat "$log" >&2
    if grep -q ResourceWarning "$log"; then
        echo "verify: ResourceWarning from: $*" >&2
        rc=1
    fi
    rm -f "$log"
    return $rc
}

echo "== quickstart smoke =="
smoke examples/quickstart.py

echo "== scenario serving smoke (tiny batch) =="
smoke examples/serve_scenarios.py --tiny

echo "== middleware round-trip smoke (inproc + localhost TCP) =="
smoke examples/middleware_roundtrip.py

echo "== observability smoke (traces across workers + TCP mux hop) =="
smoke examples/observability_demo.py

echo "== chaos smoke (seeded fault plan, typed hop faults, degraded live run) =="
smoke examples/chaos_demo.py

echo "== batch sweep smoke (copy-on-write forks + SIMD batch solves) =="
smoke examples/batch_sweep.py

echo "== condensed DSE smoke (Schur-reduced Step-2 exchange and solve) =="
smoke examples/condensed_dse.py

echo "== sharded serving smoke (hash-ring router, drain, no loss) =="
smoke examples/serve_sharded.py --tiny

echo "== health plane smoke (watchdog, SLO burn, blackbox) =="
smoke examples/health_demo.py

echo "== recovery smoke (site kill, lease expiry, epoch-fenced failover) =="
smoke examples/recovery_demo.py

echo "verify: OK"
