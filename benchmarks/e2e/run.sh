#!/usr/bin/env bash
# The one command: every workload, untraced then traced, every metric
# printed by name with its unit.  Extra arguments go to run.py
# (`run.sh --seed 7`); TRACES picks the passes (`TRACES=0 run.sh --smoke`
# is the 20-second check).
set -u
cd "$(dirname "$0")/../.."
status=0
for workload in ieee118_session ieee118_live_tcp wecc37_condensed serve_burst; do
    for trace in ${TRACES:-0 1}; do
        python3 benchmarks/e2e/run.py --workload "$workload" --trace "$trace" "$@" \
            || status=1
    done
done
exit $status
