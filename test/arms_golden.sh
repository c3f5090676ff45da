#!/bin/sh
# arms_golden.sh SEUSSCTL ROW ARGS...: run `SEUSSCTL ROW ARGS...` twice
# with every SEUSS_* variable pinned off, and write its plain output to
# arms-ROW.out and its output under the 1% fault plan to
# arms-ROW.fault.out. test/dune diffs each against its committed golden
# (test/arms_golden/ROW.txt and ROW.fault.txt), and test_arms checks that
# its in-process run of the row prints the same bytes.
set -e
seussctl=$1
row=$2
shift 2
for v in SHUFFLE_SEED CHECK FAULT_RATE FAULT_SEED PREFAULT SNAP_CACHE \
  SNAP_POLICY; do
  export SEUSS_$v=0
done
"$seussctl" "$row" "$@" > "arms-$row.out"
SEUSS_FAULT_RATE=0.01 "$seussctl" "$row" "$@" > "arms-$row.fault.out"
