#!/bin/sh
# Interleaved A/B benchmark protocol for the bench harness.
#
# The measurement hosts drift by tens of percent over minutes, so
# back-to-back "all of A, then all of B" runs are worthless.  This
# script interleaves the two sides in alternating batches within one
# sequential process stream — per batch it runs A then B, each side
# doing WARMUPS+RUNS warm re-runs of the selected experiment via the
# harness's `--time` mode (which prints one `time <id> <i> <secs>` line
# per re-run after a warm-up pass) — then pools the per-side samples
# across batches and reports the median of each pool plus the ratio.
#
# Usage:
#   tools/bench_compare.sh OLD_EXE NEW_EXE EXPERIMENT_ID [extra args...]
#
#   OLD_EXE / NEW_EXE   bench/main.exe binaries for the two trees, e.g.
#                       a baseline worktree's _build/default/bench/main.exe
#                       and this tree's.
#   EXPERIMENT_ID       experiment id as listed by `pibe experiment list`
#                       (e.g. table1, sensitivity, online, fleet — the
#                       fleet experiment times the whole sharded-merge +
#                       staged-rollout pipeline; pair it with --jobs N to
#                       compare parallel configurations).
#   extra args          forwarded to both sides (e.g. --quick, --jobs 4).
#
# Knobs (environment): BATCHES (default 3), RUNS (default 3, timed
# re-runs per side per batch).  Output: per-batch sample lines, then a
# JSON fragment on stdout suitable for pasting into a BENCH_PR*.json
# "experiments" entry.
#
# Null control (A/A): pass the SAME binary as both OLD_EXE and NEW_EXE
# to measure the protocol's noise floor on the current host — the
# reported "speedup" of an A/A run is pure drift, and no A/B ratio
# closer to 1.0 than that deviation is resolvable at the same BATCHES
# x RUNS.  Record the null control next to any headline number
# (BENCH_PR10.json does this for table1).
#
# To build the OLD side without disturbing this tree:
#   git worktree add /tmp/pr9 <baseline-commit>
#   (cd /tmp/pr9 && dune build bench/main.exe)
# and pass /tmp/pr9/_build/default/bench/main.exe as OLD_EXE.
set -eu

if [ $# -lt 3 ]; then
  echo "usage: $0 OLD_EXE NEW_EXE EXPERIMENT_ID [extra args...]" >&2
  exit 2
fi

OLD_EXE=$1
NEW_EXE=$2
ID=$3
shift 3

BATCHES=${BATCHES:-3}
RUNS=${RUNS:-3}

for exe in "$OLD_EXE" "$NEW_EXE"; do
  if [ ! -x "$exe" ]; then
    echo "error: $exe is not an executable" >&2
    exit 2
  fi
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# One side of one batch runs the harness in --time mode and keeps only
# the per-re-run second counts for the requested experiment.
b=1
while [ "$b" -le "$BATCHES" ]; do
  "$OLD_EXE" --only "$ID" --time "$RUNS" "$@" 2>/dev/null </dev/null \
    | awk -v id="$ID" '$1 == "time" && $2 == id { print $4 }' >>"$tmp/old"
  "$NEW_EXE" --only "$ID" --time "$RUNS" "$@" 2>/dev/null </dev/null \
    | awk -v id="$ID" '$1 == "time" && $2 == id { print $4 }' >>"$tmp/new"
  echo "batch $b/$BATCHES done: old=[$(paste -sd, "$tmp/old")] new=[$(paste -sd, "$tmp/new")]" >&2
  b=$((b + 1))
done

median() { # $1 file
  sort -g "$1" | awk '{ a[NR] = $1 }
    END {
      if (NR == 0) { print "nan"; exit 1 }
      if (NR % 2) print a[(NR + 1) / 2]
      else printf "%.6f\n", (a[NR / 2] + a[NR / 2 + 1]) / 2
    }'
}

old_med=$(median "$tmp/old")
new_med=$(median "$tmp/new")
ratio=$(awk -v o="$old_med" -v n="$new_med" 'BEGIN { printf "%.3f", o / n }')

cat <<EOF
{
  "id": "$ID",
  "batches": $BATCHES,
  "runs_per_side_per_batch": $RUNS,
  "old_samples_s": [$(paste -sd, "$tmp/old")],
  "new_samples_s": [$(paste -sd, "$tmp/new")],
  "old_median_s": $old_med,
  "new_median_s": $new_med,
  "speedup": $ratio
}
EOF
