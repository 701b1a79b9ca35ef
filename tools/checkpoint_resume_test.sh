#!/usr/bin/env bash
# Kill-and-resume equivalence, end to end through the CLI:
#  1. run the megathrust scenario uninterrupted to END_TIME,
#  2. start the same run with periodic checkpointing and SIGKILL it right
#     after the first checkpoint appears (simulating a mid-run crash),
#  3. resume from that checkpoint to END_TIME,
#  4. assert the receiver CSVs and the VTK wavefield and sea-surface files
#     of (1) and (3) are byte-identical.  The VTK holds every DOF-derived
#     cell value and every eta exactly (binary doubles), so this checks
#     that the resumed run ends in the uninterrupted run's full state.
# Usage: checkpoint_resume_test.sh <path-to-tsunamigen_cli> <workdir>
set -u

CLI=$1
DIR=$2
END_TIME=0.6
ROOT=$(cd "$(dirname "$0")/.." && pwd)
rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

common() {
  printf 'preset = %s\ndegree = 2\nsnapshots = 1\nvtk_output = true\n' \
    "$ROOT/examples/presets/megathrust.cfg"
}

# 1. Uninterrupted reference run.
{ common; printf 'end_time = %s\noutput_prefix = full\n' "$END_TIME"; } > full.cfg
"$CLI" full.cfg > full.out 2>&1 || { cat full.out >&2; fail "reference run failed"; }
[ -f full_receiver_water.csv ] || fail "reference run wrote no receiver CSV"

# 2. Interrupted run: long end_time (it will never get there), checkpoint
#    every 0.3 s of simulated time, SIGKILL after the first checkpoint.
{ common; printf 'end_time = 30\noutput_prefix = part\ncheckpoint_interval = 0.3\nkeep_checkpoints = 8\n'; } > part.cfg
"$CLI" part.cfg > part.out 2>&1 &
PID=$!
CKPT=""
for _ in $(seq 1 600); do
  CKPT=$(ls part_ckpt_*.tsgck 2>/dev/null | sort -t_ -k3 -n | head -n1)
  [ -n "$CKPT" ] && break
  kill -0 "$PID" 2>/dev/null || fail "interrupted run exited before checkpointing: $(cat part.out)"
  sleep 0.2
done
[ -n "$CKPT" ] || fail "no checkpoint appeared within the timeout"
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null

# The checkpoint must be from before END_TIME, or the resumed run cannot
# reproduce the reference (first checkpoint is at t = 0.3 < 0.6).
echo "resuming from $CKPT"

# 3. Resume to the reference end time.
{ common; printf 'end_time = %s\noutput_prefix = res\nresume = %s\n' "$END_TIME" "$CKPT"; } > res.cfg
"$CLI" res.cfg > res.out 2>&1 || { cat res.out >&2; fail "resumed run failed"; }
grep -q "resumed from" res.out || fail "resumed run did not report the restore"

# 4. Byte-identical receiver and VTK output.
for r in water crust; do
  cmp "full_receiver_$r.csv" "res_receiver_$r.csv" \
    || fail "receiver $r differs between uninterrupted and resumed runs"
done
for v in wavefield surface; do
  [ -f "full_$v.vtk" ] || fail "reference run wrote no $v VTK"
  cmp "full_$v.vtk" "res_$v.vtk" \
    || fail "$v VTK differs between uninterrupted and resumed runs"
done

echo "checkpoint_resume: OK (resumed from $CKPT, receivers and VTK byte-identical)"
