#!/usr/bin/env bash
# Ensemble engine smoke, end to end through both drivers:
#  0. --dry-run validates every member's run options (a negative
#     `threads` on one sweep axis value exits 2), a malformed --workers
#     value is rejected (exit 2), the deleted --fleet-perf /
#     --no-share-assets options are rejected (exit 2), and every shipped
#     examples/sweeps/*.cfg expands with no config_unknown_key warning,
#  1. expand and run a 4-member quickstart sweep (kernel_path x
#     batch_size -- non-structural axes, so all members must share ONE
#     SimulationAssets build), with the fleet status roll-up on,
#  2. assert the tsg-hazard-1 surface, the tsg-status-1 fleet file and
#     the members' own status counters (per run, not fleet totals),
#  3. re-run one expanded member config through the standalone CLI and
#     assert its receiver CSVs are byte-identical to the ensemble's,
#  4. SIGKILL a second ensemble mid-run, re-launch it (auto-resume from
#     the members' own checkpoints), and assert the resumed receivers
#     are byte-identical to a from-scratch --no-resume recompute.
# Usage: ensemble_smoke_test.sh <tsunamigen_ensemble> <tsunamigen_cli> <workdir>
set -u

ENSEMBLE=$1
CLI=$2
DIR=$3
ROOT=$(cd "$(dirname "$0")/.." && pwd)
rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

sweep_cfg() {  # sweep_cfg <prefix>
  cat <<EOF
preset = $ROOT/examples/presets/quickstart.cfg
degree = 2
end_time = 0.4
snapshots = 1
vtk_output = false
checkpoint_interval = 0.1
output_prefix = $1

[ensemble]
workers = 2

[[sweep]]
key    = kernel_path
values = reference, batched

[[sweep]]
key    = batch_size
values = 0, 8
EOF
}

# ---- 0. dry-run validation and removed options ----------------------
sweep_cfg ens > sweep.cfg
{ sweep_cfg bad; printf '\n[[sweep]]\nkey    = threads\nvalues = 1, -1\n'; } \
  > bad_threads.cfg
"$ENSEMBLE" --dry-run bad_threads.cfg > dry_bad.out 2>&1
rc=$?
[ "$rc" -eq 2 ] || { cat dry_bad.out >&2; fail "--dry-run with threads = -1: exit $rc, expected 2"; }
grep -q "threads must be >= 0" dry_bad.out \
  || { cat dry_bad.out >&2; fail "--dry-run did not name the bad threads value"; }
"$ENSEMBLE" --dry-run sweep.cfg > dry_ok.out 2>&1 \
  || { cat dry_ok.out >&2; fail "--dry-run of the valid sweep failed"; }
# Malformed --workers values, all under --dry-run so no worker starts.
for opt in --workers=2x --workers=; do
  "$ENSEMBLE" "$opt" --dry-run sweep.cfg > workers.out 2>&1
  rc=$?
  [ "$rc" -eq 2 ] || { cat workers.out >&2; fail "$opt: exit $rc, expected 2"; }
  grep -q "workers must be a positive integer" workers.out \
    || { cat workers.out >&2; fail "$opt not reported as a bad worker count"; }
done
for opt in --fleet-perf --no-share-assets; do
  "$ENSEMBLE" "$opt" --dry-run sweep.cfg > removed.out 2>&1
  rc=$?
  [ "$rc" -eq 2 ] || { cat removed.out >&2; fail "$opt: exit $rc, expected 2"; }
  grep -q "unknown option" removed.out \
    || { cat removed.out >&2; fail "$opt not reported as an unknown option"; }
done
# The shipped sweeps use CWD-relative paths, so they run from the root.
for cfg in "$ROOT"/examples/sweeps/*.cfg; do
  name=examples/sweeps/${cfg##*/}
  (cd "$ROOT" && "$ENSEMBLE" --dry-run "$name") > sweep_dry.out 2>&1 \
    || { cat sweep_dry.out >&2; fail "--dry-run of $name failed"; }
  if grep -q config_unknown_key sweep_dry.out; then
    cat sweep_dry.out >&2
    fail "$name carries a key no run reads"
  fi
done
echo "dry-run validation + bad --workers + removed options + example sweeps: OK"

# ---- 1. clean 4-member sweep ----------------------------------------
"$ENSEMBLE" --status sweep.cfg > ens.out 2>&1 \
  || { cat ens.out >&2; fail "ensemble run failed"; }

# ---- 2. hazard surface + fleet status schemas -----------------------
python3 - <<'EOF' || fail "hazard/status artifacts invalid"
import json

h = json.load(open("ens_hazard.json"))
assert h["schema"] == "tsg-hazard-1", h["schema"]
assert h["members_total"] == 4 and h["members_ok"] == 4, h
assert h["asset_builds"] == 1, ("expected ONE shared asset build",
                                h["asset_builds"])
assert h["asset_cache_hits"] == 3, h["asset_cache_hits"]
assert {a["key"] for a in h["sweep_axes"]} == {"kernel_path", "batch_size"}
names = {r["name"] for r in h["receivers"]}
assert names == {"water", "crust"}, names
for r in h["receivers"]:
    assert r["members"] == 4, r
    for q in ("min", "p25", "median", "p75", "max"):
        assert q in r["max_abs_pressure"], r
for m in h["members"]:
    assert m["ok"] and not m["resumed"], m
    assert m["config_hash"].startswith("0x"), m
    assert m["scenario_hash"].startswith("0x"), m
hashes = {m["asset_hash"] for m in h["members"]}
assert len(hashes) == 1, ("members disagree on the shared asset", hashes)

s = json.load(open("ens_fleet_status.json"))
assert s["schema"] == "tsg-status-1", s["schema"]
assert s["state"] == "done" and s["members_done"] == 4, s
assert len(s["members"]) == 4
assert "fleet_perf" not in s, s

# Each member's heartbeat counts that member alone: 42 macro cycles and
# 4 checkpoints (end_time 0.4, checkpoint_interval 0.1), whatever the
# other members sharing the process did.
for k in range(4):
    c = json.load(open(f"ens_member_{k}_status.json"))["counters"]
    assert c["solver.macro_cycles"] == 42, (k, c)
    assert c["checkpoint.saves"] == 4, (k, c)
print("hazard + fleet status OK: 4/4 members, 1 asset build, 3 hits")
EOF

# ---- 3. member == standalone CLI, byte for byte ---------------------
for r in water crust; do
  cp "ens_member_2_receiver_$r.csv" "keep_$r.csv"
done
"$CLI" ens_member_2.cfg > standalone.out 2>&1 \
  || { cat standalone.out >&2; fail "standalone member re-run failed"; }
for r in water crust; do
  cmp "ens_member_2_receiver_$r.csv" "keep_$r.csv" \
    || fail "receiver $r differs between ensemble and standalone CLI runs"
done
echo "standalone equivalence: OK (member 2 byte-identical)"

# ---- 4. SIGKILL mid-run, auto-resume, byte-compare ------------------
sweep_cfg kill > kill.cfg
"$ENSEMBLE" kill.cfg > kill1.out 2>&1 &
PID=$!
CKPT=""
for _ in $(seq 1 600); do
  CKPT=$(ls kill_member_*_ckpt_*.tsgck 2>/dev/null | head -n1)
  [ -n "$CKPT" ] && break
  kill -0 "$PID" 2>/dev/null || fail "kill-leg ensemble exited early: $(cat kill1.out)"
  sleep 0.2
done
[ -n "$CKPT" ] || fail "no member checkpoint appeared within the timeout"
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null

"$ENSEMBLE" kill.cfg > kill2.out 2>&1 \
  || { cat kill2.out >&2; fail "resumed ensemble failed"; }
grep -q "resumed from" kill2.out || fail "no member reported a resume"
for k in 0 1 2 3; do
  for r in water crust; do
    cp "kill_member_${k}_receiver_$r.csv" "resumed_${k}_$r.csv"
  done
done

# From-scratch recompute of the same sweep, ignoring the checkpoints.
"$ENSEMBLE" --no-resume kill.cfg > kill3.out 2>&1 \
  || { cat kill3.out >&2; fail "fresh recompute failed"; }
for k in 0 1 2 3; do
  for r in water crust; do
    cmp "kill_member_${k}_receiver_$r.csv" "resumed_${k}_$r.csv" \
      || fail "member $k receiver $r differs between resumed and fresh runs"
  done
done
echo "ensemble_smoke: OK (4 members, SIGKILL+resume byte-identical)"
