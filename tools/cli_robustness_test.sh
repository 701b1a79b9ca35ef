#!/usr/bin/env bash
# CLI exit-code contract and failure-mode artifacts:
#   exit 0  a removed config key only warns (config_unknown_key)
#   exit 2  configuration errors (invalid values, trailing garbage, typos)
#   exit 3  solver divergence (+ *_failure.vtk and *_incident.json)
#   exit 4  I/O failures (missing/corrupt checkpoint, unwritable output)
# and, for the sweep driver, that a key of [ensemble] or [[sweep]] that no
# expansion reads warns (config_unknown_key) under its qualified name.
# Usage: cli_robustness_test.sh <path-to-tsunamigen_cli> <workdir>
#                               <path-to-tsunamigen_ensemble>
set -u

CLI=$1
DIR=$2
ENSEMBLE=$3
ROOT=$(cd "$(dirname "$0")/.." && pwd)
QS="$ROOT/examples/presets/quickstart.cfg"
rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect_exit <code> <label> <cfg> [cli options...]
expect_exit() {
  local expected=$1
  local label=$2
  local cfg=$3
  shift 3
  "$CLI" "$@" "$cfg" >"$label.out" 2>"$label.err"
  local code=$?
  if [ "$code" -ne "$expected" ]; then
    cat "$label.err" >&2
    fail "$label: expected exit $expected, got $code"
  fi
}

# --- exit 2: configuration errors ------------------------------------------
printf 'preset = %s\nend_time = -10\n' "$QS" > neg_time.cfg
expect_exit 2 neg_time neg_time.cfg
grep -q "end_time" neg_time.err || fail "neg_time: message does not name the key"

printf 'preset = %s\nend_time = 10.0abc\n' "$QS" > garbage.cfg
expect_exit 2 garbage garbage.cfg

printf 'preset = %s\ndegree = 9\nend_time = 1\n' "$QS" > degree.cfg
expect_exit 2 degree degree.cfg

printf 'preset = %s\nsnapshots = 0\nend_time = 1\n' "$QS" > snaps.cfg
expect_exit 2 snaps snaps.cfg

# Compiled-in scenario classes are gone: `scenario =` is a hard error
# pointing at presets.
printf 'scenario = quickstart\nend_time = 1\n' > scen.cfg
expect_exit 2 scen scen.cfg
grep -q "preset" scen.err || fail "scen: message does not point at presets"

# No scenario source at all is an error, not a silent zero-element run.
printf 'end_time = 1\n' > nosource.cfg
expect_exit 2 nosource nosource.cfg

# The roofline/drift report was removed; its flag is an unknown option.
printf 'preset = %s\nend_time = 0.1\nvtk_output = false\n' "$QS" > removed_flag.cfg
expect_exit 2 removed_flag removed_flag.cfg --model-check
grep -q "unknown option" removed_flag.err \
  || fail "removed_flag: no 'unknown option' diagnostic"

# The `deterministic` key was removed (every run is bitwise reproducible
# across thread counts): a config that still sets it runs and gets the
# ordinary unknown-key warning.
printf 'preset = %s
degree = 1
end_time = 0.05
snapshots = 1
vtk_output = false
output_prefix = det
deterministic = true
' "$QS" > removed_key.cfg
expect_exit 0 removed_key removed_key.cfg
grep -q "config_unknown_key: unknown configuration key 'deterministic'" removed_key.err \
  || fail "removed_key: no config_unknown_key warning naming 'deterministic'"

# A typo in a sweep driver section is reported, not silently dropped: the
# dry-run still succeeds, but names the key with its section.
printf 'preset = %s
end_time = 0.05
output_prefix = typo
[ensemble]
workrs = 2
[[sweep]]
key = cfl_fraction
values = 0.3, 0.35
' "$QS" > ensemble_typo.cfg
"$ENSEMBLE" --dry-run ensemble_typo.cfg > ensemble_typo.out 2> ensemble_typo.err \
  || { cat ensemble_typo.err >&2; fail "ensemble_typo: dry-run failed"; }
grep -q "config_unknown_key: unknown configuration key 'ensemble.workrs'" ensemble_typo.err \
  || { cat ensemble_typo.err >&2; fail "ensemble_typo: no warning naming 'ensemble.workrs'"; }

printf 'preset = %s
end_time = 0.05
output_prefix = extra
[[sweep]]
key = cfl_fraction
values = 0.3, 0.35
valuse = 0.4
' "$QS" > sweep_extra.cfg
"$ENSEMBLE" --dry-run sweep_extra.cfg > sweep_extra.out 2> sweep_extra.err \
  || { cat sweep_extra.err >&2; fail "sweep_extra: dry-run failed"; }
grep -q "config_unknown_key: unknown configuration key 'sweep\[0\].valuse'" sweep_extra.err \
  || { cat sweep_extra.err >&2; fail "sweep_extra: no warning naming 'sweep[0].valuse'"; }

# --- exit 4: I/O failures ---------------------------------------------------
printf 'preset = %s\nend_time = 1\nresume = missing.tsgck\n' "$QS" > noresume.cfg
expect_exit 4 noresume noresume.cfg

printf 'not a checkpoint at all, just text padding to pass the size check....' > bad.tsgck
printf 'preset = %s\nend_time = 1\nresume = bad.tsgck\n' "$QS" > badresume.cfg
expect_exit 4 badresume badresume.cfg
grep -q "magic" badresume.err || fail "badresume: expected a bad-magic diagnostic"

printf 'preset = %s\ndegree = 1\nend_time = 0.1\nsnapshots = 1\nvtk_output = false\noutput_prefix = no_such_dir/run\n' "$QS" > badout.cfg
expect_exit 4 badout badout.cfg

# --- exit 3: solver divergence ---------------------------------------------
printf 'preset = %s\ndegree = 2\nend_time = 5\nsnapshots = 1\nvtk_output = false\noutput_prefix = blow\ncfl_fraction = 3.0\n' "$QS" > blow.cfg
expect_exit 3 blow blow.cfg
[ -f blow_incident.json ] || fail "divergence did not write blow_incident.json"
[ -f blow_failure.vtk ] || fail "divergence did not write blow_failure.vtk"
grep -q '"reason"' blow_incident.json || fail "incident json has no reason field"

echo "cli_robustness: OK"
