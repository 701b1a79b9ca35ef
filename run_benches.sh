#!/bin/sh
# Runs every bench binary, teeing to bench_output.txt (CSV artefacts land
# in the working directory).
set -x
cd "$(dirname "$0")/benchout" || exit 1
{
  # Host metadata header: bench numbers are only comparable against runs
  # taken on the same machine state.
  echo "== host =="
  echo "nproc: $(nproc 2>/dev/null || echo unknown)"
  echo "cpu_model: $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo 2>/dev/null | head -1)"
  echo "scaling_governor: $(cat /sys/devices/system/cpu/cpu0/cpufreq/scaling_governor 2>/dev/null || echo unknown)"
  echo "omp_num_threads: ${OMP_NUM_THREADS:-unset}"
  echo "omp_proc_bind: ${OMP_PROC_BIND:-unset}"
  echo "omp_places: ${OMP_PLACES:-unset}"
  echo "uname: $(uname -srm)"
  echo
  for b in ../build/bench/*; do
    echo "=================================================================="
    echo "== $b"
    echo "=================================================================="
    "$b" || echo "FAILED: $b"
    echo
  done
} 2>&1 | tee ../bench_output.txt
