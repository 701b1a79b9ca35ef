#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of tsunamigen on shipped presets.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --update-golden     # rewrite perfbench/golden.json

The first call builds the library, `tsunamigen_cli` and the tracer from
source into `.bench_build/perfbench` (perfbench/CMakeLists.txt).  Every
repetition then runs in a fresh process and a fresh directory under
`.bench_build/work`, which is removed afterwards.

--trace 0 repeats `tsunamigen_cli --log-json <run.cfg>` -- the exact user
path -- for `--seconds` and prints the end-to-end metrics over the
repetitions: fastest wall and stepping time, median set-up time and memory.
--trace 1 alternates that untraced run with a traced run of the same
config through `tsg_bench_trace run`, adds one `tsg_bench_trace probe`
(relayout, energy diagnostic, checkpoint restore, stage microbench), and for
palu_ops a 1-thread traced run, and prints the per-layer metrics of the
median traced run.  perfbench/README.md maps workloads to layers to
metrics.

Every repetition's receiver CSVs and snapshot energies are hashed (FNV-1a
64).  Seed 0 must match perfbench/golden.json; all repetitions of one call
(untraced, traced, 1-thread) must match each other.  A nonzero exit or a
failed check counts in `failed`.  The last line of stdout is the result
object; the line before it is the run record (host metadata, source
digest).
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
PRESETS = ROOT / "examples" / "presets"
GOLDEN = BENCH / "golden.json"
CLI = BUILD / "tools" / "tsunamigen_cli"
TRACER = BUILD / "tsg_bench_trace"

# Worker threads of every workload: half of a 4-core host, so that a run
# does not wait on whichever core another tenant of the host is using.
THREADS = 2
MIN_REPS = 3       # untraced repetitions per --trace 0 call, at least
MIN_PAIRS = 2      # untraced/traced pairs per --trace 1 call, at least
REP_TIMEOUT = 60   # seconds before a repetition is killed and failed

# The simulated times are the smallest that keep each workload's layer
# mix (2 macro cycles = 2 health scans on megathrust, one cycle and its
# checkpoint on palu_ops), so that many short repetitions fit into one
# --seconds window.  README.md says why each workload is here.
WORKLOADS = {
    "megathrust": {
        "preset": "megathrust.cfg", "degree": 2, "end_time": 0.07,
        "health_check": True, "snapshots": 2, "vtk_output": True,
        "checkpoints": 0, "one_thread_baseline": False,
        # Nucleation patch centre (shift by <= 5% of its 2500 m radius)
        # and overstress (+-3%).
        "perturb": ("[[fault.nucleation]]",
                    {"center_y": ("shift", 125.0), "center_z": ("shift", 125.0),
                     "tau": ("scale", 0.03)}),
    },
    "palu_ops": {
        "preset": "palu.cfg", "degree": 2, "end_time": 0.017,
        "health_check": False, "snapshots": 1, "vtk_output": True,
        # 1 macro cycle of 0.0171 s and a checkpoint after it.
        "checkpoints": 1, "checkpoint_interval": 0.015,
        "one_thread_baseline": True,
        "perturb": ("[[fault.nucleation]]",
                    {"center_y": ("shift", 150.0), "center_z": ("shift", 150.0),
                     "tau": ("scale", 0.03)}),
    },
}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---- build ---------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no tsunamigen sources under {ROOT}", code=2)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "tsunamigen_cli", "tsg_bench_trace"])
    for argv in steps:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace")[-4000:])
            fail("build failed")


# ---- inputs --------------------------------------------------------------

def perturbed_preset(text, section, keys, rng):
    """The preset with the source keys of `section` perturbed by `rng`."""
    out, current, seen = [], None, set()
    for line in text.splitlines(keepends=True):
        stripped = line.split("#", 1)[0].strip()
        if stripped.startswith("["):
            current = stripped
        elif current == section and "=" in stripped:
            key, value = (part.strip() for part in stripped.split("=", 1))
            if key in keys and key not in seen:
                kind, size = keys[key]
                value = float(value)
                if kind == "shift":
                    value += rng.uniform(-size, size)
                else:
                    value *= 1.0 + rng.uniform(-size, size)
                line = f"{key} = {value!r}\n"
                seen.add(key)
        out.append(line)
    if seen != set(keys):
        fail(f"preset lacks {sorted(set(keys) - seen)} in {section}")
    return "".join(out)


def write_inputs(workload, seed, work, threads=THREADS, name="run.cfg"):
    """Generate the run config (and, for seed != 0, the preset copy)."""
    w = WORKLOADS[workload]
    preset = PRESETS / w["preset"]
    if seed != 0:
        section, keys = w["perturb"]
        text = perturbed_preset(preset.read_text(), section, keys, random.Random(seed))
        preset = work / f"preset_seed{seed}.cfg"
        preset.write_text(text)
    lines = [
        f"preset = {preset}",
        f"degree = {w['degree']}",
        f"end_time = {w['end_time']!r}",
        "output_prefix = run",
        f"threads = {threads}",
        "kernel_path = batched",
        "lts = true",
        f"health_check = {str(w['health_check']).lower()}",
        f"snapshots = {w['snapshots']}",
        f"vtk_output = {str(w['vtk_output']).lower()}",
    ]
    if w["checkpoints"]:
        lines.append(f"checkpoint_interval = {w['checkpoint_interval']!r}")
    path = work / name
    path.write_text("\n".join(lines) + "\n")
    return path


# ---- running and checking -------------------------------------------------

def spawn(argv, cwd):
    """Run argv to completion; (exit code, wall s, peak RSS MiB, output)."""
    log = cwd / "stdout.log"
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(REP_TIMEOUT, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, log.read_text(errors="replace")


def log_events(text):
    events = []
    for line in text.splitlines():
        if line.startswith("{"):
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    return events


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def output_digests(rundir, events):
    """Receiver CSV digests, plus one over the snapshot events' energies and
    max |eta|, which depend on the whole wavefield and sea surface."""
    digests = {p.name: fnv1a64(p.read_bytes())
               for p in sorted(rundir.glob("run_receiver_*.csv"))}
    state = [[e.get(k) for k in ("t", "e_kinetic", "e_elastic", "e_acoustic", "max_abs_eta")]
             for e in events if e.get("event") == "snapshot"]
    digests["snapshots"] = fnv1a64(json.dumps(state).encode())
    return digests


def check_rep(workload, events, rundir, plan):
    """Output checks of one finished run; returns (problems, stepping info)."""
    w = WORKLOADS[workload]
    problems = []
    start = [e for e in events if e.get("event") == "run_start"]
    snaps = [e for e in events if e.get("event") == "snapshot"]
    if len(start) != 1 or len(snaps) != w["snapshots"]:
        return ["missing run_start/snapshot events"], None
    cycles = round(snaps[-1]["t"] / plan["macro_dt"])
    if cycles != plan["macro_cycles"] or snaps[-1]["t"] < w["end_time"] * (1 - 1e-9):
        problems.append(f"ran {cycles} macro cycles to t = {snaps[-1]['t']}, "
                        f"expected {plan['macro_cycles']}")
    if start[0].get("elements") != plan["elements"]:
        problems.append("element count differs from the plan")
    if len(list(rundir.glob("run_ckpt_*.tsgck"))) != w["checkpoints"]:
        problems.append("wrong number of checkpoints")
    if w["vtk_output"] and len(list(rundir.glob("run_*.vtk"))) != 2:
        problems.append("missing VTK output")
    if not list(rundir.glob("run_receiver_*.csv")):
        problems.append("no receiver CSVs")
    return problems, {"setup_s": start[0]["ts"], "last_snapshot": snaps[-1]["ts"]}


class Ledger:
    """Attempted/failed repetitions and the digests they must agree on."""

    def __init__(self, workload, seed):
        self.attempted = 0
        self.failed = 0
        self.reference = None
        if seed == 0:
            golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
            self.reference = golden.get(workload)
            if self.reference is None:
                print(f"perfbench: no golden digests for {workload}", file=sys.stderr)

    def record(self, label, code, problems, digests):
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if digests is not None:
            if self.reference is None and code == 0:
                self.reference = digests
            elif digests != self.reference:
                problems = problems + ["receiver digests differ from the reference"]
        for p in problems:
            print(f"perfbench: {label}: {p}", file=sys.stderr)
        if problems:
            self.failed += 1
        return not problems


def fresh_dir(work, name):
    d = work / name
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    return d


def run_untraced(workload, cfg, work, plan, ledger, k):
    rundir = fresh_dir(work, f"cli{k}")
    code, wall, rss, out = spawn([str(CLI), "--log-json", str(cfg)], rundir)
    events = log_events(out)
    problems, step = check_rep(workload, events, rundir, plan) if code == 0 else ([], None)
    ok = ledger.record(f"untraced rep {k}", code, problems,
                       output_digests(rundir, events) if code == 0 else None)
    shutil.rmtree(rundir, ignore_errors=True)
    if not ok or step is None:
        return None
    stepping = step["last_snapshot"] - step["setup_s"]
    print(f"perfbench: untraced rep {k}: wall {wall:.4f} s, setup {step['setup_s']:.4f} s, "
          f"stepping {stepping:.4f} s", file=sys.stderr)
    return {"wall_s": wall, "setup_s": step["setup_s"], "peak_rss_mib": rss,
            "updates_per_s": plan["element_updates"] / stepping}


def run_tracer(mode, args, rundir):
    out = rundir / "tracer.json"
    code, wall, rss, text = spawn([str(TRACER), mode, *map(str, args), str(out)], rundir)
    if code != 0:
        sys.stderr.write(text[-2000:])
        return code, wall, None
    return code, wall, json.loads(out.read_text())


# ---- metrics ----------------------------------------------------------------

def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_metrics(workload, rundir, wall, t, plan, probe):
    """Per-layer numbers of one traced run (see README.md)."""
    w = WORKLOADS[workload]
    perf = json.loads((rundir / "perf.json").read_text())
    events = log_events((rundir / "trace_log.jsonl").read_text())
    run_start = t["log_epoch"] + next(e["ts"] for e in events if e.get("event") == "run_start")
    phases = {p["phase"]: p for p in perf["phases"]}
    spans = perf.get("spans", {})
    threads = perf["threads"]

    def span(name):
        return spans.get(name, {"seconds": 0.0, "invocations": 0})

    def gflops(phase):
        p = phases[phase]
        return p["flops"] / p["wall_seconds"] / 1e9 if p["wall_seconds"] > 0 else 0.0

    ticks = [run_start] + t["progress"]
    cycles = [b - a for a, b in zip(ticks, ticks[1:])]
    deciles = statistics.quantiles(cycles, n=10, method="inclusive") if len(cycles) > 1 else cycles * 9
    m = {
        "scenario.resolve_s": t["provider_call"] - t["entry"],
        "assets.build_s": t["assets_built"] - t["provider_call"],
        "assets.relayout_s": probe["relayout_seconds"],
        "sim.attach_s": run_start - t["assets_built"],
        "kernels.predictor.wall_s": phases["predictor"]["wall_seconds"],
        "rupture.wall_s": phases["rupture_flux"]["wall_seconds"],
        "kernels.corrector.wall_s": phases["corrector"]["wall_seconds"],
        "health.scan_s": span("health_scan")["seconds"],
        "diagnostics.energy_s": probe["energy_seconds"] * w["snapshots"],
        "checkpoint.save_s": span("checkpoint_save")["seconds"],
        "io.output_s": span("output_vtk")["seconds"] + span("output_receiver_csv")["seconds"],
    }
    closing = list(m)
    m["unaccounted_s"] = wall - sum(m[k] for k in closing)
    m["traced.wall_s"] = wall
    m.update({
        "scheduler.macro_cycles": len(t["progress"]),
        "scheduler.cycle_s.p50": statistics.median(cycles),
        "scheduler.cycle_s.p90": deciles[8],
        "scheduler.wait_s": sum(p["wall_seconds"] - p["busy_seconds"] / threads
                                for p in perf["phases"]),
        "kernels.predictor.gflops": gflops("predictor"),
        "kernels.corrector.gflops": gflops("corrector"),
        "rupture.busy_s": phases["rupture_flux"]["busy_seconds"],
        "rupture.faces": phases["rupture_flux"]["element_updates"],
        "health.scans": span("health_scan")["invocations"],
        "checkpoint.bytes": sum(p.stat().st_size for p in rundir.glob("run_ckpt_*.tsgck")),
        "io.output_bytes": sum(p.stat().st_size for p in rundir.glob("run_*.vtk"))
        + sum(p.stat().st_size for p in rundir.glob("run_receiver_*.csv")),
    })
    return m, t["progress"][-1] - run_start


def run_traced(workload, cfg, work, plan, ledger, label, probe=None):
    """One traced run; returns (metrics, stepping s, probe) or None."""
    rundir = fresh_dir(work, label)
    code, wall, t = run_tracer("run", [cfg, rundir / "perf.json", rundir / "trace_log.jsonl"], rundir)
    problems, digests = [], None
    if t is not None:
        events = log_events((rundir / "trace_log.jsonl").read_text())
        problems, _ = check_rep(workload, events, rundir, plan)
        if t["element_updates"] != plan["element_updates"]:
            problems.append(f"{t['element_updates']} element updates, expected "
                            f"{plan['element_updates']}")
        digests = output_digests(rundir, events)
    ok = ledger.record(label, code, problems, digests)
    result = None
    if ok:
        if probe is None:
            pcode, _, probe = run_tracer("probe", [cfg], rundir)
            if not ledger.record(f"{label} probe", pcode, [], None):
                probe = None
        if probe is not None:
            m, stepping = layer_metrics(workload, rundir, wall, t, plan, probe)
            result = (m, stepping, probe)
    shutil.rmtree(rundir, ignore_errors=True)
    return result


def probe_metrics(probe):
    m = {}
    for stage in ("predictor", "volume", "local_flux", "neighbor_flux"):
        sec = probe[f"stage.{stage}.seconds"]
        flops = probe[f"stage.{stage}.flops"]
        m[f"kernels.stage.{stage}.gflops"] = flops / sec / 1e9
        m[f"kernels.stage.{stage}.flop_per_byte"] = flops / probe[f"stage.{stage}.bytes_computed"]
    m["gravity.flux_us"] = probe.get("gravity.flux_seconds", 0.0) * 1e6
    m["checkpoint.restore_s"] = probe.get("restore_seconds", 0.0)
    return m


# ---- record -----------------------------------------------------------------

def source_digest():
    """sha256 over the sources the benchmark builds (the checkout has no git)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", "cmake", "perfbench", "examples/presets"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return out.stdout.decode().strip() or None
    except OSError:
        return None


# ---- main -------------------------------------------------------------------

# How --trace 0 sums up its repetitions.  Other tenants of a shared host
# only ever slow a repetition down, so the fastest one is the steadiest
# estimate of the program's own time (README.md gives the spreads).
# Set-up time and memory are medians.
SUMMARY = {"wall_s": min, "updates_per_s": max,
           "setup_s": statistics.median, "peak_rss_mib": statistics.median}

def measure(workload, seed, seconds, trace, work):
    cfg = write_inputs(workload, seed, work)
    _, _, plan = run_tracer("count", [cfg], fresh_dir(work, "count"))
    if plan is None:
        fail("could not plan the run")
    ledger = Ledger(workload, seed)
    untraced, traced, metrics = [], [], {}
    t0 = time.perf_counter()
    if trace == 0:
        rep_time = 0.0
        while len(untraced) < MIN_REPS or time.perf_counter() - t0 + rep_time < seconds:
            r0 = time.perf_counter()
            rep = run_untraced(workload, cfg, work, plan, ledger, ledger.attempted)
            rep_time = time.perf_counter() - r0
            if rep:
                untraced.append(rep)
            elif ledger.attempted >= 2 * MIN_REPS and not untraced:
                break
        for name, stat in SUMMARY.items():
            metrics[name] = stat(r[name] for r in untraced) if untraced else 0.0
    else:
        probe, pair_time = None, 0.0
        while len(traced) < MIN_PAIRS or time.perf_counter() - t0 + pair_time < seconds:
            r0 = time.perf_counter()
            rep = run_untraced(workload, cfg, work, plan, ledger, ledger.attempted)
            if rep:
                untraced.append(rep)
            result = run_traced(workload, cfg, work, plan, ledger, f"traced{ledger.attempted}", probe)
            pair_time = time.perf_counter() - r0
            if result:
                traced.append(result)
                probe = result[2]
            elif ledger.attempted >= 4 * MIN_PAIRS and not traced:
                break
        if traced and untraced:
            traced.sort(key=lambda r: r[0]["traced.wall_s"])
            median_rep, stepping, _ = traced[(len(traced) - 1) // 2]
            metrics.update(median_rep)
            metrics["trace_overhead_frac"] = (
                metrics["traced.wall_s"] / statistics.median(r["wall_s"] for r in untraced) - 1.0)
            metrics.update(probe_metrics(probe))
            metrics["scheduler.speedup_1t"] = 0.0
            if WORKLOADS[workload]["one_thread_baseline"]:
                cfg1 = write_inputs(workload, seed, work, threads=1, name="run_1t.cfg")
                one = run_traced(workload, cfg1, work, plan, ledger, "traced_1thread", probe)
                if one:
                    metrics["scheduler.speedup_1t"] = one[1] / stepping
    record = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
              "threads": THREADS, "commit": commit(), "source_sha256": source_digest(),
              "host": plan["host"], "run_config": cfg.read_text()}
    return ledger, metrics, record


def update_golden():
    golden = {}
    for workload in WORKLOADS:
        work = fresh_dir(WORK, f"golden-{workload}")
        try:
            cfg = write_inputs(workload, 0, work)
            rundir = fresh_dir(work, "rep")
            code, _, _, out = spawn([str(CLI), "--log-json", str(cfg)], rundir)
            if code != 0:
                sys.stderr.write(out[-2000:])
                fail(f"{workload} failed with exit code {code}")
            golden[workload] = output_digests(rundir, log_events(out))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args()
    if not args.update_golden and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.update_golden:
        update_golden()
        return
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    work = fresh_dir(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        ledger, metrics, record = measure(args.workload, args.seed, args.seconds,
                                          args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = ledger.failed == 0 and set(metrics) == set(units)
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
