#!/usr/bin/env python3
"""The repository benchmark: one command for every end-to-end and per-layer
metric of the FlashAbacus simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # all four, one process each

Run it from the repository root. It configures and builds the C++ runner
(perfbench/CMakeLists.txt, Release) under .bench_build/, runs the workload in
a child process of its own, checks the outputs, prints a human-readable
report and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics of a traced run, whose spans are written under
.bench_build/traces/. The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_DIR = ROOT / ".bench_build" / "runs"
TRACE_DIR = ROOT / ".bench_build" / "traces"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20181  # for claims: never used while tuning a change

WORKLOADS = {
    "paper_mix": "the paper's Fig 10b/13 headline: MX1, MX10, MX11 on IntraO3 and SIMD, "
                 "verified; dominated by the workloads layer and the flash program path",
    "ftl_churn": "reads beside overwrites through Flashvisor at 50% utilization: GC, erases, "
                 "write buffer, range lock, data plane; no kernel math or Verify",
    "fleet_serve": "the fleet-to-device path: 4 real-device shards, install-cache hits, "
                   "re-Prepare plus Verify per request, one device run per batch",
    "fleet_synth": "2M streamed requests on 16 synthetic shards: the only workload where the "
                   "fleet loop itself (admission, routing, retirement, sketches) dominates",
}

# Runnable, but left out of BENCHMARK.json: its host-time spread across seeds
# exceeds the largest bound the benchmark may set.
UNGATED = {
    "fleet_synth": "its wall_s spread across ten seeds reached 0.33 (IQR / median) on a "
                   "contended 4-vCPU VM, above the 0.25 bound; the others stayed within it",
}

# End-to-end metrics: name -> (unit, where it comes from).
END_TO_END = {
    "wall_s": ("s", "host: median wall time of one workload unit, tracing off"),
    "setup_s": ("s", "host: median of registry build plus device/fleet construction, one per unit"),
    "peak_rss_mb": ("MB", "host: peak resident set of the process that ran the workload"),
    "sim_s_per_wall_s": ("ratio", "simulated seconds advanced per host second"),
    "throughput_mb_s": ("MB/s", "sim: data-processing bandwidth of the modelled system"),
    "latency_p50_ms": ("ms", "sim: median kernel / read / request latency"),
    "latency_tail_ms": ("ms", "sim: p99, or the highest percentile with ten samples beyond it"),
}

# Simulated end-to-end figures that are not defined on every workload: printed
# in the report, folded into the digest, not part of the gated metric set.
REPORT_ONLY = {
    "energy_j": "J",
    "speedup_vs_simd": "ratio",
    "energy_vs_simd": "ratio",
}

PAPER_SPEEDUP = 2.27   # IntraO3 over SIMD bandwidth (+127%)
PAPER_ENERGY = 0.216   # IntraO3 over SIMD energy (-78.4%)

# Per-layer metrics of the traced run: name -> unit. Host busy time is the
# self time of the benchmark's spans around calls into each layer, as a share
# of the traced unit's wall time (the report also prints it in seconds); the
# rest are simulated counters and ratios read from the device's
# MetricsRegistry snapshot or the FleetReport. A metric a workload does not
# exercise reads 0.
PER_LAYER = {
    "workloads.prepare_share": "ratio",
    "workloads.kernel_share": "ratio",
    "workloads.kernel_calls": "count",
    "workloads.verify_share": "ratio",
    "core.setup_share": "ratio",
    "core.install_share": "ratio",
    "core.run_self_share": "ratio",
    "core.report_share": "ratio",
    "host.simd_run_share": "ratio",
    "sim.events": "count",
    "sim.host_ns_per_event": "ns",
    "ftl.io_share": "ratio",
    "bench.check_share": "ratio",
    "fleet.run_share": "ratio",
    "fleet.requests_per_host_s": "1/s",
    "fleet.report_share": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "core.lwp_utilization": "ratio",
    "core.screens_executed": "count",
    "flashvisor.core_utilization": "ratio",
    "flashvisor.reads_served": "count",
    "flashvisor.writes_served": "count",
    "flashvisor.foreground_reclaims": "count",
    "storengine.gc_passes": "count",
    "storengine.groups_migrated": "count",
    "ftl.write_amplification": "ratio",
    "flash.reads": "count",
    "flash.programs": "count",
    "flash.erases": "count",
    "flash.read_retries": "count",
    "flash.tag_wait_ratio": "ratio",
    "flash.bus_utilization": "ratio",
    "dram.utilization": "ratio",
    "noc.tier1.utilization": "ratio",
    "energy.total_j": "J",
    "energy.data_movement_j": "J",
    "energy.computation_j": "J",
    "energy.storage_access_j": "J",
    "host.simd_throughput_mb_s": "MB/s",
    "host.simd_energy_j": "J",
    "ssd.utilization": "ratio",
    "pcie.transfers": "count",
    "fleet.install_hit_ratio": "ratio",
    "fleet.batches": "count",
    "fleet.device_events": "count",
    "fleet.device_utilization": "ratio",
    "fleet.peak_queue_depth": "count",
    "fleet.slo_violations": "count",
}

# Spans whose calls drive Simulator::Run (host time per simulated event).
SIM_DRIVING_SPANS = ("core.install", "core.run", "host.simd_run", "ftl.io", "fleet.run")

CHILD_TIMEOUT_S = 170


def log(msg=""):
    print(msg, flush=True)


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                out.flush()
                tail = build_log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                print(f"perfbench: build failed (full log: {build_log})", file=sys.stderr)
                return None
    return BUILD / "fabbench"


def run_child(binary, workload, seed, seconds, trace, inject):
    """Runs one workload in its own process; returns (raw result or None, note)."""
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    out = RUN_DIR / f"{stem}.json"
    out.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out)]
    if trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(TRACE_DIR / f"{stem}.spans.json")]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not out.exists():
        how = (f"killed by signal {-proc.returncode}" if proc.returncode < 0
               else f"exit code {proc.returncode}")
        last = [l for l in (stderr or "").splitlines() if l.strip()][-3:]
        return None, f"aborted ({how}): " + " | ".join(last)
    return json.loads(out.read_text()), ""


def digest(raw):
    """Stable hash of the deterministic simulated outputs of one workload."""
    blob = json.dumps({"sim_s": raw["sim_s"], "sim": raw["sim"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def end_to_end(raw):
    wall = statistics.median(raw["unit_wall_s"])
    sim = raw["sim"]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "sim_s_per_wall_s": raw["sim_s"] / wall,
        "throughput_mb_s": sim["throughput_mb_s"],
        "latency_p50_ms": sim["latency_p50_ms"],
        "latency_tail_ms": sim["latency_tail_ms"],
    }


def unit_layers(unit, sim):
    """Host-side layer metrics of one traced unit."""
    spans = unit["spans"]
    wall = unit["wall_s"]

    def share(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names) / wall

    def total_s(name):
        return spans.get(name, {}).get("total_s", 0.0)

    events = sim.get("sim.events", 0.0)
    served = sim.get("fleet.served", 0.0)
    return {
        "workloads.prepare_share": share("workloads.prepare"),
        "workloads.kernel_share": share("workloads.kernel"),
        "workloads.kernel_calls": spans.get("workloads.kernel", {}).get("count", 0),
        "workloads.verify_share": share("workloads.verify"),
        "core.setup_share": share("core.setup"),
        "core.install_share": share("core.install"),
        "core.run_self_share": share("core.run"),
        "core.report_share": share("core.report"),
        "host.simd_run_share": share("host.simd_run"),
        "sim.host_ns_per_event": (sum(total_s(n) for n in SIM_DRIVING_SPANS) / events * 1e9
                                  if events else 0.0),
        "ftl.io_share": share("ftl.io"),
        "bench.check_share": share("bench.check", "bench.payload"),
        "fleet.run_share": share("fleet.run"),
        "fleet.requests_per_host_s": served / total_s("fleet.run") if served else 0.0,
        "fleet.report_share": share("fleet.report"),
        "trace.coverage": 1.0 - share("bench.unit"),
    }


def self_time_table(units, key):
    """Median over the traced units of the self time summed per key(span name)."""
    rows = {}
    for unit in units:
        per = {}
        for name, st in unit["spans"].items():
            k = "unattributed" if name == "bench.unit" else key(name)
            per[k] = per.get(k, 0.0) + st["self_s"]
        for k, s in per.items():
            rows.setdefault(k, []).append(s)
    return {k: statistics.median(v) for k, v in rows.items()}


def per_layer(raw):
    sim = raw["sim"]
    units = raw["traced_units"]
    host = [unit_layers(u, sim) for u in units]
    metrics = {}
    for name in PER_LAYER:
        if host and name in host[0]:
            metrics[name] = statistics.median(h[name] for h in host)
        else:
            metrics[name] = sim.get(name, 0.0)
    traced_wall = statistics.median(u["wall_s"] for u in units)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(raw["unit_wall_s"])
    return metrics, traced_wall


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(workload, seed, trace, raw, note):
    """Prints the human-readable report; returns the contract result object."""
    log(f"== {workload} (seed {seed}, trace {int(trace)})")
    log(f"   why: {WORKLOADS[workload]}")
    if workload in UNGATED:
        log(f"   not gated in BENCHMARK.json: {UNGATED[workload]}")
    if raw is None:
        log(f"   FAILED: the run {note}; counted as fail_ratio 1.0")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    attempted, failed = raw["attempted"], raw["failed"]
    sim = raw["sim"]
    e2e = end_to_end(raw)
    for name, (unit, what) in END_TO_END.items():
        log(f"   {name:<18} {fmt(e2e[name]):>14} {unit:<6} {what}")
    if sim.get("latency_samples", 0) >= 1000:
        log(f"   {'latency_p99_ms':<18} {fmt(sim['latency_tail_ms']):>14} ms     "
            f"p99 of {int(sim['latency_samples'])} samples")
    else:
        log(f"   latency_tail_ms is p{sim['latency_tail_pct']:.4g} of "
            f"{int(sim['latency_samples'])} samples (fewer than 1,000: no p99)")
    for name, unit in REPORT_ONLY.items():
        value = fmt(sim[name]) if name in sim and sim[name] != 0 else "n/a"
        log(f"   {name:<18} {value:>14} {unit}")
    log(f"   {'fail_ratio':<18} {fmt(failed / attempted if attempted else 1.0):>14} ratio  "
        f"{failed} failed of {attempted} checks over "
        f"{len(raw['unit_wall_s']) + len(raw['traced_units'])} units")
    if workload == "paper_mix":
        log(f"   accuracy: speedup_vs_simd {sim['speedup_vs_simd']:.3f} (paper {PAPER_SPEEDUP}), "
            f"energy_vs_simd {sim['energy_vs_simd']:.3f} (paper {PAPER_ENERGY}). The model is "
            "unvalidated against hardware and the MX mix memberships are reconstructions "
            "(DESIGN.md), so no error figure is claimed.")
    log(f"   sim_digest {digest(raw)} (simulated outputs; informational, not gated)")
    for f in raw["failures"]:
        log(f"   check failed: {f}")

    metrics = e2e
    if trace:
        metrics, traced_wall = per_layer(raw)
        spans = TRACE_DIR / f"{workload}-seed{seed}-trace1.spans.json"
        log(f"   traced run: {len(raw['traced_units'])} units, median traced wall "
            f"{traced_wall:.4f} s, untraced {e2e['wall_s']:.4f} s, tracing overhead "
            f"{metrics['trace.overhead_s']:+.4f} s; spans in {spans.relative_to(ROOT)}")
        for title, key in (("layer", lambda n: n.split(".")[0]), ("span", lambda n: n)):
            log(f"   {title:<20} {'self s':>10} {'share':>8}")
            table = self_time_table(raw["traced_units"], key)
            for k, s in sorted(table.items(), key=lambda kv: -kv[1]):
                log(f"   {k:<20} {s:>10.4f} {s / traced_wall:>8.1%}")
        shares = ", ".join(f"{n} {metrics[n]:.1%}" for n in
                           ("workloads.kernel_share", "workloads.verify_share",
                            "core.install_share"))
        log(f"   shares of traced wall: {shares}; spans cover "
            f"{metrics['trace.coverage']:.1%}")
        for name, unit in PER_LAYER.items():
            log(f"   {name:<30} {fmt(metrics[name]):>14} {unit}")
        metrics = {n: v for n, v in metrics.items() if n in PER_LAYER}
        units = PER_LAYER
    else:
        units = {n: u for n, (u, _) in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; held-out seed for claims: "
                         f"{HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measured time per run (the traced run splits it in two)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject", default="",
                    help="deliberate corruption, for the must-trip test (selftest.py)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        raw, note = run_child(binary, name, args.seed, args.seconds, args.trace, args.inject)
        results.append(report(name, args.seed, args.trace, raw, note))
    if len(results) == 1:
        result = results[0]
    else:
        result = {"correct": all(r["correct"] for r in results),
                  "attempted": sum(r["attempted"] for r in results),
                  "failed": sum(r["failed"] for r in results),
                  "metrics": {f"{n}.{m}": v for n, r in zip(names, results)
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
