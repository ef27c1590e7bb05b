#!/usr/bin/env python3
"""The repository benchmark: builds the driver, runs one workload, checks it,
and prints every metric by name with its unit.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.
Lines before it are the human-readable report; --workload all runs every
workload in turn, each ending in its own JSON line.  Raw samples, the Chrome trace
and the per-layer summary land in .bench_build/results/.

Clocks: "host" metrics are what the simulator costs on the machine it runs on;
"modeled" metrics are the cost model's C2075 answer and repeat exactly for a
seed.  Set-up, throughput and service time are gated on wall time, and
per-query cost on process CPU time, which alone would not show a change that
only moves work between threads or adds a blocking wait.  A run whose
lane-engine tier differs from the library's configured tier, or whose
open-loop generator ran late beyond the stated bound, is invalid: it prints
why and exits 3 without a result.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
DRIVER = os.path.join(BUILD, "perfbench", "perfbench_driver")
HOOK = os.path.join(ROOT, "perfbench", "hook.cmake")

# Tail percentile per workload: the highest of 50/75/90/95/99 that keeps at
# least ten samples beyond it at the driver's minimum sample count.  It is
# fixed per workload so that two commits always compare the same statistic.
TAIL_PCT = {"flat_exact": 90, "ivf_open": 95, "mutable_churn": 75,
            "paper_select": 90}
MUTATION_TAIL_PCT = 99.9  # a run holds at least 40 * 256 mutations

# End-to-end figures printed but not in BENCHMARK.json's gate.  The median
# latency swings with other tenants' load on a shared 4-vCPU host: over ten
# flat_exact seeds it read IQR/median 0.24 where the lower-quartile service
# time read 0.08, and on ivf_open queue wait amplifies the swings (0.41 over
# five seeds).  The simulation rate's wall clock is covered by host_qps.
# Peak RSS moves in ~10 MB allocator steps (IQR/median up to 0.2 over ten
# flat_exact seeds).  host_latency_tail_ms is printed beside them: on the same
# host it spreads 0.24-0.30 IQR/median over ten seeds.
NOT_GATED = {"host_latency_p50_ms": "ms", "sim_minstr_per_host_s": "Minstr/s",
             "peak_rss_mb": "MB"}

# Requests per window for the per-query CPU time and the simulation rate.
# Each is the median over the run's full windows (ten or more per run), so a
# noisy stretch of a few seconds on a shared host moves a window or two
# rather than the result.
WINDOW = {"flat_exact": 10, "ivf_open": 50, "mutable_churn": 4, "paper_select": 10}

# The wall-clock figures gated on a shared host read its faster stretches:
# other tenants' load lands on some stretches of a run and slows them, while
# a slower program, fewer threads or a blocking wait slow every stretch.  A
# closed loop's host_qps is the upper quartile of its two-request window
# rates, and host_service_p25_ms the lower quartile of per-request service
# times.
RATE_WINDOW = 2

KERNELS = ["batch_tile_score", "batch_reduce", "shard_merge", "coarse_quantize",
           "list_scan", "ivf_reduce", "delta_merge",
           # the paper's pipeline
           "gpu_distance_matrix", "hp_build", "hp_topdown", "flat_select"]


def untraced_loop(raw):
    return next(loop for loop in raw["loops"] if loop["layers"] is None)


def traced_loop(raw):
    return next(loop for loop in raw["loops"] if loop["layers"] is not None)


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once and builds the driver (incremental after the first run)."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("run from the repository root: no CMakeLists.txt and src/ here", 2)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          f"-DCMAKE_PROJECT_gpuksel_INCLUDE={HOOK}"])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def pct(values, p):
    """Nearest-rank percentile: the smallest value with p% of samples at or below."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)] if s else 0.0


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def latencies(loop):
    return [d - u for d, u, ok in zip(loop["done_s"], loop["due_s"], loop["served"]) if ok]


def answered_queries(loop):
    return sum(q for q, c in zip(loop["queries"], loop["correct"]) if c)


def service_times(loop):
    """Host seconds the engine spent on each request.  One worker serves FIFO,
    so a request starts at max(its submit, the previous completion)."""
    out, prev = [], 0.0
    for sub, done, ok in zip(loop["submit_s"], loop["done_s"], loop["served"]):
        start = max(sub, prev)
        out.append(done - start if ok else 0.0)
        if ok:
            prev = done
    return out


def windows(loop, w):
    """Per full window of w consecutive requests: wall seconds, process CPU
    seconds, correctly answered queries, simulated instructions and engine
    service seconds."""
    service = service_times(loop)
    out, prev_done, prev_cpu = [], 0.0, 0.0
    for lo in range(0, len(loop["done_s"]) - w + 1, w):
        hi = lo + w
        out.append({
            "wall": loop["done_s"][hi - 1] - prev_done,
            "cpu": loop["cpu_s"][hi - 1] - prev_cpu,
            "queries": sum(q for q, c in zip(loop["queries"][lo:hi],
                                             loop["correct"][lo:hi]) if c),
            "instructions": sum(loop["instructions"][lo:hi]),
            "service": sum(service[lo:hi]),
        })
        prev_done, prev_cpu = loop["done_s"][hi - 1], loop["cpu_s"][hi - 1]
    return out


def end_to_end(raw, loop):
    lat_ms = [1e3 * x for x in latencies(loop)]
    attempted = len(loop["served"])
    limit = raw["latency_limit_ms"]
    met = sum(1 for d, u, c in zip(loop["done_s"], loop["due_s"], loop["correct"])
              if c and 1e3 * (d - u) <= limit)
    served_recall = [r for r, ok in zip(loop["recall"], loop["served"]) if ok]
    win = windows(loop, WINDOW[raw["workload"]])
    open_loop = bool(loop["lateness_s"])
    service = [x for x, ok in zip(service_times(loop), loop["served"]) if ok]
    return {
        "setup_s": median(raw["setup_wall_s"]),
        # An open loop's offered load is fixed, so its throughput is the
        # answered share of it; a closed loop's is its faster windows' rate.
        "host_qps": (answered_queries(loop) / loop["wall_s"] if open_loop else
                     pct([x["queries"] / x["wall"]
                          for x in windows(loop, RATE_WINDOW)], 75)),
        "host_latency_p50_ms": median(lat_ms),
        "host_service_p25_ms": 1e3 * pct(service, 25),
        "host_cpu_ms_per_query": median([1e3 * x["cpu"] / max(x["queries"], 1)
                                         for x in win]),
        "modeled_qps": raw["digest_queries"] / raw["digest_modeled_s"],
        "sim_minstr_per_host_s": median([x["instructions"] / x["service"] / 1e6
                                         for x in win if x["service"] > 0]),
        "recall_at_k": mean(served_recall),
        "slo_met_frac": met / attempted,
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def mutation_latencies(loop):
    return loop["upsert_s"] + loop["insert_s"] + loop["remove_s"]


def per_layer(raw, untraced, traced):
    lay = traced["layers"]
    n = max(lay["requests"], 1)
    # Counters and modeled seconds come from the traced loop's first requests
    # (the head), a fixed part of the seed's request sequence, so they repeat
    # exactly for a seed; host wall fields cover the whole traced loop.
    head_n = max(lay["head_requests"], 1)
    out = {}
    for k in KERNELS:
        agg = lay["kernels"].get(k, {})
        head = lay["head_kernels"].get(k, {})
        instr = agg.get("instructions", 0)
        wall = agg.get("wall_s", 0.0)
        head_instr = head.get("instructions", 0)
        out[f"core.{k}.wall_ms"] = 1e3 * wall / n
        out[f"core.{k}.host_ns_per_instr"] = 1e9 * wall / instr if instr else 0.0
        out[f"core.{k}.instructions"] = head_instr / head_n
        out[f"core.{k}.simt_efficiency"] = (
            head["useful_lane_slots"] / (32 * head_instr) if head_instr else 0.0)
        out[f"core.{k}.global_tx"] = head.get("global_tx", 0) / head_n
        out[f"core.{k}.modeled_ms"] = 1e3 * head.get("modeled_s", 0.0) / head_n
    walls = sum(a["wall_s"] for a in lay["kernels"].values())
    warps = sum(a["warps"] for a in lay["kernels"].values())
    tail = TAIL_PCT[raw["workload"]]
    out.update({
        "simt.launches_per_request": mean(lay["launches"]),
        "simt.launch_wall_ms": 1e3 * mean(lay["launch_wall_s"]),
        "simt.warps_per_host_s": warps / walls if walls else 0.0,
        "simt.executor_threads": median(lay["worker_threads"]),
        "simt.process_threads_peak": lay["threads_peak"],
        "simt.pool_reuse_frac": (lay["pool_served"] / lay["pool_requested"]
                                 if lay["pool_requested"] else 0.0),
        "serve.queue_wait_p50_ms": 1e3 * median(lay["queue_wait_s"]),
        "serve.queue_wait_tail_ms": 1e3 * pct(lay["queue_wait_s"], tail),
        "serve.service_p50_ms": 1e3 * median(lay["service_s"]),
        "serve.service_tail_ms": 1e3 * pct(lay["service_s"], tail),
        "serve.host_gap_ms": 1e3 * median(lay["host_gap_s"]),
        "serve.merge_wall_ms": 1e3 * median(lay["merge_wall_s"]),
        "serve.fanout_straggler_ratio": median(lay["straggler"]),
        "serve.fanout_modeled_imbalance": median(lay["modeled_imbalance"]),
        "serve.retries": lay["retries"],
        "serve.exclusions": lay["exclusions"],
        "serve.degraded": lay["degraded"],
        "serve.mutation.upsert_us": 1e6 * median(traced["upsert_s"]),
        "serve.mutation.insert_us": 1e6 * median(traced["insert_s"]),
        "serve.mutation.remove_us": 1e6 * median(traced["remove_s"]),
        # Measured on the untraced half, like the end-to-end metrics.
        "mutation_latency_p50_us": 1e6 * median(mutation_latencies(untraced)),
        "mutation_latency_tail_ms": 1e3 * pct(mutation_latencies(untraced),
                                              MUTATION_TAIL_PCT),
        "knn.mutable.compactions": lay["compactions"],
        "knn.mutable.compaction_stall_ms": 1e3 * mean(lay["compaction_stall_s"]),
        "knn.mutable.delta_rows_at_search": mean(lay["delta_rows_at_search"]),
        "knn.mutable.delta_bytes_per_query":
            lay["delta_bytes"] / max(sum(traced["queries"]), 1),
        "knn.h2d_bytes_per_query": lay["h2d_bytes"] / max(sum(traced["queries"]), 1),
        "knn.ivf_train_s": lay["ivf_train_s"],
        "trace.overhead_cpu_ms_per_query":
            end_to_end(raw, traced)["host_cpu_ms_per_query"]
            - end_to_end(raw, untraced)["host_cpu_ms_per_query"],
    })
    return out


def self_times(chrome_trace, requests):
    """Self time per span name, ms per request: duration minus the part of it
    its child spans cover (children of one span do not overlap here, except
    launches of parallel shards, which are clipped to the parent)."""
    with open(chrome_trace) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    by_span = {e["args"]["span"]: e for e in events}
    out = {}
    for sid, e in by_span.items():
        covered = []
        for c in children.get(sid, []):
            a = max(c["ts"], e["ts"])
            b = min(c["ts"] + c["dur"], e["ts"] + e["dur"])
            if b > a:
                covered.append((a, b))
        covered.sort()
        union, end = 0.0, -math.inf
        for a, b in covered:
            if b > end:
                union += b - max(a, end)
                end = b
        out[e["name"]] = out.get(e["name"], 0.0) + (e["dur"] - union) / 1e3
    return {k: v / max(requests, 1) for k, v in sorted(out.items())}


def validity_errors(raw, loops):
    v = raw["validity"]
    errors = []
    if v["backend_name"].lower() != v["library_tier"].lower():
        errors.append(f"lane-engine tier {v['backend_name']} in the driver differs "
                      f"from the library's configured tier {v['library_tier']}")
    elif v["backend_name"] != "scalar" and not v["backend_enabled"]:
        errors.append(f"lane-engine tier {v['backend_name']} is compiled but "
                      "switched off at run time")
    bound = v["lateness_bound_ms"]
    for loop in loops:
        if bound and loop["lateness_s"]:
            late = 1e3 * pct(loop["lateness_s"], 99)
            if late > bound:
                errors.append(f"open-loop generator p99 lateness {late:.2f} ms "
                              f"exceeds the {bound:.1f} ms bound")
    return errors


def report(raw, args):
    """Prints the run's context: validity record, sample counts, digest,
    mutation latencies and the paper accuracy line."""
    v = raw["validity"]
    w = raw["workload"]
    loop = untraced_loop(raw)
    lat = latencies(loop)
    print(f"== perfbench {w} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"validity: nproc={v['nproc']} compiler={v['compiler']} "
          f"lane_engine={v['backend_name']} (library tier {v['library_tier']}, "
          f"enabled={v['backend_enabled']}) GPUKSEL_THREADS={v['GPUKSEL_THREADS'] or '-'} "
          f"GPUKSEL_SIMD={v['GPUKSEL_SIMD'] or '-'} executor_threads={v['executor_threads']}")
    if loop["lateness_s"]:
        print(f"open-loop generator lateness: p50 {1e3 * median(loop['lateness_s']):.3f} ms, "
              f"p99 {1e3 * pct(loop['lateness_s'], 99):.3f} ms, "
              f"max {1e3 * max(loop['lateness_s']):.3f} ms "
              f"(bound: p99 <= {v['lateness_bound_ms']:.1f} ms)")
    attempted = len(loop["served"])
    failed = attempted - sum(loop["correct"])
    print(f"requests: attempted={attempted} answered_correctly={sum(loop['correct'])} "
          f"failed_frac={failed / attempted:.4f} latency_limit={raw['latency_limit_ms']} ms "
          f"tail=p{TAIL_PCT[w]} over {len(lat)} samples "
          f"({len(lat) - math.ceil(TAIL_PCT[w] / 100 * len(lat))} beyond)")
    print(f"modeled digest: {raw['digest']} over the first {raw['digest_requests']} "
          f"requests ({raw['digest_queries']:.0f} queries, "
          f"{raw['digest_modeled_s']!r} modeled s)")
    muts = mutation_latencies(loop)
    if muts:
        print(f"mutation_latency_p50_us: {1e6 * median(muts):.4f} us   "
              f"mutation_latency_tail_ms: {1e3 * pct(muts, MUTATION_TAIL_PCT):.4f} ms "
              f"(p{MUTATION_TAIL_PCT} over {len(muts)} mutations)")
    extra = raw["extra"]
    if "paper_selection_s_q8192" in extra:
        print(f"paper accuracy: selection-only modeled seconds at Q=2^13 "
              f"{extra['paper_selection_s_q8192']:.4f} s vs Table I 'Merge Queue "
              f"aligned+buf+hp' (N=2^15, k=2^8) {extra['paper_published_s']} s: "
              f"relative error {100 * extra['paper_rel_error']:+.1f}%. The cost "
              "model is otherwise unvalidated against hardware.")
    if not args.trace:
        # Set-up time is gated on its wall median: its CPU time swings with
        # how long idle executor workers spin.
        e2e = end_to_end(raw, loop)
        print(f"failed_frac: {failed / attempted:.6g} ratio")
        print(f"setup_cpu_s: {median(raw['setup_cpu_s']):.6g} s (median process CPU "
              f"of the {len(raw['setup_wall_s'])} set-ups whose wall median is setup_s)")
        for name, unit in NOT_GATED.items():
            print(f"{name}: {e2e[name]:.6g} {unit}")
        print(f"host_latency_tail_ms: {1e3 * pct(lat, TAIL_PCT[w]):.6g} ms")


def run_workload(workload, args, bench):
    stem = os.path.join(RESULTS, f"{workload}-{args.seed}-t{args.trace}")
    cmd = [DRIVER, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", stem + ".raw.json"]
    if args.trace:
        cmd += ["--chrome-trace", stem + ".trace.json"]
    try:
        proc = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode:
        fail(f"driver exited with {proc.returncode}")
    with open(stem + ".raw.json") as f:
        raw = json.load(f)

    errors = validity_errors(raw, raw["loops"])
    if errors:
        for e in errors:
            print(f"INVALID RUN: {e}")
        sys.exit(3)

    loops = raw["loops"]
    if args.trace:
        traced = traced_loop(raw)
        metrics = per_layer(raw, untraced_loop(raw), traced)
        summary = {"workload": workload, "seed": args.seed, "metrics": metrics,
                   "self_ms_per_request": self_times(stem + ".trace.json",
                                                     traced["layers"]["requests"])}
        with open(stem + ".layers.json", "w") as f:
            json.dump(summary, f, indent=1)
        print(f"trace: {stem}.trace.json  per-layer summary: {stem}.layers.json")
        declared = bench["per_layer"]
    else:
        metrics = end_to_end(raw, untraced_loop(raw))
        declared = bench["end_to_end"]
    report(raw, args)
    units = {m["name"]: m["unit"] for m in declared}
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")

    # Every served answer was checked against its reference (exact host top-k,
    # or the IVF host mirror); a wrong one makes the run incorrect.
    samples = [s for loop in loops for s in zip(loop["served"], loop["correct"])]
    result = {
        "correct": all(correct for served, correct in samples if served),
        "attempted": len(samples),
        "failed": sum(1 for _, c in samples if not c),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(TAIL_PCT) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    os.makedirs(RESULTS, exist_ok=True)
    # BENCHMARK.json names the metrics each kind of run reports, with units.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in TAIL_PCT if args.workload == "all" else [args.workload]:
        run_workload(workload, args, bench)


if __name__ == "__main__":
    main()
