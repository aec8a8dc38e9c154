#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/tests/selfcheck.py [--seconds 6] [--seed 7]

Run from the root of a checkout (it builds like run.py). Three checks:

  delay   A busy-wait of DELAY_US in the bench-owned cachetier
          decorator must show up in cachetier.get_self_p50_us (at
          least 80% of it) and in the client-observed read_p50_us on
          corr-read-cached (at least half of it), and must leave
          read_p50_us on trace-repl, which has no cache tier,
          within its bound.
  bare    perf_traced_server with its decorators and counting Env
          disabled must match ethkvd's throughput_ops_s on
          corr-read-cached within the throughput bound (medians of
          alternating pairs).
  sum     On trace-repl every GET takes the same blocking path,
          repl -> sharded -> lsm. The per-layer self-time medians
          along it must add up to the GET median that the server's
          InstrumentedKVStore measured on the same calls with its own
          clock, within SUM_TOLERANCE of that median; the rest of the
          client-observed median is the server's own time.

Prints one line per check and exits 1 if any fails.
"""

import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

DELAY_US = 10.0
SUM_TOLERANCE = 0.15
PAIRS = 3


def bounds():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["bound"]
                for m in json.load(f)["end_to_end"]}


def traced(ctx, workload, extra=()):
    bins, cpus, args = ctx
    wl, inputs, workdir = run.prepare(bins, workload, args.seed)
    res, stats = run.traced_run(bins, wl, args.seed, args.seconds, inputs,
                                workdir, cpus, server_extra=extra)
    return res, run.layer_metrics(res, stats, res["throughput_ops_s"]), stats


def check_delay(ctx, limit):
    delay = ["--delay-layer", "cachetier", "--delay-us", str(int(DELAY_US))]
    base, base_m, _ = traced(ctx, "corr-read-cached")
    slow, slow_m, _ = traced(ctx, "corr-read-cached", delay)
    layer_moved = (slow_m["cachetier.get_self_p50_us"]
                   - base_m["cachetier.get_self_p50_us"])
    e2e_moved = slow["read_p50_us"] - base["read_p50_us"]
    td_base, _, _ = traced(ctx, "trace-repl")
    td_slow, _, _ = traced(ctx, "trace-repl", delay)
    td_moved = abs(td_slow["read_p50_us"] - td_base["read_p50_us"]) \
        / td_base["read_p50_us"]
    ok = (layer_moved >= 0.8 * DELAY_US and e2e_moved >= 0.5 * DELAY_US
          and td_moved <= limit)
    return ok, ("cachetier self p50 +%.1f us, corr-read-cached read p50 "
                "+%.1f us, trace-repl read p50 moved %.1f%% (bound "
                "%.0f%%)" % (layer_moved, e2e_moved, 100 * td_moved,
                             100 * limit))


def check_bare(ctx, limit):
    bins, cpus, args = ctx
    wl, inputs, workdir = run.prepare(bins, "corr-read-cached", args.seed)
    ethkvd, bare = [], []
    for i in range(PAIRS * 2):
        use_bare = i % 2 == 1
        exe = bins["traced"] if use_bare else bins["ethkvd"]
        extra = ["--no-decorators"] if use_bare else []
        srv, _ = run.set_up(exe, bins, wl, args.seed, inputs, workdir,
                            cpus, extra)
        try:
            res = run.measure(bins, wl, args.seed, args.seconds, srv,
                              inputs, cpus)
        finally:
            srv.stop()
        (bare if use_bare else ethkvd).append(res["throughput_ops_s"])
    a, b = statistics.median(ethkvd), statistics.median(bare)
    gap = abs(b - a) / a
    return gap <= limit, ("ethkvd %.0f ops/s, bare traced server %.0f "
                          "ops/s, gap %.1f%% (bound %.0f%%)"
                          % (a, b, 100 * gap, 100 * limit))


def check_sum(ctx):
    res, _, stats = traced(ctx, "trace-repl")
    layers = stats["layers"]
    path = ("repl", "sharded", "lsm")
    self_sum = sum(layers[name]["get"]["self"]["p50_ns"]
                   for name in path) / 1000.0
    engine = stats["engine_get"]["p50_ns"] / 1000.0
    gap = abs(self_sum - engine) / engine
    return gap <= SUM_TOLERANCE, (
        "self p50s %s sum to %.2f us vs InstrumentedKVStore GET p50 "
        "%.2f us: %.1f%% apart (tolerance %.0f%%); client read p50 "
        "%.1f us, server self %.1f us"
        % ("+".join("%.2f" % (layers[n]["get"]["self"]["p50_ns"] / 1000.0)
                    for n in path),
           self_sum, engine, 100 * gap, 100 * SUM_TOLERANCE,
           res["read_p50_us"], res["read_p50_us"] - engine))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    bins = run.build(run.build_dir())
    gen, server = run.core_split()
    ctx = (bins, {"gen": gen, "server": server}, args)
    limits = bounds()
    failed = False
    with run.idle_spinners(server):
        for name, check in (
                ("delay", lambda: check_delay(ctx, limits["read_p50_us"])),
                ("bare", lambda: check_bare(ctx, limits["throughput_ops_s"])),
                ("sum", lambda: check_sum(ctx))):
            ok, detail = check()
            failed = failed or not ok
            print("%-5s %s  %s" % (name, "ok  " if ok else "FAIL", detail),
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
