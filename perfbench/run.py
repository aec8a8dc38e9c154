#!/usr/bin/env python3
"""ethkvd benchmark: three paper-shaped workloads against the real server.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run builds ethkvd and the
bench programs from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build). Every run then:

  1. makes its inputs from --seed (the trace-repl op stream is
     cached per seed and size under perfbench/.cache),
  2. sets the server up three times (spawn to ready, plus the
     preload) and reports the median as setup_s,
  3. warms up (the Zipf mixes first read their hottest keys once,
     then a second of open loop) and runs an open loop at the
     workload's fixed rate for half of --seconds, then a closed loop
     for the other half,
  4. reads back a seeded sample of keys and compares them with the
     expected values, stops the server gracefully and sizes its
     directory.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same
traffic against perf_traced_server (the same stack with timing
decorators between layers) and prints the per-layer metrics. The
last stdout line is one JSON object; host facts go to stderr and to
<build>/results/.

The generator and the server run on disjoint cores (taskset), and a
SCHED_IDLE busy loop on each server core keeps it from halting. ethkvd's
--pin-cores is never passed: it pins worker i to CPU i and ignores
the process mask.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")

SETUPS = 3
TRACE_BLOCKS = 60
SHARDS = 4

# Flags common to every workload, spelled out so that a later change
# of an ethkvd default changes nothing here.
COMMON_SERVER_FLAGS = [
    "--engine", "lsm", "--shards", str(SHARDS), "--env", "posix",
    "--host", "127.0.0.1", "--port", "0",
    "--memtable-bytes", str(1 << 20),
    "--max-frame-bytes", str(16 << 20), "--scan-limit", "4096",
    "--scan-byte-budget", "0", "--trace", "off",
    "--stage-sample-shift", "4", "--slow-op-micros", "1000",
    "--conn-idle-timeout-ms", "0",
]

WORKLOADS = {
    # The paper's CacheTrace stream through the replicated write path.
    "trace-repl": {
        # One worker per connection: a write burst on one connection
        # does not hold up the other.
        "server": ["--repl", "--workers", "4",
                   "--cache-tier-bytes", "0", "--prefetch-k", "0"],
        "traffic": "trace",
        "rate": 25000,
    },
    # Correlated Zipf reads that fit the cache tier.
    "corr-read-cached": {
        # One worker per server core.
        "server": ["--workers", "2", "--cache-tier-bytes", str(128 << 20),
                   "--cache-shards", "64", "--prefetch-k", "4",
                   "--corr-table", "@corr"],
        "traffic": "zipf",
        "keys": 200000,
        "read_pct": 90,
        "corr_follow": 3,
        "rate": 120000,
    },
    # Mixed Zipf over a working set nine times the cache.
    "zipf-mixed-large": {
        "server": ["--repl", "--workers", "2",
                   "--cache-tier-bytes", str(32 << 20),
                   "--cache-shards", "16", "--prefetch-k", "4"],
        "traffic": "zipf",
        "keys": 1000000,
        "read_pct": 50,
        "corr_follow": 0,
        "rate": 30000,
    },
}

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "read_p50_us": "us",
    "write_p50_us": "us",
    "success_rate": "ratio",
    "setup_s": "s",
    "server_rss_mb": "MB",
    "server_cpu_us_per_op": "us",
    "write_amp": "ratio",
    "space_amp": "ratio",
}

# A run whose generator ran late or saturated its cores measures the
# generator, not the server.
MAX_SCHED_LAG_P99_US = 5000.0
# Set-up plus measurement is repeated this many times at most when
# the generator was not valid (a host stealing its cores, say).
ATTEMPTS = 3
MAX_LOADGEN_CPU_UTIL = 0.95
# A measurement during which the host took more than this share of
# the machine's CPU time (steal) measures the neighbours as much as
# the server: it is set up and measured again, and after ATTEMPTS the
# least-stolen one is kept.
MAX_STEAL_FRAC = 0.01


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build(bdir):
    """Configure once, then build the four programs (a no-op when
    nothing changed)."""
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(bdir, exist_ok=True)
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target",
         "ethkvd", "perf_loadgen", "perf_tracegen",
         "perf_traced_server"],
        check=True, stdout=sys.stderr)
    return {
        "ethkvd": os.path.join(cmake_dir, "ethkv", "server", "ethkvd"),
        "loadgen": os.path.join(cmake_dir, "perf_loadgen"),
        "tracegen": os.path.join(cmake_dir, "perf_tracegen"),
        "traced": os.path.join(cmake_dir, "perf_traced_server"),
    }


def core_split():
    """Disjoint core sets for generator and server: half each."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def pinned(cpus, argv):
    if cpus is None:
        return argv
    return ["taskset", "-c", ",".join(map(str, cpus))] + argv


# Runs at SCHED_IDLE on each server core for the whole run, so the
# core never halts: a request to an idle server then costs a wake-up
# inside the kernel rather than the hypervisor's vCPU wake-up, whose
# time moves with the neighbours' load.
IDLE_SPIN = ("import os\n"
             "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
             "while True:\n"
             "    pass\n")


@contextlib.contextmanager
def idle_spinners(cpus):
    procs = []
    try:
        for cpu in cpus or ():
            procs.append(subprocess.Popen(
                pinned([cpu], [sys.executable, "-c", IDLE_SPIN])))
        yield
    finally:
        for p in procs:
            p.kill()
            p.wait()


def cached_trace(bins, seed):
    """The trace-repl op stream for this seed, generated once."""
    out = os.path.join(CACHE_DIR, "trace-v2-b%d-s%d" % (TRACE_BLOCKS, seed))
    if not os.path.exists(os.path.join(out, "ops.bin")):
        os.makedirs(out, exist_ok=True)
        t0 = time.monotonic()
        subprocess.run([bins["tracegen"], "--blocks", str(TRACE_BLOCKS),
                        "--seed", str(seed), "--out", out],
                       check=True, stdout=sys.stderr, timeout=150)
        log("trace generated in %.1fs" % (time.monotonic() - t0))
    return out


def cached_corr_table(bins, keys, follow):
    path = os.path.join(CACHE_DIR, "corr-%d-%d.txt" % (keys, follow))
    if not os.path.exists(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        subprocess.run([bins["loadgen"], "--mode", "corrtable", "--keys",
                        str(keys), "--corr-follow", str(follow),
                        "--out", path + ".tmp"], check=True)
        os.replace(path + ".tmp", path)
    return path


def prepare(bins, workload, seed):
    """The workload's settings, its seeded inputs and its work dir."""
    wl = dict(WORKLOADS[workload])
    inputs = cached_trace(bins, seed) if wl["traffic"] == "trace" else None
    flags = list(wl["server"])
    if "@corr" in flags:
        flags[flags.index("@corr")] = cached_corr_table(
            bins, wl["keys"], wl["corr_follow"])
    wl["server_flags"] = flags
    workdir = os.path.join(build_dir(), "run", workload)
    os.makedirs(workdir, exist_ok=True)
    return wl, inputs, workdir


class Server:
    """One server process on its cores, with its data directory."""

    def __init__(self, exe, flags, workdir, cpus, extra=()):
        self.dir = os.path.join(workdir, "data")
        self.port_file = os.path.join(workdir, "port")
        shutil.rmtree(self.dir, ignore_errors=True)
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        argv = [exe] + COMMON_SERVER_FLAGS + flags + [
            "--dir", self.dir, "--port-file", self.port_file,
            ] + list(extra)
        self.log_path = os.path.join(workdir, "server.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen(pinned(cpus, argv), stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = None

    def wait_ready(self, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("server exited during start-up; see "
                                 + self.log_path)
            try:
                with open(self.port_file) as f:
                    text = f.read().strip()
                if text:
                    self.port = int(text)
                    return
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        raise BenchError("server not ready after %ds" % timeout)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self, timeout=60):
        """Graceful stop (SIGTERM flushes the engine)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise BenchError("server ignored SIGTERM")
        self.log.close()
        return self.proc.returncode

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def dir_bytes(path):
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.lstat(os.path.join(base, name)).st_size
    return total


def loadgen_argv(bins, wl, seed, port, inputs, mode):
    argv = [bins["loadgen"], "--mode", mode, "--port", str(port),
            "--seed", str(seed)]
    if wl["traffic"] == "zipf":
        argv += ["--keys", str(wl["keys"]),
                 "--read-pct", str(wl["read_pct"]),
                 "--corr-follow", str(wl["corr_follow"])]
    else:
        argv += ["--state", os.path.join(inputs, "state.bin"),
                 "--ops", os.path.join(inputs, "ops.bin")]
    return argv


def run_json(argv, timeout=120):
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE,
                         text=True, timeout=timeout).stdout
    return json.loads(out)


def set_up(exe, bins, wl, seed, inputs, workdir, cpus, extra=()):
    """Spawn the server and preload it; returns (server, seconds)."""
    t0 = time.monotonic()
    srv = Server(exe, wl["server_flags"], workdir, cpus["server"], extra)
    try:
        srv.wait_ready()
        res = run_json(pinned(cpus["gen"], loadgen_argv(
            bins, wl, seed, srv.port, inputs, "preload")))
        if not res["ok"]:
            raise BenchError("preload failed: %r" % res)
    except BaseException:
        srv.kill()
        raise
    return srv, time.monotonic() - t0


def measure(bins, wl, seed, seconds, srv, inputs, cpus, mark=False):
    # Start from clean page cache state: writeback of earlier runs'
    # data would otherwise land in this run's SST fdatasync times.
    os.sync()
    argv = loadgen_argv(bins, wl, seed, srv.port, inputs, "run") + [
        "--closed-seconds", str(seconds / 2.0),
        "--open-seconds", str(seconds / 2.0),
        "--rate", str(wl["rate"]),
        "--server-pid", str(srv.proc.pid),
        "--mark-signal", "1" if mark else "0"]
    steal0, t0 = cpu_steal_ticks(), time.monotonic()
    res = run_json(pinned(cpus["gen"], argv), timeout=seconds + 90)
    ticks = ((time.monotonic() - t0) * os.sysconf("SC_CLK_TCK")
             * (os.cpu_count() or 1))
    res["cpu_steal_frac"] = (cpu_steal_ticks() - steal0) / ticks
    return res


def cpu_steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def host_facts(cpus):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10).stdout.strip() or sha
    except (OSError, subprocess.SubprocessError):
        pass
    fs = "unknown"
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", ROOT],
                            stdout=subprocess.PIPE, text=True,
                            timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "build_type": "RelWithDebInfo",
        "nproc": os.cpu_count(),
        "filesystem": fs,
        "kernel": platform.release(),
        "cores_loadgen": cpus["gen"],
        "cores_server": cpus["server"],
    }


def check_valid(res):
    if res["sched_lag_p99_us"] > MAX_SCHED_LAG_P99_US:
        raise BenchError("generator ran late: sched lag p99 %.0f us"
                         % res["sched_lag_p99_us"])
    if res["loadgen_cpu_util"] > MAX_LOADGEN_CPU_UTIL:
        raise BenchError("generator saturated its cores: %.2f"
                         % res["loadgen_cpu_util"])


def valid_attempt(attempt, retry_stolen=True):
    """Call attempt(i) until its result is valid and, with
    retry_stolen, not stolen from; ATTEMPTS at most, after which the
    least-stolen valid result is kept."""
    stolen = []
    for i in range(ATTEMPTS):
        out = attempt(i)
        try:
            check_valid(out[0])
        except BenchError as e:
            if i + 1 == ATTEMPTS and not stolen:
                raise
            log("invalid run, set up again: %s" % e)
            continue
        steal = out[0]["cpu_steal_frac"]
        if not retry_stolen or steal <= MAX_STEAL_FRAC:
            return out
        log("host stole %.1f%% of the CPU time, set up again"
            % (100 * steal))
        stolen.append(out)
    return min(stolen, key=lambda out: out[0]["cpu_steal_frac"])


def end_to_end(bins, wl, seed, seconds, inputs, workdir, cpus):
    setups = []

    def attempt(n):
        # A repeated attempt sets up once.
        count = SETUPS if n == 0 else 1
        srv = None
        for i in range(count):
            srv, secs = set_up(bins["ethkvd"], bins, wl, seed, inputs,
                               workdir, cpus)
            setups.append(secs)
            if i + 1 < count:
                srv.stop()
        try:
            res = measure(bins, wl, seed, seconds, srv, inputs, cpus)
            rss = srv.vm_hwm_mb()
        except BaseException:
            srv.kill()
            raise
        if srv.stop() != 0:
            raise BenchError("server exited with %d" % srv.proc.returncode)
        return res, rss, srv.dir

    res, rss, data_dir = valid_attempt(attempt)
    metrics = {
        "throughput_ops_s": res["throughput_ops_s"],
        "read_p50_us": res["read_p50_us"],
        "write_p50_us": res["write_p50_us"],
        "success_rate": 1.0 - res["failed"] / res["attempted"],
        "setup_s": statistics.median(setups),
        "server_rss_mb": rss,
        "server_cpu_us_per_op": res["server_cpu_us_per_op"],
        "write_amp": res["server_write_bytes"] / res["user_write_bytes"],
        "space_amp": dir_bytes(data_dir) / res["live_bytes"],
    }
    return res, metrics, {"setups_s": setups}


PER_LAYER_UNITS = {
    "env.syncs_per_write": "count",
    "env.sync_p50_us": "us",
    "env.sync_p99_us": "us",
    "env.sync_busy_frac": "ratio",
    "env.wal_bytes_per_user_byte": "ratio",
    "env.sst_bytes_per_user_byte": "ratio",
    "repl.syncs_per_write": "count",
    "repl.write_self_p50_us": "us",
    "repl.write_self_p99_us": "us",
    "repl.log_bytes_per_user_byte": "ratio",
    "cachetier.hit_rate": "ratio",
    "cachetier.get_self_p50_us": "us",
    "cachetier.get_self_p99_us": "us",
    "cachetier.prefetch_useful": "ratio",
    "cachetier.prefetch_inner_gets_per_op": "count",
    "cachetier.write_self_p99_us": "us",
    "cachetier.evictions_per_op": "count",
    "cachetier.invalidations_per_write": "count",
    "cachetier.admission_rejects_per_op": "count",
    "lsm.get_p50_us": "us",
    "lsm.get_p99_us": "us",
    "lsm.bytes_read_per_get": "bytes",
    "lsm.write_p50_us": "us",
    "lsm.write_p99_us": "us",
    "lsm.stall_us_per_write": "us",
    "lsm.compaction_bytes_per_user_byte": "ratio",
    "sharded.self_p50_us": "us",
    "sharded.imbalance": "ratio",
    "server.self_read_p50_us": "us",
    "server.self_read_p99_us": "us",
    "server.self_write_p50_us": "us",
    "server.syscalls_per_op": "count",
    "loadgen.sched_lag_p99_us": "us",
    "loadgen.cpu_util": "ratio",
    "trace.overhead": "ratio",
}


def ratio(num, den):
    return num / den if den else 0.0


def traced_run(bins, wl, seed, seconds, inputs, workdir, cpus,
               server_extra=()):
    """One set-up and measurement against perf_traced_server; returns
    the load generator's result and the server's span aggregates."""
    stats_path = os.path.join(workdir, "traced-stats.json")
    if os.path.exists(stats_path):
        os.remove(stats_path)
    extra = ["--stats-out", stats_path,
             "--spans-out", os.path.join(workdir, "spans.csv")]
    srv, _ = set_up(bins["traced"], bins, wl, seed, inputs, workdir, cpus,
                    extra + list(server_extra))
    try:
        res = measure(bins, wl, seed, seconds, srv, inputs, cpus,
                      mark=True)
    except BaseException:
        srv.kill()
        raise
    if srv.stop() != 0:
        raise BenchError("traced server exited with %d"
                         % srv.proc.returncode)
    with open(stats_path) as f:
        return res, json.load(f)


def layer_metrics(res, stats, untraced_ops_s):
    """The per-layer metrics from one traced run (open-loop phase)."""
    layers = stats["layers"]
    entry = layers[stats["entry"]]
    files = stats["files"]
    counters = stats["counters"]
    us = lambda ns: ns / 1000.0  # noqa: E731
    hist = lambda layer, cls, kind: layers[layer][cls][kind]  # noqa: E731
    writes = hist(stats["entry"], "write", "total")["count"]
    ops = sum(entry[c]["total"]["count"] for c in ("get", "write", "other"))
    user_bytes = stats["user_bytes"]
    engine_syncs = sum(files[k]["syncs"] for k in ("wal", "sst", "manifest"))
    has_tier = stats["entry"] == "cachetier"
    below = "repl" if layers["repl"]["get"]["total"]["count"] else "sharded"
    outer_gets = hist("cachetier", "get", "total")["count"]
    inner = layers[below]["get"]
    inner_request_gets = inner["total"]["count"] - inner["background"]
    sharded = max(layers["sharded"].values(),
                  key=lambda c: c["self"]["count"])
    shard_ops = stats["shard_ops"]
    imbalance = ratio(max(shard_ops), statistics.mean(shard_ops)) \
        if shard_ops and sum(shard_ops) else 0.0
    m = {
        "env.syncs_per_write": ratio(engine_syncs, writes),
        "env.sync_p50_us": us(stats["sync"]["p50_ns"]),
        "env.sync_p99_us": us(stats["sync"]["p99_ns"]),
        "env.sync_busy_frac": ratio(stats["sync_busy_ns"],
                                    stats["elapsed_s"] * 1e9),
        "env.wal_bytes_per_user_byte": ratio(files["wal"]["append_bytes"],
                                             user_bytes),
        "env.sst_bytes_per_user_byte": ratio(files["sst"]["append_bytes"],
                                             user_bytes),
        "repl.syncs_per_write": ratio(files["repl"]["syncs"], writes),
        "repl.write_self_p50_us": us(hist("repl", "write", "self")["p50_ns"]),
        "repl.write_self_p99_us": us(hist("repl", "write", "self")["p99_ns"]),
        "repl.log_bytes_per_user_byte": ratio(files["repl"]["append_bytes"],
                                              user_bytes),
        "cachetier.hit_rate": (1.0 - ratio(inner_request_gets, outer_gets)
                               if has_tier else 0.0),
        "cachetier.get_self_p50_us":
            us(hist("cachetier", "get", "self")["p50_ns"]),
        "cachetier.get_self_p99_us":
            us(hist("cachetier", "get", "self")["p99_ns"]),
        "cachetier.prefetch_useful": ratio(
            counters["cachetier.prefetch.hits"],
            counters["cachetier.prefetch.issued"]),
        "cachetier.prefetch_inner_gets_per_op":
            ratio(inner["background"], ops) if has_tier else 0.0,
        "cachetier.write_self_p99_us":
            us(hist("cachetier", "write", "self")["p99_ns"]),
        "cachetier.evictions_per_op":
            ratio(counters["cachetier.evictions"], ops),
        "cachetier.invalidations_per_write":
            ratio(counters["cachetier.invalidations"], writes),
        "cachetier.admission_rejects_per_op":
            ratio(counters["cachetier.admission_rejects"], ops),
        "lsm.get_p50_us": us(hist("lsm", "get", "total")["p50_ns"]),
        "lsm.get_p99_us": us(hist("lsm", "get", "total")["p99_ns"]),
        "lsm.bytes_read_per_get": ratio(stats["lsm"]["bytes_read"],
                                        stats["lsm"]["user_reads"]),
        "lsm.write_p50_us": us(hist("lsm", "write", "total")["p50_ns"]),
        "lsm.write_p99_us": us(hist("lsm", "write", "total")["p99_ns"]),
        "lsm.stall_us_per_write": ratio(counters["kv.stall_micros"], writes),
        "lsm.compaction_bytes_per_user_byte": ratio(
            stats["lsm"]["compaction_bytes"], user_bytes),
        "sharded.self_p50_us": us(sharded["self"]["p50_ns"]),
        "sharded.imbalance": imbalance,
        # Server self time: client-observed latency minus the span of
        # the layer the server calls into.
        "server.self_read_p50_us":
            res["read_p50_us"] - us(entry["get"]["total"]["p50_ns"]),
        "server.self_read_p99_us":
            res["read_p99_us"] - us(entry["get"]["total"]["p99_ns"]),
        "server.self_write_p50_us":
            res["write_request_p50_us"]
            - us(entry["write"]["total"]["p50_ns"]),
        "server.syscalls_per_op": ratio(res["server_syscalls"],
                                        res["measured_acked"]),
        "loadgen.sched_lag_p99_us": res["sched_lag_p99_us"],
        "loadgen.cpu_util": res["loadgen_cpu_util"],
        "trace.overhead": ratio(res["throughput_ops_s"], untraced_ops_s),
    }
    return m


def per_layer(bins, wl, seed, seconds, inputs, workdir, cpus):
    def untraced_attempt(_):
        srv, _ = set_up(bins["ethkvd"], bins, wl, seed, inputs, workdir,
                        cpus)
        try:
            res = measure(bins, wl, seed, seconds, srv, inputs, cpus)
        except BaseException:
            srv.kill()
            raise
        srv.stop()
        return (res,)

    # Per-layer figures have no bounds: a stolen run is not repeated.
    (untraced,) = valid_attempt(untraced_attempt, retry_stolen=False)
    res, stats = valid_attempt(lambda _: traced_run(
        bins, wl, seed, seconds, inputs, workdir, cpus), retry_stolen=False)
    res["failed"] += untraced["failed"]
    res["attempted"] += untraced["attempted"]
    res["ok"] = res["ok"] and untraced["ok"]
    res["mismatches"] += untraced["mismatches"]
    return res, layer_metrics(res, stats, untraced["throughput_ops_s"]), {
        "untraced_throughput_ops_s": untraced["throughput_ops_s"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    bins = build(bdir)
    gen, server = core_split()
    cpus = {"gen": gen, "server": server}
    wl, inputs, workdir = prepare(bins, args.workload, args.seed)
    steal0 = cpu_steal_ticks()
    with idle_spinners(cpus["server"]):
        if args.trace:
            res, metrics, extra = per_layer(bins, wl, args.seed,
                                            args.seconds, inputs, workdir,
                                            cpus)
        else:
            res, metrics, extra = end_to_end(bins, wl, args.seed,
                                             args.seconds, inputs, workdir,
                                             cpus)
    facts = host_facts(cpus)
    facts["cpu_steal_ticks"] = cpu_steal_ticks() - steal0
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": facts, "loadgen": res,
              "metrics": metrics}
    record.update(extra)
    rdir = os.path.join(bdir, "results")
    os.makedirs(rdir, exist_ok=True)
    with open(os.path.join(rdir, "%s-s%d-t%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    log(json.dumps({"host": facts, **extra}))

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    out = {
        "correct": bool(res["ok"] and res["mismatches"] == 0
                        and res["checked"] > 0),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": value,
                           "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        log("benchmark failed: %s" % e)
        sys.exit(1)
