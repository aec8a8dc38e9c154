#!/usr/bin/env bash
# End-to-end ethkvd smoke drills, run by ctest.
#
#   server_smoke.sh smoke <ethkvd> <bench_server_load> <scratch>
#       Start the server on an ephemeral port, push a short mixed
#       burst through it, SIGTERM, and require a clean exit. The
#       ctest entry points <ethkvd> at the ASan build, so any
#       leak/overflow in the accept/frame/op/response path fails
#       the suite.
#
#   server_smoke.sh crash <ethkvd> <bench_server_load> <scratch> \
#       [engine [extra-flags...]]
#       The acceptance drill: fill a durable sync engine (default
#       log; "lsm" exercises kill -9 while background flushes and
#       compactions are mid-flight), kill -9 the server mid-load,
#       restart on the same directory, and verify that every
#       acknowledged write survived (zero acked-synced data loss);
#       then stop gracefully (exit 0), restart once more, verify
#       again, and stop (exit 0).
#
#   server_smoke.sh trace <ethkvd> <bench_server_load> <scratch> \
#       <ethkv_mon> <ethkv_trace_check>
#       The observability drill: run a traced load burst against a
#       fully instrumented server, then check every output surface —
#       merged client+server Chrome trace (with matching trace ids
#       and nested server stage spans), the combined metrics JSON,
#       the live dashboard over the wire and from the snapshot
#       file, and the SIGUSR1 slow-op dump on stderr.
#
#   server_smoke.sh cachetier <ethkvd> <bench_server_load> <scratch>
#       The cache-tier drill (DESIGN.md §14): generate a static
#       correlation table, start the server with the cache tier and
#       correlation prefetcher enabled, fill a working set, drive a
#       Zipf + correlated read mix, and require the run report to
#       show a >50% cache hit rate with prefetch fills issued —
#       then a clean SIGTERM exit. The ASan ctest entry points
#       <ethkvd> at the sanitized build, so shard eviction, the
#       prefetch thread, and the invalidation paths run checked
#       under real concurrent load.
#
#   server_smoke.sh failover <ethkvd> <bench_server_load> \
#       <scratch> <ethkv_ctl>
#       The replication drill (DESIGN.md §13): a semi-sync primary
#       streams its WAL to a live follower; a steady-state fill
#       must drain the follower's lag to zero; then kill -9 the
#       primary mid-load, PROMOTE the follower, and verify that
#       every acknowledged write (both phases) is served by the
#       promoted node — zero acked-synced loss across failover —
#       and that it now accepts writes and shuts down cleanly.
#
#   server_smoke.sh retention <ethkvd> <bench_server_load> \
#       <scratch> <ethkv_ctl>
#       The replication-log retention drill (DESIGN.md §13), with
#       64 KiB segments so the window (16 sealed segments) is 1 MiB:
#       with the follower down the primary writes over 4x the
#       window, and its log must stay within 17 segments; the
#       follower, now below the primary's log start, catches up
#       from a snapshot to the primary's exact key/value set — once
#       cleanly and once after a kill -9 mid-snapshot; then it is
#       promoted and a second follower catches up from it.
#
#   server_smoke.sh badsetup <ethkvd> <bench_server_load> <scratch>
#       Every set-up ethkvd cannot serve (unknown engine or env, a
#       shard count out of range or not the one the data dir was
#       made with, lsm or replication without --dir, --sync, --dir,
#       --repl or --follower-of on a volatile engine, a missing or
#       malformed --corr-table, a replication log that cannot open,
#       a flag without its value, a malformed --follower-of) prints
#       its reason and the usage and exits 2, as an unknown flag
#       does: no abort, no core file. Errors from the filesystem name
#       the flag they came from.
set -u

MODE=$1
ETHKVD=$2
LOADGEN=$3
SCRATCH=$4
shift 4

rm -rf "$SCRATCH"
mkdir -p "$SCRATCH/data"
SERVER_PID=""
FOLLOWER_PID=""

cleanup() {
    for PID in "$SERVER_PID" "$FOLLOWER_PID"; do
        if [ -n "$PID" ] && kill -0 "$PID" 2>/dev/null; then
            kill -9 "$PID" 2>/dev/null
            wait "$PID" 2>/dev/null
        fi
    done
    rm -rf "$SCRATCH"
}
trap cleanup EXIT

fail() {
    echo "server_smoke($MODE): FAILED: $1" >&2
    exit 1
}

wait_port_file() {
    for _ in $(seq 1 500); do
        [ -s "$1" ] && return 0
        sleep 0.02
    done
    fail "port file $1 never appeared"
}

case "$MODE" in
  smoke)
    "$ETHKVD" --engine hybrid --port 0 \
        --port-file "$SCRATCH/port" --workers 4 &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/port"

    "$LOADGEN" --port-file "$SCRATCH/port" --connections 8 \
        --threads 2 --ops 20000 --keys 4000 --read-pct 50 \
        || fail "load burst (rc=$?)"

    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    RC=$?
    SERVER_PID=""
    [ "$RC" -eq 0 ] || fail "server exit code $RC after SIGTERM"
    ;;

  crash)
    ENGINE=${1:-log}
    [ $# -gt 0 ] && shift
    EXTRA_FLAGS=("$@")
    "$ETHKVD" --engine "$ENGINE" --dir "$SCRATCH/data" --sync \
        ${EXTRA_FLAGS[@]+"${EXTRA_FLAGS[@]}"} \
        --port 0 --port-file "$SCRATCH/port" --workers 2 &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/port"

    # Fill in the background; every acked key id lands in the
    # acked file as its response arrives.
    "$LOADGEN" --port-file "$SCRATCH/port" --mode fill \
        --keys 200000 --connections 4 --threads 2 \
        --acked-file "$SCRATCH/acked" &
    LOAD_PID=$!

    # Let some writes through, then pull the plug.
    sleep 0.5
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null
    SERVER_PID=""

    wait "$LOAD_PID"
    LOAD_RC=$?
    # 0 = fill finished before the kill (raise --keys); 75 = died
    # mid-load as intended. Anything else is a load-gen bug.
    [ "$LOAD_RC" -eq 0 ] || [ "$LOAD_RC" -eq 75 ] \
        || fail "fill exit code $LOAD_RC"
    [ -s "$SCRATCH/acked" ] || fail "no writes were acked"
    ACKED=$(wc -l < "$SCRATCH/acked")
    echo "server_smoke(crash): $ACKED writes acked before kill -9"

    # Restart on the same directory; recovery must surface every
    # acked (therefore synced) write. Then stop it gracefully and
    # restart once more: the recovered state must itself recover,
    # and each stop must exit 0.
    for ROUND in 2 3; do
        "$ETHKVD" --engine "$ENGINE" --dir "$SCRATCH/data" --sync \
            ${EXTRA_FLAGS[@]+"${EXTRA_FLAGS[@]}"} \
            --port 0 --port-file "$SCRATCH/port$ROUND" --workers 2 &
        SERVER_PID=$!
        wait_port_file "$SCRATCH/port$ROUND"

        "$LOADGEN" --port-file "$SCRATCH/port$ROUND" --mode verify \
            --acked-file "$SCRATCH/acked" \
            || fail "acked-synced data lost (start $ROUND)"

        kill -TERM "$SERVER_PID"
        wait "$SERVER_PID"
        RC=$?
        SERVER_PID=""
        [ "$RC" -eq 0 ] \
            || fail "server exit code $RC after SIGTERM (start $ROUND)"
    done
    ;;

  trace)
    MON=$1
    TRACE_CHECK=$2

    # Everything on: full-rate tracing + stage stats, slow-op log
    # that records every request, live metrics snapshots.
    "$ETHKVD" --engine btree --port 0 \
        --port-file "$SCRATCH/port" --workers 2 \
        --trace "$SCRATCH/server_trace.json" \
        --trace-sample-shift 0 --stage-sample-shift 0 \
        --slow-op-micros 0 \
        --metrics-interval 100 \
        --metrics-file "$SCRATCH/live.json" \
        2> "$SCRATCH/server.err" &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/port"

    # Traced load: client spans + server TRACEDUMP merge into one
    # timeline, and the combined metrics doc scrapes STATS.
    "$LOADGEN" --port-file "$SCRATCH/port" --connections 4 \
        --threads 2 --ops 20000 --keys 2000 --read-pct 50 \
        --trace-out "$SCRATCH/merged_trace.json" \
        --metrics-out "$SCRATCH/combined.json" \
        || fail "traced load burst (rc=$?)"

    # Merged trace: client spans, server spans, shared trace ids,
    # stage spans nested inside request spans.
    [ -s "$SCRATCH/merged_trace.json" ] \
        || fail "merged trace not written"
    "$TRACE_CHECK" "$SCRATCH/merged_trace.json" \
        --require-server --require-client --require-match \
        || fail "merged trace validation"

    # Combined metrics doc: bench schema, client histograms, and
    # the server's per-stage latency attribution via STATS.
    [ -s "$SCRATCH/combined.json" ] \
        || fail "combined metrics doc not written"
    grep -q "ethkv.bench_server_load.v1" "$SCRATCH/combined.json" \
        || fail "combined doc schema missing"
    grep -q "op.server.exec_ns" "$SCRATCH/combined.json" \
        || fail "server stage histograms missing from combined doc"
    grep -q "p999" "$SCRATCH/combined.json" \
        || fail "percentile gauges missing from combined doc"

    # Live dashboard: one frame over the wire and one from the
    # periodic snapshot file.
    "$MON" --port-file "$SCRATCH/port" --once \
        > "$SCRATCH/mon_wire.txt" \
        || fail "ethkv_mon wire poll (rc=$?)"
    grep -q "get" "$SCRATCH/mon_wire.txt" \
        || fail "mon wire output missing per-op table"
    for _ in $(seq 1 100); do
        [ -s "$SCRATCH/live.json" ] && break
        sleep 0.05
    done
    [ -s "$SCRATCH/live.json" ] \
        || fail "live metrics file never appeared"
    "$MON" --file "$SCRATCH/live.json" --once \
        > "$SCRATCH/mon_file.txt" \
        || fail "ethkv_mon file poll (rc=$?)"

    # SIGUSR1: slow-op dump lands on stderr as one JSON document.
    kill -USR1 "$SERVER_PID"
    for _ in $(seq 1 100); do
        grep -q "ethkv.slowops.v1" "$SCRATCH/server.err" && break
        sleep 0.05
    done
    grep -q "ethkv.slowops.v1" "$SCRATCH/server.err" \
        || fail "SIGUSR1 slow-op dump missing from stderr"

    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    RC=$?
    SERVER_PID=""
    [ "$RC" -eq 0 ] || fail "server exit code $RC after SIGTERM"

    # The server wrote its own trace file on shutdown; it must be
    # a valid Chrome trace with request spans.
    [ -s "$SCRATCH/server_trace.json" ] \
        || fail "server trace file not written"
    "$TRACE_CHECK" "$SCRATCH/server_trace.json" --require-server \
        || fail "server trace file validation"
    ;;

  cachetier)
    # Static correlation table over the key groups the correlated
    # read mode walks (--corr-follow reads from the same group).
    "$LOADGEN" --corr-table-out "$SCRATCH/corr.txt" \
        --keys 2000 --corr-follow 3 \
        || fail "correlation table generation (rc=$?)"
    [ -s "$SCRATCH/corr.txt" ] || fail "correlation table empty"

    "$ETHKVD" --engine hybrid --port 0 \
        --port-file "$SCRATCH/port" --workers 4 \
        --cache-tier-bytes 67108864 --cache-shards 8 \
        --prefetch-k 4 --corr-table "$SCRATCH/corr.txt" &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/port"

    # Fill the working set, then drive the Zipf + correlated read
    # mix the cache tier is built for.
    "$LOADGEN" --port-file "$SCRATCH/port" --mode fill \
        --keys 2000 --connections 2 --threads 1 \
        || fail "fill (rc=$?)"
    "$LOADGEN" --port-file "$SCRATCH/port" --connections 8 \
        --threads 2 --ops 30000 --zipf-accounts 2000 \
        --zipf 1.1 --read-pct 90 --corr-follow 3 \
        --metrics-out "$SCRATCH/load.json" \
        || fail "correlated load burst (rc=$?)"

    # The acceptance bar: the run report must show the cache
    # absorbing most GETs and the prefetcher actually working.
    [ -s "$SCRATCH/load.json" ] || fail "metrics doc not written"
    HIT_RATE=$(grep -o '"cachetier_hit_rate":[0-9.eE+-]*' \
        "$SCRATCH/load.json" | cut -d: -f2)
    [ -n "$HIT_RATE" ] || fail "cachetier_hit_rate missing"
    awk -v h="$HIT_RATE" 'BEGIN { exit !(h > 0.5) }' \
        || fail "cache hit rate $HIT_RATE is below the 50% bar"
    grep -q '"cachetier.prefetch.issued": *[1-9]' \
        "$SCRATCH/load.json" \
        || fail "prefetcher issued no fills"
    echo "server_smoke(cachetier): hit rate $HIT_RATE"

    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    RC=$?
    SERVER_PID=""
    [ "$RC" -eq 0 ] || fail "server exit code $RC after SIGTERM"
    ;;

  failover)
    CTL=$1

    # Primary: durable sync log engine, replication on, semi-sync
    # acks — an acked write is on every live follower, which is
    # exactly the guarantee the zero-loss check below leans on.
    "$ETHKVD" --engine log --dir "$SCRATCH/data" --sync \
        --repl --repl-sync \
        --port 0 --port-file "$SCRATCH/pport" --workers 2 &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/pport"
    PPORT=$(cat "$SCRATCH/pport")

    mkdir -p "$SCRATCH/fdata"
    "$ETHKVD" --engine log --dir "$SCRATCH/fdata" --sync \
        --follower-of "127.0.0.1:$PPORT" \
        --port 0 --port-file "$SCRATCH/fport" --workers 2 &
    FOLLOWER_PID=$!
    wait_port_file "$SCRATCH/fport"

    ROLE=$("$CTL" role --port-file "$SCRATCH/fport") \
        || fail "role query on the follower"
    [ "$ROLE" = "follower" ] \
        || fail "expected role=follower, got '$ROLE'"

    # Phase 1: steady-state fill, then require the follower to
    # reach the primary's log end while the primary is alive.
    "$LOADGEN" --port-file "$SCRATCH/pport" --mode fill \
        --keys 3000 --connections 2 --threads 1 \
        --acked-file "$SCRATCH/acked1" \
        || fail "phase-1 fill (rc=$?)"
    "$CTL" wait-caught-up --port-file "$SCRATCH/fport" \
        --primary-port-file "$SCRATCH/pport" --timeout-ms 15000 \
        || fail "follower lag never drained to zero"

    # Phase 2: fill in the background and pull the plug on the
    # primary mid-stream.
    "$LOADGEN" --port-file "$SCRATCH/pport" --mode fill \
        --keys 200000 --connections 4 --threads 2 \
        --acked-file "$SCRATCH/acked2" &
    LOAD_PID=$!
    sleep 0.5
    kill -9 "$SERVER_PID"
    wait "$SERVER_PID" 2>/dev/null
    SERVER_PID=""

    wait "$LOAD_PID"
    LOAD_RC=$?
    [ "$LOAD_RC" -eq 0 ] || [ "$LOAD_RC" -eq 75 ] \
        || fail "fill exit code $LOAD_RC"
    [ -s "$SCRATCH/acked2" ] \
        || fail "no phase-2 writes were acked"
    ACKED=$(cat "$SCRATCH/acked1" "$SCRATCH/acked2" | wc -l)
    echo "server_smoke(failover): $ACKED writes acked before" \
        "kill -9"

    # Failover: promote the follower and check the role flipped.
    "$CTL" promote --port-file "$SCRATCH/fport" \
        || fail "PROMOTE on the surviving follower"
    ROLE=$("$CTL" role --port-file "$SCRATCH/fport") \
        || fail "role query after promote"
    [ "$ROLE" = "primary" ] \
        || fail "expected role=primary after promote, got '$ROLE'"

    # Zero acked-synced loss: every write acknowledged by the dead
    # primary — in either phase — must be served by the promoted
    # node (semi-sync put it there before the ack went out).
    cat "$SCRATCH/acked1" "$SCRATCH/acked2" > "$SCRATCH/acked"
    "$LOADGEN" --port-file "$SCRATCH/fport" --mode verify \
        --acked-file "$SCRATCH/acked" \
        || fail "acked-synced data lost across failover"

    # The promoted node is a real primary: it takes new writes...
    "$LOADGEN" --port-file "$SCRATCH/fport" --mode fill \
        --keys 500 --connections 2 --threads 1 \
        --acked-file "$SCRATCH/acked3" \
        || fail "post-promote fill rejected (rc=$?)"

    # ...and SIGTERM still exits cleanly (send queues flushed).
    kill -TERM "$FOLLOWER_PID"
    wait "$FOLLOWER_PID"
    RC=$?
    FOLLOWER_PID=""
    [ "$RC" -eq 0 ] || fail "promoted node exit code $RC"
    ;;

  retention)
    CTL=$1
    SEG=65536
    # Segment count and per-segment cap the retention rule allows:
    # the newest 16 sealed segments plus the active one, each at
    # most SEG plus the record that crossed the line.
    MAX_SEGS=17
    MAX_SEG_BYTES=$((SEG + 4096))
    COMMON=(--engine lsm --memtable-bytes 262144 --workers 2
            --repl-segment-bytes "$SEG" --port 0)

    start_follower() { # <dir> <primary port file> <own port file>
        rm -f "$3"
        "$ETHKVD" "${COMMON[@]}" --dir "$1" \
            --follower-of "127.0.0.1:$(cat "$2")" \
            --port-file "$3" &
        FOLLOWER_PID=$!
        wait_port_file "$3"
    }
    stop_follower() {
        kill -TERM "$FOLLOWER_PID"
        wait "$FOLLOWER_PID"
        local rc=$?
        FOLLOWER_PID=""
        [ "$rc" -eq 0 ] || fail "follower exit code $rc"
    }
    # Write about 6 MiB of log (over 4x the 1 MiB window).
    fill() { # <port file> <key base>
        "$LOADGEN" --port-file "$1" --mode fill --keys 20000 \
            --key-base "$2" --value-bytes 256 --connections 2 \
            --threads 1 > /dev/null \
            || fail "fill at key base $2 (rc=$?)"
    }
    check_bounded() { # <repl dir>
        local n=0 f size
        for f in "$1"/repl-*.log; do
            n=$((n + 1))
            size=$(stat -c %s "$f")
            [ "$size" -le "$MAX_SEG_BYTES" ] \
                || fail "$f holds $size bytes (cap $MAX_SEG_BYTES)"
        done
        [ "$n" -le "$MAX_SEGS" ] \
            || fail "$1 holds $n segments; retention allows $MAX_SEGS"
    }
    log_start() { # <repl dir>: the START marker's start offset
        [ -s "$1/START" ] || { echo 0; return; }
        cut -d' ' -f3 "$1/START"
    }
    same_data() { # <port file> <port file>
        local a b
        a=$("$CTL" digest --port-file "$1") || fail "digest $1"
        b=$("$CTL" digest --port-file "$2") || fail "digest $2"
        [ "$a" = "$b" ] || fail "scans differ: $a vs $b"
        echo "server_smoke(retention): scans agree ($a)"
    }
    caught_up() { # <follower port file> <primary port file>
        "$CTL" wait-caught-up --port-file "$1" \
            --primary-port-file "$2" --timeout-ms 30000 \
            > /dev/null || fail "follower $1 never caught up"
    }

    "$ETHKVD" "${COMMON[@]}" --dir "$SCRATCH/data" --repl \
        --port-file "$SCRATCH/pport" &
    SERVER_PID=$!
    wait_port_file "$SCRATCH/pport"

    # 1. The follower syncs, goes down, and the primary writes
    #    over 4x the window: its log must stay bounded.
    start_follower "$SCRATCH/f1" "$SCRATCH/pport" "$SCRATCH/f1port"
    "$LOADGEN" --port-file "$SCRATCH/pport" --mode fill --keys 500 \
        --connections 1 --threads 1 > /dev/null || fail "warm-up"
    caught_up "$SCRATCH/f1port" "$SCRATCH/pport"
    stop_follower
    fill "$SCRATCH/pport" 100000
    check_bounded "$SCRATCH/data/repl"
    [ "$(log_start "$SCRATCH/data/repl")" -gt 0 ] \
        || fail "primary log start never advanced"

    # 2. The follower restarts below the log start: snapshot.
    start_follower "$SCRATCH/f1" "$SCRATCH/pport" "$SCRATCH/f1port"
    caught_up "$SCRATCH/f1port" "$SCRATCH/pport"
    [ "$(log_start "$SCRATCH/f1/repl")" -gt 0 ] \
        || fail "follower caught up without a snapshot"
    same_data "$SCRATCH/pport" "$SCRATCH/f1port"

    # 3. Again, with a kill -9 while the snapshot is under way
    #    (the START marker's last field is the pending flag).
    stop_follower
    fill "$SCRATCH/pport" 200000
    start_follower "$SCRATCH/f1" "$SCRATCH/pport" "$SCRATCH/f1port"
    for _ in $(seq 1 2000); do
        [ "$(cut -d' ' -f5 "$SCRATCH/f1/repl/START" 2>/dev/null)" \
            = "1" ] && break
        sleep 0.005
    done
    [ "$(cut -d' ' -f5 "$SCRATCH/f1/repl/START")" = "1" ] \
        || fail "never saw the follower mid-snapshot"
    kill -9 "$FOLLOWER_PID"
    wait "$FOLLOWER_PID" 2>/dev/null
    FOLLOWER_PID=""
    start_follower "$SCRATCH/f1" "$SCRATCH/pport" "$SCRATCH/f1port"
    caught_up "$SCRATCH/f1port" "$SCRATCH/pport"
    same_data "$SCRATCH/pport" "$SCRATCH/f1port"
    check_bounded "$SCRATCH/data/repl"

    # 4. Promote it; a fresh second follower (below the promoted
    #    node's log start, which is its snapshot base) catches up
    #    from the promoted node.
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    RC=$?
    SERVER_PID=""
    [ "$RC" -eq 0 ] || fail "primary exit code $RC"
    "$CTL" promote --port-file "$SCRATCH/f1port" > /dev/null \
        || fail "PROMOTE after the snapshot"
    F1_PID=$FOLLOWER_PID
    start_follower "$SCRATCH/f2" "$SCRATCH/f1port" "$SCRATCH/f2port"
    SERVER_PID=$F1_PID
    "$LOADGEN" --port-file "$SCRATCH/f1port" --mode fill \
        --keys 2000 --key-base 300000 --connections 1 --threads 1 \
        > /dev/null || fail "write to the promoted node"
    caught_up "$SCRATCH/f2port" "$SCRATCH/f1port"
    [ "$(log_start "$SCRATCH/f2/repl")" -gt 0 ] \
        || fail "second follower caught up without a snapshot"
    same_data "$SCRATCH/f1port" "$SCRATCH/f2port"

    stop_follower
    kill -TERM "$SERVER_PID"
    wait "$SERVER_PID"
    RC=$?
    SERVER_PID=""
    [ "$RC" -eq 0 ] || fail "promoted node exit code $RC"
    ;;

  badsetup)
    cd "$SCRATCH" || fail "cd $SCRATCH"
    ulimit -c unlimited # an abort would leave ./core
    printf 'zz 0a0b\n' > bad_corr.txt
    mkdir -p sharded replfile && printf '2\n' > sharded/SHARDS
    : > replfile/repl
    refused() { # <expected message> <flags...>
        WANT=$1
        shift
        "$ETHKVD" --port 0 "$@" > out.txt 2>&1
        RC=$?
        [ "$RC" -eq 2 ] || fail "ethkvd $* exited $RC, not 2"
        grep -qF -- "$WANT" out.txt \
            || fail "ethkvd $*: no '$WANT' in: $(head -2 out.txt)"
        grep -q '^usage:' out.txt || fail "ethkvd $*: no usage"
        ! ls core* > /dev/null 2>&1 || fail "ethkvd $*: core file"
    }
    refused "unknown --engine cached" --engine cached
    refused "unknown --env bogus" --env bogus
    refused "--shards must be in [1, 256]" --shards 0
    refused "--shards must be in [1, 256]" --shards 257
    refused "shard count mismatch" --engine log --dir sharded \
        --shards 4
    refused "--engine lsm needs --dir" --engine lsm
    refused "replication needs --dir" --engine log --repl
    refused "replication needs --dir" --engine log \
        --follower-of 127.0.0.1:1
    DURABLE="needs a durable engine (lsm|log)"
    refused "--sync $DURABLE" --engine hybrid --sync
    refused "--dir $DURABLE" --engine btree --dir volatile
    refused "--repl $DURABLE" --engine hybrid --repl
    refused "--follower-of $DURABLE" --engine btree \
        --follower-of 127.0.0.1:1
    refused "--port needs a value" --port
    refused "--follower-of wants host:port" --engine log --dir d \
        --follower-of nocolon
    refused "--corr-table: IOError: stat /nonexistent" \
        --cache-tier-bytes 1048576 --corr-table /nonexistent
    refused "bad hex token" --cache-tier-bytes 1048576 \
        --corr-table bad_corr.txt
    refused "replfile/repl" --engine log --dir replfile --repl
    [ ! -e volatile ] || fail "a refused --dir was created"
    ;;

  *)
    fail "unknown mode $MODE"
    ;;
esac

echo "server_smoke($MODE): PASS"
exit 0
