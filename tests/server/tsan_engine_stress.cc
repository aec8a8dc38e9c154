/**
 * @file
 * ThreadSanitizer stress for the engine stacks ethkvd serves
 * concurrently, always built with -fsanitize=thread (see
 * tests/CMakeLists.txt). Eight threads — the shape of an 8-worker
 * server — hammer one shared store through the same wrappers
 * ethkvd uses:
 *
 *  - HybridKVStore bare (per-route shard locks),
 *  - LockedKVStore over BTreeStore (every single-threaded engine).
 *
 * Readers run stats()/liveKeyCount() concurrently with writers,
 * since those are what the server's STATS op calls from any
 * worker. A data race in the hybrid shard locking or the big-lock
 * decorator fails `ctest` on every build.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/hybrid_store.hh"
#include "kvstore/btree_store.hh"
#include "kvstore/locked_store.hh"

using namespace ethkv;

namespace
{

std::atomic<int> failures{0};

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "tsan_engine_stress: FAILED: %s\n",
                      what);
        ++failures;
    }
}

constexpr int num_threads = 8;
constexpr int ops_per_thread = 3000;

/**
 * A key classify() maps to a real class, covering all four hybrid
 * routes. Sizes must match the schema (33/41/65 bytes).
 */
Bytes
routedKey(int thread, int i)
{
    struct Shape
    {
        char prefix;
        size_t size;
    };
    // 'a' -> Ordered, 'b' -> Log, 'A'/'c' -> LazyLog,
    // 'H'/'L' -> Hash.
    static const Shape shapes[] = {
        {'a', 33}, {'b', 41}, {'A', 33},
        {'c', 33}, {'H', 33}, {'L', 33},
    };
    const Shape &shape = shapes[i % 6];
    Bytes key(1, shape.prefix);
    key += "t" + std::to_string(thread) + "-" +
           std::to_string(i % 131) + "-";
    key.resize(shape.size, 'x');
    return key;
}

/** The server-worker body: mixed ops against one shared store. */
void
workerBody(kv::KVStore &store, int thread)
{
    Bytes value;
    for (int i = 0; i < ops_per_thread; ++i) {
        Bytes key = routedKey(thread, i);
        switch (i % 5) {
          case 0:
          case 1:
            check(store.put(key, "v" + std::to_string(i)).isOk(),
                  "put");
            break;
          case 2: {
            Status s = store.get(key, value);
            check(s.isOk() || s.isNotFound(), "get");
            break;
          }
          case 3: {
            kv::WriteBatch batch;
            batch.put(key, "batched");
            batch.del(routedKey(thread, i + 7));
            check(store.apply(batch).isOk(), "apply");
            break;
          }
          default: {
            // Ordered route only ('a' snapshot keys scan).
            Bytes start(1, 'a');
            start.resize(33, '\0');
            Bytes end(1, 'a');
            end.resize(33, '\xff');
            uint64_t seen = 0;
            Status s = store.scan(
                start, end, [&seen](BytesView, BytesView) {
                    return ++seen < 32;
                });
            check(s.isOk() ||
                      s.code() == StatusCode::NotSupported,
                  "scan");
            break;
          }
        }
    }
}

/** The STATS-op body: concurrent whole-store readers. */
void
statsBody(kv::KVStore &store)
{
    for (int i = 0; i < 400; ++i) {
        kv::IOStats snapshot = store.stats();
        check(snapshot.user_writes <=
                  static_cast<uint64_t>(num_threads) *
                      ops_per_thread * 2,
              "stats snapshot sane");
        store.liveKeyCount();
    }
}

void
stressStore(kv::KVStore &store, const char *label)
{
    std::vector<std::thread> threads;
    for (int t = 0; t < num_threads; ++t)
        threads.emplace_back(
            [&store, t] { workerBody(store, t); });
    threads.emplace_back([&store] { statsBody(store); });
    for (std::thread &t : threads)
        t.join();
    check(store.flush().isOk(), label);
    std::fprintf(stderr, "tsan_engine_stress: %s done (%llu live)\n",
                 label,
                 static_cast<unsigned long long>(
                     store.liveKeyCount()));
}

} // namespace

int
main()
{
    {
        core::HybridKVStore hybrid;
        stressStore(hybrid, "hybrid");
    }
    {
        kv::BTreeStore btree;
        kv::LockedKVStore locked(btree);
        stressStore(locked, "locked(btree)");
    }

    if (failures) {
        std::fprintf(stderr, "tsan_engine_stress: %d failures\n",
                      failures.load());
        return 1;
    }
    std::fprintf(stderr, "tsan_engine_stress: PASS\n");
    return 0;
}
