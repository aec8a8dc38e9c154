/**
 * @file
 * server.stack: the node built from each benchmark workload's server
 * flags (perfbench/run.py) serves the layer chain ethkvd logged for
 * those flags before server/stack existed, and round-trips a put and
 * a get over the wire. (server.bad_setup_exits_2 covers the set-ups
 * the builder refuses.)
 */

#include <gtest/gtest.h>

#include <string>

#include "common/env.hh"
#include "server/client.hh"
#include "server/stack.hh"
#include "../kvstore/test_util.hh"

namespace ethkv::server
{
namespace
{

using testutil::ScratchDir;

/** One benchmark workload's server flags (perfbench/run.py). */
struct Workload
{
    const char *name;
    const char *chain; //!< Server::engineName(), as ethkvd logs it.
    bool repl;
    int workers;
    uint64_t cache_tier_bytes;
    uint32_t cache_shards;
    uint32_t prefetch_k;
    bool corr_table;
};

class StackTest : public ::testing::TestWithParam<Workload>
{};

TEST_P(StackTest, ServesTheChainEthkvdServes)
{
    const Workload &w = GetParam();
    ScratchDir dir("stack");
    // run.py's common flags, where they differ from the defaults.
    StackOptions o;
    o.engine = "lsm";
    o.shards = 4;
    o.dir = dir.path() + "/data";
    o.memtable_bytes = 1 << 20;
    o.server.max_frame_bytes = 16 << 20;
    o.server.slow_op_micros = 1000;
    o.repl = w.repl;
    o.server.workers = w.workers;
    o.cache.capacity_bytes = w.cache_tier_bytes;
    o.cache.shards = w.cache_shards;
    o.prefetch.top_k = w.prefetch_k;
    if (w.corr_table) {
        o.corr_table = dir.path() + "/corr.txt";
        ASSERT_TRUE(Env::defaultEnv()
                        ->writeStringToFile(o.corr_table,
                                            "0a0b 0c0d 0e0f\n", false)
                        .isOk());
    }

    auto built = Stack::build(o);
    ASSERT_TRUE(built.ok()) << built.status().toString();
    std::unique_ptr<Stack> stack = built.take();
    EXPECT_EQ(stack->server().engineName(), w.chain);
    ASSERT_TRUE(stack->start().isOk());

    auto client = Client::open("127.0.0.1", stack->server().port());
    ASSERT_TRUE(client.ok()) << client.status().toString();
    ASSERT_TRUE(client.value()->put("stack-key", "value").isOk());
    Bytes got;
    ASSERT_TRUE(client.value()->get("stack-key", got).isOk());
    EXPECT_EQ(got, "value");
    ASSERT_TRUE(stack->engine().get("stack-key", got).isOk());
    EXPECT_EQ(got, "value");
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarkWorkloads, StackTest,
    ::testing::Values(
        Workload{"trace_repl", "obs(sharded(lsm x4)+repl)", true, 4,
                 0, 16, 0, false},
        Workload{"corr_read_cached", "obs(cachetier(sharded(lsm x4)))",
                 false, 2, 128 << 20, 64, 4, true},
        Workload{"zipf_mixed_large",
                 "obs(cachetier(sharded(lsm x4)+repl))", true, 2,
                 32 << 20, 16, 4, false}),
    [](const auto &info) { return std::string(info.param.name); });

} // namespace
} // namespace ethkv::server
