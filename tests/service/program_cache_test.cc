/**
 * @file
 * ProgramCache unit tests: LRU semantics, capacity bounds across
 * shards, counters, the on-disk artifact tier (atomic write +
 * lossless reload), and a multi-threaded stress test exercising the
 * mutex striping (runs under ASan/UBSan and the TSan CI job).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/benchmarks.h"
#include "core/compiler.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/program_cache.h"

namespace qzz::svc {
namespace {

/** A tiny synthetic program (no compile, no pulse library). */
std::shared_ptr<const core::CompiledProgram>
makeProgram(int tag)
{
    core::CompiledProgram p;
    // Appending, not "p" + to_string(tag): GCC 12 reports a false
    // -Wrestrict on the inlined insert of that operator+.
    std::string name = "p";
    name += std::to_string(tag);
    p.native = ckt::QuantumCircuit(1, name);
    p.native.sx(0);
    core::Layer layer;
    layer.duration = double(tag);
    layer.gates.push_back({ckt::Gate(ckt::GateKind::SX, {0}), false});
    p.schedule.num_qubits = 1;
    p.schedule.layers.push_back(layer);
    p.pulse_method = core::PulseMethod::Gaussian;
    p.sched_policy = core::SchedPolicy::Par;
    return std::make_shared<const core::CompiledProgram>(std::move(p));
}

Fingerprint
key(uint64_t i)
{
    return FingerprintBuilder().mix(i).finish();
}

ProgramCacheConfig
cacheConfig(size_t capacity, int shards, std::string artifact_dir = "")
{
    ProgramCacheConfig config;
    config.capacity = capacity;
    config.shards = shards;
    config.artifact_dir = std::move(artifact_dir);
    return config;
}

TEST(ProgramCacheTest, InsertLookupAndCounters)
{
    ProgramCache cache(cacheConfig(4, 1));
    EXPECT_EQ(cache.lookup(key(1)), nullptr);
    auto p = makeProgram(1);
    cache.insert(key(1), p);
    EXPECT_EQ(cache.lookup(key(1)), p);
    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ProgramCacheTest, LruEvictsColdestFirst)
{
    ProgramCache cache(cacheConfig(2, 1));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    // Refresh key 1, then overflow: key 2 is now the coldest.
    EXPECT_NE(cache.lookup(key(1)), nullptr);
    cache.insert(key(3), makeProgram(3));
    EXPECT_NE(cache.lookup(key(1)), nullptr);
    EXPECT_EQ(cache.lookup(key(2)), nullptr);
    EXPECT_NE(cache.lookup(key(3)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCacheTest, ReinsertRefreshesInsteadOfDuplicating)
{
    ProgramCache cache(cacheConfig(2, 1));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    auto replacement = makeProgram(10);
    cache.insert(key(1), replacement); // refresh, key 2 coldest now
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(key(1)), replacement);
    cache.insert(key(3), makeProgram(3));
    EXPECT_EQ(cache.lookup(key(2)), nullptr);
}

TEST(ProgramCacheTest, CapacityBoundsHoldAcrossShards)
{
    ProgramCache cache(cacheConfig(8, 4));
    for (uint64_t i = 0; i < 64; ++i)
        cache.insert(key(i), makeProgram(int(i)));
    EXPECT_LE(cache.size(), 8u);
    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 64u);
    EXPECT_GE(s.evictions, 56u);
}

TEST(ProgramCacheTest, ShardCountClampedToCapacity)
{
    ProgramCache tiny(cacheConfig(2, 64));
    EXPECT_LE(tiny.config().shards, 2);
    ProgramCache rounded(cacheConfig(100, 5));
    EXPECT_EQ(rounded.config().shards, 8); // next power of two
}

TEST(ProgramCacheTest, ClearDropsMemoryEntries)
{
    ProgramCache cache(cacheConfig(4, 2));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(key(1)), nullptr);
}

class ProgramCacheDiskTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("qzz_cache_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(ProgramCacheDiskTest, ArtifactTierSurvivesRestart)
{
    // A real compiled program exercises the full artifact structure
    // (layers, sides, metrics, supplemented identities).
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    const core::Compiler compiler =
        core::CompilerBuilder(device)
            .pulseMethod(core::PulseMethod::Gaussian)
            .schedPolicy(core::SchedPolicy::Zzx)
            .build();
    core::CompileResult result = compiler.compile(ckt::qft(6));
    ASSERT_TRUE(result.ok());
    auto program = std::make_shared<const core::CompiledProgram>(
        std::move(result.program));
    const Fingerprint fp = key(42);

    {
        ProgramCache cache(cacheConfig(4, 1, dir_.string()));
        cache.insert(fp, program);
        EXPECT_EQ(cache.stats().disk_writes, 1u);
        EXPECT_TRUE(std::filesystem::exists(
            dir_ / (fp.hex() + ".qzzprog")));
    }

    // A fresh cache (fresh process, conceptually) reloads the
    // artifact bit-identically.
    ProgramCache restarted(cacheConfig(4, 1, dir_.string()));
    auto loaded = restarted.lookup(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(restarted.stats().disk_hits, 1u);
    EXPECT_EQ(programArtifactString(*loaded),
              programArtifactString(*program));
    ASSERT_NE(loaded->library, nullptr);
    // Promoted into memory: the second lookup is an in-memory hit.
    EXPECT_EQ(restarted.lookup(fp), loaded);
    EXPECT_EQ(restarted.stats().hits, 1u);
}

TEST_F(ProgramCacheDiskTest, TornArtifactIsTreatedAsMiss)
{
    const Fingerprint fp = key(7);
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / (fp.hex() + ".qzzprog")) << "qzzprog 999 junk";
    ProgramCache cache(
        cacheConfig(4, 1, dir_.string()));
    EXPECT_EQ(cache.lookup(fp), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ProgramCacheDiskTest, CorruptCountFieldsAreMissesNotCrashes)
{
    // A negative count streams into size_t as 2^64-1: the parser
    // must reject it (bounded reads), never resize() to it.
    const auto program = makeProgram(3);
    std::string text = programArtifactString(*program);
    const std::string good = "g 0 1 0 0";
    ASSERT_NE(text.find(good), std::string::npos);
    text.replace(text.find(good), good.size(), "g 0 -1 0 0");
    std::istringstream in(text);
    EXPECT_FALSE(readProgramArtifact(in, false).has_value());

    // And through the cache's disk tier: a miss, not a dead worker.
    const Fingerprint fp = key(9);
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / (fp.hex() + ".qzzprog")) << text;
    ProgramCache cache(cacheConfig(4, 1, dir_.string()));
    EXPECT_EQ(cache.lookup(fp), nullptr);

    // Huge-but-parseable counts are equally rejected.
    std::istringstream huge(
        "qzzprog 2\npulse_method Gaussian\nsched_policy ParSched\n"
        "calib_epoch 0\nnative 2 0 \n184467440737095516\n");
    EXPECT_FALSE(readProgramArtifact(huge, false).has_value());
}

TEST_F(ProgramCacheDiskTest, ArtifactRoundTripWithoutLibrary)
{
    const auto program = makeProgram(3);
    const std::string text = programArtifactString(*program);
    std::istringstream in(text);
    const auto back = readProgramArtifact(in, /*attach_library=*/false);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->library, nullptr);
    EXPECT_EQ(programArtifactString(*back), text);
}

TEST(ProgramCacheStressTest, ConcurrentInsertLookupEvict)
{
    // Hammer a small, heavily-sharded cache from many threads: the
    // per-shard LRUs must stay internally consistent and the capacity
    // bound must hold throughout.  Run under ASan/UBSan (unit label)
    // and TSan (service label CI job).
    ProgramCache cache(cacheConfig(16, 4));
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 400;
    constexpr uint64_t kKeySpace = 64;

    std::vector<std::shared_ptr<const core::CompiledProgram>> programs;
    for (int i = 0; i < int(kKeySpace); ++i)
        programs.push_back(makeProgram(i));

    std::vector<std::thread> threads;
    std::atomic<uint64_t> lookups{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(uint64_t(t) + 1);
            for (int op = 0; op < kOpsPerThread; ++op) {
                const uint64_t k =
                    uint64_t(rng.uniformInt(0, int(kKeySpace) - 1));
                const int kind = rng.uniformInt(0, 9);
                if (kind < 6) {
                    if (auto hit = cache.lookup(key(k))) {
                        EXPECT_EQ(hit->schedule.layers[0].duration,
                                  double(k));
                    }
                    lookups.fetch_add(1);
                } else if (kind < 9) {
                    cache.insert(key(k), programs[size_t(k)]);
                } else if (op % 100 == 99) {
                    cache.clear();
                }
                EXPECT_LE(cache.size(), 16u);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, lookups.load());
    EXPECT_LE(cache.size(), 16u);
}

} // namespace
} // namespace qzz::svc
