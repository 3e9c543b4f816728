// TieredStateStore: store-contract semantics under a tiny pool (faults,
// write-backs, init-value reads), the factory's `tiered:` grammar and its
// error messages, prefetch accounting, and per-shard log segments under
// the `sharded:` wrapper.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <sys/stat.h>
#include <utility>
#include <vector>

#include "state/client_state_store.h"
#include "state/tiered_store.h"
#include "util/thread_pool.h"

namespace fedadmm {
namespace {

constexpr int kClients = 8;
constexpr int64_t kDim = 6;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::vector<StateSlotSpec> TwoSlots() {
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = kDim;
  slots[1].dim = kDim;
  slots[1].init.assign(static_cast<size_t>(kDim), 0.5f);
  return slots;
}

std::unique_ptr<ClientStateStore> MakeTiered(const std::string& file,
                                             const std::string& frames) {
  auto store =
      MakeClientStateStore("tiered:" + frames + ":" + TempPath(file))
          .ValueOrDie();
  store->Configure(kClients, TwoSlots());
  return store;
}

TEST(TieredStoreTest, NameRoundTripsThroughFactory) {
  const std::string spec = "tiered:2f:" + TempPath("tiered_name.slab");
  auto store = MakeClientStateStore(spec).ValueOrDie();
  EXPECT_EQ(store->name(), spec);
  // A trailing inner spec is refused rather than becoming part of the
  // slab-log file name.
  const Status suffixed = MakeClientStateStore(spec + ":dense").status();
  EXPECT_TRUE(suffixed.IsInvalidArgument());
  EXPECT_NE(suffixed.message().find("no inner spec"), std::string::npos)
      << suffixed.message();
}

TEST(TieredStoreTest, UntouchedReadsSeeInitWithoutMaterializing) {
  auto store = MakeTiered("tiered_init.slab", "2f");
  const std::span<const float> zeros = store->View(3, 0);
  const std::span<const float> halves = store->View(3, 1);
  ASSERT_EQ(zeros.size(), static_cast<size_t>(kDim));
  EXPECT_EQ(zeros[0], 0.0f);
  EXPECT_EQ(halves[2], 0.5f);
  EXPECT_EQ(store->num_touched_clients(), 0);
  store->Release(3);
}

TEST(TieredStoreTest, ValuesSurviveEvictionChurn) {
  // 2 frames against 8 clients × 2 slots: every write cycle churns the
  // pool through the slab log, yet each slab must read back bitwise.
  auto store = MakeTiered("tiered_churn.slab", "2f");
  for (int c = 0; c < kClients; ++c) {
    for (int s = 0; s < 2; ++s) {
      std::span<float> v = store->MutableView(c, s);
      for (int64_t i = 0; i < kDim; ++i) {
        v[static_cast<size_t>(i)] = static_cast<float>(100 * c + 10 * s) +
                                    static_cast<float>(i) * 0.25f;
      }
    }
    store->Release(c);
  }
  EXPECT_EQ(store->num_touched_clients(), kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int s = 0; s < 2; ++s) {
      const std::span<const float> v = store->View(c, s);
      for (int64_t i = 0; i < kDim; ++i) {
        EXPECT_EQ(v[static_cast<size_t>(i)],
                  static_cast<float>(100 * c + 10 * s) +
                      static_cast<float>(i) * 0.25f)
            << "client " << c << " slot " << s << " elem " << i;
      }
    }
    store->Release(c);
  }
  auto* tiered = static_cast<TieredStateStore*>(store.get());
  EXPECT_GT(tiered->pool_write_backs(), 0);
  EXPECT_GT(tiered->pool_misses(), 0);  // Disk faults, not first touches.
}

TEST(TieredStoreTest, ResidentBytesArePinnedToPoolGeometry) {
  auto store = MakeTiered("tiered_resident.slab", "3f");
  auto* tiered = static_cast<TieredStateStore*>(store.get());
  for (int c = 0; c < kClients; ++c) {
    store->MutableView(c, 0);
    store->MutableView(c, 1);
    store->Release(c);
  }
  // 16 touched slabs, 3 frames: residency is the pool, not the population.
  EXPECT_EQ(store->bytes_resident(),
            tiered->pool_capacity_frames() * tiered->pool_frame_bytes());
  EXPECT_EQ(tiered->pool_capacity_frames(), 3);
}

TEST(TieredStoreTest, ForEachTouchedVisitsInOrderWithCurrentValues) {
  auto store = MakeTiered("tiered_visit.slab", "2f");
  for (const int c : {5, 1, 3}) {
    std::span<float> v = store->MutableView(c, 1);
    v[0] = static_cast<float>(c);
    store->Release(c);
  }
  std::vector<std::pair<int, int>> visited;
  std::vector<float> first;
  store->ForEachTouched(
      [&](int client, int slot, std::span<const float> value) {
        visited.emplace_back(client, slot);
        first.push_back(value[0]);
      });
  // Increasing (client, slot); slot 0 was never touched for these clients.
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], std::make_pair(1, 1));
  EXPECT_EQ(visited[1], std::make_pair(3, 1));
  EXPECT_EQ(visited[2], std::make_pair(5, 1));
  EXPECT_EQ(first[0], 1.0f);
  EXPECT_EQ(first[1], 3.0f);
  EXPECT_EQ(first[2], 5.0f);
}

TEST(TieredStoreTest, PrefetchTurnsWaveMissesIntoHits) {
  auto store = MakeTiered("tiered_prefetch.slab", "4f");
  auto* tiered = static_cast<TieredStateStore*>(store.get());
  // Touch everyone, then churn the cohort {0, 1} out of the pool.
  for (int c = 0; c < kClients; ++c) {
    store->MutableView(c, 0);
    store->MutableView(c, 1);
    store->Release(c);
  }
  ThreadPool pool(2);
  store->PrefetchClients({0, 1}, &pool);
  pool.Wait();
  // Per-slab accounting: 2 clients × 2 cold slabs each.
  EXPECT_EQ(tiered->prefetch_issued(), 4);

  const int64_t misses_before = tiered->pool_misses();
  const int64_t hits_before = tiered->pool_hits();
  store->View(0, 0);
  store->View(0, 1);
  store->Release(0);
  store->View(1, 0);
  store->Release(1);
  EXPECT_EQ(tiered->pool_misses(), misses_before);  // All prefetched.
  EXPECT_EQ(tiered->pool_hits(), hits_before + 3);
  EXPECT_EQ(tiered->prefetch_late(), 0);
}

TEST(TieredStoreTest, LatePrefetchIsCountedNotWrong) {
  auto store = MakeTiered("tiered_late.slab", "2f");
  auto* tiered = static_cast<TieredStateStore*>(store.get());
  for (int c = 0; c < kClients; ++c) {
    store->MutableView(c, 0);
    store->Release(c);
  }
  // Synchronous prefetch (null pool), then churn the cohort back out
  // before "the wave" reads it: the read faults and counts as late.
  store->PrefetchClients({0}, nullptr);
  for (int c = 4; c < kClients; ++c) {
    store->MutableView(c, 0);
    store->Release(c);
  }
  const int64_t late_before = tiered->prefetch_late();
  store->View(0, 0);
  store->Release(0);
  EXPECT_EQ(tiered->prefetch_late(), late_before + 1);
}

TEST(TieredStoreTest, ConfigureWipesLogAndDirectory) {
  auto store = MakeTiered("tiered_reconf.slab", "2f");
  std::span<float> v = store->MutableView(2, 0);
  v[0] = 9.0f;
  store->Release(2);
  store->Configure(kClients, TwoSlots());
  EXPECT_EQ(store->num_touched_clients(), 0);
  EXPECT_EQ(store->View(2, 0)[0], 0.0f);
  store->Release(2);
}

TEST(TieredStoreTest, ShardedTieredOwnsPerShardSegments) {
  const std::string base = TempPath("tiered_shard.slab");
  auto store =
      MakeClientStateStore("sharded:2:tiered:2f:" + base).ValueOrDie();
  std::vector<StateSlotSpec> slots(1);
  slots[0].dim = kDim;
  store->Configure(kClients, std::move(slots));
  for (int c = 0; c < kClients; ++c) {
    std::span<float> v = store->MutableView(c, 0);
    v[0] = static_cast<float>(c);
    store->Release(c);
  }
  // Each worker opened its own log segment; values read back through the
  // partition bitwise.
  EXPECT_TRUE(FileExists(base + ".seg0"));
  EXPECT_TRUE(FileExists(base + ".seg1"));
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(store->View(c, 0)[0], static_cast<float>(c));
    store->Release(c);
  }
}

TEST(TieredStoreTest, DestructorRemovesScratchSegment) {
  const std::string path = TempPath("tiered_cleanup.slab");
  {
    auto store = MakeClientStateStore("tiered:2f:" + path).ValueOrDie();
    std::vector<StateSlotSpec> slots(1);
    slots[0].dim = kDim;
    store->Configure(kClients, std::move(slots));
    store->MutableView(0, 0);
    store->Release(0);
    EXPECT_TRUE(FileExists(path));
  }
  EXPECT_FALSE(FileExists(path));
}

TEST(TieredStoreFactoryTest, CapacityTokenForms) {
  // MiB form: 1 MiB over 6-float (24-byte) frames.
  auto mib = MakeClientStateStore("tiered:1:" + TempPath("cap_mib.slab"))
                 .ValueOrDie();
  std::vector<StateSlotSpec> slots(1);
  slots[0].dim = kDim;
  mib->Configure(kClients, std::move(slots));
  auto* tiered = static_cast<TieredStateStore*>(mib.get());
  EXPECT_EQ(tiered->pool_capacity_frames(),
            (1 << 20) / tiered->pool_frame_bytes());
}

struct BadSpecCase {
  std::string spec;
  std::string needle;  // Must appear in the error message.
};

class TieredBadSpecTest : public ::testing::TestWithParam<BadSpecCase> {};

TEST_P(TieredBadSpecTest, ErrorQuotesSpecAndGrammar) {
  const BadSpecCase& param = GetParam();
  const auto result = MakeClientStateStore(param.spec);
  ASSERT_FALSE(result.ok()) << param.spec;
  const std::string message = result.status().message();
  // Satellite contract: every InvalidArgument names the offending spec and
  // restates the accepted grammar.
  EXPECT_NE(message.find(param.spec), std::string::npos) << message;
  EXPECT_NE(message.find("tiered:<capacity_mb|<n>f>"), std::string::npos)
      << message;
  EXPECT_NE(message.find(param.needle), std::string::npos) << message;
}

INSTANTIATE_TEST_SUITE_P(
    Grammar, TieredBadSpecTest,
    ::testing::Values(
        BadSpecCase{"tiered:", "capacity"},
        BadSpecCase{"tiered:64", "path"},
        BadSpecCase{"tiered:0:/tmp/x.slab", "capacity"},
        BadSpecCase{"tiered:-3:/tmp/x.slab", "capacity"},
        BadSpecCase{"tiered:8q:/tmp/x.slab", "capacity"},
        BadSpecCase{"tiered:64:", "path"},
        BadSpecCase{"tiered:64:/tmp/x.slab:lazy", "no inner spec"},
        BadSpecCase{"tiered:64:/tmp/x.slab:quantized:8", "no inner spec"}));

}  // namespace
}  // namespace fedadmm
