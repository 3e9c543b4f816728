// ShardedStateStore: client-id partition correctness, per-shard resident
// accounting, global ForEachTouched order, the Configure clamp for tiny
// fleets, and the "sharded:<W>:<inner>" spec grammar.

#include "state/sharded_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "state/client_state_store.h"

namespace fedadmm {
namespace {

std::vector<StateSlotSpec> TwoSlots(int64_t dim) {
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = dim;
  slots[1].dim = dim;
  slots[1].init.assign(static_cast<size_t>(dim), 1.5f);
  return slots;
}

TEST(ShardedStoreTest, RoutesClientsByModuloAndIsolatesWrites) {
  ShardedStateStore store(/*num_shards=*/3, "lazy");
  store.Configure(/*num_clients=*/10, TwoSlots(4));
  EXPECT_EQ(store.num_clients(), 10);
  EXPECT_EQ(store.num_slots(), 2);
  EXPECT_EQ(store.num_active_shards(), 3);
  // Tag every client with its own value; reads must come back per-client.
  for (int c = 0; c < 10; ++c) {
    std::span<float> w = store.MutableView(c, 0);
    ASSERT_EQ(w.size(), 4u);
    for (float& v : w) v = static_cast<float>(c) + 0.25f;
    store.Release(c);
  }
  for (int c = 0; c < 10; ++c) {
    const std::span<const float> r = store.View(c, 0);
    ASSERT_EQ(r.size(), 4u);
    EXPECT_EQ(r[0], static_cast<float>(c) + 0.25f) << "client " << c;
    // Slot 1 untouched: shared initial value.
    EXPECT_EQ(store.View(c, 1)[0], 1.5f);
  }
  EXPECT_EQ(store.num_touched_clients(), 10);
}

TEST(ShardedStoreTest, BytesResidentSumsShardsAndExposesPerShardSlice) {
  ShardedStateStore store(/*num_shards=*/4, "lazy");
  store.Configure(/*num_clients=*/16, TwoSlots(8));
  EXPECT_EQ(store.bytes_resident(), 0);
  // Touch only clients of shard 1 (ids ≡ 1 mod 4).
  for (int c = 1; c < 16; c += 4) {
    store.MutableView(c, 0);
    store.Release(c);
  }
  int64_t sum = 0;
  for (int s = 0; s < store.num_active_shards(); ++s) {
    sum += store.bytes_resident_shard(s);
  }
  EXPECT_EQ(store.bytes_resident(), sum);
  EXPECT_GT(store.bytes_resident_shard(1), 0);
  EXPECT_EQ(store.bytes_resident_shard(0), 0);
  EXPECT_EQ(store.bytes_resident_shard(2), 0);
  EXPECT_EQ(store.bytes_resident_shard(3), 0);
  EXPECT_EQ(store.num_touched_clients(), 4);
}

TEST(ShardedStoreTest, ForEachTouchedVisitsGlobalClientSlotOrder) {
  ShardedStateStore store(/*num_shards=*/3, "lazy");
  store.Configure(/*num_clients=*/9, TwoSlots(2));
  // Touch clients across shards in scrambled order.
  for (int c : {7, 2, 5, 0, 8}) {
    store.MutableView(c, 1)[0] = static_cast<float>(c);
    if (c != 5) store.MutableView(c, 0)[0] = static_cast<float>(-c);
    store.Release(c);
  }
  std::vector<std::pair<int, int>> visited;
  std::vector<float> leads;
  store.ForEachTouched([&](int client, int slot, std::span<const float> v) {
    visited.emplace_back(client, slot);
    leads.push_back(v[0]);
  });
  // Global (client, slot) order, regardless of which shard owns whom.
  // Client 5's slot 0 was never materialized, so it is skipped.
  const std::vector<std::pair<int, int>> want = {
      {0, 0}, {0, 1}, {2, 0}, {2, 1}, {5, 1},
      {7, 0}, {7, 1}, {8, 0}, {8, 1}};
  EXPECT_EQ(visited, want);
  EXPECT_EQ(leads[2], -2.0f);  // client 2 slot 0
  EXPECT_EQ(leads[3], 2.0f);   // client 2 slot 1
  EXPECT_EQ(leads[4], 5.0f);   // client 5 slot 1
}

TEST(ShardedStoreTest, ConfigureClampsShardCountToFleetSize) {
  ShardedStateStore store(/*num_shards=*/8, "lazy");
  store.Configure(/*num_clients=*/3, TwoSlots(2));
  // Declared W stays 8; Configure instantiates min(W, m) inner stores.
  EXPECT_EQ(store.num_shards(), 8);
  EXPECT_EQ(store.num_active_shards(), 3);
  for (int c = 0; c < 3; ++c) {
    store.MutableView(c, 0)[0] = static_cast<float>(c + 100);
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(store.View(c, 0)[0], static_cast<float>(c + 100));
  }
}

TEST(ShardedStoreTest, NameRoundTripsThroughFactory) {
  // An inner spec with its own colons survives the round trip.
  const std::string inner =
      "tiered:8f:" + ::testing::TempDir() + "sharded_name.slab";
  ShardedStateStore store(/*num_shards=*/4, inner);
  EXPECT_EQ(store.name(), "sharded:4:" + inner);
  auto made = MakeClientStateStore(store.name());
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(made.ValueOrDie()->name(), "sharded:4:" + inner);
}

TEST(ShardedStoreTest, FactoryNormalizesWEqualsOneToInner) {
  auto made = MakeClientStateStore("sharded:1:lazy");
  ASSERT_TRUE(made.ok());
  EXPECT_EQ(made.ValueOrDie()->name(), "lazy");
}

TEST(ShardedStoreTest, FactoryRejectsMalformedSpecs) {
  // Each spec is refused for the reason named beside it, not because its
  // inner spec happens to be unknown.
  const std::pair<const char*, const char*> cases[] = {
      {"sharded:", "needs a worker count"},
      {"sharded:2", "needs a worker count"},
      {"sharded:0:lazy", "bad shard count"},
      {"sharded:-2:lazy", "bad shard count"},
      {"sharded:x:lazy", "bad shard count"},
      {"sharded:2:bogus", "unknown spec"},
      // No nesting: one partition layer only.
      {"sharded:2:sharded:2:lazy", "do not nest"},
  };
  for (const auto& [spec, reason] : cases) {
    const Status status = MakeClientStateStore(spec).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << spec;
    EXPECT_NE(status.message().find(reason), std::string::npos)
        << status.message();
  }
}

TEST(ShardedStoreTest, ConfiguredFactoryWrapsWithEngineShardKnob) {
  // The engine knob wraps the resolved spec...
  auto wrapped = MakeConfiguredClientStateStore(
      /*override_spec=*/"", /*fallback_spec=*/"lazy", /*num_clients=*/12,
      TwoSlots(4), /*num_shards=*/4);
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped.ValueOrDie()->name(), "sharded:4:lazy");
  EXPECT_EQ(wrapped.ValueOrDie()->num_clients(), 12);
  // ...unless the spec already chose its own sharding (explicit wins)...
  auto explicit_spec = MakeConfiguredClientStateStore(
      "sharded:2:lazy", "lazy", 12, TwoSlots(4), /*num_shards=*/8);
  ASSERT_TRUE(explicit_spec.ok());
  EXPECT_EQ(explicit_spec.ValueOrDie()->name(), "sharded:2:lazy");
  // ...and W = 1 leaves the spec untouched (bitwise-legacy path).
  auto unsharded = MakeConfiguredClientStateStore("", "lazy", 12,
                                                  TwoSlots(4),
                                                  /*num_shards=*/1);
  ASSERT_TRUE(unsharded.ok());
  EXPECT_EQ(unsharded.ValueOrDie()->name(), "lazy");
}

TEST(ShardedStoreTest, ShardedViewsMatchUnshardedBackendBitwise) {
  // Storage transparency: the same write/read script against "lazy" and
  // "sharded:3:lazy" must produce identical floats everywhere.
  auto plain = MakeClientStateStore("lazy").ValueOrDie();
  auto sharded = MakeClientStateStore("sharded:3:lazy").ValueOrDie();
  plain->Configure(11, TwoSlots(5));
  sharded->Configure(11, TwoSlots(5));
  for (int c : {10, 3, 6, 0, 9, 1}) {
    for (int s = 0; s < 2; ++s) {
      std::span<float> a = plain->MutableView(c, s);
      std::span<float> b = sharded->MutableView(c, s);
      for (size_t i = 0; i < a.size(); ++i) {
        const float v = static_cast<float>(c * 31 + s * 7) +
                        static_cast<float>(i) * 0.125f;
        a[i] = v;
        b[i] = v;
      }
    }
    plain->Release(c);
    sharded->Release(c);
  }
  for (int c = 0; c < 11; ++c) {
    for (int s = 0; s < 2; ++s) {
      const std::span<const float> a = plain->View(c, s);
      const std::span<const float> b = sharded->View(c, s);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i], b[i]) << "client " << c << " slot " << s;
      }
    }
  }
  EXPECT_EQ(plain->bytes_resident(), sharded->bytes_resident());
  EXPECT_EQ(plain->num_touched_clients(), sharded->num_touched_clients());
}

}  // namespace
}  // namespace fedadmm
