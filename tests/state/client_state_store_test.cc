// The client-state store (src/state): factory specs, backend semantics
// (init-value views, materialize-on-touch, touched-state visits), the
// bytes_resident cost model, and the distinct-client concurrency contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "state/client_state_store.h"
#include "state/lazy_store.h"
#include "util/thread_pool.h"

namespace fedadmm {
namespace {

constexpr int kClients = 16;
constexpr int64_t kDim = 33;

std::vector<StateSlotSpec> TwoSlots(std::vector<float> init0) {
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = kDim;
  slots[0].init = std::move(init0);
  slots[1].dim = kDim;  // zero-initialized
  return slots;
}

std::vector<float> Ramp(float base) {
  std::vector<float> v(static_cast<size_t>(kDim));
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = base + 0.25f * static_cast<float>(i);
  }
  return v;
}

TEST(StateStoreFactoryTest, ParsesKnownSpecsAndRoundTripsNames) {
  const std::string slab = ::testing::TempDir() + "factory_names.slab";
  for (const std::string& spec :
       {std::string("lazy"), "tiered:64:" + slab, "tiered:8f:" + slab,
        // The largest MiB count whose byte size fits int64.
        "tiered:8796093022207:" + slab}) {
    auto store = MakeClientStateStore(spec);
    ASSERT_TRUE(store.ok()) << spec << ": " << store.status().ToString();
    EXPECT_EQ(store.ValueOrDie()->name(), spec);
  }
}

TEST(StateStoreFactoryTest, RejectsUnknownSpecs) {
  for (const char* bad :
       {"", "sparse", "quantized", "quantized:", "quantized:0",
        "quantized:17", "quantized:33", "quantized:8x", "dense ",
        "sharded:1:lazy", "sharded:2:lazy"}) {
    EXPECT_FALSE(MakeClientStateStore(bad).ok()) << "'" << bad << "'";
  }
}

// Sweep parameters name a backend; "tiered" gets a slab log under the test
// temp dir and a 4-frame pool, so most views fault through the log.
std::unique_ptr<ClientStateStore> MakeSweepStore(const std::string& backend) {
  const std::string spec =
      backend == "tiered"
          ? "tiered:4f:" + ::testing::TempDir() + "state_store_sweep.slab"
          : backend;
  return MakeClientStateStore(spec).ValueOrDie();
}

class StateStoreBackendSweep
    : public ::testing::TestWithParam<std::string> {};

TEST_P(StateStoreBackendSweep, UntouchedClientsReadSlotInitialValues) {
  auto store = MakeSweepStore(GetParam());
  const std::vector<float> init = Ramp(1.0f);
  store->Configure(kClients, TwoSlots(init));
  for (int c = 0; c < kClients; ++c) {
    const auto w = store->View(c, 0);
    ASSERT_EQ(w.size(), static_cast<size_t>(kDim));
    EXPECT_TRUE(std::equal(w.begin(), w.end(), init.begin(), init.end()));
    for (float v : store->View(c, 1)) EXPECT_EQ(v, 0.0f);
    store->Release(c);
  }
}

TEST_P(StateStoreBackendSweep, MutationsPersistAcrossReleaseLossless) {
  auto store = MakeSweepStore(GetParam());
  store->Configure(kClients, TwoSlots(Ramp(-2.0f)));
  const std::vector<float> wrote = Ramp(7.5f);
  for (int c : {3, 11}) {
    auto view = store->MutableView(c, 1);
    std::copy(wrote.begin(), wrote.end(), view.begin());
    store->Release(c);
  }
  for (int c : {3, 11}) {
    const auto back = store->View(c, 1);
    EXPECT_TRUE(
        std::equal(back.begin(), back.end(), wrote.begin(), wrote.end()));
    store->Release(c);
  }
  // Neighbours stay at the slot initialization.
  for (float v : store->View(4, 1)) EXPECT_EQ(v, 0.0f);
  store->Release(4);
}

TEST_P(StateStoreBackendSweep, ForEachTouchedVisitsExactlyTouchedClients) {
  struct Input {
    std::vector<int> clients;
    int slots_touched;
  };
  std::vector<int> everyone(kClients);
  std::iota(everyone.begin(), everyone.end(), 0);
  // A sparse cohort that leaves slot 1 untouched, then the whole fleet on
  // both slots (the full-participation regime).
  for (const Input& input : {Input{{1, 6, 9}, 1}, Input{everyone, 2}}) {
    auto store = MakeSweepStore(GetParam());
    store->Configure(kClients, TwoSlots(Ramp(0.0f)));
    std::vector<std::pair<int, int>> want;
    for (int c : input.clients) {
      for (int s = 0; s < input.slots_touched; ++s) {
        store->MutableView(c, s)[0] = static_cast<float>(100 * s + c);
        want.emplace_back(c, s);
      }
      store->Release(c);
    }
    std::vector<std::pair<int, int>> visited;
    store->ForEachTouched(
        [&](int client, int slot, std::span<const float> value) {
          ASSERT_EQ(value.size(), static_cast<size_t>(kDim));
          EXPECT_EQ(value[0], static_cast<float>(100 * slot + client));
          visited.emplace_back(client, slot);
        });
    // Every touched (client, slot) once, in increasing (client, slot)
    // order.
    EXPECT_EQ(visited, want);
    EXPECT_EQ(store->num_touched_clients(),
              static_cast<int>(input.clients.size()));
  }
}

TEST_P(StateStoreBackendSweep, ConcurrentDistinctClientTouchesAreSafe) {
  auto store = MakeSweepStore(GetParam());
  const int clients = 64;
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = kDim;
  slots[0].init = Ramp(1.0f);
  slots[1].dim = kDim;
  store->Configure(clients, slots);

  ThreadPool pool(8);
  pool.ParallelFor(clients, [&](int c, int worker) {
    (void)worker;
    auto w = store->MutableView(c, 0);
    auto y = store->MutableView(c, 1);
    for (size_t k = 0; k < w.size(); ++k) {
      w[k] += static_cast<float>(c);
      y[k] = static_cast<float>(c) - w[k];
    }
    store->Release(c);
  });

  const std::vector<float> init = Ramp(1.0f);
  for (int c = 0; c < clients; ++c) {
    const auto w = store->View(c, 0);
    const auto y = store->View(c, 1);
    for (size_t k = 0; k < w.size(); ++k) {
      const float expect_w = init[k] + static_cast<float>(c);
      EXPECT_EQ(w[k], expect_w) << c << " " << k;
      EXPECT_EQ(y[k], static_cast<float>(c) - expect_w);
    }
    store->Release(c);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, StateStoreBackendSweep,
                         ::testing::Values("lazy", "tiered"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), ':', '_');
                           return n;
                         });

TEST(LazyStoreTest, ResidentBytesEqualTouchedBlocks) {
  auto store = MakeClientStateStore("lazy").ValueOrDie();
  store->Configure(kClients, TwoSlots(Ramp(0.0f)));
  EXPECT_EQ(store->bytes_resident(), 0);
  EXPECT_EQ(store->num_touched_clients(), 0);

  // Reads never materialize.
  (void)store->View(5, 0);
  (void)store->View(5, 1);
  EXPECT_EQ(store->bytes_resident(), 0);

  // Touch both slots of 3 clients: resident = touched (client, slot)
  // blocks × slot bytes — the satellite's touched-clients × slot-bytes
  // accounting.
  for (int c : {2, 5, 13}) {
    store->MutableView(c, 0);
    store->MutableView(c, 1);
  }
  EXPECT_EQ(store->bytes_resident(), 3 * kDim * 2 * 4);
  EXPECT_EQ(store->num_touched_clients(), 3);

  // Re-touching is free.
  store->MutableView(5, 0);
  EXPECT_EQ(store->bytes_resident(), 3 * kDim * 2 * 4);
}

TEST(LazyStoreTest, SpansStayStableAcrossLaterMaterializations) {
  // Slab growth must never relocate earlier blocks (bump allocation).
  LazyStateStore store;
  std::vector<StateSlotSpec> slots(1);
  slots[0].dim = 512;
  store.Configure(4096, slots);
  const std::span<float> first = store.MutableView(0, 0);
  first[0] = 3.5f;
  for (int c = 1; c < 4096; ++c) store.MutableView(c, 0)[0] = 1.0f;
  EXPECT_EQ(first.data(), store.View(0, 0).data());
  EXPECT_EQ(store.View(0, 0)[0], 3.5f);
}

}  // namespace
}  // namespace fedadmm
