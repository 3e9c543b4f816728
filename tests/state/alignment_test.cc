/// \file alignment_test.cc
/// \brief 64-byte alignment of the hot-path buffers: lazy-store slabs and
/// Tensor storage — without any stride padding (layout and bytes_resident
/// accounting must not move).

#include <gtest/gtest.h>

#include <vector>

#include "state/client_state_store.h"
#include "state/lazy_store.h"
#include "tensor/tensor.h"
#include "util/aligned.h"

namespace fedadmm {
namespace {

std::vector<StateSlotSpec> TwoSlots(int64_t dim) {
  std::vector<StateSlotSpec> slots(2);
  slots[0].dim = dim;
  slots[1].dim = dim;
  return slots;
}

TEST(AlignmentTest, AlignedVectorBaseIsCachelineAligned) {
  for (size_t n : {1u, 7u, 64u, 1000u}) {
    AlignedVector<float> v(n, 0.0f);
    EXPECT_TRUE(IsAligned(v.data())) << "n=" << n;
    AlignedVector<float> moved = std::move(v);
    EXPECT_TRUE(IsAligned(moved.data()));
  }
}

TEST(AlignmentTest, LazyStoreSlabsAligned) {
  LazyStateStore store;
  const int64_t dim = 32;
  store.Configure(/*num_clients=*/10, TwoSlots(dim));
  // First touch carves from a fresh slab whose base must be aligned; with
  // dim a multiple of 16 floats every subsequent block stays aligned too.
  for (int c = 0; c < 4; ++c) {
    for (int s = 0; s < store.num_slots(); ++s) {
      EXPECT_TRUE(IsAligned(store.MutableView(c, s).data()))
          << "client=" << c << " slot=" << s;
    }
  }
  EXPECT_EQ(store.bytes_resident(),
            4 * dim * static_cast<int64_t>(sizeof(float)) * 2);
}

TEST(AlignmentTest, TensorBuffersAligned) {
  Tensor t(Shape({4, 16}));
  EXPECT_TRUE(IsAligned(t.data()));
  Tensor filled(Shape({64}), 1.5f);
  EXPECT_TRUE(IsAligned(filled.data()));
  Tensor adopted(Shape({3}), {1.0f, 2.0f, 3.0f});
  EXPECT_TRUE(IsAligned(adopted.data()));
  const auto reshaped = adopted.Reshape(Shape({3, 1}));
  ASSERT_TRUE(reshaped.ok());
  EXPECT_TRUE(IsAligned(reshaped.ValueOrDie().data()));
}

}  // namespace
}  // namespace fedadmm
