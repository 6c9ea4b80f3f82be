// Tests for Block and Snapshot, including the recycling-clone invariant
// behind Lemma 6.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "containers/dist_hash_map.hpp"
#include "core/block.hpp"
#include "core/rcu_array.hpp"
#include "core/snapshot.hpp"
#include "runtime/cluster.hpp"

using rcua::Block;
using rcua::Snapshot;
namespace rt = rcua::rt;

namespace {
struct BlockSet {
  std::vector<Block<int>*> blocks;
  ~BlockSet() {
    for (auto* b : blocks) delete b;
  }
};
}  // namespace

TEST(Block, AllocationTracksOwnerAndAccounting) {
  rt::Locale loc(2);
  const auto live_before = Block<int>::live_count();
  {
    std::unique_ptr<Block<int>> b(Block<int>::create(loc, 16));
    EXPECT_EQ(b->owner(), 2u);
    EXPECT_EQ(b->capacity(), 16u);
    EXPECT_EQ(loc.allocations(), 1u);
    EXPECT_EQ(loc.bytes_live(), 16 * sizeof(int));
    EXPECT_EQ(Block<int>::live_count(), live_before + 1);
  }
  EXPECT_EQ(Block<int>::live_count(), live_before);
}

namespace {
template <typename T>
struct BlockTyped : public ::testing::Test {};
using ElementTypes = ::testing::Types<int, std::atomic<std::uint64_t>>;
TYPED_TEST_SUITE(BlockTyped, ElementTypes);
}  // namespace

TYPED_TEST(BlockTyped, ElementsValueInitializedAndWritable) {
  using B = Block<TypeParam>;
  rt::Locale loc(0);
  // Dirty the heap first, so a reused chunk would show a missed zeroing.
  std::unique_ptr<B> dirty(B::create(loc, 512));
  for (std::size_t i = 0; i < 512; ++i) (*dirty)[i] = 0x5A5A5A5A;
  dirty.reset();
  std::unique_ptr<B> b(B::create(loc, 512));
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>((*b)[i]), 0u) << i;
  }
  (*b)[3] = 42;
  EXPECT_EQ(static_cast<std::uint64_t>((*b)[3]), 42u);
}

TEST(Block, IdsAreUnique) {
  rt::Locale loc(0);
  std::unique_ptr<Block<int>> a(Block<int>::create(loc, 4));
  std::unique_ptr<Block<int>> b(Block<int>::create(loc, 4));
  EXPECT_NE(a->id(), b->id());
}

namespace {
// Every block `arr` reaches is one allocation: a 64-byte-aligned header
// line, then the slots from the next line on. Returns the count.
template <typename Array>
std::size_t expect_one_aligned_allocation_per_block(Array& arr) {
  std::atomic<std::size_t> visited{0};
  arr.for_each_block_local([&](std::size_t b, auto& blk) {
    const auto head = reinterpret_cast<std::uintptr_t>(&blk);
    const auto slots = reinterpret_cast<std::uintptr_t>(blk.data());
    EXPECT_EQ(head % 64, 0u) << "block " << b;
    EXPECT_EQ(slots % 64, 0u) << "block " << b;
    EXPECT_EQ(slots, head + 64) << "block " << b;
    // No slot on the header's line.
    EXPECT_LT((head + sizeof(blk) - 1) / 64, slots / 64) << "block " << b;
    visited.fetch_add(1, std::memory_order_relaxed);
  });
  return visited.load();
}

struct CountsDestructions {
  static inline int destroyed = 0;
  ~CountsDestructions() { ++destroyed; }
};

struct ThrowsOnKth {
  static inline int constructed = 0;
  static inline int destroyed = 0;
  static inline int throw_at = -1;
  ThrowsOnKth() {
    if (constructed == throw_at) throw std::runtime_error("k-th element");
    ++constructed;
  }
  ~ThrowsOnKth() { ++destroyed; }
};
}  // namespace

TEST(Block, LayoutIsOneAlignedAllocationPerBlock) {
  rt::Cluster cluster({.num_locales = 4, .workers_per_locale = 1});
  {
    rcua::RCUArray<std::uint64_t> arr(cluster, 8 * 100, {.block_size = 100});
    EXPECT_EQ(expect_one_aligned_allocation_per_block(arr), arr.num_blocks());
  }
  {
    // The map's slab: 32-byte slots of four atomics.
    rcua::cont::DistHashMap<std::uint64_t, std::uint64_t> map(
        cluster, {.num_buckets = 64, .block_size = 16});
    for (std::uint64_t k = 0; k < 200; ++k) map.insert(k, k);
    auto& slab = map.backing();
    ASSERT_GT(slab.num_blocks(), 5u);  // grown past the initial 80 slots
    EXPECT_EQ(expect_one_aligned_allocation_per_block(slab),
              slab.num_blocks());
  }
  rcua::reclaim::Qsbr::global().flush_unsafe();
}

TEST(Block, DeleteDestroysEveryElementOnce) {
  rt::Locale loc(0);
  Block<CountsDestructions>* b = Block<CountsDestructions>::create(loc, 37);
  CountsDestructions::destroyed = 0;
  delete b;
  EXPECT_EQ(CountsDestructions::destroyed, 37);
}

TEST(Block, ThrowingElementConstructorLeavesNoTrace) {
  rt::Locale loc(1);
  const auto live_before = Block<ThrowsOnKth>::live_count();
  ThrowsOnKth::constructed = 0;
  ThrowsOnKth::destroyed = 0;
  ThrowsOnKth::throw_at = 5;
  EXPECT_THROW((void)Block<ThrowsOnKth>::create(loc, 16), std::runtime_error);
  ThrowsOnKth::throw_at = -1;
  EXPECT_EQ(ThrowsOnKth::constructed, 5);
  EXPECT_EQ(ThrowsOnKth::destroyed, 5);  // what was built is destroyed
  EXPECT_EQ(Block<ThrowsOnKth>::live_count(), live_before);
  EXPECT_EQ(loc.allocations(), 0u);
  EXPECT_EQ(loc.bytes_live(), 0u);
}

TEST(Snapshot, EmptySnapshot) {
  Snapshot<int> s;
  EXPECT_EQ(s.num_blocks(), 0u);
  EXPECT_EQ(s.capacity(), 0u);
}

TEST(Snapshot, CloneAppendRecyclesBlocks) {
  rt::Locale loc(0);
  BlockSet set;
  for (int i = 0; i < 3; ++i) set.blocks.push_back(Block<int>::create(loc, 4));

  Snapshot<int> s({set.blocks[0], set.blocks[1]});
  Snapshot<int>* s2 = Snapshot<int>::successor(s, 2, {&set.blocks[2], 1});
  ASSERT_EQ(s2->num_blocks(), 3u);
  // Lemma 6 shape: s is a prefix of s2, block pointers identical.
  EXPECT_TRUE(s2->has_prefix(s));
  EXPECT_EQ(s2->block(0), set.blocks[0]);
  EXPECT_EQ(s2->block(1), set.blocks[1]);
  EXPECT_EQ(s2->block(2), set.blocks[2]);
  delete s2;
}

TEST(Snapshot, UpdateThroughOldSpineVisibleInNewSpine) {
  // The actual Lemma 6 mechanism: a write through a block reached from
  // the old spine is visible through the new spine.
  rt::Locale loc(0);
  BlockSet set;
  set.blocks.push_back(Block<int>::create(loc, 4));
  set.blocks.push_back(Block<int>::create(loc, 4));

  Snapshot<int> old_spine({set.blocks[0]});
  Snapshot<int>* new_spine =
      Snapshot<int>::successor(old_spine, 1, {&set.blocks[1], 1});

  (*old_spine.block(0))[2] = 99;  // update via the OLD spine
  EXPECT_EQ((*new_spine->block(0))[2], 99);
  delete new_spine;
}

TEST(Snapshot, HasPrefixRejectsMismatch) {
  rt::Locale loc(0);
  BlockSet set;
  for (int i = 0; i < 2; ++i) set.blocks.push_back(Block<int>::create(loc, 4));
  Snapshot<int> a({set.blocks[0]});
  Snapshot<int> b({set.blocks[1]});
  EXPECT_FALSE(a.has_prefix(b));
  Snapshot<int> longer({set.blocks[0], set.blocks[1]});
  EXPECT_FALSE(a.has_prefix(longer));  // prefix longer than self
}

TEST(Snapshot, LiveCountTracksSpinesNotBlocks) {
  rt::Locale loc(0);
  const auto live_before = Snapshot<int>::live_count();
  const auto blocks_before = Block<int>::live_count();
  BlockSet set;
  set.blocks.push_back(Block<int>::create(loc, 4));
  {
    Snapshot<int> s({set.blocks[0]});
    EXPECT_EQ(Snapshot<int>::live_count(), live_before + 1);
  }
  // Deleting the spine must not touch the block.
  EXPECT_EQ(Snapshot<int>::live_count(), live_before);
  EXPECT_EQ(Block<int>::live_count(), blocks_before + 1);
}

TEST(Snapshot, CapacityIsBlocksTimesBlockSize) {
  rt::Locale loc(0);
  BlockSet set;
  for (int i = 0; i < 5; ++i) set.blocks.push_back(Block<int>::create(loc, 8));
  Snapshot<int> s(set.blocks);
  EXPECT_EQ(s.capacity(), 40u);
}

// Every structural op publishes one successor: append (resize_add),
// truncate (resize_remove) and replace (rehome) each pay one pointer copy
// per block of the NEW spine and stamp the old version + 1.
TEST(Snapshot, CloneChargesSpineCopy) {
  rcua::sim::CostModelOverride save;
  rcua::sim::CostModel::mutable_instance().spine_copy_ns_per_block = 10;

  rt::Locale loc(0);
  BlockSet set;
  for (int i = 0; i < 6; ++i) set.blocks.push_back(Block<int>::create(loc, 4));
  Block<int>* const* b = set.blocks.data();
  Snapshot<int> empty;
  Snapshot<int>* s = Snapshot<int>::successor(empty, 0, {b, 3});  // version 1
  struct Shape {
    std::size_t keep;
    std::vector<Block<int>*> tail;
    std::vector<Block<int>*> spine;
  };
  const Shape shapes[] = {
      {3, {b[3]}, {b[0], b[1], b[2], b[3]}},        // append
      {1, {}, {b[0]}},                              // truncate
      {0, {b[0], b[4], b[5]}, {b[0], b[4], b[5]}},  // replace
  };
  for (const Shape& shape : shapes) {
    rcua::sim::TaskClock clock;
    Snapshot<int>* s2 = nullptr;
    {
      rcua::sim::ClockScope scope(clock);
      s2 = Snapshot<int>::successor(*s, shape.keep, shape.tail);
    }
    EXPECT_EQ(s2->blocks(), shape.spine) << shape.keep;
    EXPECT_EQ(clock.vtime_ns, 10 * shape.spine.size()) << shape.keep;
    EXPECT_EQ(s2->version(), s->version() + 1) << shape.keep;
    delete s2;
  }
  delete s;
}
