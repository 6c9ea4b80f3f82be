// Tests for Block and Snapshot, including the recycling-clone invariant
// behind Lemma 6.

#include <gtest/gtest.h>

#include <vector>

#include "core/block.hpp"
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
    Block<int> b(loc, 16);
    EXPECT_EQ(b.owner(), 2u);
    EXPECT_EQ(b.capacity(), 16u);
    EXPECT_EQ(loc.allocations(), 1u);
    EXPECT_EQ(loc.bytes_live(), 16 * sizeof(int));
    EXPECT_EQ(Block<int>::live_count(), live_before + 1);
  }
  EXPECT_EQ(Block<int>::live_count(), live_before);
}

TEST(Block, ElementsValueInitializedAndWritable) {
  rt::Locale loc(0);
  Block<int> b(loc, 8);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(b[i], 0);
  b[3] = 42;
  EXPECT_EQ(b[3], 42);
}

TEST(Block, IdsAreUnique) {
  rt::Locale loc(0);
  Block<int> a(loc, 4), b(loc, 4);
  EXPECT_NE(a.id(), b.id());
}

TEST(Snapshot, EmptySnapshot) {
  Snapshot<int> s;
  EXPECT_EQ(s.num_blocks(), 0u);
  EXPECT_EQ(s.capacity(), 0u);
}

TEST(Snapshot, CloneAppendRecyclesBlocks) {
  rt::Locale loc(0);
  BlockSet set;
  for (int i = 0; i < 3; ++i) set.blocks.push_back(new Block<int>(loc, 4));

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
  set.blocks.push_back(new Block<int>(loc, 4));
  set.blocks.push_back(new Block<int>(loc, 4));

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
  for (int i = 0; i < 2; ++i) set.blocks.push_back(new Block<int>(loc, 4));
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
  set.blocks.push_back(new Block<int>(loc, 4));
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
  for (int i = 0; i < 5; ++i) set.blocks.push_back(new Block<int>(loc, 8));
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
  for (int i = 0; i < 6; ++i) set.blocks.push_back(new Block<int>(loc, 4));
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
