// Parameterized property sweeps over the containers: the same invariants
// must hold across bucket counts, block sizes, and reclamation
// thresholds.

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "containers/dist_bitset.hpp"
#include "containers/dist_hash_map.hpp"
#include "containers/dist_vector.hpp"
#include "reclaim/hazard.hpp"

namespace rt = rcua::rt;

namespace {
void drain_qsbr() { rcua::reclaim::Qsbr::global().flush_unsafe(); }
}  // namespace

// ---------------------------------------------------------------------
class HashMapGeometry
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(HashMapGeometry, InsertFindEraseInvariants) {
  const auto [buckets, block_size] = GetParam();
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  rcua::cont::DistHashMap<std::uint64_t, std::uint64_t> map(
      cluster, {.num_buckets = buckets, .block_size = block_size});

  constexpr std::uint64_t kKeys = 300;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(map.insert(k, k * 7));
  }
  ASSERT_EQ(map.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto v = map.find(k);
    ASSERT_TRUE(v.has_value()) << k;
    ASSERT_EQ(*v, k * 7);
  }
  ASSERT_FALSE(map.find(kKeys + 1).has_value());
  // Erase the odd keys; evens must survive.
  for (std::uint64_t k = 1; k < kKeys; k += 2) {
    ASSERT_TRUE(map.erase(k));
  }
  ASSERT_EQ(map.size(), kKeys / 2);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(map.find(k).has_value(), k % 2 == 0) << k;
  }
  drain_qsbr();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HashMapGeometry,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{64}, std::size_t{1024}),
                       ::testing::Values(std::size_t{8}, std::size_t{64},
                                         std::size_t{512})),
    [](const auto& info) {
      std::string name = "b";
      name += std::to_string(std::get<0>(info.param));
      name += "_bs";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---------------------------------------------------------------------
class VectorBlocks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VectorBlocks, PushBackOrderAndGrowth) {
  const std::size_t block_size = GetParam();
  rt::Cluster cluster({.num_locales = 3, .workers_per_locale = 2});
  rcua::cont::DistVector<std::uint64_t> vec(cluster,
                                            {.block_size = block_size});
  constexpr std::size_t kN = 400;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(vec.push_back(i * 3), i);
  }
  ASSERT_EQ(vec.size(), kN);
  ASSERT_GE(vec.capacity(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(vec[i], i * 3) << i;
  }
  drain_qsbr();
}

INSTANTIATE_TEST_SUITE_P(Sweep, VectorBlocks,
                         ::testing::Values(std::size_t{1}, std::size_t{4},
                                           std::size_t{32}, std::size_t{256},
                                           std::size_t{1024}),
                         [](const auto& info) {
                           std::string name = "bs";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------
class HazardThreshold : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HazardThreshold, EverythingRetiredIsEventuallyFreed) {
  static std::atomic<int> freed{0};
  freed.store(0);
  struct Counted {
    ~Counted() { freed.fetch_add(1); }
  };
  const std::size_t threshold = GetParam();
  {
    rcua::reclaim::HazardDomain dom;
    dom.set_retire_threshold(threshold);
    constexpr int kObjs = 100;
    for (int i = 0; i < kObjs; ++i) dom.retire(new Counted);
    // Nothing may outlive the domain; intermediate scans never freed a
    // protected pointer (none are protected here).
    EXPECT_LE(freed.load(), kObjs);
    dom.flush_unsafe();
    EXPECT_EQ(freed.load(), kObjs);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HazardThreshold,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{16}, std::size_t{99},
                                           std::size_t{1000}),
                         [](const auto& info) {
                           std::string name = "t";
                           name += std::to_string(info.param);
                           return name;
                         });

// ---------------------------------------------------------------------
class BitsetBlocks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetBlocks, SetCountClearInvariant) {
  const std::size_t words = GetParam();
  rt::Cluster cluster({.num_locales = 2, .workers_per_locale = 2});
  rcua::cont::DistBitset<> bits(cluster, 0, {.block_size_words = words});
  constexpr std::size_t kBits = 500;
  for (std::size_t i = 0; i < kBits; i += 3) bits.set(i);
  std::size_t expect = 0;
  for (std::size_t i = 0; i < kBits; ++i) {
    const bool should = (i % 3 == 0);
    ASSERT_EQ(bits.test(i), should) << i;
    if (should) ++expect;
  }
  ASSERT_EQ(bits.count(), expect);
  for (std::size_t i = 0; i < kBits; i += 6) bits.clear(i);
  ASSERT_EQ(bits.count(), expect - (kBits + 5) / 6);
  drain_qsbr();
}

INSTANTIATE_TEST_SUITE_P(Sweep, BitsetBlocks,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}, std::size_t{64}),
                         [](const auto& info) {
                           std::string name = "w";
                           name += std::to_string(info.param);
                           return name;
                         });
