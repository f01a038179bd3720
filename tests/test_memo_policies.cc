// Memoization-layer policy tests: LRU-bounded memory tier and the
// aggressive entry-budget GC policy — plus their interaction with
// correctness (evictions must never change outputs, only costs).

#include <gtest/gtest.h>

#include "apps/microbench.h"
#include "slider/session.h"
#include "storage/memo_store.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::sum_combiner;

struct PolicyHarness {
  PolicyHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  MemoStore memo;
};

std::shared_ptr<const KVTable> payload(const std::string& key,
                                       std::size_t value_size) {
  return std::make_shared<const KVTable>(KVTable::from_records(
      {{key, std::string(value_size, 'x')}}, sum_combiner()));
}

TEST(MemoLru, EvictsLeastRecentlyUsedMemoryCopy) {
  PolicyHarness h;
  // Each payload serializes to a bit over `value_size` bytes.
  h.memo.put(1, payload("a", 400));
  h.memo.put(2, payload("b", 400));
  h.memo.put(3, payload("c", 400));
  EXPECT_EQ(h.memo.stats().memory_evictions, 0u);

  // Capacity for ~2 entries: the least recently used (1) must fall out.
  h.memo.set_memory_capacity_bytes(900);
  EXPECT_GT(h.memo.stats().memory_evictions, 0u);
  EXPECT_LE(h.memo.memory_bytes(), 900u);

  // Entry 1 now serves from disk; 3 (most recent) from memory.
  const auto r1 = h.memo.get(1, h.memo.home_of(1));
  ASSERT_TRUE(r1.found);
  EXPECT_TRUE(r1.tier == ReadTier::kLocalDisk ||
              r1.tier == ReadTier::kRemoteDisk);
  const auto r3 = h.memo.get(3, h.memo.home_of(3));
  ASSERT_TRUE(r3.found);
  EXPECT_TRUE(r3.tier == ReadTier::kLocalMemory ||
              r3.tier == ReadTier::kRemoteMemory);
}

TEST(MemoLru, TouchKeepsHotEntriesResident) {
  PolicyHarness h;
  h.memo.set_memory_capacity_bytes(900);
  h.memo.put(1, payload("a", 400));
  h.memo.put(2, payload("b", 400));
  // Touch 1 so that inserting 3 evicts 2, not 1.
  (void)h.memo.get(1, h.memo.home_of(1));
  h.memo.put(3, payload("c", 400));

  const auto r1 = h.memo.get(1, h.memo.home_of(1));
  EXPECT_TRUE(r1.tier == ReadTier::kLocalMemory ||
              r1.tier == ReadTier::kRemoteMemory);
  const auto r2 = h.memo.get(2, h.memo.home_of(2));
  EXPECT_TRUE(r2.tier == ReadTier::kLocalDisk ||
              r2.tier == ReadTier::kRemoteDisk);
}

TEST(MemoLru, DiskReadReinstallsAndMayEvictOthers) {
  PolicyHarness h;
  h.memo.set_memory_capacity_bytes(900);
  h.memo.put(1, payload("a", 400));
  h.memo.put(2, payload("b", 400));
  h.memo.put(3, payload("c", 400));  // evicts 1
  (void)h.memo.get(1, h.memo.home_of(1));  // disk read, reinstalls 1
  // 1 is memory-resident again; the tier stayed within capacity.
  EXPECT_LE(h.memo.memory_bytes(), 900u);
  const auto r1 = h.memo.get(1, h.memo.home_of(1));
  EXPECT_TRUE(r1.tier == ReadTier::kLocalMemory ||
              r1.tier == ReadTier::kRemoteMemory);
}

TEST(MemoLru, EraseAndRetainReleaseMemoryAccounting) {
  PolicyHarness h;
  h.memo.put(1, payload("a", 400));
  h.memo.put(2, payload("b", 400));
  const std::uint64_t before = h.memo.memory_bytes();
  EXPECT_GT(before, 0u);
  h.memo.erase(1);
  EXPECT_LT(h.memo.memory_bytes(), before);
  h.memo.retain_only({}, /*tenant=*/0);
  EXPECT_EQ(h.memo.memory_bytes(), 0u);
  EXPECT_EQ(h.memo.size(), 0u);
}

TEST(MemoBudget, DropsOldestEntriesBeyondBudget) {
  PolicyHarness h;
  h.memo.set_entry_budget(3);
  for (NodeId id = 1; id <= 5; ++id) {
    h.memo.put(id, payload("k" + std::to_string(id), 50));
  }
  EXPECT_EQ(h.memo.size(), 3u);
  EXPECT_EQ(h.memo.stats().budget_evictions, 2u);
  // The oldest writes (1, 2) are gone; the newest (5) remains.
  EXPECT_FALSE(h.memo.contains(1));
  EXPECT_FALSE(h.memo.contains(2));
  EXPECT_TRUE(h.memo.contains(5));
}

TEST(MemoBudget, EvictedEntriesBehaveAsMisses) {
  PolicyHarness h;
  h.memo.set_entry_budget(1);
  h.memo.put(1, payload("a", 50));
  h.memo.put(2, payload("b", 50));
  const auto r = h.memo.get(1, 0);
  EXPECT_FALSE(r.found);
}

// Evictions are a performance policy, never a correctness hazard: a
// session running under a tiny memory cap must still produce outputs
// identical to scratch recomputation.
TEST(MemoPolicies, SessionOutputUnaffectedByMemoryPressure) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  memo.set_memory_capacity_bytes(4 * 1024);  // absurdly small

  const auto bench = apps::make_microbenchmark(apps::MicroApp::kHct);
  Rng rng(99);
  auto records = apps::generate_input(apps::MicroApp::kHct, 16 * 30, rng, 0);
  auto splits = make_splits(std::move(records), 30, 0);
  std::vector<SplitPtr> window = splits;

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 2;
  SliderSession session(engine, memo, bench.job, config);
  session.initial_run(splits);

  for (int slide = 0; slide < 3; ++slide) {
    auto added_records = apps::generate_input(
        apps::MicroApp::kHct, 2 * 30, rng, (16 + 2 * slide) * 1'000'000);
    auto added = make_splits(std::move(added_records), 30, 16 + 2 * slide);
    session.slide(2, added);
    window.erase(window.begin(), window.begin() + 2);
    for (const auto& s : added) window.push_back(s);
  }
  EXPECT_GT(memo.stats().memory_evictions, 0u);
  EXPECT_GT(memo.stats().reads_disk, 0u);  // cold state came from replicas

  const JobResult scratch = engine.run(bench.job, window);
  for (std::size_t p = 0; p < scratch.partition_outputs.size(); ++p) {
    EXPECT_EQ(session.output()[p], scratch.partition_outputs[p]);
  }
}

}  // namespace
}  // namespace slider
