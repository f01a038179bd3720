// Unit tests for the storage layer: input store locality, memoization
// tiers, replication-backed failure handling, and garbage collection.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "durability/durable_tier.h"
#include "durability/fault_injector.h"
#include "storage/input_store.h"
#include "storage/memo_store.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::sum_combiner;

struct StorageHarness {
  StorageHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        memo(cluster, cost) {}

  CostModel cost{};
  Cluster cluster;
  MemoStore memo;
};

std::shared_ptr<const KVTable> table_of(std::initializer_list<Record> rows) {
  return std::make_shared<const KVTable>(
      KVTable::from_records(rows, sum_combiner()));
}

TEST(InputStore, AddGetRemove) {
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  InputStore store(cluster);
  store.add(make_split(7, {{"k", "v"}}));
  EXPECT_TRUE(store.contains(7));
  ASSERT_TRUE(store.get(7).has_value());
  EXPECT_EQ((*store.get(7))->records[0].key, "k");
  EXPECT_EQ(store.home_of(7), cluster.place(7));
  store.remove(7);
  EXPECT_FALSE(store.contains(7));
  EXPECT_FALSE(store.get(7).has_value());
}

TEST(MemoStore, PutThenLocalMemoryRead) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 1234;
  const MemoWriteResult w = h.memo.put(id, t);
  EXPECT_GT(w.bytes_written, 0u);
  EXPECT_GT(w.cost, 0.0);

  const MachineId home = h.memo.home_of(id);
  const MemoReadResult local = h.memo.get(id, home);
  ASSERT_TRUE(local.found);
  EXPECT_EQ(*local.table, *t);
  EXPECT_EQ(local.tier, ReadTier::kLocalMemory);

  const MemoReadResult remote = h.memo.get(id, (home + 1) % 4);
  ASSERT_TRUE(remote.found);
  EXPECT_EQ(remote.tier, ReadTier::kRemoteMemory);
  EXPECT_GT(remote.cost, local.cost);
}

TEST(MemoStore, MissingEntryIsAMiss) {
  StorageHarness h;
  const MemoReadResult r = h.memo.get(999, 0);
  EXPECT_FALSE(r.found);
  EXPECT_EQ(h.memo.stats().misses, 1u);
}

TEST(MemoStore, RepeatedPutIsIdempotent) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  h.memo.put(42, t);
  const std::uint64_t bytes = h.memo.total_bytes();
  const MemoWriteResult again = h.memo.put(42, t);
  EXPECT_EQ(again.bytes_written, 0u);
  EXPECT_EQ(h.memo.total_bytes(), bytes);
  EXPECT_EQ(h.memo.size(), 1u);
}

TEST(MemoStore, DisabledMemoryCacheServesFromDisk) {
  StorageHarness h;
  h.memo.set_memory_cache_enabled(false);
  auto t = table_of({{"a", "1"}, {"b", "2"}});
  h.memo.put(7, t);
  const MemoReadResult r = h.memo.get(7, h.memo.home_of(7));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(*r.table, *t);
  EXPECT_TRUE(r.tier == ReadTier::kLocalDisk || r.tier == ReadTier::kRemoteDisk);
  EXPECT_EQ(h.memo.stats().reads_disk, 1u);
  EXPECT_EQ(h.memo.stats().reads_memory, 0u);
}

TEST(MemoStore, DiskReadsCostMoreThanMemoryReads) {
  StorageHarness h;
  auto t = table_of({{"key", std::string(4000, 'x')}});

  h.memo.put(1, t);
  const SimDuration mem_cost = h.memo.get(1, h.memo.home_of(1)).cost;

  h.memo.set_memory_cache_enabled(false);
  h.memo.put(2, t);
  const SimDuration disk_cost = h.memo.get(2, h.memo.home_of(2)).cost;
  EXPECT_GT(disk_cost, mem_cost * 5);
}

TEST(MemoStore, FailureFallsBackToReplicaAndRepopulates) {
  StorageHarness h;
  auto t = table_of({{"a", "1"}});
  const NodeId id = 55;
  h.memo.put(id, t);
  const MachineId home = h.memo.home_of(id);

  h.cluster.fail_machine(home);
  h.memo.drop_memory_on_failed();
  const MemoReadResult r = h.memo.get(id, home == 0 ? 1 : 0);
  ASSERT_TRUE(r.found);  // served by a persistent replica
  EXPECT_EQ(*r.table, *t);
  EXPECT_TRUE(r.tier == ReadTier::kLocalDisk || r.tier == ReadTier::kRemoteDisk);

  // After recovery, the next read re-installs the memory copy.
  h.cluster.recover_machine(home);
  (void)h.memo.get(id, home);
  const MemoReadResult back = h.memo.get(id, home);
  EXPECT_EQ(back.tier, ReadTier::kLocalMemory);
}

TEST(MemoStore, AllReplicasDownBehavesAsMiss) {
  // A 3-machine cluster: home + 2 replicas covers every machine.
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  MemoStore memo(cluster, cost);
  auto t = table_of({{"a", "1"}});
  memo.put(9, t);
  for (MachineId m = 0; m < 3; ++m) cluster.fail_machine(m);
  memo.drop_memory_on_failed();
  const MemoReadResult r = memo.get(9, 0);
  EXPECT_FALSE(r.found);
  // ...and the miss is classified as failure-forced: the entry exists in
  // the index but zero intact copies survive, so the recompute this
  // triggers bills to the ledger's failure_reexec cause.
  EXPECT_TRUE(r.failure_miss);
  EXPECT_EQ(memo.stats().failure_forced_misses, 1u);
}

TEST(MemoStore, PlainMissIsNotAFailureMiss) {
  StorageHarness h;
  const MemoReadResult r = h.memo.get(4242, 0);  // never stored
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.failure_miss);
  EXPECT_EQ(h.memo.stats().failure_forced_misses, 0u);
}

TEST(MemoStore, RetainOnlyCollectsGarbage) {
  StorageHarness h;
  for (NodeId id = 0; id < 10; ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  EXPECT_EQ(h.memo.size(), 10u);
  const std::uint64_t bytes_before = h.memo.total_bytes();

  std::unordered_set<NodeId> live = {1, 3, 5};
  EXPECT_EQ(h.memo.retain_only(live, /*tenant=*/0), 7u);
  EXPECT_EQ(h.memo.size(), 3u);
  EXPECT_LT(h.memo.total_bytes(), bytes_before);
  EXPECT_TRUE(h.memo.contains(3));
  EXPECT_FALSE(h.memo.contains(2));
}

TEST(MemoStore, EraseRemovesEntry) {
  StorageHarness h;
  h.memo.put(77, table_of({{"a", "1"}}));
  h.memo.erase(77);
  EXPECT_FALSE(h.memo.contains(77));
  EXPECT_EQ(h.memo.total_bytes(), 0u);
  h.memo.erase(77);  // idempotent
}

TEST(MemoStore, StatsAccumulateReadTime) {
  StorageHarness h;
  h.memo.put(5, table_of({{"a", "1"}}));
  h.memo.reset_stats();
  (void)h.memo.get(5, 0);
  (void)h.memo.get(5, 1);
  EXPECT_EQ(h.memo.stats().reads_memory, 2u);
  EXPECT_GT(h.memo.stats().read_time, 0.0);
}

// --- degraded durable mode ---------------------------------------------------

// Rejects every byte of every write: the durable-tier equivalent of a full
// disk or an I/O error window.
struct RejectAllWrites final : durability::FaultInjector {
  std::size_t admit(std::size_t) override { return 0; }
};

struct DurableHarness {
  DurableHarness()
      : dir(std::filesystem::temp_directory_path() /
            ("slider_storage_degraded_" + std::to_string(::getpid()))),
        cluster(ClusterConfig{.num_machines = 3, .slots_per_machine = 1}),
        tier((std::filesystem::remove_all(dir),
              std::filesystem::create_directories(dir), dir.string())),
        memo(cluster, cost) {
    memo.attach_durable_tier(&tier);
  }
  ~DurableHarness() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  void reject_writes(bool on) {
    for (std::size_t r = 0; r < tier.replicas(); ++r) {
      tier.set_fault_injector(r, on ? &reject : nullptr);
    }
  }

  std::filesystem::path dir;
  CostModel cost{};
  Cluster cluster;
  durability::DurableTier tier;
  MemoStore memo;
  RejectAllWrites reject;
};

TEST(MemoStore, DegradedDurableModeBuffersThenFlushDrains) {
  DurableHarness h;
  h.memo.put(1, table_of({{"pre", "1"}}));
  EXPECT_TRUE(h.memo.persisted_durably(1));
  EXPECT_FALSE(h.memo.durable_degraded());

  h.reject_writes(true);
  h.memo.put(2, table_of({{"during", "2"}}));
  EXPECT_TRUE(h.memo.durable_degraded());
  EXPECT_GE(h.memo.degraded_backlog(), 1u);
  // The entry is fully readable from memory — only durability lags.
  EXPECT_TRUE(h.memo.get(2, 0).found);
  EXPECT_FALSE(h.memo.persisted_durably(2));

  h.reject_writes(false);
  h.memo.flush_durable();
  EXPECT_FALSE(h.memo.durable_degraded());
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
  EXPECT_TRUE(h.memo.persisted_durably(2));
  const MemoStoreStats stats = h.memo.stats();
  EXPECT_EQ(stats.degraded_intervals, 1u);
  EXPECT_GE(stats.degraded_writes_buffered, 1u);
}

TEST(MemoStore, DegradedDurableModeDrainsViaBackoffWithoutFlush) {
  DurableHarness h;
  h.reject_writes(true);
  h.memo.put(10, table_of({{"a", "1"}}));
  ASSERT_TRUE(h.memo.durable_degraded());

  // Condition clears, but nobody calls flush_durable(): subsequent puts
  // tick the exponential backoff down until a drain attempt succeeds.
  h.reject_writes(false);
  for (NodeId id = 11; id < 80 && h.memo.durable_degraded(); ++id) {
    h.memo.put(id, table_of({{"k" + std::to_string(id), "1"}}));
  }
  EXPECT_FALSE(h.memo.durable_degraded());
  EXPECT_EQ(h.memo.degraded_backlog(), 0u);
  EXPECT_TRUE(h.memo.persisted_durably(10));
}

TEST(MemoStore, DegradedBufferedEntriesSurviveRestoreAfterDrain) {
  DurableHarness h;
  h.reject_writes(true);
  auto t = table_of({{"payload", "42"}});
  h.memo.put(33, t);
  h.reject_writes(false);
  h.memo.flush_durable();
  ASSERT_TRUE(h.memo.persisted_durably(33));

  // A fresh store recovering from the same directory sees the entry: the
  // drain really did reach the log, in order.
  Cluster cluster2(ClusterConfig{.num_machines = 3, .slots_per_machine = 1});
  CostModel cost2;
  durability::DurableTier tier2(h.dir.string());
  MemoStore memo2(cluster2, cost2);
  memo2.attach_durable_tier(&tier2);
  const std::size_t restored = memo2.restore_from_durable();
  EXPECT_GE(restored, 1u);
  const MemoReadResult r = memo2.get(33, 0);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(*r.table, *t);
}

}  // namespace
}  // namespace slider
