// Release-based memo GC (MemoStore::release): every run frees exactly the
// memo entries its trees unlinked, so the store's index is the live set.
//
//   * ReleaseGcExact: after every run of all nine tree/tier variants —
//     including split processing with a skipped background phase, a flat
//     tier demotion, and crash -> recovery followed by restore or by
//     initial_run, each with its post-recovery sweep — the store holds
//     exactly the session's collect_live_ids, and the output matches
//     VanillaEngine;
//   * ReleaseGcSharedIds: ids are content-derived, so one id can be live in
//     two places (a passthrough aliases its child) and an id can be
//     unlinked and relinked in one operation (the flat tier's demotion, a
//     repeated background phase). Release lists are net: none of those ids
//     is freed;
//   * ReleaseGcRecoverySweep: on a shared store the first run after
//     recovery claims its live recovered entries, drops every other
//     recovered entry, and leaves a neighbour's tenanted entries alone.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/hash.h"
#include "contraction/flat_aggregator.h"
#include "contraction/folding_tree.h"
#include "contraction/rotating_tree.h"
#include "contraction/tree_common.h"
#include "durability/durable_tier.h"
#include "mapreduce/engine.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

namespace fs = std::filesystem;

// The debug check of release-based GC: the entries the store attributes
// to `tenant` are exactly the ids the session's trees still reference.
void expect_index_is_live_set(const MemoStore& memo,
                              const SliderSession& session,
                              std::uint64_t tenant, const std::string& where) {
  std::unordered_set<NodeId> live;
  session.collect_live_ids(live);
  const std::unordered_set<NodeId> index = memo.tenant_ids(tenant);
  std::size_t garbage = 0;
  for (const NodeId id : index) garbage += live.count(id) == 0 ? 1 : 0;
  std::size_t missing = 0;
  for (const NodeId id : live) missing += index.count(id) == 0 ? 1 : 0;
  EXPECT_EQ(garbage, 0u) << where << ": entries no tree references";
  EXPECT_EQ(missing, 0u) << where << ": live ids the GC freed";
}

class IdentityMapper final : public Mapper {
 public:
  void map(const Record& input, Emitter& out) const override {
    out.emit(input.key, input.value);
  }
};

JobSpec counting_job(const std::string& name, bool flat) {
  JobSpec job;
  job.name = name;
  job.mapper = std::make_shared<IdentityMapper>();
  job.combiner = testing::sum_combiner();
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = 3;
  if (flat) {
    job.traits.commutative = true;
    job.traits.exactly_associative = true;
    job.traits.flat_kernel = FlatKernel::kSumU64;
  }
  return job;
}

// Split `id`: eight keys drawn from a small space (so windows share keys),
// plus a "007" row when poisoned — parses as 7 but fails the flat tier's
// strict codec, demoting the partition that gets it.
SplitPtr split_for(SplitId id, bool poisoned = false) {
  Rng rng(4242 + id);
  std::vector<Record> records;
  for (int k = 0; k < 8; ++k) {
    records.push_back({"k" + std::to_string(rng.next_below(24)),
                       std::to_string(1 + rng.next_below(9))});
  }
  if (poisoned) records.push_back({"poisoned", "007"});
  return make_split(id, std::move(records));
}

struct GcCase {
  const char* name;
  WindowMode mode;
  TreeKind kind;  // ignored when flat
  bool flat = false;
  bool poison = false;
  bool split_processing = false;
};

void PrintTo(const GcCase& c, std::ostream* os) { *os << c.name; }

class ReleaseGcExact : public ::testing::TestWithParam<GcCase> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("slider_test_gc_" + std::string(GetParam().name) + "_" +
            std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_P(ReleaseGcExact, IndexIsLiveSetEveryRun) {
  const GcCase c = GetParam();
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const JobSpec job = counting_job(std::string("gc-") + c.name, c.flat);
  SliderConfig config;
  config.mode = c.mode;
  if (!c.flat) config.tree_kind = c.kind;
  config.split_processing = c.split_processing;
  config.bucket_width = 2;

  const std::string tier_dir = (dir_ / "tier").string();
  auto tier = std::make_unique<durability::DurableTier>(tier_dir);
  auto memo = std::make_unique<MemoStore>(cluster, cost);
  memo->attach_durable_tier(tier.get());
  auto session = std::make_unique<SliderSession>(engine, *memo, job, config);

  std::deque<SplitPtr> window;
  SplitId next_id = 0;
  int run = 0;
  const auto check = [&](const std::string& what) {
    const std::string where = what + " (run " + std::to_string(run++) + ")";
    expect_index_is_live_set(*memo, *session, /*tenant=*/0, where);
    const JobResult vanilla = engine.run(
        job, std::vector<SplitPtr>(window.begin(), window.end()));
    ASSERT_EQ(session->output().size(), vanilla.partition_outputs.size());
    for (std::size_t p = 0; p < vanilla.partition_outputs.size(); ++p) {
      ASSERT_EQ(session->output()[p], vanilla.partition_outputs[p])
          << where << " partition " << p;
    }
  };
  // Widths per slide: variable windows remove and add 0..3 and once the
  // whole window; fixed windows move one bucket; append-only only adds.
  // Fixed windows hold three buckets: the padded fourth slot makes one
  // victim's split-processing intermediate alias its only sibling, and
  // the fifth first-round slide leaves exactly that one checkpointed.
  struct Step {
    std::size_t remove;
    std::size_t add;
  };
  const auto steps_for = [&](int round) -> std::vector<Step> {
    if (c.mode == WindowMode::kFixedWidth) {
      return std::vector<Step>(round == 0 ? 5 : 3, {2, 2});
    }
    if (c.mode == WindowMode::kAppendOnly) {
      return {{0, 2}, {0, 1}, {0, 3}, {0, 2}};
    }
    if (round == 0) return {{2, 2}, {0, 3}, {3, 0}, {1, 1}, {~0u, 4}};
    return {{2, 1}, {0, 2}, {1, 3}};
  };
  const auto slide = [&](const Step& step, bool poison_first) {
    const std::size_t remove = std::min(step.remove, window.size());
    std::vector<SplitPtr> added;
    for (std::size_t i = 0; i < step.add; ++i) {
      added.push_back(split_for(next_id++, poison_first && i == 0));
    }
    for (std::size_t i = 0; i < remove; ++i) window.pop_front();
    window.insert(window.end(), added.begin(), added.end());
    session->slide(remove, std::move(added));
    check("slide");
  };

  std::vector<SplitPtr> initial;
  const int initial_splits = c.mode == WindowMode::kFixedWidth ? 6 : 8;
  for (int i = 0; i < initial_splits; ++i) {
    initial.push_back(split_for(next_id++));
  }
  window.assign(initial.begin(), initial.end());
  session->initial_run(std::move(initial));
  check("initial");

  const std::vector<Step> first = steps_for(0);
  for (std::size_t s = 0; s < first.size(); ++s) {
    slide(first[s], c.poison && s == 1);
    // Split processing: every other background phase is skipped, so the
    // next foreground slide takes the catch-up path.
    if (c.split_processing && s % 2 == 0) {
      session->run_background();
      check("background");
    }
  }

  // Crash and recover: the durable log never saw a tombstone for released
  // entries, so recovery resurrects them; the post-restore sweep is the
  // only thing that can collect them again.
  const std::string ckpt = (dir_ / "ckpt").string();
  ASSERT_TRUE(session->checkpoint(ckpt));
  memo->flush_durable();
  session.reset();
  memo.reset();
  tier.reset();
  tier = std::make_unique<durability::DurableTier>(tier_dir);
  memo = std::make_unique<MemoStore>(cluster, cost);
  memo->attach_durable_tier(tier.get());
  const std::size_t recovered = memo->restore_from_durable();
  session = std::make_unique<SliderSession>(engine, *memo, job, config);
  ASSERT_TRUE(session->restore(ckpt));
  EXPECT_GT(recovered, memo->size())
      << "recovery resurrected nothing for the sweep to collect";
  check("restore");
  session->end_recovery_replay();

  for (const Step& step : steps_for(1)) {
    slide(step, false);
    if (c.split_processing) {
      session->run_background();
      check("background");
    }
  }

  // Crash again and start over without a checkpoint: initial_run over the
  // recovered store is its first run, so it sweeps what recovery
  // resurrected; reused entries are claimed, the rest collected.
  memo->flush_durable();
  session.reset();
  memo.reset();
  tier.reset();
  tier = std::make_unique<durability::DurableTier>(tier_dir);
  memo = std::make_unique<MemoStore>(cluster, cost);
  memo->attach_durable_tier(tier.get());
  const std::size_t recovered_again = memo->restore_from_durable();
  ASSERT_TRUE(memo->has_unclaimed_recovered());
  session = std::make_unique<SliderSession>(engine, *memo, job, config);
  session->initial_run(std::vector<SplitPtr>(window.begin(), window.end()));
  EXPECT_FALSE(memo->has_unclaimed_recovered());
  EXPECT_GT(recovered_again, memo->size())
      << "recovery resurrected nothing for the sweep to collect";
  check("initial_run over the recovered store");
  slide(steps_for(1).front(), false);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ReleaseGcExact,
    ::testing::Values(
        GcCase{"folding", WindowMode::kVariableWidth, TreeKind::kFolding},
        GcCase{"randomized", WindowMode::kVariableWidth,
               TreeKind::kRandomizedFolding},
        GcCase{"strawman", WindowMode::kVariableWidth, TreeKind::kStrawman},
        GcCase{"rotating", WindowMode::kFixedWidth, TreeKind::kRotating},
        GcCase{"rotating_split", WindowMode::kFixedWidth, TreeKind::kRotating,
               /*flat=*/false, /*poison=*/false, /*split_processing=*/true},
        GcCase{"coalescing", WindowMode::kAppendOnly, TreeKind::kCoalescing},
        GcCase{"coalescing_split", WindowMode::kAppendOnly,
               TreeKind::kCoalescing, /*flat=*/false, /*poison=*/false,
               /*split_processing=*/true},
        GcCase{"flat", WindowMode::kVariableWidth, TreeKind::kFolding,
               /*flat=*/true},
        GcCase{"flat_poisoned", WindowMode::kVariableWidth, TreeKind::kFolding,
               /*flat=*/true, /*poison=*/true}),
    [](const ::testing::TestParamInfo<GcCase>& info) {
      return std::string(info.param.name);
    });

// --- shared ids -------------------------------------------------------------

struct TreeHarness {
  TreeHarness()
      : cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 1}),
        memo(cluster, cost) {
    ctx.store = &memo;
    ctx.job_hash = 0x6C;
  }

  // Releases what `stats` lists and checks the store is the live set.
  void release_and_check(const TreeUpdateStats& stats,
                         const ContractionTree& tree,
                         const std::string& where) {
    memo.release(stats.released);
    std::unordered_set<NodeId> live;
    tree.collect_live_ids(live);
    EXPECT_EQ(memo.tenant_ids(0), live) << where;
  }

  CostModel cost;
  Cluster cluster;
  MemoStore memo;
  MemoContext ctx;
  CombineFn combiner = testing::sum_combiner();
};

Leaf leaf(SplitId id, const CombineFn& combiner) {
  return testing::make_leaf(id, {{"k" + std::to_string(id % 3), "1"}},
                            combiner);
}

// Two live nodes of one tenant do share an id: a folding-tree passthrough
// carries its live child's id. Unlinking the alias must not free the
// child's entry.
TEST(ReleaseGcSharedIds, PassthroughAliasSharesItsChildsId) {
  TreeHarness h;
  FoldingTree tree(h.ctx, h.combiner);
  TreeUpdateStats build;
  tree.initial_build({leaf(0, h.combiner), leaf(1, h.combiner),
                      leaf(2, h.combiner)},
                     &build);
  // Capacity 4, slot 3 void: leaf 2 and its level-1 parent are one id.
  std::map<NodeId, int> occurrences;
  for (const TreeNodeDescription& node : tree.describe().nodes) {
    ++occurrences[node.id];
  }
  const NodeId leaf2 = tree.describe().nodes[2].id;
  EXPECT_EQ(occurrences[leaf2], 2) << "leaf 2 is not aliased by its parent";
  const NodeId old_root = tree.describe().root_id;
  h.release_and_check(build, tree, "initial build");

  // Filling slot 3 turns the alias into a merge: the alias is unlinked,
  // but leaf 2 still references the id, so only the old root goes.
  TreeUpdateStats append;
  tree.apply_delta(0, {leaf(3, h.combiner)}, &append);
  EXPECT_EQ(append.released, std::vector<NodeId>{old_root});
  h.release_and_check(append, tree, "append");
  EXPECT_TRUE(h.memo.contains(leaf2));

  // Voiding leaves 0..1 leaves the level-1 node over them void and the
  // root a passthrough; then the tree folds.
  TreeUpdateStats drop;
  tree.apply_delta(2, {leaf(4, h.combiner)}, &drop);
  h.release_and_check(drop, tree, "drop + fold");
}

// An id can be unlinked and relinked in one operation: the flat tier's
// demotion hands every window leaf id to the fallback tree, and a repeated
// background phase recomputes the same intermediate. Neither is released.
TEST(ReleaseGcSharedIds, RelinkedIdsAreNotReleased) {
  TreeHarness h;
  CombinerTraits traits;
  traits.commutative = true;
  traits.exactly_associative = true;
  traits.flat_kernel = FlatKernel::kSumU64;
  FlatAggregator flat(h.ctx, h.combiner, traits,
                      TreeOptions{.kind = TreeKind::kFolding});
  TreeUpdateStats build;
  flat.initial_build({leaf(0, h.combiner), leaf(1, h.combiner),
                      leaf(2, h.combiner), leaf(3, h.combiner)},
                     &build);
  EXPECT_TRUE(build.released.empty());
  h.release_and_check(build, flat, "flat build");
  const NodeId evicted = leaf_node_id(h.ctx, 0, *leaf(0, h.combiner).table);

  TreeUpdateStats demote;
  flat.apply_delta(1,
                   {leaf(4, h.combiner),
                    testing::make_leaf(5, {{"k0", "007"}}, h.combiner)},
                   &demote);
  ASSERT_TRUE(flat.poisoned());
  // Only the evicted leaf goes; leaves 1..3 moved into the fallback tree.
  ASSERT_FALSE(demote.released.empty());
  EXPECT_EQ(demote.released.front(), evicted);
  for (std::size_t i = 1; i < demote.released.size(); ++i) {
    EXPECT_NE(demote.released[i], evicted);
  }
  h.release_and_check(demote, flat, "demotion");

  TreeHarness r;
  RotatingTree rotating(r.ctx, r.combiner, /*bucket_width=*/2,
                        /*split_processing=*/true);
  std::vector<Leaf> leaves;
  for (SplitId id = 0; id < 8; ++id) leaves.push_back(leaf(id, r.combiner));
  TreeUpdateStats initial;
  rotating.initial_build(std::move(leaves), &initial);
  r.release_and_check(initial, rotating, "rotating build");
  for (int i = 0; i < 2; ++i) {
    TreeUpdateStats background;
    rotating.background_preprocess(&background);
    EXPECT_TRUE(background.released.empty()) << "background " << i;
    r.release_and_check(background, rotating,
                        "background " + std::to_string(i));
  }
}

// --- the post-recovery sweep on a shared store -------------------------------

// Two tenants share one durable store and crash. The first session run over
// the recovered store (tenant A's restore) sweeps it once: A claims the
// recovered entries its trees reference and every other recovered entry
// goes, whoever wrote it, so what the GC released before the crash does not
// outlive it. A tenanted entry written since recovery is never a candidate
// of A's sweep, and B, started afterwards, finds nothing left to sweep.
TEST(ReleaseGcRecoverySweep, FirstRunClaimsItsLiveEntriesAndDropsTheRest) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  const JobSpec job = counting_job("gc-sweep", /*flat=*/false);
  const fs::path dir = fs::temp_directory_path() /
                       ("slider_test_gc_sweep_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const std::string tier_dir = (dir / "tier").string();
  const std::string ckpt = (dir / "ckpt").string();

  SliderConfig config_a;
  config_a.tenant = "sweep-a";
  SliderConfig config_b;
  config_b.tenant = "sweep-b";
  const std::uint64_t salt_a = hash_string(config_a.tenant);
  const std::uint64_t salt_b = hash_string(config_b.tenant);
  std::vector<SplitPtr> initial;
  for (SplitId id = 0; id < 6; ++id) initial.push_back(split_for(id));
  {
    durability::DurableTier tier(tier_dir);
    MemoStore memo(cluster, cost);
    memo.attach_durable_tier(&tier);
    SliderSession a(engine, memo, job, config_a);
    SliderSession b(engine, memo, job, config_b);
    a.initial_run(initial);
    b.initial_run(initial);
    a.slide(2, {split_for(6), split_for(7)});
    b.slide(2, {split_for(6), split_for(7)});
    ASSERT_TRUE(a.checkpoint(ckpt));
    memo.flush_durable();
  }

  durability::DurableTier tier(tier_dir);
  MemoStore memo(cluster, cost);
  memo.attach_durable_tier(&tier);
  const std::size_t recovered = memo.restore_from_durable();
  ASSERT_TRUE(memo.has_unclaimed_recovered());
  // Stand-in for a neighbour's write since recovery.
  memo.put(0xB0B, std::make_shared<const KVTable>(), salt_b);

  SliderSession restored(engine, memo, job, config_a);
  ASSERT_TRUE(restored.restore(ckpt));
  EXPECT_FALSE(memo.has_unclaimed_recovered());
  expect_index_is_live_set(memo, restored, salt_a, "restored tenant");
  EXPECT_TRUE(memo.contains(0xB0B)) << "the sweep crossed tenants";
  EXPECT_EQ(memo.size(), memo.tenant_ids(salt_a).size() + 1)
      << "recovered entries no tree references survived the sweep";
  EXPECT_GT(recovered, memo.size());

  SliderSession b(engine, memo, job, config_b);
  b.initial_run(initial);
  restored.end_recovery_replay();
  restored.slide(2, {split_for(8), split_for(9)});
  expect_index_is_live_set(memo, restored, salt_a, "restored tenant, slid");
  std::unordered_set<NodeId> b_live;
  b.collect_live_ids(b_live);
  b_live.insert(0xB0B);
  EXPECT_EQ(memo.tenant_ids(salt_b), b_live);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace slider
