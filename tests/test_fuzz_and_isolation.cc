// Randomized (fuzz-style) sweeps over serialization and table algebra,
// plus isolation properties when several jobs share one memoization layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "apps/microbench.h"
#include "data/serde.h"
#include "robustness/chaos.h"
#include "slider/session.h"
#include "tests/test_util.h"

namespace slider {
namespace {

using testing::sum_combiner;

std::string random_bytes(Rng& rng, std::size_t max_len) {
  std::string s;
  const std::size_t len = rng.next_below(max_len + 1);
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.next_below(256)));
  }
  return s;
}

class SerdeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeFuzz, RoundTripsArbitraryTables) {
  Rng rng(GetParam() * 2654435761u + 7);
  for (int round = 0; round < 50; ++round) {
    // Random records with arbitrary bytes (including NULs and separators);
    // keys are made unique via an index prefix so the table is valid.
    std::vector<Record> rows;
    const std::size_t n = rng.next_below(20);
    for (std::size_t i = 0; i < n; ++i) {
      rows.push_back({zero_pad(i, 4) + random_bytes(rng, 12),
                      random_bytes(rng, 40)});
    }
    const KVTable table = KVTable::from_records(std::move(rows),
                                                sum_combiner());
    const std::string wire = serialize_table(table);
    const auto back = deserialize_table(wire);
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, table);

    // Truncations of the wire form must be rejected, never crash.
    if (!wire.empty()) {
      const std::size_t cut = rng.next_below(wire.size());
      ASSERT_FALSE(deserialize_table(wire.substr(0, cut)).has_value());
    }
  }
}

TEST_P(SerdeFuzz, RejectsMutatedHeaders) {
  Rng rng(GetParam() * 31 + 5);
  const KVTable table = KVTable::from_records(
      {{"aaa", "1"}, {"bbb", "22"}, {"ccc", "333"}}, sum_combiner());
  const std::string wire = serialize_table(table);
  for (int round = 0; round < 40; ++round) {
    std::string mutated = wire;
    const std::size_t pos = rng.next_below(mutated.size());
    mutated[pos] = static_cast<char>(mutated[pos] ^
                                     (1 + rng.next_below(255)));
    // Any outcome is acceptable except a crash or an accepted table that
    // is ill-formed; if parsing succeeds the result must round-trip.
    const auto parsed = deserialize_table(mutated);
    if (parsed.has_value()) {
      const auto again = deserialize_table(serialize_table(*parsed));
      ASSERT_TRUE(again.has_value());
      ASSERT_EQ(*again, *parsed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzz, ::testing::Range<std::uint64_t>(1, 6));

TEST(KVTableAlgebra, MergeIsAssociativeOnRandomTables) {
  const CombineFn combiner = sum_combiner();
  Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    auto random_table = [&] {
      std::vector<Record> rows;
      const std::size_t n = rng.next_below(12);
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back({"k" + std::to_string(rng.next_below(8)),
                        std::to_string(rng.next_below(100))});
      }
      return KVTable::from_records(std::move(rows), combiner);
    };
    const KVTable a = random_table();
    const KVTable b = random_table();
    const KVTable c = random_table();
    const KVTable left =
        KVTable::merge(KVTable::merge(a, b, combiner), c, combiner);
    const KVTable right =
        KVTable::merge(a, KVTable::merge(b, c, combiner), combiner);
    ASSERT_EQ(left, right) << "round " << round;
    // Sum-combine is also commutative.
    ASSERT_EQ(KVTable::merge(a, b, combiner), KVTable::merge(b, a, combiner));
  }
}

// Two different jobs sharing one MemoStore must not interfere: node ids
// are namespaced by job hash, so identical inputs memoize separately, and
// each session's release-based GC frees only the ids its own trees
// unlinked, so the store holds exactly the union of both live sets.
TEST(MemoIsolation, TwoJobsShareOneStoreSafely) {
  CostModel cost;
  Cluster cluster(ClusterConfig{.num_machines = 6, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);

  const auto hct = apps::make_microbenchmark(apps::MicroApp::kHct);
  const auto matrix = apps::make_microbenchmark(apps::MicroApp::kMatrix);

  SliderConfig config;
  config.mode = WindowMode::kFixedWidth;
  config.bucket_width = 2;
  SliderSession session_a(engine, memo, hct.job, config);
  SliderSession session_b(engine, memo, matrix.job, config);

  Rng rng(31);
  auto records = apps::generate_input(apps::MicroApp::kHct, 12 * 30, rng, 0);
  auto splits = make_splits(std::move(records), 30, 0);
  std::vector<SplitPtr> window = splits;

  // Both jobs consume the *same* input splits.
  session_a.initial_run(splits);
  session_b.initial_run(splits);

  auto union_of_live_sets = [&] {
    std::unordered_set<NodeId> live;
    session_a.collect_live_ids(live);
    session_b.collect_live_ids(live);
    return live.size();
  };
  ASSERT_EQ(memo.size(), union_of_live_sets());
  const std::size_t live_after_both = memo.size();

  for (int slide = 0; slide < 3; ++slide) {
    auto added_records = apps::generate_input(
        apps::MicroApp::kHct, 2 * 30, rng, (12 + 2 * slide) * 1'000'000);
    auto added = make_splits(std::move(added_records), 30, 12 + 2 * slide);
    session_a.slide(2, added);
    session_b.slide(2, added);
    ASSERT_EQ(memo.size(), union_of_live_sets()) << "slide " << slide;
    window.erase(window.begin(), window.begin() + 2);
    for (const auto& s : added) window.push_back(s);
  }

  // Both sessions stay correct against scratch despite sharing the store.
  const JobResult scratch_a = engine.run(hct.job, window);
  const JobResult scratch_b = engine.run(matrix.job, window);
  for (std::size_t p = 0; p < scratch_a.partition_outputs.size(); ++p) {
    ASSERT_EQ(session_a.output()[p], scratch_a.partition_outputs[p]);
  }
  for (std::size_t p = 0; p < scratch_b.partition_outputs.size(); ++p) {
    ASSERT_EQ(session_b.output()[p], scratch_b.partition_outputs[p]);
  }
  // The store holds a bounded, two-job working set (no unbounded growth).
  EXPECT_LT(memo.size(), live_after_both * 2);
}

// Chaos fuzz: random fault timelines (crashes, stragglers, memo losses,
// injected attempt failures) over random window geometries must never
// change a session's outputs relative to a failure-free control. This is
// the soak gate's property at fuzz scale, cheap enough for sanitizers.
class ChaosFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosFuzz, RandomFaultTimelinesNeverChangeOutputs) {
  const std::uint64_t seed = GetParam();
  Rng geometry(seed * 101 + 7);
  const std::size_t window = 8 + geometry.next_below(6);  // splits
  const std::size_t slide = 1 + geometry.next_below(3);
  const int slides = 3;
  const TreeKind kind = std::array{TreeKind::kFolding,
                                   TreeKind::kRandomizedFolding,
                                   TreeKind::kStrawman}[seed % 3];

  const auto bench = apps::make_microbenchmark(apps::MicroApp::kKMeans);
  auto batch = [&](std::size_t count, SplitId first_id) {
    Rng rng(900 + first_id);  // input depends only on position, not seed
    auto records =
        apps::generate_input(bench.app, count * 12, rng, first_id * 1'000'000);
    return make_splits(std::move(records), 12, first_id);
  };
  auto outputs = [](const SliderSession& session) {
    std::vector<std::string> out;
    for (const KVTable& table : session.output()) {
      out.push_back(serialize_table(table));
    }
    return out;
  };

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = kind;
  config.bucket_width = slide;

  CostModel cost;
  std::vector<std::vector<std::string>> control;
  SimDuration control_clock = 0;
  {
    Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
    VanillaEngine engine(cluster, cost);
    MemoStore memo(cluster, cost);
    SliderSession session(engine, memo, bench.job, config);
    session.initial_run(batch(window, 0));
    control.push_back(outputs(session));
    SplitId next = window;
    for (int s = 0; s < slides; ++s) {
      session.slide(slide, batch(slide, next));
      next += slide;
      control.push_back(outputs(session));
    }
    control_clock = session.sim_clock();
  }

  Cluster cluster(ClusterConfig{.num_machines = 4, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  MemoStore memo(cluster, cost);
  robustness::ChaosOptions options;
  options.horizon = std::max<SimDuration>(control_clock, 1.0);
  options.crash_events = 1 + static_cast<int>(geometry.next_below(2));
  options.straggler_events = static_cast<int>(geometry.next_below(3));
  options.memo_loss_events = static_cast<int>(geometry.next_below(3));
  options.durable_error_events = 0;
  options.attempt_failure_prob = 0.05 + 0.1 * geometry.next_double();
  options.min_live_machines = 2;
  const robustness::ChaosSchedule schedule =
      robustness::ChaosSchedule::generate(seed, options, 4);
  robustness::ChaosController controller(
      schedule, robustness::ChaosTargets{.cluster = &cluster, .memo = &memo});

  SliderConfig chaos_config = config;
  chaos_config.fault_provider = &controller;
  SliderSession session(engine, memo, bench.job, chaos_config);
  RunMetrics total;
  total += session.initial_run(batch(window, 0));
  ASSERT_EQ(outputs(session), control[0]) << "seed " << seed;
  controller.apply_until(session.sim_clock());
  SplitId next = window;
  for (int s = 0; s < slides; ++s) {
    total += session.slide(slide, batch(slide, next));
    next += slide;
    ASSERT_EQ(outputs(session), control[static_cast<std::size_t>(s) + 1])
        << "seed " << seed << " slide " << s;
    controller.apply_until(session.sim_clock());
  }
  EXPECT_LE(total.max_task_attempts,
            static_cast<std::uint64_t>(options.max_attempts));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosFuzz,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace slider
