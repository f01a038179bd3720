// Closed-loop workloads: one SliderSession, one slide at a time, the next
// slide issued when the previous one returns.
//
//   hct-variable       HCT on the default folding tree, a ~200-split x
//                      60-record variable-width window, slides of 1-8
//                      splits. The string-codec combiner dominates.
//   substr-longwindow  subStr on the flat tier, a 1000-split x 8-record
//                      window, slides of 1-2 splits. O(window) work outside
//                      the combiner (GC, reduce, flat apply) dominates.
//
// Both run on a one-thread pool. The slide count is a constant per second
// of --seconds, never a time budget, so every run with one seed executes
// exactly the same slides.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <stdexcept>

#include "apps/microbench.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "slider/session.h"

namespace perfbench {

using namespace slider;

namespace {

struct ClosedLoopWorkload {
  const char* name;
  apps::MicroApp app;
  std::size_t window_splits;
  std::size_t records_per_split;
  // Slide widths cycle through min..max in seeded order, a whole cycle per
  // block, so every seed slides the same multiset of widths.
  std::size_t min_width;
  std::size_t max_width;
  // Slides per second of --seconds: sizes the fixed slide count so a run
  // measures about --seconds on a 4-vCPU x86 host.
  double slides_per_second;
};

constexpr ClosedLoopWorkload kWorkloads[] = {
    {"hct-variable", apps::MicroApp::kHct, 200, 60, 1, 8, 16},
    {"substr-longwindow", apps::MicroApp::kSubStr, 1000, 8, 1, 2, 80},
};

constexpr int kPoolThreads = 1;
// At least 10 samples beyond p90.
constexpr std::size_t kMinSlides = 110;

const ClosedLoopWorkload& find_workload(const std::string& name) {
  for (const ClosedLoopWorkload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown closed-loop workload " + name);
}

}  // namespace

Outcome run_closed_loop(const Options& options, Shims* shims) {
  const ClosedLoopWorkload& w = find_workload(options.workload);
  ThreadPool::set_global_threads(kPoolThreads);

  const JobSpec job = apps::make_microbenchmark(w.app).job;
  const JobSpec run_job = shims != nullptr ? instrument(job, *shims) : job;
  CostModel cost;
  cost.task_overhead_sec = 0.01;
  Cluster cluster(ClusterConfig{.num_machines = 24, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);

  // Every input is generated before set-up, so the generator stays out of
  // the timed path.
  Rng rng(hash_combine(options.seed, hash_string(w.name)));
  const std::size_t slides = std::max(
      kMinSlides,
      static_cast<std::size_t>(std::llround(w.slides_per_second *
                                            options.seconds)));
  // Untimed warm-up: enough slides to replace the initial window once, so
  // timing starts with the memo store and heap in their steady state.
  const std::size_t warmup =
      (2 * w.window_splits + w.min_width + w.max_width - 1) /
      (w.min_width + w.max_width);
  SplitId next_id = 0;
  auto make_batch = [&](std::size_t count) {
    auto records = apps::generate_input(w.app, count * w.records_per_split,
                                        rng, next_id * 1'000'000);
    auto splits = make_splits(std::move(records), w.records_per_split, next_id);
    next_id += count;
    return splits;
  };
  const std::vector<SplitPtr> initial = make_batch(w.window_splits);
  const std::vector<std::size_t> widths =
      seeded_blocks(w.min_width, w.max_width, warmup + slides, rng);
  std::vector<std::vector<SplitPtr>> added;
  for (const std::size_t width : widths) added.push_back(make_batch(width));

  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  std::unique_ptr<MemoStore> memo;
  std::unique_ptr<SliderSession> session;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    session.reset();
    memo.reset();
    const auto start = Clock::now();
    memo = std::make_unique<MemoStore>(cluster, cost);
    session = std::make_unique<SliderSession>(engine, *memo, run_job, config);
    session->initial_run(initial);
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  Outcome outcome;
  std::deque<SplitPtr> mirror(initial.begin(), initial.end());
  auto check = [&] {
    const std::vector<SplitPtr> window(mirror.begin(), mirror.end());
    const std::vector<std::string> actual = serialize(session->output());
    if (!matches_vanilla(engine, job, window, actual)) ++outcome.mismatches;
    outcome.digest = fold_digest(outcome.digest, actual);
  };
  check();

  auto apply = [&](std::size_t i) {
    for (std::size_t r = 0; r < widths[i]; ++r) mirror.pop_front();
    mirror.insert(mirror.end(), added[i].begin(), added[i].end());
    return session->slide(widths[i], std::move(added[i]));
  };
  for (std::size_t i = 0; i < warmup; ++i) apply(i);

  if (shims != nullptr) shims->reset();  // count the timed slides only
  const CounterSnapshot counters_before = snapshot_counters(*memo);
  Samples latency_ms;
  double busy_s = 0;
  double cpu_s = 0;
  std::uint64_t records_added = 0;
  RunMetrics total;
  for (std::size_t i = warmup; i < warmup + slides; ++i) {
    records_added += widths[i] * w.records_per_split;
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    total += apply(i);
    const double wall = seconds_between(start, Clock::now());
    cpu_s += process_cpu_seconds() - cpu_start;
    latency_ms.add(wall * 1e3);
    busy_s += wall;
    const std::size_t done = i + 1 - warmup;
    if (done % (slides / (kMidRunChecks + 1)) == 0 && done < slides) check();
  }
  check();
  outcome.attempted = slides;
  outcome.failed = outcome.mismatches;

  std::sort(setup_s.begin(), setup_s.end());
  const double p50 = latency_ms.percentile(50);
  const double p90 = latency_ms.percentile(90);
  const double n = static_cast<double>(slides);
  outcome.end_to_end = {
      {"slide_p50_ms", p50},
      {"slide_p90_ms", p90},
      {"records_per_s", static_cast<double>(records_added) / busy_s},
      {"setup_s", setup_s[setup_s.size() / 2]},
      {"peak_rss_mb", peak_rss_mb()},
      {"sim_work_per_slide_s", total.work() / n},
  };
  outcome.stamp = {
      {"slides", std::to_string(slides)},
      {"warmup_slides", std::to_string(warmup)},
      {"window_splits", std::to_string(w.window_splits)},
      {"records_per_split", std::to_string(w.records_per_split)},
      {"slide_widths", "\"" + std::to_string(w.min_width) + "-" +
                           std::to_string(w.max_width) + "\""},
      {"samples_beyond_p50", std::to_string(latency_ms.count_above(p50))},
      {"samples_beyond_p90", std::to_string(latency_ms.count_above(p90))},
      {"oracle_checks", std::to_string(kMidRunChecks + 2)},
      {"tier_path", "null"},  // no durable tier on the closed loops
  };
  if (shims == nullptr) return outcome;

  report_shims(*shims, n, busy_s, kPoolThreads, outcome);
  report_counters(counters_before, *memo, n, outcome);
  auto& m = outcome.per_layer;
  m["contraction.sim_work_per_slide_s"] = total.contraction_work / n;
  m["slider.live_memo_entries"] =
      static_cast<double>(session->live_memo_entries());
  m["common.pool_cpu_per_wall"] = cpu_s / busy_s;
  return outcome;
}

}  // namespace perfbench
