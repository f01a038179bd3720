// Shared pieces of the benchmark program: run options, timing and
// percentile helpers, the user-code timing shims, the output oracle and
// the result record each workload returns.
//
// The harness measures the library from outside. It times its own calls
// into the public API, wraps the job's Mapper / CombineFn / ReduceFn in
// timing shims for the traced run, and reads the public counters
// (RunMetrics, MemoStore::stats(), StatsRegistry, TenantCounters, the
// tenant time series). Nothing under src/ is changed for it.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "mapreduce/engine.h"
#include "observability/stats.h"
#include "storage/memo_store.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Directory (inside the checkout) for the durable tier and the
  // checkpoint spool of the fleet workload. Removed when the run ends.
  std::string work_dir;
};

// Sorted latency samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  // Nearest-rank percentile, p in (0, 100]. 0 when empty.
  double percentile(double p);
  // Samples strictly above `value` (the tail a percentile rests on).
  std::size_t count_above(double value) const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// Fisher-Yates shuffle of `items` with draws from `rng`.
template <typename T>
void shuffle(std::vector<T>& items, slider::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.next_below(i)]);
  }
}

// `count` values from lo..hi in blocks, each block a seeded permutation of
// the whole range, so every seed draws the same multiset of values (up to
// the last, partial block).
std::vector<std::size_t> seeded_blocks(std::size_t lo, std::size_t hi,
                                       std::size_t count, slider::Rng& rng);

// Wall time and call count accumulated by one timing shim. Atomic so the
// fleet's two pool threads can share it.
struct ShimClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(Clock::duration elapsed) {
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         elapsed)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
  void reset() {
    ns.store(0);
    calls.store(0);
  }
};

struct Shims {
  ShimClock map;      // Mapper::map, one call per input record
  ShimClock combine;  // CombineFn, map-side and in the contraction trees
  ShimClock reduce;   // ReduceFn, one call per output key

  void reset() {
    map.reset();
    combine.reset();
    reduce.reset();
  }
};

// Returns `job` with its mapper, combiner and reducer wrapped in timing
// shims that charge into `shims`. Outputs are unchanged.
slider::JobSpec instrument(const slider::JobSpec& job, Shims& shims);

// Per-partition outputs serialized with the library's table codec; the
// byte form the oracle compares and the digest hashes.
std::vector<std::string> serialize(std::span<const slider::KVTable> tables);

// Output oracle: recomputes `window` in full with the vanilla engine
// (on the uninstrumented job) and compares it byte for byte with `actual`.
bool matches_vanilla(const slider::VanillaEngine& engine,
                     const slider::JobSpec& job,
                     std::span<const slider::SplitPtr> window,
                     const std::vector<std::string>& actual);

// Folds serialized outputs into a running digest.
std::uint64_t fold_digest(std::uint64_t digest,
                          const std::vector<std::string>& blobs);

double peak_rss_mb();
double process_cpu_seconds();
// Filesystem type of the mount holding `path` (e.g. "tmpfs", "ext4").
std::string filesystem_type(const std::string& path);

// Every per-layer metric the traced run reports, with its unit, in the
// order BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};
std::span<const MetricSpec> per_layer_specs();
std::span<const MetricSpec> end_to_end_specs();

// What one pass of a workload produced.
struct Outcome {
  std::uint64_t attempted = 0;  // slides or requests offered
  std::uint64_t failed = 0;     // mismatches + shed + exceptions
  std::uint64_t mismatches = 0;
  std::uint64_t digest = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;  // filled on traced passes
  // Environment stamp, printed as one JSON object: key -> JSON literal.
  std::map<std::string, std::string> stamp;
};

// Set-up repetitions per run (setup_s is their median) and untimed oracle
// checks inside the timed loop (plus one after set-up and one at the end).
inline constexpr int kSetupRepetitions = 9;
inline constexpr std::size_t kMidRunChecks = 2;

// The public counters the traced run reads, taken when timing starts.
struct CounterSnapshot {
  slider::MemoStoreStats memo;
  slider::obs::StatsSnapshot stats;
};
CounterSnapshot snapshot_counters(const slider::MemoStore& memo);

// Fills the contraction counts and the storage.* and durability.* metrics
// from the counter deltas since `before`, over `runs` timed runs.
void report_counters(const CounterSnapshot& before,
                     const slider::MemoStore& memo, double runs,
                     Outcome& outcome);

Outcome run_closed_loop(const Options& options, Shims* shims);
Outcome run_fleet(const Options& options, Shims* shims);

// Fills the per-layer metrics that only the shims can give, from the
// shim totals over `slides` runs covering `busy_s` seconds of wall time
// on `threads` pool threads.
void report_shims(const Shims& shims, double slides, double busy_s,
                  int threads, Outcome& outcome);

// A finite number with all its digits; throws on NaN or infinity, so a
// broken figure fails the run instead of reading as a valid value.
std::string json_number(double value);
std::string json_string(const std::string& value);

}  // namespace perfbench
