#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"
#include "data/serde.h"

namespace perfbench {

using namespace slider;

double Samples::percentile(double p) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const auto n = static_cast<double>(values_.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return values_[std::clamp<std::size_t>(rank, 1, values_.size()) - 1];
}

std::size_t Samples::count_above(double value) const {
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [value](double v) { return v > value; }));
}

std::vector<std::size_t> seeded_blocks(std::size_t lo, std::size_t hi,
                                       std::size_t count, Rng& rng) {
  std::vector<std::size_t> values;
  while (values.size() < count) {
    std::vector<std::size_t> block;
    for (std::size_t v = lo; v <= hi; ++v) block.push_back(v);
    shuffle(block, rng);
    values.insert(values.end(), block.begin(), block.end());
  }
  values.resize(count);
  return values;
}

namespace {

class TimedMapper final : public Mapper {
 public:
  TimedMapper(std::shared_ptr<const Mapper> inner, ShimClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}

  void map(const Record& input, Emitter& out) const override {
    const auto start = Clock::now();
    inner_->map(input, out);
    clock_->add(Clock::now() - start);
  }

 private:
  std::shared_ptr<const Mapper> inner_;
  ShimClock* clock_;
};

}  // namespace

JobSpec instrument(const JobSpec& job, Shims& shims) {
  JobSpec timed = job;
  timed.mapper = std::make_shared<TimedMapper>(job.mapper, shims.map);
  timed.combiner = [inner = job.combiner, clock = &shims.combine](
                       const std::string& key, const std::string& a,
                       const std::string& b) {
    const auto start = Clock::now();
    std::string combined = inner(key, a, b);
    clock->add(Clock::now() - start);
    return combined;
  };
  timed.reducer = [inner = job.reducer, clock = &shims.reduce](
                      const std::string& key, const std::string& combined) {
    const auto start = Clock::now();
    std::optional<std::string> reduced = inner(key, combined);
    clock->add(Clock::now() - start);
    return reduced;
  };
  return timed;
}

std::vector<std::string> serialize(std::span<const KVTable> tables) {
  std::vector<std::string> blobs;
  blobs.reserve(tables.size());
  for (const KVTable& table : tables) blobs.push_back(serialize_table(table));
  return blobs;
}

bool matches_vanilla(const VanillaEngine& engine, const JobSpec& job,
                     std::span<const SplitPtr> window,
                     const std::vector<std::string>& actual) {
  return serialize(engine.run(job, window).partition_outputs) == actual;
}

std::uint64_t fold_digest(std::uint64_t digest,
                          const std::vector<std::string>& blobs) {
  for (const std::string& blob : blobs) {
    digest = hash_combine(digest, hash_string(blob));
  }
  return digest;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::string filesystem_type(const std::string& path) {
  std::error_code ec;
  const std::string target =
      std::filesystem::weakly_canonical(path, ec).string();
  std::ifstream mounts("/proc/mounts");
  std::string line;
  std::string best_mount;
  std::string best_type = "unknown";
  while (std::getline(mounts, line)) {
    std::istringstream fields(line);
    std::string device, mount, type;
    fields >> device >> mount >> type;
    const bool covers =
        target.compare(0, mount.size(), mount) == 0 &&
        (mount == "/" || target.size() == mount.size() ||
         target[mount.size()] == '/');
    if (covers && mount.size() >= best_mount.size()) {
      best_mount = mount;
      best_type = type;
    }
  }
  return best_type;
}

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"slide_p50_ms", "ms"},      {"slide_p90_ms", "ms"},
    {"records_per_s", "1/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"sim_work_per_slide_s", "sim_s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"mapreduce.map_fn_ms_per_slide", "ms"},
    {"mapreduce.map_records_per_slide", "count"},
    {"mapreduce.map_fn_share", "fraction"},
    {"data.combine_fn_ms_per_slide", "ms"},
    {"data.combine_calls_per_slide", "count"},
    {"data.combine_ns_per_call", "ns"},
    {"data.combine_fn_share", "fraction"},
    {"contraction.combiner_invocations_per_slide", "count"},
    {"contraction.combiner_reused_per_slide", "count"},
    {"contraction.reuse_ratio", "fraction"},
    {"contraction.sim_work_per_slide_s", "sim_s"},
    {"slider.reduce_fn_ms_per_slide", "ms"},
    {"slider.reduce_fn_share", "fraction"},
    {"slider.framework_ms_per_slide", "ms"},
    {"slider.framework_share", "fraction"},
    {"slider.live_memo_entries", "count"},
    {"storage.reads_memory_per_slide", "count"},
    {"storage.reads_disk_per_slide", "count"},
    {"storage.misses_per_slide", "count"},
    {"storage.hit_ratio", "fraction"},
    {"storage.entries", "count"},
    {"storage.bytes_mb", "MB"},
    {"durability.records_appended_per_request", "count"},
    {"durability.bytes_appended_per_request", "bytes"},
    {"durability.segments_compacted", "count"},
    {"durability.compaction_bytes_reclaimed", "bytes"},
    {"durability.checkpoint_bytes", "bytes"},
    {"durability.scrub_records_verified", "count"},
    {"serving.drain_ms_p50", "ms"},
    {"serving.drain_ms_p90", "ms"},
    {"serving.runs_per_drain", "count"},
    {"serving.gc_ms_p50", "ms"},
    {"serving.gc_ms_p90", "ms"},
    {"serving.drain_self_ms", "ms"},
    {"serving.checkpoints", "count"},
    {"serving.hydrations", "count"},
    {"serving.shed", "count"},
    {"common.pool_cpu_per_wall", "fraction"},
    {"loadgen.lag_p99_ms", "ms"},
    {"loadgen.offered_per_s", "1/s"},
    {"observability.trace_overhead_pct", "%"},
};

}  // namespace

std::span<const MetricSpec> per_layer_specs() { return kPerLayer; }
std::span<const MetricSpec> end_to_end_specs() { return kEndToEnd; }

void report_shims(const Shims& shims, double slides, double busy_s,
                  int threads, Outcome& outcome) {
  auto& m = outcome.per_layer;
  const double capacity_ms = busy_s * 1e3 * threads;
  const double map_ms = shims.map.ms();
  const double combine_ms = shims.combine.ms();
  const double reduce_ms = shims.reduce.ms();
  const auto combine_calls = static_cast<double>(shims.combine.calls.load());
  m["mapreduce.map_fn_ms_per_slide"] = map_ms / slides;
  m["mapreduce.map_records_per_slide"] =
      static_cast<double>(shims.map.calls.load()) / slides;
  m["mapreduce.map_fn_share"] = map_ms / capacity_ms;
  m["data.combine_fn_ms_per_slide"] = combine_ms / slides;
  m["data.combine_calls_per_slide"] = combine_calls / slides;
  m["data.combine_ns_per_call"] =
      combine_calls > 0 ? combine_ms * 1e6 / combine_calls : 0;
  m["data.combine_fn_share"] = combine_ms / capacity_ms;
  m["slider.reduce_fn_ms_per_slide"] = reduce_ms / slides;
  m["slider.reduce_fn_share"] = reduce_ms / capacity_ms;
  // Framework: the part of the pool's wall-time capacity that none of the
  // three user-code shims covers (shuffle, tree bookkeeping, memo traffic,
  // GC, and on the fleet also idle pool threads).
  const double framework_share =
      1.0 - (map_ms + combine_ms + reduce_ms) / capacity_ms;
  m["slider.framework_share"] = framework_share;
  m["slider.framework_ms_per_slide"] =
      framework_share * busy_s * 1e3 / slides;
}

CounterSnapshot snapshot_counters(const MemoStore& memo) {
  return {memo.stats(), obs::StatsRegistry::global().snapshot()};
}

void report_counters(const CounterSnapshot& before, const MemoStore& memo,
                     double runs, Outcome& outcome) {
  const CounterSnapshot after = snapshot_counters(memo);
  const auto delta = [&](const char* name) {
    const auto value = [name](const obs::StatsSnapshot& snap) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    return value(after.stats) - value(before.stats);
  };
  const auto memo_delta = [&](std::uint64_t MemoStoreStats::*field) {
    return static_cast<double>(after.memo.*field - before.memo.*field);
  };
  auto& m = outcome.per_layer;
  const double invocations = delta("tree.combiner_invocations");
  const double reused = delta("tree.combiner_reused");
  m["contraction.combiner_invocations_per_slide"] = invocations / runs;
  m["contraction.combiner_reused_per_slide"] = reused / runs;
  m["contraction.reuse_ratio"] =
      invocations + reused > 0 ? reused / (invocations + reused) : 0;
  const double reads_memory = memo_delta(&MemoStoreStats::reads_memory);
  const double reads_disk = memo_delta(&MemoStoreStats::reads_disk);
  const double misses = memo_delta(&MemoStoreStats::misses);
  const double reads = reads_memory + reads_disk + misses;
  m["storage.reads_memory_per_slide"] = reads_memory / runs;
  m["storage.reads_disk_per_slide"] = reads_disk / runs;
  m["storage.misses_per_slide"] = misses / runs;
  m["storage.hit_ratio"] = reads > 0 ? (reads_memory + reads_disk) / reads : 0;
  m["storage.entries"] = static_cast<double>(memo.size());
  m["storage.bytes_mb"] = static_cast<double>(memo.total_bytes()) / 1e6;
  m["durability.records_appended_per_request"] =
      delta("durability.records_appended") / runs;
  m["durability.bytes_appended_per_request"] =
      delta("durability.bytes_appended") / runs;
  m["durability.segments_compacted"] = delta("durability.segments_compacted");
  m["durability.compaction_bytes_reclaimed"] =
      delta("durability.compaction_bytes_reclaimed");
  m["durability.checkpoint_bytes"] = delta("durability.checkpoint_bytes");
  m["durability.scrub_records_verified"] = delta("scrub.records_verified");
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string json_string(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
