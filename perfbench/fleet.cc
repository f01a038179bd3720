// fleet-open: an open loop over a SessionManager.
//
// 64 tenants (even ranks HCT on the folding tree, odd ranks subStr on the
// flat tier, 4-split x 8-record windows) share one MemoStore with a
// DurableTier attached. Every tick of kTickSeconds a batch of slide
// requests is due; the harness submits the batch, drains it with
// run_pending() and runs the fleet GC. Tenants are picked with a Zipf
// skew, so the tail goes cold (idle checkpoint) and re-hydrates on its
// next request. A request's
// latency runs from its tick's due time to the end of the drain and GC
// that served it, so a stalled drain charges its wait to later requests.
//
// The schedule is fixed before timing starts: the batch of every tick and
// the tenant of every request come from the seed, never from the clock, so
// every run with one seed drains exactly the same batches.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>

#include "apps/microbench.h"
#include "common/thread_pool.h"
#include "durability/durable_tier.h"
#include "harness.h"
#include "serving/session_manager.h"

namespace perfbench {

using namespace slider;

namespace {

constexpr std::size_t kTenants = 64;
constexpr std::size_t kWindowSplits = 4;
constexpr std::size_t kRecordsPerSplit = 8;
constexpr double kZipfSkew = 1.1;
// About half of the capacity measured on a 4-vCPU x86 host (280 requests
// per busy second): 3.5 requests every 25 ms.
constexpr double kTickSeconds = 0.025;
// Requests per tick: each block of ticks carries 1..kMaxBatch requests in
// seeded order, so every seed offers the same load.
constexpr std::size_t kMaxBatch = 6;
// A tenant idle for this many drains (2 s) is checkpointed out; the Zipf
// tail (about the last 15 ranks) sees a request every few seconds, so it
// cycles cold. Each checkpoint fsyncs; at 20 drains four drains in five
// carried one, which tied p50 to the disk's fsync latency.
constexpr std::size_t kIdleCheckpointRounds = 80;
constexpr std::uint64_t kScrubRecordsPerCycle = 16;
// A request appends ~29 KB to the durable tier. Compacting every 512 KiB
// (~18 requests, every fifth drain) keeps compaction in the latency tail
// above p50; at the 256 KiB default it would run every other drain.
constexpr std::uint64_t kCompactAfterBytes = 512ull << 10;
constexpr int kPoolThreads = 2;
constexpr std::size_t kOracleTenants = 8;

apps::MicroApp app_of(std::size_t tenant) {
  return tenant % 2 == 0 ? apps::MicroApp::kHct : apps::MicroApp::kSubStr;
}

std::string name_of(std::size_t tenant) {
  return "tenant-" + std::to_string(tenant);
}

struct Request {
  std::size_t tenant = 0;
  std::vector<SplitPtr> added;
};

// Tenant of every request: each tenant's share is its Zipf probability
// rounded to whole requests (at least one), so every seed offers the same
// per-tenant load; the seed only orders it.
std::vector<std::size_t> tenant_sequence(std::size_t requests, Rng& rng) {
  std::vector<double> weight(kTenants);
  double total = 0;
  for (std::size_t r = 0; r < kTenants; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
    total += weight[r];
  }
  std::vector<std::size_t> sequence;
  for (std::size_t r = 0; r < kTenants; ++r) {
    const double share = static_cast<double>(requests) * weight[r] / total;
    const auto count =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(share)));
    sequence.insert(sequence.end(), count, r);
  }
  sequence.resize(requests, 0);  // rounding may leave a few short or over
  shuffle(sequence, rng);
  return sequence;
}

// Runs recorded in every tenant's private series, with their simulated
// and wall latency sums.
struct SeriesTotals {
  double runs = 0;
  double sim_s = 0;
  double wall_ms = 0;
};

SeriesTotals series_totals(const serving::SessionManager& manager) {
  SeriesTotals totals;
  for (std::size_t t = 0; t < kTenants; ++t) {
    const obs::TimeSeriesSnapshot snap = manager.tenant_series(name_of(t));
    totals.runs += static_cast<double>(snap.total_recorded);
    for (const obs::SlideSample& s : snap.raw) {
      totals.sim_s += s.sim_latency;
      totals.wall_ms += s.wall_latency_us / 1e3;
    }
    for (const obs::AggregateSample& a : snap.aggregates) {
      totals.sim_s += a.sim_latency_sum;
      totals.wall_ms += a.wall_latency_us_sum / 1e3;
    }
  }
  return totals;
}

serving::TenantCounters fleet_counters(
    const serving::SessionManager& manager) {
  serving::TenantCounters sum;
  for (const serving::TenantStatus& status : manager.fleet_status()) {
    sum.checkpoints += status.counters.checkpoints;
    sum.hydrations += status.counters.hydrations;
  }
  return sum;
}

}  // namespace

Outcome run_fleet(const Options& options, Shims* shims) {
  ThreadPool::set_global_threads(kPoolThreads);

  CostModel cost;
  cost.task_overhead_sec = 0.01;
  cost.net_latency_sec = 1.0e-4;
  Cluster cluster(ClusterConfig{.num_machines = 8, .slots_per_machine = 2});
  VanillaEngine engine(cluster, cost);
  std::vector<JobSpec> jobs;      // oracle jobs
  std::vector<JobSpec> run_jobs;  // what the tenants run
  for (std::size_t t = 0; t < kTenants; ++t) {
    jobs.push_back(apps::make_microbenchmark(app_of(t)).job);
    run_jobs.push_back(shims != nullptr ? instrument(jobs.back(), *shims)
                                        : jobs.back());
  }

  // The whole schedule is generated before set-up.
  Rng rng(hash_combine(options.seed, hash_string("fleet-open")));
  auto ticks = static_cast<std::size_t>(
      std::llround(options.seconds / kTickSeconds));
  ticks -= ticks % kMaxBatch;  // whole blocks: the same load for every seed
  const std::vector<std::size_t> batch_sizes =
      seeded_blocks(1, kMaxBatch, ticks, rng);
  std::size_t requests = 0;
  for (const std::size_t b : batch_sizes) requests += b;
  const std::vector<std::size_t> tenant_of = tenant_sequence(requests, rng);

  std::vector<SplitId> next_id(kTenants, 0);
  auto make_batch = [&](std::size_t tenant, std::size_t count) {
    auto records = apps::generate_input(app_of(tenant),
                                        count * kRecordsPerSplit, rng,
                                        next_id[tenant] * 1'000'000);
    auto splits =
        make_splits(std::move(records), kRecordsPerSplit, next_id[tenant]);
    next_id[tenant] += count;
    return splits;
  };
  std::vector<std::vector<SplitPtr>> initial;
  for (std::size_t t = 0; t < kTenants; ++t) {
    initial.push_back(make_batch(t, kWindowSplits));
  }
  std::vector<std::vector<Request>> schedule(ticks);
  std::uint64_t records_offered = 0;
  for (std::size_t k = 0, r = 0; k < ticks; ++k) {
    for (std::size_t i = 0; i < batch_sizes[k]; ++i, ++r) {
      schedule[k].push_back({tenant_of[r], make_batch(tenant_of[r], 1)});
      records_offered += kRecordsPerSplit;
    }
  }
  std::vector<std::size_t> oracle_tenants(kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) oracle_tenants[t] = t;
  shuffle(oracle_tenants, rng);
  oracle_tenants.resize(kOracleTenants);

  // Set-up: durable tier, shared store, manager, and every tenant's
  // initial window build.
  const std::filesystem::path work_dir(options.work_dir);
  std::unique_ptr<durability::DurableTier> tier;
  std::unique_ptr<MemoStore> memo;
  std::unique_ptr<serving::SessionManager> manager;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    manager.reset();
    memo.reset();
    tier.reset();
    std::filesystem::remove_all(work_dir);
    std::filesystem::create_directories(work_dir / "tier");
    const auto start = Clock::now();
    durability::DurableTierOptions tier_options;
    tier_options.compact_after_bytes = kCompactAfterBytes;
    tier = std::make_unique<durability::DurableTier>(
        (work_dir / "tier").string(), tier_options);
    memo = std::make_unique<MemoStore>(cluster, cost);
    memo->attach_durable_tier(tier.get());
    serving::SessionManagerOptions manager_options;
    manager_options.idle_checkpoint_rounds = kIdleCheckpointRounds;
    manager_options.scrub_records_per_cycle = kScrubRecordsPerCycle;
    manager_options.spool_dir = (work_dir / "spool").string();
    // The harness runs the fleet GC itself, right after each drain, so its
    // cost (including durable compaction) is timed on its own.
    manager_options.auto_gc = false;
    manager = std::make_unique<serving::SessionManager>(engine, *memo,
                                                        manager_options);
    for (std::size_t t = 0; t < kTenants; ++t) {
      serving::TenantSpec spec;
      spec.name = name_of(t);
      spec.job = run_jobs[t];
      spec.config.mode = WindowMode::kVariableWidth;
      manager->add_tenant(std::move(spec), initial[t]);
    }
    manager->run_pending();
    manager->garbage_collect();
    setup_s.push_back(seconds_between(start, Clock::now()));
  }

  Outcome outcome;
  std::vector<std::deque<SplitPtr>> mirror;
  for (const auto& splits : initial) {
    mirror.emplace_back(splits.begin(), splits.end());
  }
  auto check = [&] {
    for (const std::size_t t : oracle_tenants) {
      const std::vector<SplitPtr> window(mirror[t].begin(), mirror[t].end());
      if (!matches_vanilla(engine, jobs[t], window,
                           manager->last_outputs(name_of(t)))) {
        ++outcome.mismatches;
      }
    }
  };
  check();

  if (shims != nullptr) shims->reset();
  const CounterSnapshot counters_before = snapshot_counters(*memo);
  const serving::TenantCounters tenants_before = fleet_counters(*manager);
  const SeriesTotals series_before = series_totals(*manager);

  Samples latency_ms, drain_ms, gc_ms, lag_ms;
  double busy_s = 0;
  double cpu_s = 0;
  double paused_s = 0;  // oracle checks shift the schedule
  std::uint64_t shed = 0;
  std::uint64_t executed = 0;
  const auto origin = Clock::now();
  for (std::size_t k = 0; k < ticks; ++k) {
    const auto due =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         static_cast<double>(k) * kTickSeconds + paused_s));
    if (Clock::now() < due) std::this_thread::sleep_until(due);
    const double cpu_start = process_cpu_seconds();
    const auto start = Clock::now();
    for (Request& request : schedule[k]) {
      std::deque<SplitPtr>& window = mirror[request.tenant];
      const auto admitted =
          manager->submit(name_of(request.tenant), 1, request.added);
      if (admitted == serving::AdmitResult::kShed ||
          admitted == serving::AdmitResult::kUnknownTenant) {
        ++shed;
        continue;
      }
      window.pop_front();
      window.insert(window.end(), request.added.begin(), request.added.end());
    }
    executed += manager->run_pending();
    const auto gc_start = Clock::now();
    manager->garbage_collect();
    const auto end = Clock::now();
    gc_ms.add(seconds_between(gc_start, end) * 1e3);
    cpu_s += process_cpu_seconds() - cpu_start;
    lag_ms.add(seconds_between(due, start) * 1e3);
    drain_ms.add(seconds_between(start, end) * 1e3);
    busy_s += seconds_between(start, end);
    for (std::size_t i = 0; i < schedule[k].size(); ++i) {
      latency_ms.add(seconds_between(due, end) * 1e3);
    }
    if ((k + 1) % (ticks / (kMidRunChecks + 1)) == 0 && k + 1 < ticks) {
      const auto pause = Clock::now();
      check();
      paused_s += seconds_between(pause, Clock::now());
    }
  }
  const double schedule_s = seconds_between(origin, Clock::now()) - paused_s;
  check();
  for (std::size_t t = 0; t < kTenants; ++t) {
    outcome.digest =
        fold_digest(outcome.digest, manager->last_outputs(name_of(t)));
  }
  outcome.attempted = requests;
  outcome.failed = outcome.mismatches + shed + (requests - shed - executed);

  const SeriesTotals series_after = series_totals(*manager);
  const double runs = series_after.runs - series_before.runs;
  std::sort(setup_s.begin(), setup_s.end());
  const double p50 = latency_ms.percentile(50);
  const double p90 = latency_ms.percentile(90);
  outcome.end_to_end = {
      {"slide_p50_ms", p50},
      {"slide_p90_ms", p90},
      {"records_per_s", static_cast<double>(records_offered) / busy_s},
      {"setup_s", setup_s[setup_s.size() / 2]},
      {"peak_rss_mb", peak_rss_mb()},
      {"sim_work_per_slide_s",
       (series_after.sim_s - series_before.sim_s) / runs},
  };
  outcome.stamp = {
      {"tenants", std::to_string(kTenants)},
      {"requests", std::to_string(requests)},
      {"drains", std::to_string(ticks)},
      {"tick_ms", json_number(kTickSeconds * 1e3)},
      {"offered_per_s",
       json_number(static_cast<double>(requests) /
                   (static_cast<double>(ticks) * kTickSeconds))},
      {"samples_beyond_p50", std::to_string(latency_ms.count_above(p50))},
      {"samples_beyond_p90", std::to_string(latency_ms.count_above(p90))},
      {"oracle_tenants", std::to_string(kOracleTenants)},
      {"oracle_checks", std::to_string(kMidRunChecks + 2)},
      {"shed", std::to_string(shed)},
      {"tier_path", json_string((work_dir / "tier").string())},
      {"tier_fs", json_string(filesystem_type(work_dir.string()))},
  };

  if (shims != nullptr) {
    report_shims(*shims, runs, busy_s, kPoolThreads, outcome);
    report_counters(counters_before, *memo, runs, outcome);
    const serving::TenantCounters tenants_after = fleet_counters(*manager);
    const double drains = static_cast<double>(ticks);
    auto& m = outcome.per_layer;
    // The manager hands back no RunMetrics; the tenant series carry the
    // cost model's simulated run latency instead.
    m["contraction.sim_work_per_slide_s"] =
        (series_after.sim_s - series_before.sim_s) / runs;
    m["slider.live_memo_entries"] = static_cast<double>(memo->size());
    m["serving.drain_ms_p50"] = drain_ms.percentile(50);
    m["serving.drain_ms_p90"] = drain_ms.percentile(90);
    m["serving.runs_per_drain"] = runs / drains;
    m["serving.gc_ms_p50"] = gc_ms.percentile(50);
    m["serving.gc_ms_p90"] = gc_ms.percentile(90);
    // Drain wall time not spent inside a tenant's run (hydration,
    // checkpointing, scrub, fleet GC and durable compaction, shard
    // dispatch), with the runs' wall time spread over the pool threads.
    m["serving.drain_self_ms"] =
        (busy_s * 1e3 -
         (series_after.wall_ms - series_before.wall_ms) / kPoolThreads) /
        drains;
    m["serving.checkpoints"] = static_cast<double>(
        tenants_after.checkpoints - tenants_before.checkpoints);
    m["serving.hydrations"] = static_cast<double>(
        tenants_after.hydrations - tenants_before.hydrations);
    m["serving.shed"] = static_cast<double>(shed);
    m["common.pool_cpu_per_wall"] = cpu_s / busy_s;
    m["loadgen.lag_p99_ms"] = lag_ms.percentile(99);
    m["loadgen.offered_per_s"] = static_cast<double>(requests) / schedule_s;
  }

  manager.reset();
  memo.reset();
  tier.reset();
  std::filesystem::remove_all(work_dir);
  return outcome;
}

}  // namespace perfbench
