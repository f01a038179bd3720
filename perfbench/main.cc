// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR
//
// Workloads: hct-variable, substr-longwindow (closed loops over one
// SliderSession) and fleet-open (an open loop over a SessionManager); see
// README.md for why each was chosen. With --trace 0 the last line of
// stdout is the result with every end-to-end metric; with --trace 1 the
// workload runs three times in this process (untraced, with the timing
// shims, untraced again) and the result carries the per-layer metrics of
// the shimmed pass instead. Earlier
// lines starting with '#' stamp the environment and the determinism
// check (seed, simulated work, output digest).
//
// Exit status: 0 when every output matched the vanilla oracle and no
// request failed; 1 on a mismatch, failure or error; 2 on bad arguments.

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "contraction/simd_kernels.h"
#include "harness.h"
#include "observability/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

bool parse(int argc, char** argv, Options& options) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 5) return false;
  try {
    options.workload = args.at("workload");
    options.seed = std::stoull(args.at("seed"));
    options.seconds = std::stoi(args.at("seconds"));
    options.trace = args.at("trace") == "1";
    options.work_dir = args.at("work-dir");
  } catch (const std::exception&) {
    return false;
  }
  return options.seconds > 0 &&
         (options.trace || args.at("trace") == "0") &&
         (options.workload == "hct-variable" ||
          options.workload == "substr-longwindow" ||
          options.workload == "fleet-open");
}

Outcome run_pass(const Options& options, Shims* shims) {
  return options.workload == "fleet-open" ? run_fleet(options, shims)
                                          : run_closed_loop(options, shims);
}

void print_line(const char* tag, const std::map<std::string, std::string>& kv) {
  std::string line = std::string("# ") + tag + " {";
  const char* sep = "";
  for (const auto& [key, literal] : kv) {
    line += sep + json_string(key) + ": " + literal;
    sep = ", ";
  }
  std::printf("%s}\n", line.c_str());
}

// The result line: every metric of `specs`, taken from `values`.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  std::span<const MetricSpec> specs,
                  const std::map<std::string, double>& values) {
  std::string metrics;
  const char* sep = "";
  for (const MetricSpec& spec : specs) {
    metrics += std::string(sep) + json_string(spec.name) +
               ": {\"value\": " + json_number(values.at(spec.name)) +
               ", \"unit\": " + json_string(spec.unit) + "}";
    sep = ", ";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
}

int run(const Options& options) {
  std::map<std::string, std::string> stamp = {
      {"workload", json_string(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"seconds", std::to_string(options.seconds)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
      {"tracing_compiled", SLIDER_TRACING_ENABLED ? "true" : "false"},
      {"simd_backend", json_string(slider::simd::active_backend())},
      {"timing_shims", options.trace ? "true" : "false"},
  };

  // A traced run brackets the shimmed pass with two untraced ones, so the
  // trace overhead is not confounded with drift over the process's life.
  std::vector<Outcome> passes;
  passes.push_back(run_pass(options, nullptr));
  Shims shims;
  if (options.trace) {
    passes.push_back(run_pass(options, &shims));
    passes.push_back(run_pass(options, nullptr));
  }
  const Outcome& base = passes.front();
  stamp["pool_threads"] = std::to_string(slider::ThreadPool::global_threads());
  stamp["tracing_enabled"] =
      slider::obs::TraceCollector::global().enabled() ? "true" : "false";
  for (const auto& [key, literal] : base.stamp) stamp[key] = literal;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  bool same_outputs = true;
  for (const Outcome& pass : passes) {
    attempted += pass.attempted;
    failed += pass.failed;
    mismatches += pass.mismatches;
    same_outputs = same_outputs && pass.digest == base.digest;
  }
  const bool correct = failed == 0 && mismatches == 0 && same_outputs;
  stamp["failed_fraction"] =
      json_number(static_cast<double>(failed) / static_cast<double>(attempted));
  stamp["oracle_mismatches"] = std::to_string(mismatches);
  print_line("env", stamp);

  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(base.digest));
  print_line("determinism",
             {{"seed", std::to_string(options.seed)},
              {"sim_work_per_slide_s",
               json_number(base.end_to_end.at("sim_work_per_slide_s"))},
              {"digest", json_string(digest)}});
  if (!same_outputs) {
    std::fprintf(stderr, "perfbench: passes of one seed disagree on outputs\n");
  }

  if (!options.trace) {
    print_result(correct, attempted, failed, end_to_end_specs(),
                 base.end_to_end);
    return correct ? 0 : 1;
  }
  std::map<std::string, double> layers;
  for (const MetricSpec& spec : per_layer_specs()) layers[spec.name] = 0;
  const Outcome& traced = passes[1];
  for (const auto& [name, value] : traced.per_layer) {
    if (layers.count(name) == 0) {
      std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                   name.c_str());
      return 1;
    }
    layers[name] = value;
  }
  const auto p50 = [](const Outcome& pass) {
    return pass.end_to_end.at("slide_p50_ms");
  };
  layers["observability.trace_overhead_pct"] =
      (p50(traced) / ((p50(passes[0]) + p50(passes[2])) / 2) - 1.0) * 100.0;
  print_result(correct, attempted, failed, per_layer_specs(), layers);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload hct-variable|substr-longwindow|"
                 "fleet-open --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n");
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
