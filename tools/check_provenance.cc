// check_provenance — explain-frontier gate.
//
// For a folding-tree job whose key placement is chosen by this gate,
// explain(key) (observability/provenance.h) must return exactly the
// independently computed frontier: the level-0 leaves (from
// describe_tree(), not from the lineage) whose splits were constructed to
// contain the key — all-"new" on the initial build, and only the added
// leaves on a slide introducing a fresh key.
//
// Lineage-vs-ledger conservation is not gated here: lineage records and
// ledger cells come from the same charge (TreeUpdateStats::charge), and
// the LineageLedgerConservation tests (tests/test_provenance.cc) check it
// per tree variant.
//
// With --postmortem-dir=DIR the gate additionally arms the flight
// recorder on the frontier session and forces a dump, producing a
// *.pm.json whose embedded provenance section the slider_doctor
// --explain gate reads back (ctest: tools_slider_doctor_explain).
//
// Usage: check_provenance [--quiet] [--postmortem-dir=DIR]

#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "contraction/describe.h"
#include "data/split.h"
#include "mapreduce/api.h"
#include "observability/flight_recorder.h"
#include "observability/provenance.h"
#include "slider/session.h"

namespace {

using slider::CombineFn;
using slider::JobSpec;
using slider::Record;
using slider::SliderConfig;
using slider::SliderSession;
using slider::SplitPtr;
using slider::TreeKind;
using slider::WindowMode;

bool g_quiet = false;
int g_failures = 0;

#define GATE(cond, ...)                                       \
  do {                                                        \
    if (!(cond)) {                                            \
      ++g_failures;                                           \
      std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);                      \
      std::fprintf(stderr, "\n");                             \
    }                                                         \
  } while (0)

// Identity mapper: records pass through as (key, value) pairs, so the
// gate controls key placement per split exactly.
class IdentityMapper final : public slider::Mapper {
 public:
  void map(const Record& input, slider::Emitter& out) const override {
    out.emit(input.key, input.value);
  }
};

CombineFn sum_combiner() {
  return [](const std::string&, const std::string& a, const std::string& b) {
    return std::to_string(std::strtoull(a.c_str(), nullptr, 10) +
                          std::strtoull(b.c_str(), nullptr, 10));
  };
}

JobSpec make_job(const std::string& name) {
  JobSpec job;
  job.name = name;
  job.mapper = std::make_shared<IdentityMapper>();
  job.combiner = sum_combiner();
  job.reducer = [](const std::string&,
                   const std::string& v) -> std::optional<std::string> {
    return v;
  };
  job.num_partitions = 1;
  return job;
}

struct Harness {
  Harness()
      : cluster(slider::ClusterConfig{.num_machines = 4, .slots_per_machine = 2}),
        engine(cluster, cost),
        memo(cluster, cost) {}

  slider::CostModel cost{};
  slider::Cluster cluster;
  slider::VanillaEngine engine;
  slider::MemoStore memo;
};

// Splits for the frontier gate: single partition, seven distinct keys so
// every sketch stays exact. "hot" lands only in splits 2 and 5; the slide
// later introduces "fresh" in both added splits.
SplitPtr frontier_split(slider::SplitId id, bool with_hot, bool with_fresh) {
  static const char* kFiller[] = {"a", "b", "c", "d", "e", "f"};
  std::vector<Record> records;
  records.push_back({kFiller[id % 6], "1"});
  if (with_hot) records.push_back({"hot", "1"});
  if (with_fresh) records.push_back({"fresh", "1"});
  return slider::make_split(id, std::move(records));
}

// Level-0 node ids of `description` at the given slot indexes — the
// independent frontier source: describe_tree() reads the live tree
// structure, not the lineage under test.
std::set<std::uint64_t> leaf_ids_at(
    const slider::TreeDescription& description,
    const std::set<std::size_t>& indexes) {
  std::set<std::uint64_t> ids;
  for (const slider::TreeNodeDescription& node : description.nodes) {
    if (node.level == 0 && indexes.count(node.index) != 0) {
      ids.insert(node.id);
    }
  }
  return ids;
}

std::set<std::uint64_t> all_leaf_ids(
    const slider::TreeDescription& description) {
  std::set<std::uint64_t> ids;
  for (const slider::TreeNodeDescription& node : description.nodes) {
    if (node.level == 0) ids.insert(node.id);
  }
  return ids;
}

std::set<std::uint64_t> frontier_ids(const slider::obs::Explanation& ex) {
  std::set<std::uint64_t> ids;
  for (const slider::obs::ExplainEntry& e : ex.frontier) ids.insert(e.id);
  return ids;
}

std::string id_set_string(const std::set<std::uint64_t>& ids) {
  std::string out = "{";
  for (const std::uint64_t id : ids) {
    if (out.size() > 1) out += ", ";
    out += std::to_string(id);
  }
  return out + "}";
}

void check_frontier(const std::string& postmortem_dir) {
  Harness h;
  const JobSpec job = make_job("prov-gate-frontier");
  SliderConfig config;
  config.mode = WindowMode::kVariableWidth;
  config.tree_kind = TreeKind::kFolding;
  config.record_provenance = true;
  config.postmortem_dir = postmortem_dir;  // empty = flight recorder off
  SliderSession session(h.engine, h.memo, job, config);

  constexpr std::size_t kWindow = 8;
  std::vector<SplitPtr> initial;
  for (std::size_t i = 0; i < kWindow; ++i) {
    initial.push_back(frontier_split(i, /*with_hot=*/i == 2 || i == 5,
                                     /*with_fresh=*/false));
  }
  session.initial_run(std::move(initial));

  // Initial build: the frontier of "hot" must be exactly the leaves of
  // splits 2 and 5, every one disposition "new", with exact membership.
  {
    const std::set<std::uint64_t> expected =
        leaf_ids_at(session.describe_tree(0), {2, 5});
    const slider::obs::Explanation ex =
        session.provenance()->explain("hot", 0);
    GATE(ex.found, "initial explain(hot) found nothing");
    GATE(ex.exact, "initial explain(hot) crossed a bloom-only sketch");
    GATE(expected.size() == 2, "describe_tree produced %zu hot leaves",
         expected.size());
    GATE(frontier_ids(ex) == expected,
         "initial explain(hot): frontier does not match the describe_tree "
         "leaf set (%zu vs %zu entries)",
         ex.frontier.size(), expected.size());
    for (const slider::obs::ExplainEntry& e : ex.frontier) {
      GATE(e.disposition == "new",
           "initial frontier node %llu: disposition %s, want new",
           static_cast<unsigned long long>(e.id), e.disposition.c_str());
    }
  }

  // Slide removing the front two splits and introducing "fresh" in both
  // added splits: the frontier of "fresh" must be exactly the two added
  // leaves, again all-"new". Leaf ids are content-stable, so the added
  // leaves are precisely the level-0 ids that appear across the slide
  // (describe-after minus describe-before) — an expectation derived from
  // the live tree structure, independent of the lineage under test.
  const std::set<std::uint64_t> leaves_before =
      all_leaf_ids(session.describe_tree(0));
  std::vector<SplitPtr> added;
  added.push_back(frontier_split(kWindow, false, /*with_fresh=*/true));
  added.push_back(frontier_split(kWindow + 1, false, /*with_fresh=*/true));
  session.slide(2, std::move(added));
  {
    std::set<std::uint64_t> expected =
        all_leaf_ids(session.describe_tree(0));
    for (const std::uint64_t id : leaves_before) expected.erase(id);
    const slider::obs::Explanation ex =
        session.provenance()->explain("fresh", 0);
    GATE(ex.found, "slide explain(fresh) found nothing");
    GATE(ex.exact, "slide explain(fresh) crossed a bloom-only sketch");
    GATE(expected.size() == 2, "describe_tree produced %zu fresh leaves",
         expected.size());
    GATE(frontier_ids(ex) == expected,
         "slide explain(fresh): frontier %s != added leaves %s",
         id_set_string(frontier_ids(ex)).c_str(),
         id_set_string(expected).c_str());
    for (const slider::obs::ExplainEntry& e : ex.frontier) {
      GATE(e.disposition == "new",
           "slide frontier node %llu: disposition %s, want new",
           static_cast<unsigned long long>(e.id), e.disposition.c_str());
    }
    // The untouched "hot" key must still resolve after the slide. Its
    // frontier may legitimately contain recomputed spine nodes (removal
    // dirt re-executes ancestors of the hot leaves), but never a fresh
    // leaf: "fresh"-carrying leaves do not contain the key.
    const slider::obs::Explanation hot =
        session.provenance()->explain("hot", 0);
    GATE(hot.found, "slide explain(hot) found nothing");
    for (const slider::obs::ExplainEntry& e : hot.frontier) {
      GATE(frontier_ids(ex).count(e.id) == 0,
           "hot after slide: frontier crossed fresh leaf %llu",
           static_cast<unsigned long long>(e.id));
    }
  }

  if (!postmortem_dir.empty()) {
    // Force a dump carrying the lineage above; the slider_doctor
    // --explain=fresh ctest reads it back offline.
    slider::obs::FlightRecorder::global().request_dump("provenance_gate");
    session.slide(0, {frontier_split(kWindow + 2, false, true)});
    GATE(slider::obs::FlightRecorder::global().dumps_written() > 0,
         "flight recorder wrote no dump into %s", postmortem_dir.c_str());
  }
  if (!g_quiet) std::printf("explain frontier gates: OK\n");
}

std::string arg_value(int argc, char** argv, const char* flag) {
  const std::size_t len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
      return std::string(argv[i] + len + 1);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quiet") == 0) g_quiet = true;
  }
  const std::string postmortem_dir =
      arg_value(argc, argv, "--postmortem-dir");

  check_frontier(postmortem_dir);

  if (g_failures != 0) {
    std::fprintf(stderr, "check_provenance: %d gate failure(s)\n",
                 g_failures);
    return 1;
  }
  std::printf("check_provenance: all gates passed\n");
  return 0;
}
