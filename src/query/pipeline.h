// Multi-level incremental query pipelines (paper §5).
//
// A query compiles to a linear pipeline of MapReduce stages. Stage 1
// consumes the sliding window and uses the window-appropriate
// self-adjusting contraction tree (a full SliderSession). From stage 2
// onwards, input changes land at arbitrary positions — so each later stage
// partitions its input into key-hashed *chunks* (stable pseudo-splits),
// memoizes per-chunk map outputs by content, and propagates changes
// through strawman contraction trees, exactly the strategy of §5.
#pragma once

#include <memory>
#include <vector>

#include "contraction/strawman_tree.h"
#include "slider/session.h"

namespace slider::query {

struct PipelineConfig {
  SliderConfig first_stage;
  // Pseudo-split fan-in of later stages: rows are routed to
  // hash(key) % chunks buckets; only changed buckets re-map.
  std::size_t chunks_per_stage = 32;
};

class QueryPipeline {
 public:
  QueryPipeline(const VanillaEngine& engine, MemoStore& memo,
                std::vector<JobSpec> stages, PipelineConfig config);

  RunMetrics initial_run(std::vector<SplitPtr> splits);
  RunMetrics slide(std::size_t remove_front, std::vector<SplitPtr> added);

  // Final stage output, one table per final-stage partition.
  const std::vector<KVTable>& output() const;
  std::size_t stage_count() const { return 1 + later_stages_.size(); }

 private:
  struct LaterStage {
    JobSpec job;
    std::vector<std::unique_ptr<ContractionTree>> trees;  // per partition
    std::vector<std::uint64_t> chunk_hashes;              // per chunk
    std::vector<MapOutput> chunk_outputs;                 // memoized maps
    std::vector<KVTable> outputs;
    bool built = false;
  };

  RunMetrics run_later_stage(LaterStage& stage,
                             const std::vector<KVTable>& input);
  RunMetrics run_all_later_stages();

  const VanillaEngine* engine_;
  MemoStore* memo_;
  PipelineConfig config_;
  std::unique_ptr<SliderSession> first_;
  std::vector<LaterStage> later_stages_;
};

// Non-incremental baseline: recomputes the whole pipeline from scratch
// (stage 1 over the window, later stages over chunked intermediates).
struct PipelineResult {
  std::vector<KVTable> output;
  RunMetrics metrics;
};
PipelineResult vanilla_pipeline_run(const VanillaEngine& engine,
                                    const std::vector<JobSpec>& stages,
                                    std::span<const SplitPtr> splits,
                                    std::size_t chunks_per_stage = 32);

}  // namespace slider::query
