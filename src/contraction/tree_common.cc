#include "contraction/tree_common.h"

#include <deque>

#include "common/hash.h"
#include "common/logging.h"
#include "observability/trace.h"

namespace slider {
namespace {

std::uint64_t context_seed(const MemoContext& ctx) {
  // XOR keeps the zero-salt (single-tenant) seed bit-identical to the
  // pre-tenant formula; distinct tenant salts shift the whole id space so
  // identical jobs under different tenants never collide in a shared store.
  return hash_combine(ctx.job_hash ^ ctx.tenant_salt,
                      static_cast<std::uint64_t>(ctx.partition) + 0x9e37);
}

}  // namespace

NodeId leaf_node_id(const MemoContext& ctx, SplitId split,
                    const KVTable& table) {
  return hash_combine(hash_combine(context_seed(ctx), split),
                      table.content_hash());
}

NodeId internal_node_id(const MemoContext& ctx, NodeId left, NodeId right) {
  return hash_combine(hash_combine(context_seed(ctx), left),
                      hash_combine(0x1357, right));
}

namespace {

// Appends the lineage record of one charge. The payload's key sketch
// resolves through the global SketchCache: by id, else as the union of all
// cached child sketches, else by hashing the table's keys; the result is
// cached.
void record_lineage_node(TreeUpdateStats& stats, const TreeCharge& c) {
  SLIDER_CHECK(c.table != nullptr) << "lineage charge without a payload";
  obs::NodeLineage rec;
  rec.id = c.id;
  rec.op = c.op;
  rec.cause = c.cause;
  rec.level = stats.level;
  rec.invocations = c.invocations;
  rec.rows = c.table->size();
  rec.rows_scanned = c.rows;
  rec.memo_cost = c.memo_cost;

  obs::SketchCache& cache = obs::SketchCache::global();
  if (c.id == 0) {
    rec.sketch = obs::sketch_of_table(*c.table);
  } else if (!cache.lookup(c.id, &rec.sketch)) {
    // A node's key set is the union of its children's key sets (merges
    // union keys; passthroughs copy them), so cached child sketches make
    // this O(children) instead of O(rows).
    bool from_children = !c.children.empty();
    obs::KeySketch merged;
    for (const NodeId child : c.children) {
      obs::KeySketch child_sketch;
      if (child == 0 || !cache.lookup(child, &child_sketch)) {
        from_children = false;
        break;
      }
      merged.merge(child_sketch);
    }
    rec.sketch = from_children ? merged : obs::sketch_of_table(*c.table);
    cache.store(c.id, rec.sketch);
  }

  for (const NodeId child : c.children) {
    if (child == 0) continue;
    if (rec.children.size() >= obs::kLineageChildCap) {
      rec.children_truncated = true;
      break;
    }
    rec.children.push_back(child);
  }
  stats.lineage.push_back(std::move(rec));
}

}  // namespace

void TreeUpdateStats::charge(const TreeCharge& c) {
  obs::CauseWork& cell = attributed.cell(c.cause, level);
  cell.nodes_visited += c.visits;
  switch (c.op) {
    case obs::LineageOp::kVisit:
      return;
    case obs::LineageOp::kReuse:
      // Memoized sub-computation reused as-is (the paper's memo hit).
      ++cell.combiner_reused;
      cell.memo_bytes_read += c.memo_bytes;
      memo_read_cost += c.memo_cost;
      SLIDER_TRACE_EVENT("tree", "tree.reuse",
                         {{"level", static_cast<double>(level)}});
      break;
    case obs::LineageOp::kLeaf:
    case obs::LineageOp::kMerge:
    case obs::LineageOp::kPassthrough:
      cell.combiner_invocations += c.invocations;
      cell.rows_scanned += c.rows;
      cell.memo_bytes_written += c.memo_bytes;
      memo_write_cost += c.memo_cost;
      // Dirty-path recompute: one event per charge that ran the combiner.
      if (c.invocations > 0) {
        SLIDER_TRACE_EVENT("tree",
                           c.op == obs::LineageOp::kPassthrough
                               ? "tree.passthrough"
                               : "tree.merge",
                           {{"level", static_cast<double>(level)},
                            {"rows", static_cast<double>(c.rows)}});
      }
      break;
  }
  if (record_lineage) record_lineage_node(*this, c);
}

MemoWriteResult memoize_payload(const MemoContext& ctx, NodeId id,
                                const std::shared_ptr<const KVTable>& table) {
  if (ctx.store == nullptr) return {};
  return ctx.store->put(id, table, ctx.tenant_salt);
}

std::shared_ptr<const KVTable> combine_and_memoize(
    const MemoContext& ctx, const CombineFn& combiner, NodeId id,
    const KVTable& left, const KVTable& right, TreeUpdateStats* stats,
    NodeId left_id, NodeId right_id) {
  MergeStats merge_stats;
  auto combined = std::make_shared<const KVTable>(
      KVTable::merge(left, right, combiner, &merge_stats));
  const MemoWriteResult write = memoize_payload(ctx, id, combined);
  if (stats != nullptr) {
    const NodeId kids[] = {left_id, right_id};
    stats->charge({.op = obs::LineageOp::kMerge,
                   .cause = stats->cause,
                   .id = id,
                   .table = combined.get(),
                   .invocations = 1,
                   .rows = merge_stats.rows_scanned,
                   .memo_cost = write.cost,
                   .memo_bytes = write.bytes_written,
                   .children = kids});
  }
  return combined;
}

void charge_passthrough(const MemoContext& ctx, const KVTable& table,
                        TreeUpdateStats* stats, NodeId id, NodeId child_id) {
  if (stats == nullptr) return;
  // Voided-path re-execution: billed to the removal that voided the
  // sibling (passthrough_cause; see tree.h).
  const NodeId kids[] = {child_id};
  stats->charge({.op = obs::LineageOp::kPassthrough,
                 .cause = stats->passthrough_cause,
                 .id = id,
                 .table = &table,
                 .invocations = 1,
                 .rows = table.size(),
                 .memo_cost = ctx.store != nullptr
                                  ? ctx.store->estimate_write_cost(
                                        table.byte_size())
                                  : 0,
                 .children = kids});
}

void memoize_leaf(const MemoContext& ctx, NodeId id,
                  const std::shared_ptr<const KVTable>& table,
                  TreeUpdateStats* stats) {
  const MemoWriteResult write = memoize_payload(ctx, id, table);
  if (stats != nullptr) {
    stats->charge({.op = obs::LineageOp::kLeaf,
                   .cause = stats->cause,
                   .id = id,
                   .table = table.get(),
                   .memo_cost = write.cost,
                   .memo_bytes = write.bytes_written});
  }
}

FoldedBatch fold_batch(const MemoContext& ctx, const CombineFn& combiner,
                       std::span<const Leaf> leaves, TreeUpdateStats* stats) {
  SLIDER_CHECK(!leaves.empty()) << "empty batch";
  FoldedBatch node;
  node.id = leaf_node_id(ctx, leaves[0].split_id, *leaves[0].table);
  std::deque<std::shared_ptr<const KVTable>> queue;
  queue.push_back(leaves[0].table);
  for (std::size_t i = 1; i < leaves.size(); ++i) {
    node.id = internal_node_id(
        ctx, node.id, leaf_node_id(ctx, leaves[i].split_id, *leaves[i].table));
    queue.push_back(leaves[i].table);
  }
  std::uint64_t fold_rows = 0;
  while (queue.size() > 1) {
    auto a = std::move(queue.front());
    queue.pop_front();
    auto b = std::move(queue.front());
    queue.pop_front();
    MergeStats merge_stats;
    queue.push_back(std::make_shared<const KVTable>(
        KVTable::merge(*a, *b, combiner, &merge_stats)));
    fold_rows += merge_stats.rows_scanned;
  }
  node.table = std::move(queue.front());
  const MemoWriteResult write = memoize_payload(ctx, node.id, node.table);
  if (stats != nullptr) {
    stats->charge({.op = leaves.size() > 1 ? obs::LineageOp::kMerge
                                           : obs::LineageOp::kLeaf,
                   .cause = stats->cause,
                   .id = node.id,
                   .table = node.table.get(),
                   .invocations = static_cast<std::uint32_t>(leaves.size() - 1),
                   .rows = fold_rows,
                   .memo_cost = write.cost,
                   .memo_bytes = write.bytes_written});
  }
  return node;
}

std::shared_ptr<const KVTable> fetch_reused(
    const MemoContext& ctx, NodeId id,
    const std::shared_ptr<const KVTable>& fallback, TreeUpdateStats* stats) {
  SLIDER_CHECK(fallback != nullptr) << "reused node without in-tree payload";
  if (ctx.store == nullptr) {
    if (stats != nullptr) {
      stats->charge({.op = obs::LineageOp::kReuse,
                     .cause = stats->cause,
                     .id = id,
                     .table = fallback.get()});
    }
    return fallback;
  }

  const MemoReadResult read = ctx.store->get(id, ctx.reduce_home);
  if (stats != nullptr) {
    stats->charge({.op = obs::LineageOp::kReuse,
                   .cause = stats->cause,
                   .id = id,
                   .table = read.found ? read.table.get() : fallback.get(),
                   .memo_cost = read.cost,
                   .memo_bytes = read.found ? read.table->byte_size() : 0});
  }
  if (read.found) return read.table;

  // Total loss (all replicas down, a budget eviction, or GC raced the
  // window): recompute. The fallback is bit-identical to what a recompute
  // would produce; we charge the recompute as a fresh merge over the
  // payload's rows, attributed to the layer that lost it — failure_reexec
  // when a machine failure destroyed every intact copy (§6 fault
  // tolerance), memo_eviction_recompute otherwise. Either way the output
  // is unchanged: the store losing state can never change an answer. Both
  // records share the id; explain() lets the executed one shadow the
  // reuse.
  const MemoWriteResult write = memoize_payload(ctx, id, fallback);
  if (stats != nullptr) {
    stats->charge({.op = obs::LineageOp::kMerge,
                   .cause = read.failure_miss
                                ? obs::WorkCause::kFailureReexec
                                : obs::WorkCause::kMemoEvictionRecompute,
                   .id = id,
                   .table = fallback.get(),
                   .invocations = 1,
                   .rows = fallback->size() * 2,
                   .memo_cost = write.cost,
                   .memo_bytes = write.bytes_written});
  }
  return fallback;
}

}  // namespace slider
