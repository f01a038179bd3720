// Shared plumbing for contraction-tree implementations: stable node ids,
// priced merge execution, and priced reuse of memoized payloads. Every
// helper here bills through TreeUpdateStats::charge (defined in
// tree_common.cc), the one charge entry for tree work.
#pragma once

#include <span>
#include <unordered_set>
#include <vector>

#include "contraction/tree.h"

namespace slider {

// Slot ownership in the level arrays of the folding and rotating trees:
// `owner` marks the slot that created the memo entry for its id (a leaf,
// bucket or merge); a passthrough aliases its live child's id and owns
// nothing. An owner's id is listed as released when the slot is
// overwritten or discarded.
template <typename Slot>
void release_owned(const Slot& slot, TreeUpdateStats* stats) {
  if (slot.owner && stats != nullptr) stats->released.push_back(slot.id);
}

// Ownership is not checkpointed; in post-run state it is structural:
// leaves own their ids, and an internal node is a merge iff both children
// are non-void.
template <typename Slot>
void derive_ownership(std::vector<std::vector<Slot>>& levels) {
  for (std::size_t k = 0; k < levels.size(); ++k) {
    for (std::size_t j = 0; j < levels[k].size(); ++j) {
      Slot& slot = levels[k][j];
      slot.owner = slot.table != nullptr &&
                   (k == 0 || (2 * j + 1 < levels[k - 1].size() &&
                               levels[k - 1][2 * j].table != nullptr &&
                               levels[k - 1][2 * j + 1].table != nullptr));
    }
  }
}

// Drops the entries of `memo` outside `live` and lists them as released.
// The strawman and randomized trees keep every id they memoized in their
// in-process memo, so what falls outside the live set after a run is
// exactly what the run unlinked (their rebuild is O(window) by design).
template <typename Memo>
void prune_to_live(Memo& memo, const std::unordered_set<NodeId>& live,
                   TreeUpdateStats* stats) {
  for (auto it = memo.begin(); it != memo.end();) {
    if (live.count(it->first) != 0) {
      ++it;
      continue;
    }
    if (stats != nullptr) stats->released.push_back(it->first);
    it = memo.erase(it);
  }
}

// Minimum number of independent same-level nodes before a tree hands the
// level to the shared thread pool; below this the fork/join overhead beats
// the win. The per-node stats fold is structured identically either way,
// so the threshold never affects results.
inline constexpr std::size_t kParallelLevelThreshold = 4;

// Stable identity of a leaf node. Content-hashed so that identical map
// output re-appearing (e.g. re-run after failure) maps to the same entry.
NodeId leaf_node_id(const MemoContext& ctx, SplitId split,
                    const KVTable& table);

// Identity of an internal node from its children's identities.
NodeId internal_node_id(const MemoContext& ctx, NodeId left, NodeId right);

// Persists `table` under `id` in the memo layer and returns what the write
// cost (zero without a store). Charges nothing: the caller bills the write
// with the charge it belongs to.
MemoWriteResult memoize_payload(const MemoContext& ctx, NodeId id,
                                const std::shared_ptr<const KVTable>& table);

// Executes combine(left, right), memoizes the result under `id`, and
// charges the merge to `stats`. Returns the combined payload.
//
// `left_id` / `right_id` are the children's node ids, used only for
// lineage recording (armed sessions); 0 means "unknown" and records an
// edge-less merge.
std::shared_ptr<const KVTable> combine_and_memoize(
    const MemoContext& ctx, const CombineFn& combiner, NodeId id,
    const KVTable& left, const KVTable& right, TreeUpdateStats* stats,
    NodeId left_id = 0, NodeId right_id = 0);

// Charges a *passthrough* combiner re-execution: a node whose only live
// input is one child (the other is void) still executes as a task in the
// paper's design (Fig 2 recomputes such nodes after removals) — it reads
// the payload, applies the identity combine, and writes its level output.
// The output is content-identical to the child, so no new memo entry is
// created; only the cost is charged, to stats->passthrough_cause. `id` /
// `child_id` feed lineage recording only (0 = unknown).
void charge_passthrough(const MemoContext& ctx, const KVTable& table,
                        TreeUpdateStats* stats, NodeId id = 0,
                        NodeId child_id = 0);

// Memoizes a fresh leaf payload and charges it as a leaf (zero combiner
// invocations — leaf payloads are map-side work).
void memoize_leaf(const MemoContext& ctx, NodeId id,
                  const std::shared_ptr<const KVTable>& table,
                  TreeUpdateStats* stats);

// One append batch (coalescing) or bucket (rotating) folded into a single
// node: the id is the order-sensitive chain over the leaf ids, the payload
// a balanced merge — O(rows · log n) like the single large Combiner
// invocation of Fig 5, not a quadratic left-fold. The node is memoized and
// charged as one record with n-1 invocations at the current level.
struct FoldedBatch {
  NodeId id = 0;
  std::shared_ptr<const KVTable> table;
};
FoldedBatch fold_batch(const MemoContext& ctx, const CombineFn& combiner,
                       std::span<const Leaf> leaves, TreeUpdateStats* stats);

// Charges the read of a reused node's payload from the memo layer and
// returns it. `fallback` is the in-tree copy: it is returned (and the
// entry re-installed) when the store lost the payload on every tier, which
// models "recompute after total loss" at the cost level while keeping the
// output deterministic.
std::shared_ptr<const KVTable> fetch_reused(
    const MemoContext& ctx, NodeId id,
    const std::shared_ptr<const KVTable>& fallback, TreeUpdateStats* stats);

}  // namespace slider
