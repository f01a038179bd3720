#include "contraction/folding_tree.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "contraction/tree_common.h"
#include "data/serde.h"

namespace slider {
namespace {

std::size_t pow2_at_least(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void FoldingTree::initial_build(std::vector<Leaf> leaves,
                                TreeUpdateStats* stats) {
  reset_to(std::move(leaves), stats);
}

void FoldingTree::reset_to(std::vector<Leaf> leaves, TreeUpdateStats* stats) {
  for (const auto& level : levels_) {
    for (const Slot& slot : level) release_owned(slot, stats);
  }
  levels_.clear();
  first_ = 0;
  end_ = leaves.size();
  const std::size_t capacity = pow2_at_least(std::max<std::size_t>(1, end_));
  levels_.emplace_back(capacity);
  std::vector<std::size_t> dirty;
  dirty.reserve(leaves.size());
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    Slot& slot = levels_[0][i];
    slot.id = leaf_node_id(ctx_, leaves[i].split_id, *leaves[i].table);
    slot.table = std::move(leaves[i].table);
    slot.recomputed_this_run = true;
    slot.owner = true;
    memoize_leaf(ctx_, slot.id, slot.table, stats);
    dirty.push_back(i);
  }
  for (std::size_t size = capacity >> 1; size >= 1; size >>= 1) {
    levels_.emplace_back(size);
  }
  recompute_paths(std::move(dirty), stats);
}

void FoldingTree::grow() {
  // Merge with a fresh, same-sized, all-void tree: every level doubles and
  // a new root level appears. Existing nodes keep their indices (left
  // half), so nothing recomputes until leaves land in the new half.
  for (auto& level : levels_) {
    level.resize(level.size() * 2);
  }
  levels_.emplace_back(1);
  // The new root is derived from the old root + void → recomputed as a
  // passthrough by the path recompute of whichever insertion triggered the
  // growth (the inserted leaf's path reaches the new root).
}

void FoldingTree::shrink(std::vector<std::size_t>& dirty_leaves,
                         TreeUpdateStats* stats) {
  // The whole left half of the leaf level is void: promote the right child
  // of the root. Indices shift down by half the capacity at the leaf
  // level, halving per level above. The discarded left-half nodes and the
  // old root still hold pre-slide merges; owners among them are released.
  const std::size_t half = levels_[0].size() / 2;
  SLIDER_CHECK(first_ >= half) << "shrink with occupied left half";
  std::size_t level_half = half;
  for (auto& level : levels_) {
    if (level.size() == 1) break;  // root level handled by pop below
    const auto cut = level.begin() + static_cast<std::ptrdiff_t>(level_half);
    for (auto it = level.begin(); it != cut; ++it) release_owned(*it, stats);
    level.erase(level.begin(), cut);
    level_half /= 2;
  }
  release_owned(levels_.back()[0], stats);
  levels_.pop_back();
  first_ -= half;
  end_ -= half;
  // Dirt in the discarded half vanishes with its subtree; the rest shifts.
  std::erase_if(dirty_leaves, [half](std::size_t idx) { return idx < half; });
  for (std::size_t& idx : dirty_leaves) idx -= half;
}

void FoldingTree::apply_delta(std::size_t remove_front,
                              std::vector<Leaf> added,
                              TreeUpdateStats* stats) {
  SLIDER_CHECK(!levels_.empty()) << "apply_delta before initial_build";
  SLIDER_CHECK(remove_front <= leaf_count()) << "removing more than window";

  std::vector<std::size_t> dirty;

  // Drop old items: void the leftmost occupied slots.
  for (std::size_t i = 0; i < remove_front; ++i) {
    Slot& slot = levels_[0][first_];
    release_owned(slot, stats);
    slot = Slot{};
    dirty.push_back(first_);
    ++first_;
  }

  // Fold: reduce the height while the left half is entirely void. Dirty
  // indices from the discarded half vanish with it (their ancestors are
  // discarded too, except the root, whose promotion is free).
  while (levels_.size() > 1 && first_ >= levels_[0].size() / 2) {
    shrink(dirty, stats);
  }

  // Insert new items into void slots on the right, unfolding as needed.
  for (Leaf& leaf : added) {
    if (end_ == levels_[0].size()) grow();
    Slot& slot = levels_[0][end_];
    slot.id = leaf_node_id(ctx_, leaf.split_id, *leaf.table);
    slot.table = std::move(leaf.table);
    slot.recomputed_this_run = true;
    slot.owner = true;
    memoize_leaf(ctx_, slot.id, slot.table, stats);
    dirty.push_back(end_);
    ++end_;
  }

  // Optional §3.2 rebalancing strategy: garbage-collect void slots with a
  // fresh initial run when the window got far smaller than the leaf level.
  if (rebalance_factor_ > 0 && leaf_count() > 0 &&
      levels_[0].size() > rebalance_factor_ * leaf_count()) {
    std::vector<Leaf> survivors;
    survivors.reserve(leaf_count());
    for (std::size_t i = first_; i < end_; ++i) {
      // Split ids are not tracked per slot; reuse the node id as a stand-in
      // (leaf ids are content-stable, so memoized payloads still hit).
      survivors.push_back(Leaf{/*split_id=*/levels_[0][i].id,
                               levels_[0][i].table});
    }
    // Rebuilding re-registers leaves under ids derived from `split_id`,
    // which we just set to the old node id — stable across rebuilds.
    reset_to(std::move(survivors), stats);
    return;
  }

  recompute_paths(std::move(dirty), stats);
}

void FoldingTree::recompute_paths(std::vector<std::size_t> dirty_leaves,
                                  TreeUpdateStats* stats) {
  // Clear last run's recompute marks on the levels above the leaves; leaf
  // marks were set by the caller for inserted leaves only.
  std::sort(dirty_leaves.begin(), dirty_leaves.end());
  dirty_leaves.erase(std::unique(dirty_leaves.begin(), dirty_leaves.end()),
                     dirty_leaves.end());

  std::vector<std::size_t> dirty = std::move(dirty_leaves);
  for (std::size_t k = 1; k < levels_.size(); ++k) {
    std::vector<std::size_t> next;
    next.reserve(dirty.size() / 2 + 1);
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      const std::size_t parent = dirty[i] / 2;
      if (next.empty() || next.back() != parent) next.push_back(parent);
    }
    // Nodes within a level are independent: node j reads only its two
    // children (levels_[k-1][2j], [2j+1], untouched at this level) and
    // writes only levels_[k][j]. Run them on the shared pool. Per-node
    // stats land in `local[idx]` (seeded with the caller's charge context
    // at this level) and are folded in `next` order below, so the
    // accumulated totals are bit-identical for any thread count.
    std::vector<TreeUpdateStats> local(
        stats != nullptr ? next.size() : 0,
        stats != nullptr ? stats->at_level(static_cast<std::uint16_t>(k))
                         : TreeUpdateStats{});
    auto process = [&](std::size_t idx) {
      const std::size_t j = next[idx];
      TreeUpdateStats* node_stats = stats != nullptr ? &local[idx] : nullptr;
      if (node_stats != nullptr) {
        node_stats->charge({.op = obs::LineageOp::kVisit,
                            .cause = node_stats->cause,
                            .visits = 1});
      }
      Slot& left = levels_[k - 1][2 * j];
      Slot& right = levels_[k - 1][2 * j + 1];
      Slot& node = levels_[k][j];
      if (left.table == nullptr && right.table == nullptr) {
        release_owned(node, node_stats);
        node = Slot{};
      } else if (left.table == nullptr || right.table == nullptr) {
        // Passthrough: a combiner invocation over one live input. It is
        // charged like a re-execution (Fig 2 recomputes these after
        // removals); this is what makes an unbalanced tree genuinely cost
        // extra and motivates §3.2's randomized variant.
        const Slot& live = left.table != nullptr ? left : right;
        if (node.id != live.id) {
          charge_passthrough(ctx_, *live.table, node_stats, live.id, live.id);
        }
        release_owned(node, node_stats);
        node.owner = false;
        node.id = live.id;
        node.table = live.table;
        node.recomputed_this_run = live.recomputed_this_run;
      } else {
        const NodeId id = internal_node_id(ctx_, left.id, right.id);
        if (id == node.id && node.table != nullptr) {
          // Content unchanged (e.g. dirt from a sibling void that was
          // already void): nothing to do.
          node.recomputed_this_run = false;
          return;
        }
        auto left_table =
            left.recomputed_this_run
                ? left.table
                : fetch_reused(ctx_, left.id, left.table, node_stats);
        auto right_table =
            right.recomputed_this_run
                ? right.table
                : fetch_reused(ctx_, right.id, right.table, node_stats);
        release_owned(node, node_stats);
        node.id = id;
        node.table = combine_and_memoize(ctx_, combiner_, id, *left_table,
                                         *right_table, node_stats, left.id,
                                         right.id);
        node.recomputed_this_run = true;
        node.owner = true;
      }
    };
    if (next.size() >= kParallelLevelThreshold) {
      parallel_for(next.size(), process);
    } else {
      for (std::size_t idx = 0; idx < next.size(); ++idx) process(idx);
    }
    if (stats != nullptr) {
      for (const TreeUpdateStats& node_stats : local) *stats += node_stats;
    }
    dirty = std::move(next);
  }

  // Reset recompute marks for the next run.
  for (auto& level : levels_) {
    for (Slot& slot : level) slot.recomputed_this_run = false;
  }
}

std::shared_ptr<const KVTable> FoldingTree::root() const {
  SLIDER_CHECK(!levels_.empty()) << "root() before build";
  const Slot& top = levels_.back()[0];
  if (top.table == nullptr) return std::make_shared<const KVTable>();
  return top.table;
}

void FoldingTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u64(blob, first_);
  wire::put_u64(blob, end_);
  wire::put_u32(blob, static_cast<std::uint32_t>(levels_.size()));
  // Bottom-up, so internal passthrough nodes that alias a child's table
  // serialize as by-ref to the already-encoded child payload.
  for (const auto& level : levels_) {
    wire::put_u32(blob, static_cast<std::uint32_t>(level.size()));
    for (const Slot& slot : level) {
      writer.put_node(slot.id, slot.table.get());
    }
  }
}

bool FoldingTree::restore(durability::CheckpointReader& reader) {
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint32_t level_count = 0;
  if (!reader.get_u64(&first) || !reader.get_u64(&end) ||
      !reader.get_u32(&level_count) || level_count == 0) {
    return false;
  }
  std::vector<std::vector<Slot>> levels;
  levels.reserve(level_count);
  for (std::uint32_t k = 0; k < level_count; ++k) {
    std::uint32_t slot_count = 0;
    if (!reader.get_u32(&slot_count)) return false;
    std::vector<Slot> level(slot_count);
    for (Slot& slot : level) {
      // recomputed_this_run stays false: a checkpoint captures post-run
      // state, where every mark has been reset.
      if (!reader.get_node(&slot.id, &slot.table)) return false;
    }
    levels.push_back(std::move(level));
  }
  if (levels.back().size() != 1 || first > end ||
      end > levels.front().size()) {
    return false;
  }
  derive_ownership(levels);
  levels_ = std::move(levels);
  first_ = static_cast<std::size_t>(first);
  end_ = static_cast<std::size_t>(end);
  return true;
}

TreeDescription FoldingTree::describe() const {
  TreeDescription desc;
  desc.kind = std::string(kind());
  desc.height = height();
  desc.leaf_count = leaf_count();
  if (!levels_.empty() && levels_.back()[0].table != nullptr) {
    desc.root_id = levels_.back()[0].id;
  }
  for (std::size_t k = 0; k < levels_.size(); ++k) {
    for (std::size_t j = 0; j < levels_[k].size(); ++j) {
      const Slot& slot = levels_[k][j];
      if (slot.table == nullptr) continue;  // void slots are omitted
      TreeNodeDescription node;
      node.id = slot.id;
      node.level = static_cast<int>(k);
      node.index = j;
      node.rows = slot.table->size();
      node.bytes = slot.table->byte_size();
      node.materialized = true;
      if (k == 0) {
        node.role = "leaf";
      } else {
        node.role = k + 1 == levels_.size() ? "root" : "internal";
        const Slot& left = levels_[k - 1][2 * j];
        const Slot& right = levels_[k - 1][2 * j + 1];
        if (left.table != nullptr) node.children.push_back(left.id);
        if (right.table != nullptr) node.children.push_back(right.id);
      }
      desc.nodes.push_back(std::move(node));
    }
  }
  return desc;
}

void FoldingTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  for (const auto& level : levels_) {
    for (const Slot& slot : level) {
      if (slot.table != nullptr) live.insert(slot.id);
    }
  }
}

}  // namespace slider
