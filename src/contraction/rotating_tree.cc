#include "contraction/rotating_tree.h"

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

RotatingTree::Bucket RotatingTree::build_bucket(std::span<Leaf> leaves,
                                                TreeUpdateStats* stats) {
  // One fold record for the whole bucket: the rotating tree's reuse
  // granularity is the bucket, so its lineage granularity is too. Bucket
  // build is leaf-level work.
  if (stats != nullptr) stats->level = 0;
  FoldedBatch folded = fold_batch(ctx_, combiner_, leaves, stats);
  return Bucket{folded.id, std::move(folded.table), leaves.size()};
}

void RotatingTree::initial_build(std::vector<Leaf> leaves,
                                 TreeUpdateStats* stats) {
  // Group leaves into buckets.
  std::vector<std::size_t> sizes = initial_bucket_sizes_;
  if (sizes.empty()) {
    SLIDER_CHECK(bucket_width_ > 0) << "bucket_width must be positive";
    for (std::size_t done = 0; done < leaves.size(); done += bucket_width_) {
      sizes.push_back(std::min(bucket_width_, leaves.size() - done));
    }
  }
  std::size_t total = 0;
  for (const std::size_t s : sizes) total += s;
  SLIDER_CHECK(total == leaves.size())
      << "bucket sizes (" << total << ") must cover all leaves ("
      << leaves.size() << ")";

  buckets_ = sizes.size();
  window_splits_ = leaves.size();
  next_victim_ = 0;
  pending_install_.reset();
  intermediate_.reset();
  fresh_bucket_table_.reset();
  root_override_.reset();

  const std::size_t capacity = pow2_at_least(std::max<std::size_t>(1, buckets_));
  levels_.assign(1, std::vector<Slot>(capacity));
  for (std::size_t size = capacity >> 1; size >= 1; size >>= 1) {
    levels_.emplace_back(size);
  }

  // Buckets are independent (each reads its own leaf span and writes its
  // own leaf slot): build them on the shared pool. Per-bucket stats are
  // folded in bucket order below for thread-count-invariant totals.
  std::vector<std::size_t> offsets(buckets_);
  std::size_t offset = 0;
  for (std::size_t b = 0; b < buckets_; ++b) {
    offsets[b] = offset;
    offset += sizes[b];
  }
  std::vector<TreeUpdateStats> bucket_stats(
      stats != nullptr ? buckets_ : 0,
      stats != nullptr ? stats->at_level(0) : TreeUpdateStats{});
  std::vector<std::size_t> dirty(buckets_);
  auto build_one = [&](std::size_t b) {
    Bucket bucket =
        build_bucket(std::span<Leaf>(leaves.data() + offsets[b], sizes[b]),
                     stats != nullptr ? &bucket_stats[b] : nullptr);
    Slot& slot = levels_[0][b];
    slot.id = bucket.id;
    slot.table = std::move(bucket.table);
    slot.split_count = bucket.split_count;
    slot.recomputed_this_run = true;
    slot.owner = true;
    dirty[b] = b;
  };
  if (buckets_ >= kParallelLevelThreshold) {
    parallel_for(buckets_, build_one);
  } else {
    for (std::size_t b = 0; b < buckets_; ++b) build_one(b);
  }
  if (stats != nullptr) {
    for (const TreeUpdateStats& bs : bucket_stats) *stats += bs;
  }

  // Recompute all internal levels (same passthrough/void rules as the
  // folding tree, but the shape is static).
  std::vector<std::size_t> level_dirty = std::move(dirty);
  for (std::size_t k = 1; k < levels_.size(); ++k) {
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < level_dirty.size(); ++i) {
      const std::size_t parent = level_dirty[i] / 2;
      if (next.empty() || next.back() != parent) next.push_back(parent);
    }
    // Same-level nodes are independent (node j reads its two children,
    // writes levels_[k][j]): run the level on the shared pool, folding
    // per-node stats in `next` order (see folding_tree.cc).
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
        node = Slot{};
      } else if (left.table == nullptr || right.table == nullptr) {
        // Recomputed passthrough: priced as a combiner re-execution
        // (see folding_tree.cc).
        const Slot& live = left.table != nullptr ? left : right;
        if (node.id != live.id) {
          charge_passthrough(ctx_, *live.table, node_stats, live.id, live.id);
        }
        node.id = live.id;
        node.table = live.table;
        node.recomputed_this_run = live.recomputed_this_run;
      } else {
        const NodeId id = internal_node_id(ctx_, left.id, right.id);
        if (id == node.id && node.table != nullptr) {
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
    level_dirty = std::move(next);
  }
  for (auto& level : levels_) {
    for (Slot& slot : level) slot.recomputed_this_run = false;
  }
}

void RotatingTree::install_bucket(std::size_t slot_index, Bucket bucket,
                                  TreeUpdateStats* stats) {
  Slot& leaf = levels_[0][slot_index];
  release_owned(leaf, stats);
  leaf.owner = true;
  leaf.id = bucket.id;
  leaf.table = std::move(bucket.table);
  leaf.split_count = bucket.split_count;
  leaf.recomputed_this_run = true;

  std::size_t index = slot_index;
  for (std::size_t k = 1; k < levels_.size(); ++k) {
    index /= 2;
    if (stats != nullptr) {
      stats->level = static_cast<std::uint16_t>(k);
      stats->charge(
          {.op = obs::LineageOp::kVisit, .cause = stats->cause, .visits = 1});
    }
    Slot& left = levels_[k - 1][2 * index];
    Slot& right = levels_[k - 1][2 * index + 1];
    Slot& node = levels_[k][index];
    if (left.table == nullptr || right.table == nullptr) {
      const Slot& live = left.table != nullptr ? left : right;
      if (node.id != live.id) {
        charge_passthrough(ctx_, *live.table, stats, live.id, live.id);
        release_owned(node, stats);
      }
      node.owner = false;
      node.id = live.id;
      node.table = live.table;
      node.recomputed_this_run = live.recomputed_this_run;
      continue;
    }
    const NodeId id = internal_node_id(ctx_, left.id, right.id);
    if (node.id != id) release_owned(node, stats);
    node.owner = true;
    auto left_table = left.recomputed_this_run
                          ? left.table
                          : fetch_reused(ctx_, left.id, left.table, stats);
    auto right_table = right.recomputed_this_run
                           ? right.table
                           : fetch_reused(ctx_, right.id, right.table, stats);
    node.id = id;
    node.table = combine_and_memoize(ctx_, combiner_, id, *left_table,
                                     *right_table, stats, left.id, right.id);
    node.recomputed_this_run = true;
  }
  if (stats != nullptr) stats->level = 0;  // leave the context at leaf level
  for (auto& level : levels_) {
    for (Slot& slot : level) slot.recomputed_this_run = false;
  }
}

void RotatingTree::apply_delta(std::size_t remove_front,
                               std::vector<Leaf> added,
                               TreeUpdateStats* stats) {
  SLIDER_CHECK(!levels_.empty()) << "apply_delta before initial_build";
  root_override_.reset();
  fresh_bucket_table_.reset();
  if (remove_front == 0 && added.empty()) return;

  // A best-effort background phase may have been skipped: catch up in the
  // foreground before handling this slide.
  if (pending_install_.has_value()) {
    install_bucket(pending_install_->first, std::move(pending_install_->second),
                   stats);
    pending_install_.reset();
    reset_intermediate(stats);
  }

  const Slot& victim = levels_[0][next_victim_];
  SLIDER_CHECK(victim.table != nullptr) << "victim bucket is void";
  SLIDER_CHECK(remove_front == victim.split_count)
      << "fixed-width slide must drop exactly the oldest bucket ("
      << victim.split_count << " splits), got " << remove_front;
  SLIDER_CHECK(!added.empty()) << "fixed-width slide must add a bucket";

  window_splits_ += added.size() - remove_front;
  Bucket bucket = build_bucket(std::span<Leaf>(added), stats);
  fresh_bucket_table_ = bucket.table;

  const bool can_use_intermediate =
      split_processing_ && intermediate_.has_value() &&
      intermediate_->victim == next_victim_;
  if (can_use_intermediate) {
    // Foreground: Reduce will stream over {I, fresh bucket}. The tree
    // itself is updated in the next background phase.
    pending_install_ = {next_victim_, std::move(bucket)};
  } else {
    reset_intermediate(stats);
    install_bucket(next_victim_, std::move(bucket), stats);
  }
  next_victim_ = (next_victim_ + 1) % buckets_;
}

void RotatingTree::reset_intermediate(TreeUpdateStats* stats) {
  if (intermediate_.has_value() && intermediate_->owner && stats != nullptr) {
    stats->released.push_back(intermediate_->id);
  }
  intermediate_.reset();
}

void RotatingTree::compute_intermediate(TreeUpdateStats* stats) {
  // Fold the off-path sibling node outputs of the next victim, bottom-up.
  // Every merge is memoized, but only the last one stays referenced: the
  // partial chains are released as soon as the next merge supersedes them.
  std::shared_ptr<const KVTable> acc;
  NodeId acc_id = 0;
  bool acc_owned = false;
  std::vector<NodeId> partials;
  std::size_t index = next_victim_;
  for (std::size_t k = 0; k + 1 < levels_.size(); ++k) {
    const std::size_t sibling_index = index ^ 1;
    const Slot& sibling = levels_[k][sibling_index];
    index /= 2;
    if (sibling.table == nullptr) continue;  // void padding
    if (stats != nullptr) stats->level = static_cast<std::uint16_t>(k);
    auto sibling_table = fetch_reused(ctx_, sibling.id, sibling.table, stats);
    if (acc == nullptr) {
      acc = std::move(sibling_table);
      acc_id = sibling.id;
      continue;
    }
    const NodeId prev_id = acc_id;
    if (acc_owned) partials.push_back(prev_id);
    acc_id = internal_node_id(ctx_, acc_id, sibling.id);
    acc = combine_and_memoize(ctx_, combiner_, acc_id, *acc, *sibling_table,
                              stats, prev_id, sibling.id);
    acc_owned = true;
  }
  if (stats != nullptr) stats->level = 0;
  if (acc == nullptr) acc = std::make_shared<const KVTable>();  // N == 1
  // A repeated background phase recomputes the same chain: keep what the
  // new intermediate still references.
  if (intermediate_.has_value() && intermediate_->id == acc_id) {
    intermediate_->owner = false;
  }
  reset_intermediate(stats);
  if (stats != nullptr) {
    for (const NodeId id : partials) {
      if (id != acc_id) stats->released.push_back(id);
    }
  }
  intermediate_ = Intermediate{next_victim_, acc_id, std::move(acc), acc_owned};
}

void RotatingTree::background_preprocess(TreeUpdateStats* stats) {
  if (!split_processing_) return;
  if (pending_install_.has_value()) {
    install_bucket(pending_install_->first, std::move(pending_install_->second),
                   stats);
    pending_install_.reset();
  }
  compute_intermediate(stats);
}

std::shared_ptr<const KVTable> RotatingTree::root() const {
  if (pending_install_.has_value()) {
    // Foreground split mode: the authoritative window content is
    // I ⊕ fresh bucket. Materialize lazily and uncharged — the session
    // prices the equivalent streaming merge as reduce-side work.
    if (root_override_ == nullptr) {
      SLIDER_CHECK(intermediate_.has_value()) << "pending without I";
      root_override_ = std::make_shared<const KVTable>(KVTable::merge(
          *intermediate_->table, *fresh_bucket_table_, combiner_));
    }
    return root_override_;
  }
  const Slot& top = levels_.back()[0];
  if (top.table == nullptr) return std::make_shared<const KVTable>();
  return top.table;
}

std::vector<std::shared_ptr<const KVTable>> RotatingTree::reduce_inputs()
    const {
  if (pending_install_.has_value()) {
    SLIDER_CHECK(intermediate_.has_value() && fresh_bucket_table_ != nullptr)
        << "split-mode reduce inputs unavailable";
    return {intermediate_->table, fresh_bucket_table_};
  }
  return {root()};
}

void RotatingTree::serialize(durability::CheckpointWriter& writer) const {
  std::string& blob = writer.blob();
  wire::put_u64(blob, buckets_);
  wire::put_u64(blob, next_victim_);
  wire::put_u64(blob, window_splits_);
  wire::put_u32(blob, static_cast<std::uint32_t>(levels_.size()));
  for (const auto& level : levels_) {
    wire::put_u32(blob, static_cast<std::uint32_t>(level.size()));
    for (const Slot& slot : level) {
      writer.put_node(slot.id, slot.table.get());
      wire::put_u64(blob, slot.split_count);
    }
  }
  // Split-processing residue. fresh_bucket_table_ is only meaningful
  // alongside a pending install (root()/reduce_inputs() read it then) and
  // always aliases the pending bucket's table, so it is not stored
  // separately.
  wire::put_u8(blob, pending_install_.has_value() ? 1 : 0);
  if (pending_install_.has_value()) {
    wire::put_u64(blob, pending_install_->first);
    writer.put_node(pending_install_->second.id,
                    pending_install_->second.table.get());
    wire::put_u64(blob, pending_install_->second.split_count);
  }
  wire::put_u8(blob, intermediate_.has_value() ? 1 : 0);
  if (intermediate_.has_value()) {
    wire::put_u64(blob, intermediate_->victim);
    writer.put_node(intermediate_->id, intermediate_->table.get());
  }
}

bool RotatingTree::restore(durability::CheckpointReader& reader) {
  std::uint64_t buckets = 0;
  std::uint64_t next_victim = 0;
  std::uint64_t window_splits = 0;
  std::uint32_t level_count = 0;
  if (!reader.get_u64(&buckets) || !reader.get_u64(&next_victim) ||
      !reader.get_u64(&window_splits) || !reader.get_u32(&level_count) ||
      level_count == 0) {
    return false;
  }
  std::vector<std::vector<Slot>> levels;
  levels.reserve(level_count);
  for (std::uint32_t k = 0; k < level_count; ++k) {
    std::uint32_t slot_count = 0;
    if (!reader.get_u32(&slot_count)) return false;
    std::vector<Slot> level(slot_count);
    for (Slot& slot : level) {
      std::uint64_t split_count = 0;
      if (!reader.get_node(&slot.id, &slot.table) ||
          !reader.get_u64(&split_count)) {
        return false;
      }
      slot.split_count = static_cast<std::size_t>(split_count);
    }
    levels.push_back(std::move(level));
  }
  if (levels.back().size() != 1 || buckets > levels.front().size() ||
      (buckets > 0 && next_victim >= buckets)) {
    return false;
  }

  std::uint8_t has_pending = 0;
  std::optional<std::pair<std::size_t, Bucket>> pending;
  if (!reader.get_u8(&has_pending)) return false;
  if (has_pending != 0) {
    std::uint64_t slot_index = 0;
    Bucket bucket;
    std::uint64_t split_count = 0;
    if (!reader.get_u64(&slot_index) ||
        !reader.get_node(&bucket.id, &bucket.table) ||
        !reader.get_u64(&split_count) || bucket.table == nullptr) {
      return false;
    }
    bucket.split_count = static_cast<std::size_t>(split_count);
    pending = {static_cast<std::size_t>(slot_index), std::move(bucket)};
  }
  std::uint8_t has_intermediate = 0;
  std::optional<Intermediate> intermediate;
  if (!reader.get_u8(&has_intermediate)) return false;
  if (has_intermediate != 0) {
    Intermediate i;
    std::uint64_t victim = 0;
    if (!reader.get_u64(&victim) || !reader.get_node(&i.id, &i.table) ||
        i.table == nullptr) {
      return false;
    }
    i.victim = static_cast<std::size_t>(victim);
    intermediate = std::move(i);
  }
  // Foreground split mode requires both halves of {I, fresh bucket}.
  if (pending.has_value() && !intermediate.has_value()) return false;
  derive_ownership(levels);
  if (intermediate.has_value()) {
    // A merge iff the victim has two or more non-void siblings; with one,
    // the intermediate aliases it (the tree is unchanged since).
    if (intermediate->victim >= levels.front().size()) return false;
    std::size_t siblings = 0;
    for (std::size_t k = 0, i = intermediate->victim; k + 1 < levels.size();
         ++k, i /= 2) {
      if ((i ^ 1) < levels[k].size() && levels[k][i ^ 1].table != nullptr) {
        ++siblings;
      }
    }
    intermediate->owner = siblings >= 2;
  }

  levels_ = std::move(levels);
  buckets_ = static_cast<std::size_t>(buckets);
  next_victim_ = static_cast<std::size_t>(next_victim);
  window_splits_ = static_cast<std::size_t>(window_splits);
  pending_install_ = std::move(pending);
  intermediate_ = std::move(intermediate);
  fresh_bucket_table_ = pending_install_.has_value()
                            ? pending_install_->second.table
                            : nullptr;
  root_override_.reset();  // lazy cache; rebuilt on demand, uncharged
  return true;
}

TreeDescription RotatingTree::describe() const {
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
      if (slot.table == nullptr) continue;
      TreeNodeDescription node;
      node.id = slot.id;
      node.level = static_cast<int>(k);
      node.index = j;
      node.rows = slot.table->size();
      node.bytes = slot.table->byte_size();
      node.materialized = true;
      if (k == 0) {
        node.role = j == next_victim_ ? "leaf:next_victim" : "leaf";
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
  if (pending_install_.has_value()) {
    TreeNodeDescription node;
    node.id = pending_install_->second.id;
    node.level = 0;
    node.index = pending_install_->first;
    node.rows = pending_install_->second.table->size();
    node.bytes = pending_install_->second.table->byte_size();
    node.materialized = true;
    node.role = "pending";
    desc.nodes.push_back(std::move(node));
  }
  if (intermediate_.has_value() && intermediate_->table != nullptr) {
    TreeNodeDescription node;
    node.id = intermediate_->id;
    node.level = height();
    node.index = intermediate_->victim;
    node.rows = intermediate_->table->size();
    node.bytes = intermediate_->table->byte_size();
    node.materialized = true;
    node.role = "intermediate";
    desc.nodes.push_back(std::move(node));
  }
  return desc;
}

void RotatingTree::collect_live_ids(std::unordered_set<NodeId>& live) const {
  for (const auto& level : levels_) {
    for (const Slot& slot : level) {
      if (slot.table != nullptr) live.insert(slot.id);
    }
  }
  // Split-processing state must survive GC until the background phase
  // folds it into the tree.
  if (pending_install_.has_value()) live.insert(pending_install_->second.id);
  if (intermediate_.has_value() && intermediate_->id != 0) {
    live.insert(intermediate_->id);
  }
}

}  // namespace slider
