// Tiered-downsampling history shared by the per-slide time series
// (timeseries.h) and the lineage recorder (provenance.h).
//
// The newest `raw_capacity` samples are kept verbatim. When a raw sample
// ages out it is moved into the open aggregation bucket (Aggregate::fold),
// which is sealed into the aggregate ring once it spans `aggregate_width`
// samples; the aggregate ring in turn drops its oldest bucket at
// `aggregate_capacity`, counting the bucket's samples as dropped. Nothing
// is ever silently lost:
//
//   total_recorded == raw + Σ aggregate counts (incl. the open bucket)
//                     + samples_dropped
//
// Both rings are preallocated by configure(), so record() of a
// fixed-size Sample never allocates. Not thread-safe: the owner holds its
// own lock around every call.
//
// Requirements: Sample has a `std::uint64_t sequence` that record()
// stamps; Aggregate has a `std::uint64_t count` and `void fold(const
// Sample&)`, and a default-constructed Aggregate is an empty bucket.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace slider::obs {

template <typename Sample, typename Aggregate>
class TieredRing {
 public:
  // Reallocates both rings and clears history. Zero capacities or widths
  // are clamped to 1.
  void configure(std::size_t raw_capacity, std::size_t aggregate_width,
                 std::size_t aggregate_capacity) {
    raw_.assign(std::max<std::size_t>(1, raw_capacity), Sample{});
    aggregates_.assign(std::max<std::size_t>(1, aggregate_capacity),
                       Aggregate{});
    aggregate_width_ = std::max<std::size_t>(1, aggregate_width);
    raw_start_ = raw_size_ = 0;
    agg_start_ = agg_size_ = 0;
    open_bucket_ = Aggregate{};
    open_bucket_active_ = false;
    total_recorded_ = 0;
    samples_dropped_ = 0;
  }

  // Stamps the sample's sequence and appends it, evicting the oldest raw
  // sample into the aggregate tier when the raw ring is full.
  void record(Sample sample) {
    sample.sequence = total_recorded_++;
    if (raw_size_ == raw_.size()) {
      const Sample evicted = std::move(raw_[raw_start_]);
      open_bucket_.fold(evicted);
      open_bucket_active_ = true;
      if (open_bucket_.count >= aggregate_width_) seal_open_bucket();
      raw_start_ = (raw_start_ + 1) % raw_.size();
      --raw_size_;
    }
    raw_[(raw_start_ + raw_size_) % raw_.size()] = std::move(sample);
    ++raw_size_;
  }

  std::uint64_t total_recorded() const { return total_recorded_; }
  std::size_t raw_size() const { return raw_size_; }
  // The i-th retained raw sample, oldest first (i < raw_size()).
  const Sample& raw_at(std::size_t i) const {
    return raw_[(raw_start_ + i) % raw_.size()];
  }

  // Fills a snapshot with total_recorded, samples_dropped, aggregates
  // (oldest first, the open bucket last) and raw (oldest first).
  template <typename Snapshot>
  void snapshot_into(Snapshot& snap) const {
    snap.total_recorded = total_recorded_;
    snap.samples_dropped = samples_dropped_;
    snap.aggregates.reserve(agg_size_ + 1);
    for (std::size_t i = 0; i < agg_size_; ++i) {
      snap.aggregates.push_back(
          aggregates_[(agg_start_ + i) % aggregates_.size()]);
    }
    // The partially-filled bucket is real history too: without it the
    // samples between the sealed buckets and the raw window would vanish.
    if (open_bucket_active_) snap.aggregates.push_back(open_bucket_);
    snap.raw.reserve(raw_size_);
    for (std::size_t i = 0; i < raw_size_; ++i) snap.raw.push_back(raw_at(i));
  }

 private:
  void seal_open_bucket() {
    if (agg_size_ == aggregates_.size()) {
      samples_dropped_ += aggregates_[agg_start_].count;
      agg_start_ = (agg_start_ + 1) % aggregates_.size();
      --agg_size_;
    }
    aggregates_[(agg_start_ + agg_size_) % aggregates_.size()] =
        std::move(open_bucket_);
    ++agg_size_;
    open_bucket_ = Aggregate{};
    open_bucket_active_ = false;
  }

  std::vector<Sample> raw_;
  std::size_t raw_start_ = 0;
  std::size_t raw_size_ = 0;
  std::vector<Aggregate> aggregates_;
  std::size_t agg_start_ = 0;
  std::size_t agg_size_ = 0;
  std::size_t aggregate_width_ = 1;
  Aggregate open_bucket_{};
  bool open_bucket_active_ = false;
  std::uint64_t total_recorded_ = 0;
  std::uint64_t samples_dropped_ = 0;
};

}  // namespace slider::obs
