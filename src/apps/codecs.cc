#include "apps/codecs.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/string_util.h"

namespace slider::apps {
namespace {

double parse_double(std::string_view text) {
  double value = 0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

std::string format_compact_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Builds a string of at most `bound` bytes through `write(char* out) ->
// char* end` in a scratch buffer, then copies it out at its exact size.
template <typename Write>
std::string write_exact(std::size_t bound, Write write) {
  char stack[1024];
  std::unique_ptr<char[]> heap;
  char* buf = stack;
  if (bound > sizeof(stack)) {
    heap = std::make_unique_for_overwrite<char[]>(bound);
    buf = heap.get();
  }
  return std::string(buf, write(buf));
}

// "4294967295:18446744073709551615," — the longest histogram entry.
constexpr std::size_t kMaxHistogramEntryChars = 10 + 1 + 20 + 1;

// Appends "bucket:count" at `out`, preceded by ',' unless `out` is the
// start of the text; returns the new end.
char* append_histogram_entry(char* out, const char* begin,
                             std::uint32_t bucket, std::uint64_t count) {
  if (out != begin) *out++ = ',';
  out = std::to_chars(out, out + 10, bucket).ptr;
  *out++ = ':';
  return std::to_chars(out, out + 20, count).ptr;
}

// Reads "bucket:count,bucket:count,..." entry by entry without copying.
// Accepts exactly what split-on-',' then parse_u64 on either side of the
// first ':' accepts, and CHECK-fails on anything else. Buckets are read
// as u64 and truncated to u32, as the histogram type stores them.
class HistogramCursor {
 public:
  explicit HistogramCursor(std::string_view text)
      : text_(text), pos_(text.data()), done_(text.empty()) {}

  // Reads the next entry; false once the text is used up.
  bool next(std::uint32_t* bucket, std::uint64_t* count) {
    if (done_) return false;
    const char* const end = text_.data() + text_.size();
    std::uint64_t wide = 0;
    const auto [colon, bucket_ec] = std::from_chars(pos_, end, wide);
    SLIDER_CHECK(bucket_ec == std::errc() && colon != end && *colon == ':')
        << "bad histogram: " << text_;
    const auto [stop, count_ec] = std::from_chars(colon + 1, end, *count);
    SLIDER_CHECK(count_ec == std::errc() && (stop == end || *stop == ','))
        << "bad histogram: " << text_;
    *bucket = static_cast<std::uint32_t>(wide);
    done_ = stop == end;
    pos_ = done_ ? end : stop + 1;
    return true;
  }

 private:
  std::string_view text_;
  const char* pos_;
  bool done_;
};

}  // namespace

std::uint64_t decode_count(const std::string& value) {
  std::uint64_t count = 0;
  SLIDER_CHECK(parse_u64(value, &count)) << "bad count value: " << value;
  return count;
}

std::string encode_count(std::uint64_t value) { return std::to_string(value); }

std::string encode_vector_sum(const VectorSum& v) {
  std::string out = std::to_string(v.count);
  for (const std::int64_t d : v.sum_micro) {
    out.push_back('|');
    out += std::to_string(d);
  }
  return out;
}

std::optional<VectorSum> decode_vector_sum(const std::string& value) {
  const auto parts = split_view(value, '|');
  if (parts.empty()) return std::nullopt;
  VectorSum v;
  if (!parse_u64(parts[0], &v.count)) return std::nullopt;
  v.sum_micro.reserve(parts.size() - 1);
  for (std::size_t i = 1; i < parts.size(); ++i) {
    std::int64_t coord = 0;
    std::string_view text = parts[i];
    bool negative = false;
    if (!text.empty() && text[0] == '-') {
      negative = true;
      text.remove_prefix(1);
    }
    std::uint64_t magnitude = 0;
    if (!parse_u64(text, &magnitude)) return std::nullopt;
    coord = static_cast<std::int64_t>(magnitude);
    v.sum_micro.push_back(negative ? -coord : coord);
  }
  return v;
}

VectorSum add_vector_sums(const VectorSum& a, const VectorSum& b) {
  if (a.sum_micro.empty()) return b;
  if (b.sum_micro.empty()) return a;
  SLIDER_CHECK(a.sum_micro.size() == b.sum_micro.size())
      << "vector dimension mismatch";
  VectorSum out;
  out.count = a.count + b.count;
  out.sum_micro.resize(a.sum_micro.size());
  for (std::size_t i = 0; i < a.sum_micro.size(); ++i) {
    out.sum_micro[i] = a.sum_micro[i] + b.sum_micro[i];
  }
  return out;
}

std::string encode_histogram(const Histogram& h) {
  return write_exact(h.size() * kMaxHistogramEntryChars, [&](char* out) {
    char* const begin = out;
    for (const auto& [bucket, count] : h) {
      out = append_histogram_entry(out, begin, bucket, count);
    }
    return out;
  });
}

std::string encode_histogram_entry(std::uint32_t bucket,
                                   std::uint64_t count) {
  char buf[kMaxHistogramEntryChars];
  return std::string(buf, append_histogram_entry(buf, buf, bucket, count));
}

Histogram decode_histogram(std::string_view value) {
  Histogram h;
  HistogramCursor cursor(value);
  std::uint32_t bucket = 0;
  std::uint64_t count = 0;
  while (cursor.next(&bucket, &count)) h.emplace_back(bucket, count);
  return h;
}

std::string merge_histogram_text(std::string_view a, std::string_view b) {
  // Each output entry is no longer than the input entries it came from
  // (canonical digits never outnumber the text's, a u32-truncated bucket
  // has at most 10 digits, and a sum has at most one digit more than its
  // longer addend), so |a| + |b| + 1 bounds the result.
  return write_exact(a.size() + b.size() + 1, [&](char* out) {
    char* const begin = out;
    HistogramCursor ca(a);
    HistogramCursor cb(b);
    std::uint32_t bucket_a = 0;
    std::uint32_t bucket_b = 0;
    std::uint64_t count_a = 0;
    std::uint64_t count_b = 0;
    bool has_a = ca.next(&bucket_a, &count_a);
    bool has_b = cb.next(&bucket_b, &count_b);
    while (has_a || has_b) {
      if (!has_b || (has_a && bucket_a < bucket_b)) {
        out = append_histogram_entry(out, begin, bucket_a, count_a);
        has_a = ca.next(&bucket_a, &count_a);
      } else if (!has_a || bucket_b < bucket_a) {
        out = append_histogram_entry(out, begin, bucket_b, count_b);
        has_b = cb.next(&bucket_b, &count_b);
      } else {
        out = append_histogram_entry(out, begin, bucket_a, count_a + count_b);
        has_a = ca.next(&bucket_a, &count_a);
        has_b = cb.next(&bucket_b, &count_b);
      }
    }
    return out;
  });
}

Histogram add_histograms(const Histogram& a, const Histogram& b) {
  Histogram out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      out.push_back(a[i++]);
    } else if (b[j].first < a[i].first) {
      out.push_back(b[j++]);
    } else {
      out.emplace_back(a[i].first, a[i].second + b[j].second);
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return out;
}

std::uint32_t histogram_quantile(const Histogram& h, double quantile) {
  std::uint64_t total = 0;
  for (const auto& [bucket, count] : h) total += count;
  if (total == 0) return 0;
  const auto target =
      static_cast<std::uint64_t>(quantile * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : h) {
    seen += count;
    if (seen > target) return bucket;
  }
  return h.back().first;
}

std::string encode_topk(const std::vector<ScoredTag>& entries) {
  std::string out;
  for (const ScoredTag& e : entries) {
    if (!out.empty()) out.push_back(';');
    out += format_compact_double(e.score);
    out.push_back('@');
    out += e.tag;
  }
  return out;
}

std::vector<ScoredTag> decode_topk(const std::string& value) {
  std::vector<ScoredTag> entries;
  if (value.empty()) return entries;
  for (const auto part : split_view(value, ';')) {
    const auto pos = part.find('@');
    SLIDER_CHECK(pos != std::string_view::npos) << "bad topk: " << value;
    entries.push_back(ScoredTag{parse_double(part.substr(0, pos)),
                                std::string(part.substr(pos + 1))});
  }
  return entries;
}

std::vector<ScoredTag> merge_topk(const std::vector<ScoredTag>& a,
                                  const std::vector<ScoredTag>& b,
                                  std::size_t k) {
  std::vector<ScoredTag> out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  std::sort(out.begin(), out.end(), [](const ScoredTag& x, const ScoredTag& y) {
    if (x.score != y.score) return x.score < y.score;
    return x.tag < y.tag;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::string encode_events(const std::vector<Event>& events) {
  std::string out;
  for (const Event& e : events) {
    if (!out.empty()) out.push_back(';');
    out += std::to_string(e.time);
    out.push_back(':');
    out += e.tag;
  }
  return out;
}

std::vector<Event> decode_events(const std::string& value) {
  std::vector<Event> events;
  if (value.empty()) return events;
  for (const auto part : split_view(value, ';')) {
    const auto pos = part.find(':');
    SLIDER_CHECK(pos != std::string_view::npos) << "bad events: " << value;
    Event e;
    SLIDER_CHECK(parse_u64(part.substr(0, pos), &e.time)) << "bad event time";
    e.tag = std::string(part.substr(pos + 1));
    events.push_back(std::move(e));
  }
  return events;
}

std::vector<Event> merge_events(const std::vector<Event>& a,
                                const std::vector<Event>& b) {
  std::vector<Event> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
             [](const Event& x, const Event& y) {
               if (x.time != y.time) return x.time < y.time;
               return x.tag < y.tag;
             });
  return out;
}

std::string encode_audit(const AuditCounters& c) {
  return std::to_string(c.chunks_served) + "," + std::to_string(c.bytes_up) +
         "," + std::to_string(c.bytes_down) + "," +
         std::to_string(c.violations);
}

std::optional<AuditCounters> decode_audit(const std::string& value) {
  const auto parts = split_view(value, ',');
  if (parts.size() != 4) return std::nullopt;
  AuditCounters c;
  if (!parse_u64(parts[0], &c.chunks_served) ||
      !parse_u64(parts[1], &c.bytes_up) ||
      !parse_u64(parts[2], &c.bytes_down) ||
      !parse_u64(parts[3], &c.violations)) {
    return std::nullopt;
  }
  return c;
}

AuditCounters add_audit(const AuditCounters& a, const AuditCounters& b) {
  return AuditCounters{a.chunks_served + b.chunks_served,
                       a.bytes_up + b.bytes_up, a.bytes_down + b.bytes_down,
                       a.violations + b.violations};
}

}  // namespace slider::apps
