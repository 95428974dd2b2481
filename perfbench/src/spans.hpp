// Wall-clock spans the benchmark records around its own calls into each
// layer's public API (traced runs only). One client thread: spans nest
// on one stack, so a span's parent is whatever span was open when it began.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Request id stamped on spans opened from now on (close, query, read).
  void set_request(std::uint64_t request) { request_ = request; }

  std::uint32_t open(std::string_view name) {
    SpanRecord span;
    span.name = std::string(name);
    span.parent = stack_.empty() ? SpanRecord::kNoParent : stack_.back();
    span.request = request_;
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
  }

  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Rename an open or closed span (tags a submit that ran the cleaner).
  void rename(std::uint32_t index, std::string_view name) {
    spans_[index].name = std::string(name);
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t request_ = 0;
};

/// Write spans as Chrome trace-event JSON, which Perfetto and
/// chrome://tracing load: one complete ("X") event per span, with its id,
/// parent and request in args. False on I/O failure.
bool write_chrome_json(const std::vector<SpanRecord>& spans,
                       const std::string& path);

/// RAII span; a no-op when `recorder` is null (untraced runs).
class Span {
 public:
  Span(SpanRecorder* recorder, std::string_view name) : recorder_(recorder) {
    if (recorder_ != nullptr) index_ = recorder_->open(name);
  }
  ~Span() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void rename(std::string_view name) {
    if (recorder_ != nullptr) recorder_->rename(index_, name);
  }

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
