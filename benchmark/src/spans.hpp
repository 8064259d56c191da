// In-memory span log of the traced run. Spans are recorded from benchmark
// code around calls into each layer's public functions (the library's own
// obs::Tracer stays off), kept in memory, and written once at exit as
// Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util.hpp"

namespace ldb {

class SpanLog {
 public:
  [[nodiscard]] static SpanLog& instance();

  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// `name` and `cat` must be string literals. `id` ties the spans of one
  /// request or operation together (0 = none). A span that cannot be stored
  /// is counted as dropped.
  void record(const char* name, const char* cat, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t id = 0) noexcept;

  [[nodiscard]] std::size_t size() const;
  void clear();
  /// Write {"traceEvents":[...]}; false when the file cannot be written or
  /// spans were dropped.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    const char* name;
    const char* cat;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint64_t id;
    int tid;
  };
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
};

/// Times one call when the span log is enabled.
class Span {
 public:
  Span(const char* name, const char* cat, std::uint64_t id = 0) noexcept
      : name_(SpanLog::instance().enabled() ? name : nullptr), cat_(cat), id_(id),
        start_(name_ != nullptr ? now_ns() : 0) {}
  ~Span() {
    if (name_ != nullptr) SpanLog::instance().record(name_, cat_, start_, now_ns(), id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t id_;
  std::int64_t start_;
};

}  // namespace ldb
