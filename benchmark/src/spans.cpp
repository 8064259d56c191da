#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <new>

namespace ldb {

namespace {
int thread_ordinal() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}
}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

void SpanLog::record(const char* name, const char* cat, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t id) noexcept {
  const int tid = thread_ordinal();
  const std::scoped_lock lock(mu_);
  try {
    events_.push_back({name, cat, start_ns, end_ns - start_ns, id, tid});
  } catch (const std::bad_alloc&) {
    ++dropped_;
  }
}

std::size_t SpanLog::size() const {
  const std::scoped_lock lock(mu_);
  return events_.size();
}

void SpanLog::clear() {
  const std::scoped_lock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  const std::scoped_lock lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t epoch = 0;
  if (!events_.empty())
    epoch = std::min_element(events_.begin(), events_.end(), [](const Event& a, const Event& b) {
              return a.start_ns < b.start_ns;
            })->start_ns;
  int max_tid = 0;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    max_tid = std::max(max_tid, e.tid);
    out << (first ? "" : ",") << "{\"name\":\"" << e.name << "\",\"cat\":\"" << e.cat
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.tid
        << ",\"ts\":" << number_text(static_cast<double>(e.start_ns - epoch) / 1e3)
        << ",\"dur\":" << number_text(static_cast<double>(e.dur_ns) / 1e3);
    if (e.id != 0) out << ",\"args\":{\"id\":" << e.id << "}";
    out << "}";
    first = false;
  }
  for (int tid = 0; tid <= max_tid && !events_.empty(); ++tid)
    out << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"ld_bench-" << tid << "\"}}";
  out << "]}\n";
  if (dropped_ > 0) std::fprintf(stderr, "ld_bench: %zu spans dropped\n", dropped_);
  return static_cast<bool>(out) && dropped_ == 0;
}

}  // namespace ldb
