// Cooperative cancellation, deadline supervision, and retry/backoff for
// long-running background work (the serving layer's retrain worker).
//
// run_with_deadline() runs a task on the calling thread under a CancelToken
// that carries the deadline. Long loops (the nn trainer's epoch loop,
// injected hangs) poll cancellation_requested() and unwind promptly once the
// deadline passes; a task still running at its deadline is reported as timed
// out and its result discarded. Nothing is ever run on another thread, so a
// task that never polls holds its caller until it returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace ld::fault {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;
  /// A child token: also cancelled once `parent` (may be null) is, and — for
  /// a finite timeout_seconds > 0 — once that many seconds have passed.
  CancelToken(const CancelToken* parent, double timeout_seconds) noexcept;

  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  /// Without a parent or deadline this is one relaxed load; a deadline adds
  /// one steady_clock read.
  [[nodiscard]] bool cancelled() const noexcept {
    if (flag_.load(std::memory_order_relaxed)) return true;
    if (parent_ != nullptr && parent_->cancelled()) return true;
    return expired();
  }
  /// True when the token carries a deadline and it has passed.
  [[nodiscard]] bool expired() const noexcept {
    return has_deadline_ && Clock::now() >= deadline_;
  }

 private:
  std::atomic<bool> flag_{false};
  const CancelToken* parent_ = nullptr;
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

/// Installs `token` as the calling thread's cancellation token for the
/// enclosing scope (restores the previous one on exit, so scopes nest).
class CancelScope {
 public:
  explicit CancelScope(const CancelToken* token) noexcept;
  ~CancelScope();
  CancelScope(const CancelScope&) = delete;
  CancelScope& operator=(const CancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

/// True when the calling thread's current CancelToken has been cancelled.
/// One thread-local pointer read plus the token's cancelled() — cheap enough
/// for per-epoch polling.
[[nodiscard]] bool cancellation_requested() noexcept;

/// Thrown by cooperative workers when they observe cancellation.
class CancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Sleep for up to `seconds` in ~1 ms slices, returning early when the
/// calling thread is cancelled.
void cancellable_sleep(double seconds);

/// Capped exponential backoff with deterministic jitter: attempt k waits
/// min(initial * multiplier^k, max) * (1 + jitter * u), u ~ U[-1, 1) drawn
/// from the caller's seeded RNG, so retry schedules replay bit-identically.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 2.0;
  double jitter = 0.25;
};
[[nodiscard]] double backoff_seconds(const RetryPolicy& policy, std::size_t attempt,
                                     Rng& rng);

enum class TaskStatus { kCompleted, kFailed, kTimedOut };
[[nodiscard]] const char* to_string(TaskStatus status) noexcept;

/// Run `fn` on the calling thread under a CancelToken that is a child of the
/// thread's current token and, for timeout_seconds > 0, expires after that
/// many seconds. An attempt still running at its deadline — whether it
/// unwinds on cancellation, throws, or returns late without polling — is
/// kTimedOut. Otherwise an exception is kFailed: `error` receives its
/// message and `permanent` is set for std::logic_error (std::invalid_argument
/// included), where retrying cannot help.
TaskStatus run_with_deadline(const std::function<void()>& fn, double timeout_seconds,
                             std::string* error = nullptr, bool* permanent = nullptr);

}  // namespace ld::fault
