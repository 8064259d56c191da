#include "fault/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

namespace ld::fault {

namespace {

thread_local const CancelToken* t_cancel_token = nullptr;

}  // namespace

CancelToken::CancelToken(const CancelToken* parent, double timeout_seconds) noexcept
    : parent_(parent) {
  if (!std::isfinite(timeout_seconds) || timeout_seconds <= 0.0) return;
  // Clamp to ~30 years so the double -> ticks conversion cannot overflow.
  const std::chrono::duration<double> timeout(std::min(timeout_seconds, 1e9));
  has_deadline_ = true;
  deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(timeout);
}

CancelScope::CancelScope(const CancelToken* token) noexcept : previous_(t_cancel_token) {
  t_cancel_token = token;
}

CancelScope::~CancelScope() { t_cancel_token = previous_; }

bool cancellation_requested() noexcept {
  return t_cancel_token != nullptr && t_cancel_token->cancelled();
}

void cancellable_sleep(double seconds) {
  if (seconds <= 0.0) return;
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::duration_cast<clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (clock::now() < deadline) {
    if (cancellation_requested()) return;
    const auto remaining = deadline - clock::now();
    std::this_thread::sleep_for(
        std::min<clock::duration>(remaining, std::chrono::milliseconds(1)));
  }
}

double backoff_seconds(const RetryPolicy& policy, std::size_t attempt, Rng& rng) {
  double base = policy.initial_backoff_seconds;
  for (std::size_t k = 0; k < attempt && base < policy.max_backoff_seconds; ++k)
    base *= policy.backoff_multiplier;
  base = std::min(base, policy.max_backoff_seconds);
  const double u = 2.0 * rng.uniform() - 1.0;  // U[-1, 1)
  return std::max(0.0, base * (1.0 + policy.jitter * u));
}

const char* to_string(TaskStatus status) noexcept {
  switch (status) {
    case TaskStatus::kCompleted: return "completed";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kTimedOut: return "timed_out";
  }
  return "unknown";
}

TaskStatus run_with_deadline(const std::function<void()>& fn, double timeout_seconds,
                             std::string* error, bool* permanent) {
  if (permanent != nullptr) *permanent = false;
  const CancelToken token(t_cancel_token, timeout_seconds);
  const CancelScope scope(&token);
  std::string message;
  bool failed = true;
  bool logic = false;
  try {
    fn();
    failed = false;
  } catch (const std::logic_error& e) {  // std::invalid_argument included
    message = e.what();
    logic = true;
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
    message = "unknown exception";
  }
  if (token.expired()) return TaskStatus::kTimedOut;
  if (!failed) return TaskStatus::kCompleted;
  if (error != nullptr) *error = std::move(message);
  if (permanent != nullptr) *permanent = logic;
  return TaskStatus::kFailed;
}

}  // namespace ld::fault
