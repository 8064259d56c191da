#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <limits>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/metrics.hpp"
#include "net/frame.hpp"
#include "spans.hpp"
#include "util.hpp"

namespace ldb {

std::vector<double> Fleet::add(std::string name, std::uint32_t model,
                               const std::vector<double>& series, std::size_t start,
                               std::size_t length) {
  std::vector<double> history(length);
  for (std::size_t i = 0; i < length; ++i) history[i] = series[(start + i) % series.size()];
  names.push_back(std::move(name));
  model_of.push_back(model);
  source.push_back(&series);
  cursor.push_back((start + length) % series.size());
  tail.emplace_back(history.end() - static_cast<std::ptrdiff_t>(std::min(length, kTail)),
                    history.end());
  return history;
}

void Fleet::next_values(std::size_t t, std::size_t n, std::vector<double>& out) {
  const std::vector<double>& series = *source[t];
  std::vector<double>& mirror = tail[t];
  out.clear();
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(series[cursor[t]]);
    cursor[t] = (cursor[t] + 1) % series.size();
  }
  mirror.insert(mirror.end(), out.begin(), out.end());
  if (mirror.size() > 2 * kTail)
    mirror.erase(mirror.begin(), mirror.end() - static_cast<std::ptrdiff_t>(kTail));
}

namespace {

using ld::net::Op;

constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kReplyGrace = kSecond;  // unanswered this long after the end: failed
/// Traced runs record client spans in alternate slices of this length, so
/// traced and untraced requests see the same load.
constexpr std::int64_t kTraceSlice = kSecond / 10;
constexpr double kCheckEvery = 64.0;           // one in 64 forecasts is recomputed
constexpr std::uint64_t kTimerTag = ~0ULL;
constexpr std::uint64_t kScrapeTag = ~0ULL - 1;

/// Owns one file descriptor.
class Fd {
 public:
  explicit Fd(int fd = -1) noexcept : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  void reset() noexcept {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_;
};

Fd connect_to(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (fd.get() < 0) throw std::runtime_error("loadgen: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0)
    throw std::runtime_error(std::string("loadgen: connect failed: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd.get(), F_SETFL, ::fcntl(fd.get(), F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Req {
  std::int64_t due_ns;
  std::uint32_t tenant;
  bool predict;
  std::uint32_t count;      ///< horizon or values sent
  std::int64_t slot = -1;   ///< one-step forecast slot (PREDICT)
  std::int64_t check = -1;  ///< sampled-check index (PREDICT)
};

struct Conn {
  Fd fd;
  std::string out;
  std::string in;
  std::deque<Req> inflight;
  bool want_out = false;
};

struct Check {
  std::uint32_t tenant;
  std::uint32_t horizon;
  std::vector<double> window;
  std::vector<double> got;
};

/// One GET /metrics on its own connection, driven by the epoll loop.
struct Scrape {
  Fd fd;
  std::int64_t start_ns = 0;
  std::string body;
};

/// Data connections: two, or one on a single-core host.
std::size_t data_connections() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
}

}  // namespace

double PhaseResult::sliced_predict_percentile(double p) const {
  std::vector<std::vector<double>> by_slice(completed_by_slice.size());
  for (std::size_t i = 0; i < predict_us.size(); ++i)
    by_slice[predict_slice[i]].push_back(predict_us[i]);
  std::vector<double> per_slice;
  for (const std::vector<double>& slice : by_slice)
    if (!slice.empty()) per_slice.push_back(percentile(slice, p));
  return median(per_slice);
}

double PhaseResult::sliced_throughput(double seconds) const {
  std::vector<double> rates;
  const double slice_s = seconds / static_cast<double>(completed_by_slice.size());
  for (const std::size_t n : completed_by_slice)
    rates.push_back(static_cast<double>(n) / slice_s);
  return median(rates);
}

double PhaseResult::forecast_mape() const {
  std::vector<double> f, a;
  for (std::size_t i = 0; i < forecast.size(); ++i)
    if (std::isfinite(forecast[i]) && std::isfinite(actual[i])) {
      f.push_back(forecast[i]);
      a.push_back(actual[i]);
    }
  return ld::metrics::mape(a, f);
}

LoadGen::LoadGen(std::uint16_t port, Fleet& fleet, Traffic traffic, std::uint64_t seed)
    : port_(port), fleet_(fleet), traffic_(std::move(traffic)), rng_(seed ^ 0x10ad9e4ULL),
      check_rng_(seed ^ 0xc4ec4ULL), last_predict_(fleet.size(), -1) {
  if (traffic_.tenants.empty()) throw std::invalid_argument("loadgen: no tenants");
}

PhaseResult LoadGen::run(const PhaseSpec& spec) {
  // Timer slack would add ~50 us to every wake-up, i.e. to every latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  PhaseResult r;
  std::fill(last_predict_.begin(), last_predict_.end(), -1);
  const bool open_loop = spec.rate > 0.0;
  const std::size_t nconn = data_connections();
  // A scrape needs a connection of its own; stay within the core count.
  const bool scrapes =
      spec.scrape && nconn + 1 <= std::max(1u, std::thread::hardware_concurrency());
  std::vector<Conn> conns(nconn);
  for (Conn& c : conns) c.fd = connect_to(port_);
  r.max_connections = nconn;

  const Fd ep(::epoll_create1(EPOLL_CLOEXEC));
  const Fd tfd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  if (ep.get() < 0 || tfd.get() < 0)
    throw std::runtime_error("loadgen: epoll/timerfd setup failed");
  const auto watch = [&](const Fd& fd, std::uint32_t events, std::uint64_t tag, int op) {
    epoll_event ev{};
    ev.events = events;
    ev.data.u64 = tag;
    ::epoll_ctl(ep.get(), op, fd.get(), &ev);
  };
  for (std::size_t i = 0; i < nconn; ++i) watch(conns[i].fd, EPOLLIN, i, EPOLL_CTL_ADD);
  watch(tfd, EPOLLIN, kTimerTag, EPOLL_CTL_ADD);

  std::vector<Check> checks;
  std::vector<double> values;
  const std::int64_t t0 = now_ns();
  const auto timed_start = t0 + static_cast<std::int64_t>(spec.warmup_s * 1e9);
  const auto end = timed_start + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::size_t slices = std::clamp<std::size_t>(spec.slices, 1, 255);
  const std::int64_t slice_ns = (end - timed_start) / static_cast<std::int64_t>(slices);
  r.completed_by_slice.assign(slices, 0);
  const auto slice_of = [&](std::int64_t t) {
    return static_cast<std::size_t>(std::min<std::int64_t>(
        static_cast<std::int64_t>(slices) - 1,
        (t - timed_start) / std::max<std::int64_t>(1, slice_ns)));
  };
  std::int64_t next_due = t0;
  std::int64_t next_scrape = scrapes ? timed_start + slice_ns / 2
                                     : std::numeric_limits<std::int64_t>::max();
  Scrape scrape;
  bool have_next = false;  // closed loop: drawn request waiting for room
  Req next{};
  const auto fail = [&](const std::string& why) {
    ++r.failed;
    if (r.first_error.empty()) r.first_error = why;
  };
  const auto traced = [&](std::int64_t due) {
    return spec.trace && ((due - t0) / kTraceSlice) % 2 == 1;
  };

  // Draw the next request of the seeded stream (tenant, verb).
  const auto draw = [&](std::int64_t due) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<long long>(traffic_.tenants.size()) - 1));
    const bool predict = rng_.uniform() < traffic_.predict_share;
    return Req{due, traffic_.tenants[pick], predict,
               predict ? traffic_.horizon : static_cast<std::uint32_t>(traffic_.observe_batch)};
  };
  const auto issue = [&](Req req, std::int64_t now) {
    Conn& c = conns[req.tenant % nconn];
    const std::string& name = fleet_.names[req.tenant];
    if (req.predict) {
      req.slot = static_cast<std::int64_t>(r.forecast.size());
      r.forecast.push_back(std::numeric_limits<double>::quiet_NaN());
      r.actual.push_back(std::numeric_limits<double>::quiet_NaN());
      last_predict_[req.tenant] = req.slot;
      if (check_rng_.uniform() * kCheckEvery < 1.0) {
        const std::vector<double>& mirror = fleet_.tail[req.tenant];
        const std::size_t keep = std::min(mirror.size(), Fleet::kTail);
        checks.push_back({req.tenant, req.count,
                          std::vector<double>(mirror.end() - static_cast<std::ptrdiff_t>(keep),
                                              mirror.end()),
                          {}});
        req.check = static_cast<std::int64_t>(checks.size()) - 1;
      }
      ld::net::append_predict_request(c.out, name, req.count);
    } else {
      fleet_.next_values(req.tenant, req.count, values);
      if (const std::int64_t slot = last_predict_[req.tenant]; slot >= 0) {
        r.actual[static_cast<std::size_t>(slot)] = values.front();
        last_predict_[req.tenant] = -1;
      }
      ld::net::append_observe_request(c.out, name, values);
    }
    if (req.due_ns >= timed_start)
      r.lag_us.push_back(static_cast<double>(now - req.due_ns) / 1e3);
    ++r.attempted;
    c.inflight.push_back(req);
  };
  const auto on_reply = [&](Conn& c, const ld::net::Decoded& frame, std::int64_t now) {
    if (c.inflight.empty()) {
      fail("reply without a request");
      return;
    }
    const Req req = c.inflight.front();
    c.inflight.pop_front();
    const bool in_window = req.due_ns >= timed_start && req.due_ns < end;
    const double us = static_cast<double>(now - req.due_ns) / 1e3;
    if (frame.op == Op::kShed) return fail("shed");
    if (frame.op == Op::kError) return fail("server error: " + frame.payload);
    try {
      if (req.predict) {
        if (frame.op != Op::kPredictOk) return fail("unexpected reply to PREDICT");
        const ld::net::PredictOkPayload ok = ld::net::parse_predict_ok(frame.payload);
        if (ok.level != 0) return fail("degraded forecast");
        if (ok.forecast.size() != req.count) return fail("forecast length");
        for (const double v : ok.forecast)
          if (!std::isfinite(v)) return fail("non-finite forecast");
        r.forecast[static_cast<std::size_t>(req.slot)] = ok.forecast.front();
        if (req.check >= 0) checks[static_cast<std::size_t>(req.check)].got = ok.forecast;
        if (in_window) {
          r.predict_us.push_back(us);
          r.predict_slice.push_back(static_cast<std::uint8_t>(slice_of(req.due_ns)));
          if (spec.trace) (traced(req.due_ns) ? r.predict_traced_us : r.predict_untraced_us)
                              .push_back(us);
        }
      } else {
        if (frame.op != Op::kObserveOk) return fail("unexpected reply to OBSERVE");
        if (ld::net::parse_observe_ok(frame.payload) != req.count)
          return fail("observation count");
        if (in_window) r.observe_us.push_back(us);
      }
    } catch (const std::exception& e) {
      return fail(std::string("malformed reply: ") + e.what());
    }
    if (now >= timed_start && now < end) ++r.completed_by_slice[slice_of(now)];
    if (traced(req.due_ns))
      SpanLog::instance().record(req.predict ? "client.predict" : "client.observe", "request",
                                 req.due_ns, now);
  };

  bool sending = true;
  epoll_event events[16];
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= end) sending = false;
    if (sending) {
      if (open_loop) {
        while (next_due <= now && next_due < end) {
          issue(draw(next_due), now);
          next_due += static_cast<std::int64_t>(rng_.exponential(spec.rate) * 1e9);
        }
      } else {
        for (;;) {
          if (!have_next) {
            next = draw(now);
            have_next = true;
          }
          if (conns[next.tenant % nconn].inflight.size() >= spec.window) break;
          next.due_ns = now;
          issue(next, now);
          have_next = false;
        }
      }
    }
    for (std::size_t i = 0; i < nconn; ++i) {
      Conn& c = conns[i];
      while (!c.out.empty()) {
        const ssize_t n = ::send(c.fd.get(), c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          c.out.erase(0, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("loadgen: connection lost on send");
      }
      const bool want = !c.out.empty();
      if (want != c.want_out) {
        watch(c.fd, EPOLLIN | (want ? EPOLLOUT : 0u), i, EPOLL_CTL_MOD);
        c.want_out = want;
      }
    }
    if (sending && scrape.fd.get() < 0 && now >= next_scrape) {
      scrape.start_ns = now;
      scrape.body.clear();
      scrape.fd = connect_to(port_);
      const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
      if (::send(scrape.fd.get(), get.data(), get.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(get.size()))
        throw std::runtime_error("loadgen: scrape request failed");
      watch(scrape.fd, EPOLLIN, kScrapeTag, EPOLL_CTL_ADD);
      r.max_connections = std::max(r.max_connections, nconn + 1);
      next_scrape += slice_ns;
    }

    std::size_t outstanding = 0;
    for (const Conn& c : conns) outstanding += c.inflight.size();
    if (!sending && outstanding == 0 && scrape.fd.get() < 0) break;
    if (now >= end + kReplyGrace) {
      for (std::size_t i = 0; i < outstanding; ++i) fail("no reply within 1 s of the phase end");
      break;
    }

    std::int64_t wake = end + kReplyGrace;
    if (sending) wake = open_loop ? std::min(next_due, end) : end;
    if (scrape.fd.get() < 0 && sending) wake = std::min(wake, next_scrape);
    int timeout_ms = 0;
    if (wake > now) {
      itimerspec at{};
      at.it_value.tv_sec = static_cast<time_t>(wake / kSecond);
      at.it_value.tv_nsec = static_cast<long>(wake % kSecond);
      ::timerfd_settime(tfd.get(), TFD_TIMER_ABSTIME, &at, nullptr);
      timeout_ms = -1;
    }
    const int n = ::epoll_wait(ep.get(), events, 16, timeout_ms);
    if (n < 0 && errno != EINTR) throw std::runtime_error("loadgen: epoll_wait failed");
    now = now_ns();
    for (int e = 0; e < n; ++e) {
      const std::uint64_t tag = events[e].data.u64;
      if (tag == kTimerTag) {
        std::uint64_t expirations = 0;
        [[maybe_unused]] const ssize_t ignored =
            ::read(tfd.get(), &expirations, sizeof expirations);
        continue;
      }
      char buf[64 * 1024];
      if (tag == kScrapeTag) {
        for (;;) {
          const ssize_t got = ::recv(scrape.fd.get(), buf, sizeof buf, 0);
          if (got > 0) {
            scrape.body.append(buf, static_cast<std::size_t>(got));
            continue;
          }
          if (got < 0 && (errno == EAGAIN || errno == EINTR)) break;
          r.scrape_ms.push_back(static_cast<double>(now_ns() - scrape.start_ns) / 1e6);
          if (scrape.body.rfind("HTTP/1.0 200", 0) != 0) fail("scrape failed");
          ::epoll_ctl(ep.get(), EPOLL_CTL_DEL, scrape.fd.get(), nullptr);
          scrape.fd.reset();
          break;
        }
        continue;
      }
      Conn& c = conns[tag];
      if ((events[e].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(c.fd.get(), buf, sizeof buf, 0);
        if (got > 0) {
          c.in.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EINTR)) break;
        throw std::runtime_error("loadgen: server closed a data connection");
      }
      std::size_t used = 0;
      for (;;) {
        const ld::net::Decoded frame =
            ld::net::decode_frame(std::string_view(c.in).substr(used));
        if (frame.status == ld::net::DecodeStatus::kNeedMore) break;
        if (frame.status == ld::net::DecodeStatus::kBad)
          throw std::runtime_error("loadgen: bad reply frame: " + frame.error);
        used += frame.consumed;
        on_reply(c, frame, now);
      }
      c.in.erase(0, used);
    }
  }
  conns.clear();  // close the data connections before the checks run
  scrape.fd.reset();

  // Served forecasts must equal the tenant's model on the mirrored window.
  for (const Check& check : checks) {
    if (check.got.empty()) continue;  // that request failed and is already counted
    ++r.checked;
    const std::vector<double> expect =
        fleet_.model(check.tenant).predict_horizon(check.window, check.horizon);
    if (expect.size() != check.got.size() ||
        std::memcmp(expect.data(), check.got.data(), expect.size() * sizeof(double)) != 0) {
      fail("served forecast differs from TrainedModel::predict_horizon on the mirrored window");
    }
  }
  return r;
}

}  // namespace ldb
