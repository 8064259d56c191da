// TCP front-end for the prediction service: a single-threaded poll/epoll
// event loop (binary frames execute on the pool, step 4 below) speaking the
// existing line protocol unchanged, plus the binary framing of
// net/frame.hpp, multiplexed on the same connection (the first byte of each
// inbound unit discriminates: 0xB7 = frame, anything else = text line).
//
// Event-loop shape (DESIGN.md §13):
//  1. wait for readiness (epoll on Linux, poll elsewhere; a self-pipe wakes
//     the loop for stop()),
//  2. drain readable sockets into per-connection input buffers,
//  3. extract complete units (lines / frames) into one pending-request
//     queue — admission control runs HERE, before any work is queued:
//     when the queue is deeper than `shed_observe_depth`, ingest-class
//     requests (OBSERVE/INGEST/BOBSERVE) are answered "503 SHED" (text) or
//     a kShed frame (binary) without executing; past `shed_predict_depth`,
//     predict-class requests (PREDICT/BATCH/BPREDICT) shed too. Dropping
//     observations degrades future accuracy a little; dropping predictions
//     breaks the caller's control loop now — so observations go first.
//     Sheds are counted in ld_shed_total{verb=}.
//  4. execute the queue against the PredictionService. Text lines and HTTP
//     requests run one at a time on the loop thread (BATCH forecasts its
//     workloads one after another) and act as barriers. Each run of binary
//     BPREDICT/BOBSERVE frames between them is parsed once, grouped by
//     workload into chains that keep arrival order, and the chains run
//     concurrently on the global ThreadPool with the loop thread taking
//     chunks too. Every request
//     encodes its reply into its own slot; the slots are appended in arrival
//     order, so each connection reads its replies in request order. A run
//     with fewer frames than the pool has threads — and every run when
//     LD_NUM_THREADS=1 — is one chain on the loop thread: exactly the serial
//     order. ld_net_exec_chains records the chains per executed batch.
//  5. flush output buffers; EPOLLOUT interest only while a buffer is
//     nonempty.
//
// Connections idle longer than `idle_timeout_seconds` are closed
// (ld_net_idle_closed_total). Framing violations (bad magic, oversized
// length, an over-long text line) close the connection: a corrupt length
// prefix cannot be resynchronized.
//
// Fault sites (chaos drills, fault/injector.hpp): `net.accept` drops a
// freshly accepted connection, `net.read` fails a socket read, `net.write`
// forces a 1-byte short write (the flush path must re-arm EPOLLOUT and
// resume — ld_net_short_writes_total counts the drills).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "serving/service.hpp"

namespace ld::net {

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read the bound port via port()
  double idle_timeout_seconds = 300.0;
  std::size_t max_connections = 1024;
  /// Pending-queue depth past which ingest-class requests shed.
  std::size_t shed_observe_depth = 512;
  /// Pending-queue depth past which predict-class requests shed too
  /// (> shed_observe_depth: predictions are the last thing to drop).
  std::size_t shed_predict_depth = 2048;
  /// A text line longer than this is a protocol violation (mirrors the
  /// binary payload cap).
  std::size_t max_line_bytes = 1u << 20;
  /// HTTP request-line ceiling. Ops-plane paths are a handful of bytes, so
  /// anything approaching this is a hostile or confused client; the header
  /// tail a connection may dribble after the request line is bounded at 16×
  /// this. Offenders disconnect (ld_net_overlong_disconnects_total).
  std::size_t max_http_line_bytes = 8u << 10;
  /// Per-connection buffered-bytes ceiling (inbuf + outbuf). A client that
  /// pipelines faster than it reads — or floods without newlines — is
  /// disconnected at this bound instead of growing the heap without limit.
  std::size_t max_conn_buffer_bytes = 8u << 20;
  /// How long drain() waits for connections to quiesce before closing them
  /// and returning from run().
  double drain_deadline_seconds = 10.0;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run()).
  /// Throws std::runtime_error when the socket cannot be bound.
  Server(serving::PredictionService& service, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The locally bound port (resolves ephemeral port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Run the event loop on the calling thread until stop().
  void run();

  /// Request shutdown from any thread; run() returns after the current
  /// cycle. Idempotent.
  void stop();

  /// Graceful drain (SIGTERM path; async-signal-safe like stop()): /healthz
  /// flips to "503 draining" (the listen socket stays open so load-balancer
  /// probes can see it), new data-plane requests shed at the door, in-flight
  /// requests finish and flush, quiescent connections close, and run()
  /// returns once every connection is gone or `drain_deadline_seconds`
  /// elapses. Idempotent.
  void drain();

  /// True once drain() was requested.
  [[nodiscard]] bool draining() const noexcept {
    return drain_.load(std::memory_order_relaxed);
  }

 private:
  struct Impl;
  Impl* impl_;  ///< pimpl: keeps socket/epoll headers out of this header

  serving::PredictionService& service_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_{false};
};

}  // namespace ld::net
