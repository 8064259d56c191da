#include "app/serve_app.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <csignal>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/loaddynamics.hpp"
#include "fault/injector.hpp"
#include "net/server.hpp"
#include "nn/network.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serving/protocol.hpp"
#include "serving/service.hpp"
#include "wal/journal.hpp"
#include "workloads/trace.hpp"

namespace ld::app {

namespace {

constexpr const char* kUsage = R"(ld_serve — multi-workload prediction service

usage: ld_serve [<workload>=<model.ldm|trace.csv> ...] [flags]

positional: each NAME=PATH registers a workload; .ldm loads a tuned model,
.csv quick-trains one at startup and pre-ingests the trace history.

flags:
  --replay FILE        read protocol commands from FILE instead of stdin
  --listen PORT        serve over TCP instead of stdin: poll/epoll event
                       loop, line protocol + binary frames + HTTP ops plane
                       (GET /metrics, /healthz, /statusz) on one socket
                       (PORT 0 picks an ephemeral port; the bound port is
                       announced as "LISTENING <port>" on stdout)
  --host ADDR          listen address (default 127.0.0.1)
  --shards N           registry/retrain-queue shard count, 0..256
                       (default 0: LD_SHARDS, else hardware concurrency)
  --idle-timeout S     close connections idle for S seconds (default 300)
  --max-conns N        concurrent connection cap (default 1024)
  --shed-observe N     pending-queue depth at which OBSERVE/INGEST shed
                       with "503 SHED" (default 512)
  --shed-predict N     depth at which PREDICT/BATCH shed too (default 2048)
  --checkpoint-dir D   persist models on publish; warm-start from D
  --history N          per-workload history cap, >= 16 (default 4096)
  --threads N          resize the shared thread pool
  --no-retrain         disable drift-triggered background retraining
  --quant              int8 row-quantized inference (LD_QUANT=1), on every
                       kernel tier
  --interval M         CSV trace interval minutes (default 30)
  --epochs E           quick-train and retrain epoch budget, >= 1
                       (default 20)
  --seed S             quick-train seed (default 2020)
  --tune N             quick-train BO budget: N candidate fits over a small
                       space (default 3; 0 = fixed hyperparameters, no search)
  --trace FILE         write a Chrome trace-event JSON (open in Perfetto);
                       LD_TRACE=FILE does the same for any binary
  --metrics-out FILE   periodically dump the Prometheus scrape to FILE
  --metrics-interval S metrics dump period in seconds (default 5)
  --faults SPEC        enable deterministic fault injection, e.g.
                       'checkpoint.write:p=0.3,retrain.hang:mode=sleep:ms=2000'
  --fault-seed S       fault-injection RNG seed (default 42)
  --retrain-timeout S  deadline per retrain attempt in seconds, >= 0: an
                       attempt still training at it is cancelled at its
                       next epoch and discarded (default 0 = no deadline)
  --retrain-attempts N max retrain attempts incl. retries, >= 1 (default 3)
  --wal-dir D          durability root: per-shard write-ahead journals +
                       snapshot manifest under D; on startup the previous
                       run's state is recovered (snapshot + WAL tail replay)
                       before any traffic (see DESIGN.md §15)
  --wal-fsync P        WAL fsync policy: always|interval|never
                       (default interval; env LD_WAL_FSYNC)
  --wal-segment-bytes N rotate WAL segments past N bytes (default 4194304)
  --snapshot-interval S background snapshot/compaction period in seconds
                       (default 30; 0 = only the final snapshot at exit)

signals (with --listen): SIGINT stops immediately; SIGTERM drains —
/healthz flips to 503 draining, new data-plane requests shed, in-flight
work finishes, WALs flush, a final snapshot is written, exit 0.

protocol: LOAD OBSERVE INGEST PREDICT BATCH RETRAIN WAIT SAVE STATS
          SNAPSHOT WORKLOADS METRICS FAULTS QUIT   (see docs/API.md)

env: LD_LOG_LEVEL=debug|info|warn|error|off, LD_TRACE=FILE,
     LD_TRACE_BUFFER=N (trace events per thread), LD_TRACE_SAMPLE=N (trace
     every Nth request's flow), LD_METRICS_MAX_SERIES=N (cardinality
     governor: cap exposed series, roll the long tail into
     workload="__other"), LD_NUM_THREADS=N, LD_FAULTS=SPEC, LD_FAULT_SEED=N,
     LD_KERNEL=auto|avx512|avx2|blocked|reference (GEMM tier for training
     and BO; forecasts run fused on every tier, layered only on the
     reference oracle), LD_QUANT=1,
     LD_WAL_FSYNC=always|interval|never (see docs/API.md, ld::fault)
)";

/// A size flag's value, checked against [lo, hi] before the cast to size_t
/// (where a negative value would wrap to a huge size).
std::size_t size_flag(const cli::Args& args, const std::string& name, long long fallback,
                      long long lo, long long hi = std::numeric_limits<long long>::max()) {
  const long long v = args.get_int(name, fallback);
  const std::string got = ", got " + std::to_string(v);
  if (v < lo) throw std::invalid_argument("--" + name + " must be >= " + std::to_string(lo) + got);
  if (v > hi) throw std::invalid_argument("--" + name + " must be <= " + std::to_string(hi) + got);
  return static_cast<std::size_t>(v);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(),
                                                suffix) == 0;
}

/// Quick fit for .csv workloads, full trace as history — good enough to
/// serve from in seconds; `loaddynamics train` + LOAD is the tuned path.
/// With --tune N (default 3) a tiny Bayesian-optimization search picks the
/// hyperparameters from a clamped space; --tune 0 falls back to one fixed
/// configuration.
void quick_train(serving::PredictionService& service, const std::string& name,
                 const std::string& csv_path, const cli::Args& args, std::ostream& err) {
  LD_TRACE_SPAN("serve.quick_train");
  const auto interval = static_cast<std::size_t>(args.get_int("interval", 30));
  const workloads::Trace trace = workloads::load_csv_trace(csv_path, name, interval);
  const workloads::TraceSplit split = workloads::split_trace(trace, 0.75, 0.2);

  core::LoadDynamicsConfig cfg;
  cfg.training.trainer.max_epochs = size_flag(args, "epochs", 20, 1);
  cfg.training.trainer.min_updates = 200;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));

  const auto tune = static_cast<std::size_t>(args.get_int("tune", 3));
  std::shared_ptr<core::TrainedModel> model;
  if (tune > 0) {
    // Startup-scale search: clamp the reduced space further so every
    // candidate trains in seconds even on the CI runners.
    cfg.space = core::HyperparameterSpace::reduced();
    cfg.space.history_max = std::min<std::size_t>(cfg.space.history_max, 16);
    cfg.space.cell_max = std::min<std::size_t>(cfg.space.cell_max, 8);
    cfg.space.layers_max = 1;
    cfg.max_iterations = tune;
    cfg.initial_random = std::min<std::size_t>(2, tune);
    const core::LoadDynamics framework(cfg);
    model = framework.fit(split.train, split.validation).model;
  } else {
    const core::Hyperparameters hp{.history_length = 16, .cell_size = 12, .num_layers = 1,
                                   .batch_size = 32};
    const core::LoadDynamics framework(cfg);
    model = framework.train_one(split.train, split.validation, hp);
  }

  service.publish(name, *model);
  service.observe_many(name, trace.jars);
  err << "ld_serve: quick-trained '" << name << "' on " << trace.size() << " intervals ("
      << "validation MAPE " << model->validation_mape() << "%)\n";
}

/// Runs `tick` every `interval_seconds` (at least 0.1 s) on a background
/// thread until destruction; an empty `tick` starts nothing. The destructor
/// wakes and joins the thread, then runs `tick` once more if `final_tick`.
class PeriodicTask {
 public:
  PeriodicTask(std::function<void()> tick, double interval_seconds, bool final_tick)
      : tick_(std::move(tick)), final_tick_(final_tick) {
    if (!tick_) return;
    interval_ = std::chrono::duration<double>(std::max(interval_seconds, 0.1));
    thread_ = std::thread([this] { loop(); });
  }
  ~PeriodicTask() {
    if (!thread_.joinable()) return;
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    if (final_tick_) tick_();
  }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

 private:
  void loop() {
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, interval_, [this] { return stop_; })) {
      lock.unlock();
      tick_();
      lock.lock();
    }
  }

  std::function<void()> tick_;
  bool final_tick_;
  std::chrono::duration<double> interval_{0.0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Rewrites the Prometheus scrape to `path` — pull-style monitoring for a
/// process with no HTTP listener: point a node-exporter textfile collector or
/// a tail at it. Empty when no path is given.
std::function<void()> metrics_dump(const std::string& path) {
  if (path.empty()) return {};
  return [path] {
    std::ofstream file(path, std::ios::trunc);
    if (!file) {
      log::warn("ld_serve: cannot write metrics to '", path, "'");
      return;
    }
    file << obs::MetricsRegistry::global().prometheus_text();
  };
}

/// Snapshot compaction for the durability layer: the WAL stays short
/// (bounded recovery time) and the manifest stays fresh. Empty without a WAL
/// or with a non-positive interval; the final at-exit snapshot is written
/// explicitly by run_serve after the protocol session drains.
std::function<void()> snapshot_tick(serving::PredictionService& service,
                                    double interval_seconds) {
  if (!service.wal_enabled() || interval_seconds <= 0) return {};
  return [&service] {
    try {
      service.write_snapshot();
    } catch (const std::exception& e) {
      // Segments are never deleted on a failed write, so durability holds;
      // the next tick retries.
      log::warn("ld_serve: periodic snapshot failed: ", e.what());
    }
  };
}

/// SIGINT/SIGTERM land here while --listen is up: stop() and drain() are
/// signal-safe (an atomic store plus a self-pipe write).
std::atomic<net::Server*> g_listen_server{nullptr};

void stop_listen_server(int) {
  if (net::Server* server = g_listen_server.load(std::memory_order_acquire))
    server->stop();
}

void drain_listen_server(int) {
  if (net::Server* server = g_listen_server.load(std::memory_order_acquire))
    server->drain();
}

}  // namespace

int run_serve(int argc, const char* const* argv, std::istream& in, std::ostream& out,
              std::ostream& err) {
  const cli::Args args(argc, argv);
  if (args.has("help")) {
    out << kUsage;
    return 0;
  }
  log::init_from_env();
  try {
    fault::init_from_env();
    if (!args.get("faults", "").empty())
      fault::Injector::instance().configure(
          args.get("faults", ""),
          static_cast<std::uint64_t>(args.get_int("fault-seed", 42)));

    // Scope-bound: the trace file and final metrics scrape are written when
    // the try block unwinds, after the protocol session has fully drained.
    const obs::TraceSession trace_session(args.get("trace", ""));
    // The final dump runs at shutdown so short runs still leave a complete file.
    const PeriodicTask metrics_dumper(metrics_dump(args.get("metrics-out", "")),
                                      args.get_double("metrics-interval", 5.0),
                                      /*final_tick=*/true);

    if (args.get_int("threads", 0) > 0)
      ThreadPool::set_global_size(static_cast<std::size_t>(args.get_int("threads", 0)));

    serving::ServiceConfig cfg;
    cfg.shards = size_flag(args, "shards", 0, 0, 256);
    cfg.max_history = size_flag(args, "history", 4096, 16);
    cfg.checkpoint_dir = args.get("checkpoint-dir", "");
    cfg.background_retrain = !args.get_bool("no-retrain");
    if (args.get_bool("quant")) nn::set_quantized_inference(true);
    // Serving-scale warm retrains: a few cheap candidates on recent history.
    cfg.adaptive.base.space = core::HyperparameterSpace::reduced();
    cfg.adaptive.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 2020));
    cfg.adaptive.base.training.trainer.max_epochs = size_flag(args, "epochs", 20, 1);
    cfg.adaptive.refresh_candidates = 2;
    cfg.retrain_timeout_seconds = args.get_double("retrain-timeout", 0.0);
    if (!std::isfinite(cfg.retrain_timeout_seconds) || cfg.retrain_timeout_seconds < 0)
      throw std::invalid_argument("--retrain-timeout must be a finite number >= 0, got " +
                                  args.get("retrain-timeout", ""));
    cfg.retrain_retry.max_attempts = size_flag(args, "retrain-attempts", 3, 1);
    cfg.wal.dir = args.get("wal-dir", "");
    {
      // Flag beats env beats the interval default.
      const char* env_fsync = std::getenv("LD_WAL_FSYNC");
      cfg.wal.fsync =
          wal::parse_fsync(args.get("wal-fsync", env_fsync != nullptr ? env_fsync : ""));
    }
    if (args.get_int("wal-segment-bytes", 0) > 0)
      cfg.wal.segment_bytes =
          static_cast<std::size_t>(args.get_int("wal-segment-bytes", 0));

    serving::PredictionService service(cfg);

    // Crash recovery runs before ANY traffic or registration: replay must
    // never race appends (DESIGN.md §15).
    if (service.wal_enabled()) {
      const serving::RecoveryStats rec = service.recover();
      err << "ld_serve: recovered " << rec.tenants << " tenants (" << rec.models
          << " models, " << rec.replayed_records << " WAL records, "
          << rec.torn_segments << " torn, " << rec.quarantined_segments
          << " quarantined) in " << rec.seconds << "s\n";
    }

    // A restarted server resumes every workload checkpointed by the previous
    // run, without having to re-list them on the command line.
    if (!cfg.checkpoint_dir.empty()) {
      std::vector<std::string> resume;
      for (const auto& entry : std::filesystem::directory_iterator(cfg.checkpoint_dir)) {
        if (!entry.is_regular_file()) continue;
        std::filesystem::path p = entry.path();
        // A crash can leave only the previous-good snapshot (`NAME.ldm.prev`)
        // behind; resume from it too (add_workload's checkpoint fallback).
        if (p.extension() == ".prev") p = p.parent_path() / p.stem();
        if (p.extension() != ".ldm") continue;
        const std::string name = p.stem().string();
        if (std::find(resume.begin(), resume.end(), name) == resume.end())
          resume.push_back(name);
      }
      for (const std::string& name : resume) {
        if (service.add_workload(name))
          err << "ld_serve: resumed '" << name << "' from " << cfg.checkpoint_dir << "\n";
      }
    }

    for (const std::string& spec : args.positional()) {
      const auto eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size())
        throw std::invalid_argument("bad workload spec '" + spec +
                                    "' (expected NAME=model.ldm or NAME=trace.csv)");
      const std::string name = spec.substr(0, eq);
      const std::string path = spec.substr(eq + 1);
      if (ends_with(path, ".csv")) {
        quick_train(service, name, path, args, err);
      } else {
        service.load_workload(name, path);
        err << "ld_serve: loaded '" << name << "' from " << path << "\n";
      }
    }

    const double snapshot_interval = args.get_double("snapshot-interval", 30.0);
    const PeriodicTask snapshot_ticker(snapshot_tick(service, snapshot_interval),
                                       snapshot_interval, /*final_tick=*/false);

    std::size_t commands = 0;
    if (args.has("listen")) {
      if (args.has("replay"))
        throw std::invalid_argument("--listen and --replay are mutually exclusive");
      net::ServerConfig net_cfg;
      net_cfg.host = args.get("host", "127.0.0.1");
      net_cfg.port = static_cast<std::uint16_t>(args.get_int("listen", 0));
      net_cfg.idle_timeout_seconds = args.get_double("idle-timeout", 300.0);
      net_cfg.max_connections = static_cast<std::size_t>(args.get_int("max-conns", 1024));
      net_cfg.shed_observe_depth =
          static_cast<std::size_t>(args.get_int("shed-observe", 512));
      net_cfg.shed_predict_depth =
          static_cast<std::size_t>(args.get_int("shed-predict", 2048));
      net::Server server(service, net_cfg);
      // Announced on stdout before the loop starts so scripts driving an
      // ephemeral port (--listen 0) can wait for this line.
      out << "LISTENING " << server.port() << "\n" << std::flush;
      err << "ld_serve: listening on " << net_cfg.host << ":" << server.port()
          << " (shards=" << service.shard_count() << ")\n";
      g_listen_server.store(&server, std::memory_order_release);
      // SIGINT = operator's ^C: stop now. SIGTERM = orchestrated shutdown:
      // drain — finish in-flight work, flush WALs, snapshot, exit 0.
      std::signal(SIGINT, stop_listen_server);
      std::signal(SIGTERM, drain_listen_server);
      server.run();
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_listen_server.store(nullptr, std::memory_order_release);
      if (server.draining()) err << "ld_serve: drained\n";
    } else {
      serving::LineProtocol protocol(service);
      const std::string replay = args.get("replay", "");
      if (!replay.empty()) {
        std::ifstream file(replay);
        if (!file) throw std::runtime_error("cannot open replay file '" + replay + "'");
        commands = protocol.run(file, out);
      } else {
        commands = protocol.run(in, out);
      }
    }
    service.wait_idle();

    // Graceful exit = durable exit: every journal fsyncs, then one final
    // snapshot compacts them, so the next boot recovers from the manifest
    // alone (empty WAL tails).
    if (service.wal_enabled()) {
      try {
        service.flush_wal();
        service.write_snapshot();
      } catch (const std::exception& e) {
        err << "ld_serve: final snapshot failed: " << e.what() << "\n";
      }
    }

    err << "ld_serve: served " << commands << " commands across "
        << service.workload_names().size() << " workloads\n";
    for (const std::string& name : service.workload_names()) {
      const serving::WorkloadStats s = service.stats(name);
      err << "ld_serve:   " << name << " v" << s.version << " observed=" << s.observations
          << " predictions=" << s.predictions << " retrains=" << s.retrains << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace ld::app
