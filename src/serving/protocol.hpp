// Newline-delimited text protocol for the ld_serve binary — deliberately
// transport-agnostic (stdin/stdout, a replay file, or a stringstream in the
// tests) so the serving layer is fully exercisable without sockets.
//
// Commands (case-insensitive verb, whitespace-separated tokens; blank lines
// and lines starting with '#' are ignored):
//
//   LOAD <workload> <model.ldm>        publish a model from disk
//   OBSERVE <workload> <value>         ingest one actual observation
//   INGEST <workload> <v1> <v2> ...    bulk-ingest observations
//   PREDICT <workload> <horizon>       forecast the next <horizon> intervals
//   BATCH <horizon> <w1> <w2> ...      PREDICT each workload, one line each
//   RETRAIN <workload>                 queue a background warm retrain
//   WAIT                               block until the retrain queue drains
//   SAVE <workload> <path>             persist the current model
//   STATS <workload>                   one-line serving counters
//   WORKLOADS                          list registered workloads
//   METRICS [JSON]                     scrape the process metrics registry
//   QUIT                               end the session
//
// Responses, one line per command: "OK ...", "PRED <workload> <v1> ...",
// "STATS <workload> k=v ...", "WORKLOADS ...", or "ERR <message>". Errors
// never terminate the session. METRICS is the one multi-line response: raw
// Prometheus text exposition terminated by an "OK metrics" line (or, with
// JSON, a single "METRICS {...}" line).
#pragma once

#include <iosfwd>
#include <sstream>
#include <string>

#include "serving/service.hpp"

namespace ld::serving {

class LineProtocol {
 public:
  explicit LineProtocol(PredictionService& service) : service_(service) {}

  /// Execute one command line, writing the response (if any) to `out`.
  /// Returns false when the session should end (QUIT).
  bool handle(const std::string& line, std::ostream& out);

  /// Read commands from `in` until EOF or QUIT. Returns the number of
  /// commands executed (blank/comment lines excluded).
  std::size_t run(std::istream& in, std::ostream& out);

 private:
  bool dispatch(const std::string& verb, std::istringstream& is, std::ostream& out);

  PredictionService& service_;
};

}  // namespace ld::serving
