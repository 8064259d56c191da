// Per-shard write-ahead journal (DESIGN.md §15): an append-only sequence of
// size-rotated segment files under `<dir>/shard-<i>/`, each a stream of
// CRC32-framed records (wal/record.hpp). Appends happen inside the serving
// tier's per-workload critical section, so per-tenant record order matches
// apply order; the journal's own mutex serializes tenants that share a
// shard.
//
// Durability is the fsync policy (`LD_WAL_FSYNC`):
//   always    fsync after every append — survives kill -9 and power loss,
//             the slowest option (the crash-recovery CI job runs this).
//   interval  fsync at most once per `fsync_interval_seconds` (default 1s)
//             — bounded loss window, near-`never` throughput. The default.
//   never     leave it to the page cache — survives process crashes (the
//             kernel still has the bytes) but not power loss.
//
// Replay truncates at the first bad CRC: a torn tail (clean prefix + partial
// record) is the expected crash artifact and is simply cut — the file stays,
// because the next snapshot compaction will delete it anyway and the prefix
// must survive a second crash before then. A *corrupt* record (CRC mismatch
// — bit rot or interleaved garbage) quarantines the whole segment to
// `<segment>.quarantine` (PR 4's checkpoint pattern) and stops that shard's
// replay: records after the corruption cannot be ordered safely.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "wal/record.hpp"

namespace ld::wal {

/// Fsync policy for appends. parse_fsync() accepts the LD_WAL_FSYNC spellings.
enum class Fsync { kAlways, kInterval, kNever };

[[nodiscard]] Fsync parse_fsync(const std::string& name);
[[nodiscard]] const char* to_string(Fsync policy) noexcept;

struct WalConfig {
  /// Journal + snapshot root. Empty disables the durability layer entirely.
  std::string dir;
  Fsync fsync = Fsync::kInterval;
  double fsync_interval_seconds = 1.0;
  /// Rotate the active segment once it grows past this many bytes.
  std::size_t segment_bytes = 4u << 20;

  [[nodiscard]] bool enabled() const noexcept { return !dir.empty(); }
};

/// Outcome of replaying one shard's journal tail.
struct ReplayStats {
  std::size_t segments = 0;             ///< segment files visited
  std::size_t records = 0;              ///< records handed to the callback
  std::size_t torn_segments = 0;        ///< truncated tails (clean prefix kept)
  std::size_t quarantined_segments = 0; ///< corrupt segments moved aside
};

/// One shard's journal. Thread-safe; every public method takes the internal
/// mutex. Construction scans the directory and starts a FRESH segment after
/// the highest existing sequence number — appending to a file whose tail may
/// be torn would bury valid new records behind a truncation point.
class Journal {
 public:
  Journal(std::string dir, const WalConfig& config);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Append one encoded record (already framed by wal/record.hpp) and apply
  /// the fsync policy. Throws std::runtime_error on I/O failure and on the
  /// `wal.append`/`wal.fsync` fault sites.
  void append(const std::string& encoded);

  /// Force an fsync of the active segment (drain / shutdown path).
  void sync();

  /// Close the active segment and start the next one. Returns the new
  /// segment's sequence number: every record appended so far lives in a
  /// segment with seq < the returned boundary — the snapshot compaction
  /// contract.
  std::uint64_t rotate();

  /// Replay records from every segment with seq >= from_seq, in sequence
  /// order, invoking `handler` per record. Truncates at torn tails,
  /// quarantines corrupt segments (and stops — see file header). The handler
  /// runs without the journal mutex held, so it may take tenant locks that
  /// appends take before the journal's own.
  ReplayStats replay(std::uint64_t from_seq,
                     const std::function<void(const Record&)>& handler);

  /// Delete fully-compacted segments (seq < boundary). Quarantined files are
  /// never touched.
  void remove_segments_below(std::uint64_t boundary);

  [[nodiscard]] std::uint64_t active_seq() const;
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  void open_active_locked();
  void close_active_locked(bool do_sync);
  void sync_locked();
  /// Sorted (seq, path) pairs of the on-disk segments.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> segments_locked() const;

  std::string dir_;
  WalConfig config_;
  mutable std::mutex mu_;
  int fd_ = -1;
  std::uint64_t seq_ = 1;            ///< sequence of the active segment
  std::size_t active_bytes_ = 0;     ///< bytes appended to the active segment
  double last_sync_ = 0.0;           ///< steady-clock seconds of the last fsync
  bool dirty_ = false;               ///< unsynced bytes outstanding
};

/// The fleet's journals: one per shard, lazily rooted under
/// `<config.dir>/shard-<i>/`.
class WalManager {
 public:
  WalManager(const WalConfig& config, std::size_t shards);

  [[nodiscard]] Journal& shard(std::size_t i) { return *journals_.at(i); }
  [[nodiscard]] std::size_t shard_count() const noexcept { return journals_.size(); }
  [[nodiscard]] const WalConfig& config() const noexcept { return config_; }

  /// fsync every journal (graceful-drain flush).
  void sync_all();
  /// Total on-disk segment count across shards (ld_wal_segments gauge).
  [[nodiscard]] std::size_t total_segments() const;

 private:
  WalConfig config_;
  std::vector<std::unique_ptr<Journal>> journals_;
};

}  // namespace ld::wal
