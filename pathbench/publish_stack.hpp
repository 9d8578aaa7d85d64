// The commit-to-consumer half of the path: an ArchiveWriter whose day
// commits a mesh::Relay publishes to local sinks, a full DeltaFollower
// consumer and, optionally, a follower on a second relay one peered hop
// away (mesh frames and HMAC on every chunk).
//
// Every sink records when each chunk reached it, so delivery is measured
// from the sink's side and stays correct if delivery ever leaves the
// appending thread: finish() waits for every subscriber to hold the last
// day before it reads the timestamps or runs the checks.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "mesh/relay.hpp"
#include "store/archive.hpp"

namespace pathbench {

struct PublishConfig {
  /// Counting-only local subscribers besides the follower.
  std::size_t local_sinks = 0;
  /// A second relay, connected to the origin, with its own follower.
  bool remote = false;
  /// A hook-less writer that appends the same days into a second archive,
  /// so the mesh's share of a commit can be read off (traced runs only).
  bool shadow = false;
};

/// Per-day figures read once every subscriber holds the day.
struct DayDelivery {
  std::uint32_t day = 0;
  double commit_ms = 0.0;           // the ArchiveWriter::append call
  double shadow_ms = 0.0;           // append on the hook-less writer
  std::vector<double> deliver_ms;   // op start -> last chunk, per subscriber
  double fanout_ms = 0.0;           // first to last local sink
  double remote_hop_ms = 0.0;       // last local sink -> remote sink, summed
                                    // over the day's chunks
  double follower_apply_ms = 0.0;   // DeltaFollower::apply, summed
  double sinks_ms = 0.0;            // time inside every subscriber's sink
  std::uint64_t chunks = 0, upserts = 0, removals = 0, published = 0;
  std::uint64_t frames = 0;
};

class PublishStack {
 public:
  PublishStack(std::filesystem::path dir, PublishConfig config);
  ~PublishStack();
  PublishStack(const PublishStack&) = delete;
  PublishStack& operator=(const PublishStack&) = delete;

  /// Commits one day. `op_start` is when the operation the consumer waits
  /// on began (run_day start for a census day, the append otherwise).
  void append(const laces::census::DailyCensus& census,
              Clock::time_point op_start);

  /// Waits until every subscriber holds the last appended day, checks
  /// deliveries (chunks published x subscribers) and that every follower
  /// rebuilt every day byte-identically to ArchiveReader::export_csv of
  /// the archive, and returns the per-day figures.
  std::vector<DayDelivery> finish(Result& result);

  const std::filesystem::path& dir() const { return dir_; }

 private:
  struct Subscriber;
  struct Pending {
    std::uint32_t day = 0;
    Clock::time_point op_start;
    double commit_ms = 0.0, shadow_ms = 0.0;
    std::uint64_t published = 0, frames = 0;
  };

  void add_subscriber(laces::mesh::Relay& relay, bool local, bool follower);

  std::filesystem::path dir_;
  std::unique_ptr<laces::store::ArchiveWriter> writer_;
  std::unique_ptr<laces::store::ArchiveWriter> shadow_;
  std::unique_ptr<laces::mesh::Relay> origin_;
  std::unique_ptr<laces::mesh::Relay> remote_;
  std::vector<std::unique_ptr<Subscriber>> subs_;
  std::vector<Pending> pending_;
};

}  // namespace pathbench
