// CensusSeries: the day loop of a longitudinal census, and the one place
// that captures and restores its resume checkpoint.
//
// Over a caller-built stack (Session, Pipeline, optionally a
// ScenarioRunner) it runs day after day. An archived series appends each
// day and then writes the checkpoint (store/checkpoint.hpp), so a series
// resumed in a fresh process continues the uninterrupted one byte for
// byte: census, segments, manifest and checkpoint.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>

#include "census/longitudinal.hpp"
#include "census/pipeline.hpp"
#include "core/session.hpp"
#include "scenario/runner.hpp"
#include "store/archive.hpp"

namespace laces::scenario {

/// Opening was refused and the archive left untouched. The message names
/// the `laces census` flags.
class SeriesRefused : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SeriesArchive {
  /// Empty: the series is not archived.
  std::filesystem::path dir;
  /// Continue from the checkpoint instead of starting at day 1.
  bool resume = false;
  /// Stamped into every checkpoint. A resume under another identity than
  /// a non-empty stamped one is refused.
  std::string run_identity;
};

class CensusSeries {
 public:
  /// Refuses (SeriesRefused) a fresh series over archived days, a resume
  /// without a checkpoint and a resume under another run identity. A
  /// resume then restores the checkpoint. Last, installs `runner` with the
  /// restored clock, so lifecycle faults that healed before the checkpoint
  /// do not replay. Install anything else on `session` (a fault injector)
  /// first. Throws store::ArchiveError on a corrupt archive.
  CensusSeries(core::Session& session, census::Pipeline& pipeline,
               ScenarioRunner* runner = nullptr, SeriesArchive archive = {});

  struct Day {
    census::DailyCensus census;
    /// The day's manifest entry, valid until the next run_day(); null when
    /// the series is not archived.
    const store::ManifestEntry* archived = nullptr;
  };
  /// Runs next_day() inside the scenario's day bracket and adds it to the
  /// longitudinal store. An archived series then appends it and writes the
  /// checkpoint; a failed write throws store::ArchiveError.
  Day run_day();

  /// 1, or the checkpoint's last day + 1; run_day() advances it.
  std::uint32_t next_day() const { return next_day_; }
  /// The checkpoint's clock; the epoch for a series not resumed.
  SimTime resumed_clock() const { return resumed_clock_; }
  const census::LongitudinalStore& longitudinal() const {
    return longitudinal_;
  }

 private:
  core::Session& session_;
  census::Pipeline& pipeline_;
  ScenarioRunner* runner_;
  std::optional<store::ArchiveWriter> writer_;
  std::string run_identity_;
  census::LongitudinalStore longitudinal_;
  std::uint32_t next_day_ = 1;
  SimTime resumed_clock_ = SimTime::epoch();
};

/// The first difference between two archives' manifests, checkpoints and
/// segments of days 1..days, or nullopt when they are byte-identical.
std::optional<std::string> compare_archives(const std::filesystem::path& a,
                                            const std::filesystem::path& b,
                                            std::uint32_t days);

}  // namespace laces::scenario
