#include "scenario/series.hpp"

#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "obs/flightrec.hpp"
#include "obs/trace.hpp"

namespace laces::scenario {

CensusSeries::CensusSeries(core::Session& session, census::Pipeline& pipeline,
                           ScenarioRunner* runner, SeriesArchive archive)
    : session_(session),
      pipeline_(pipeline),
      runner_(runner),
      run_identity_(std::move(archive.run_identity)) {
  if (!archive.dir.empty()) {
    writer_.emplace(archive.dir);
    const std::string dir = archive.dir.string();
    if (!archive.resume && !writer_->manifest().entries.empty()) {
      throw SeriesRefused("archive " + dir + " already holds days up to " +
                          std::to_string(writer_->manifest().last_day()) +
                          "; pass --resume to continue it");
    }
    if (archive.resume) {
      const store::ArchiveReader reader(archive.dir);
      if (!reader.has_checkpoint()) {
        throw SeriesRefused("--resume but " + dir + " has no checkpoint");
      }
      const store::Checkpoint cp = reader.load_checkpoint();
      if (!cp.run_config.empty() && cp.run_config != run_identity_) {
        throw SeriesRefused(
            "--resume refused: the archive was written with different "
            "options (archived '" + cp.run_config + "', requested '" +
            run_identity_ + "')");
      }
      // Clock first: schedule_at clamps to now(), so draining one no-op
      // parked at the checkpointed time advances the queue exactly there.
      auto& events = session_.network().events();
      events.schedule_at(SimTime(cp.sim_time_ns), [] {});
      events.run();
      pipeline_.restore_state(cp.pipeline);
      for (std::size_t i = 0;
           i < cp.worker_rng.size() && i < session_.worker_count(); ++i) {
        session_.worker(i).restore_rng_state(cp.worker_rng[i]);
      }
      obs::Tracer::global().set_next_id(cp.next_span_id);
      longitudinal_ =
          census::LongitudinalStore::from_snapshot(cp.longitudinal);
      next_day_ = cp.last_day + 1;
      resumed_clock_ = SimTime(cp.sim_time_ns);
    }
  }
  if (runner_ != nullptr) runner_->install(resumed_clock_);
}

CensusSeries::Day CensusSeries::run_day() {
  const std::uint32_t day = next_day_++;
  if (runner_ != nullptr) runner_->begin_day(day);
  Day out{pipeline_.run_day(day)};
  if (runner_ != nullptr) runner_->end_day();
  longitudinal_.add(out.census);
  if (!writer_) return out;

  out.archived = &writer_->append(out.census);
  store::Checkpoint cp;
  cp.last_day = day;
  cp.sim_time_ns = session_.network().events().now().ns();
  cp.next_span_id = obs::Tracer::global().next_id();
  cp.pipeline = pipeline_.state();
  cp.longitudinal = longitudinal_.snapshot();
  cp.run_config = run_identity_;
  cp.worker_rng.reserve(session_.worker_count());
  for (std::size_t i = 0; i < session_.worker_count(); ++i) {
    cp.worker_rng.push_back(session_.worker(i).rng_state());
  }
  writer_->write_checkpoint(cp);
  obs::FlightRecorder::global().record(obs::FrEvent::kCheckpoint, 0, day);
  return out;
}

std::optional<std::string> compare_archives(const std::filesystem::path& a,
                                            const std::filesystem::path& b,
                                            std::uint32_t days) {
  const auto same = [&](const std::string& name) {
    std::ifstream fa(a / name, std::ios::binary);
    std::ifstream fb(b / name, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(fa), {}) ==
           std::vector<char>(std::istreambuf_iterator<char>(fb), {});
  };
  if (!same(store::kManifestFile)) return "archive manifests differ";
  if (!same(store::kCheckpointFile)) return "final checkpoints differ";
  for (std::uint32_t day = 1; day <= days; ++day) {
    const auto name = store::segment_file_name(day);
    if (!same(name)) return "segment " + name + " differs";
  }
  return std::nullopt;
}

}  // namespace laces::scenario
