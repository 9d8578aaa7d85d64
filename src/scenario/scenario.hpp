// Operational-realism scenarios (the laces_scenario tentpole).
//
// A Scenario composes, on one simulated timeline, everything a real
// measurement platform suffers at once: the control-plane faults of
// fault::FaultPlan, platform-churn regimes (diurnal availability windows,
// disconnect storms with exponential re-join, per-worker credit
// throttling, version skew that toggles probe capabilities — the failure
// catalog of "A Day in the Life of RIPE Atlas"), and data-plane regimes
// (route-flip schedules that shift catchments mid-day, path-scoped loss
// that masquerades as unresponsiveness, hitlist churn between days).
//
// Scenarios follow the FaultPlan idiom end to end: a scenario is a pure
// function of (seed, spec), parse/to_spec round-trip exactly, and every
// stochastic choice a scenario induces at run time is keyed on packet or
// entity identity — so a scenario run replays bit-for-bit, including
// across checkpoint/resume.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/simtime.hpp"

namespace laces::scenario {

enum class RegimeKind : std::uint8_t {
  /// Daily availability window: the site is offline during
  /// [at, at+duration) of every applicable day (diurnal churn).
  kDiurnal = 0,
  /// Disconnect storm: `count` workers drop at `at` (small stable jitter
  /// apart) and re-join after exponentially distributed delays with mean
  /// `mag` (the classic correlated-outage + trickle-back pattern).
  kStorm,
  /// Credit/rate throttling: each scheduled probe of the scoped workers
  /// is suppressed with probability `p` for the whole day.
  kThrottle,
  /// Version skew: the scoped workers cannot send the protocols in
  /// `proto_mask` (old firmware) for the whole day.
  kSkew,
  /// Data plane: flows in a stable `fraction` of flow space are served by
  /// their second-best PoP during [at, at+duration) — catchments shift
  /// mid-day.
  kRouteFlip,
  /// Data plane: a stable `fraction` of target prefixes lose inbound
  /// packets with probability `p` during [at, at+duration) — path-scoped
  /// loss that looks like unresponsiveness.
  kPathLoss,
  /// Data plane: a stable, day-keyed `fraction` of target prefixes is
  /// withdrawn for each applicable day (hitlist churn between days).
  kChurn,
};

std::string_view to_string(RegimeKind kind);
std::optional<RegimeKind> regime_kind_from_string(std::string_view name);

/// `day_last` value meaning "every day".
inline constexpr std::uint32_t kAllDays = 0xffffffffu;

/// One platform-churn or data-plane regime. Time fields are offsets into
/// each applicable census day (scenario regimes are day-scoped by design:
/// all induced churn heals before the day's event queue drains, so
/// checkpoints never carry scenario state — the property resume-under-
/// scenario byte-identity rests on).
struct Regime {
  RegimeKind kind = RegimeKind::kDiurnal;
  /// Applicable days, inclusive; [1, kAllDays] by default.
  std::uint32_t day_first = 1;
  std::uint32_t day_last = kAllDays;
  /// Offset into the day and window length (kDiurnal/kRouteFlip/kPathLoss;
  /// storm start for kStorm). duration 0 means "the rest of the day".
  SimDuration at{};
  SimDuration duration{};
  /// Worker scope for platform regimes: index or fault::kAllSites.
  int site = fault::kAllSites;
  /// Storm size (workers hit).
  int count = 1;
  /// Probability / intensity (throttle skip, path-loss drop).
  double p = 1.0;
  /// Stable scope fraction (flows for kRouteFlip, prefixes for
  /// kPathLoss/kChurn).
  double fraction = 1.0;
  /// Mean re-join delay for kStorm.
  SimDuration mag{};
  /// Disabled-protocol bits for kSkew (bit = net::Protocol ordinal).
  std::uint8_t proto_mask = 0;

  bool applies(std::uint32_t day) const {
    return day >= day_first && day <= day_last;
  }

  bool operator==(const Regime&) const = default;
};

struct GenerateOptions {
  /// Workers available for platform regimes.
  int sites = 4;
  /// Active probing window within a day that timed regimes land in.
  SimDuration day_span = SimDuration::seconds(20);
  int min_regimes = 1;
  int max_regimes = 4;
  /// Allow a FaultPlan sub-plan (~half of generated scenarios carry one).
  bool allow_faults = true;
  /// Fault sub-plan horizon (kept inside day 1 so generated lifecycle
  /// faults pair up and heal before the first checkpoint).
  SimDuration fault_horizon = SimDuration::seconds(20);
};

/// A deterministic, seeded composition of faults and regimes.
struct Scenario {
  std::uint64_t seed = 0;
  fault::FaultPlan faults;
  std::vector<Regime> regimes;

  bool empty() const { return faults.events.empty() && regimes.empty(); }

  /// True when the scenario is allowed to degrade `day`: it carries
  /// control-plane faults, or a worker-outage regime (storm/diurnal)
  /// applies that day. The fuzzer asserts the one-directional invariant
  /// "day degraded => may_degrade(day)" — throttling, skew and data-plane
  /// regimes never degrade a day (measurements complete, just observe
  /// less), and a healthy day under any scenario is always legal (a storm
  /// may fully heal before the measurement finishes).
  bool may_degrade(std::uint32_t day) const;

  /// Pure function of (seed, opts): the scenario fuzzer's generator.
  static Scenario generate(std::uint64_t seed, const GenerateOptions& opts = {});

  /// Parses the `--scenario` grammar: semicolon-separated clauses, each
  ///   kind@offset[+duration][:key=value,...]
  /// where `kind` is a fault kind (the clause goes to the FaultPlan, with
  /// absolute times) or a regime kind (diurnal, storm, throttle, skew,
  /// route-flip, path-loss, churn; times are offsets into each day). Regime
  /// keys: days=A-B|A|all, site=N|all, count=K, p=X, frac=F, mag=DUR,
  /// proto=icmp[+tcp][+dns]. Errors carry "scenario spec:LINE:COL: ...".
  static Scenario parse(std::string_view spec, std::uint64_t seed = 0);

  /// Round-trips through parse(): parse(to_spec(), seed) == *this.
  std::string to_spec() const;

  /// Human-readable, one line per fault/regime.
  std::string describe() const;

  bool operator==(const Scenario&) const = default;
};

}  // namespace laces::scenario
