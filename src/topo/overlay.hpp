// Day-scoped data-plane scenario overlay.
//
// A DayOverlay is installed on the SimNetwork by the scenario runner for
// the duration of one census day and describes data-plane regimes that
// are invisible to the control plane: route flips that shift catchments
// mid-day, path-scoped loss that masquerades as unresponsiveness, and
// hitlist churn (targets that vanish between days). Every check is a pure
// function of packet identity (flow hash, packet salt, prefix hash, day)
// and the window's salt — never of execution order — so overlaid runs
// replay byte-identically, including across checkpoint/resume.
//
// The overlay pointer is read-only during event processing and is only
// swapped while the event queue is not running.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/simtime.hpp"

namespace laces::topo {

/// One timed regime window within the current day. `fraction` scopes the
/// window to a stable subset of flows/prefixes; `probability` is the
/// per-packet intensity within that scope.
struct OverlayWindow {
  SimTime start;
  SimTime end;
  double fraction = 1.0;
  double probability = 1.0;
  std::uint64_t salt = 0;

  bool active(SimTime when) const { return when >= start && when < end; }
};

struct DayOverlay {
  /// Flows (scoped by `fraction` of flow hashes) whose anycast catchment
  /// is forced to the second-best PoP while the window is active.
  std::vector<OverlayWindow> route_flip;
  /// Prefixes (scoped by `fraction`) whose inbound packets are dropped
  /// with `probability` while the window is active — the target looks
  /// unresponsive even though it is up.
  std::vector<OverlayWindow> path_loss;
  /// Fraction of target prefixes withdrawn for the whole day (hitlist
  /// churn between days); keyed on (churn_salt, day, prefix).
  double target_churn = 0.0;
  std::uint64_t churn_salt = 0;

  bool empty() const {
    return route_flip.empty() && path_loss.empty() && target_churn <= 0.0;
  }

  /// True when `flow_hash` toward deployment `dep_id` must take the
  /// second-best PoP at time `when`.
  bool flip_forced(std::uint64_t flow_hash, std::uint64_t dep_id,
                   SimTime when) const {
    for (const auto& w : route_flip) {
      if (!w.active(when)) continue;
      const double u = StableHash(w.salt ^ 0xf71b)
                           .mix(flow_hash)
                           .mix(dep_id)
                           .unit();
      if (u < w.fraction) return true;
    }
    return false;
  }

  /// True when the packet identified by `packet_salt` toward
  /// `prefix_hash` is lost on the forward path at time `when`.
  bool path_loss_drop(std::uint64_t prefix_hash, SimTime when,
                      std::uint64_t packet_salt) const {
    for (const auto& w : path_loss) {
      if (!w.active(when)) continue;
      const double scope =
          StableHash(w.salt ^ 0x10a).mix(prefix_hash).unit();
      if (scope >= w.fraction) continue;
      const double roll =
          StableHash(w.salt ^ 0x10b).mix(packet_salt).unit();
      if (roll < w.probability) return true;
    }
    return false;
  }

  /// True when `prefix_hash` is withdrawn for the whole of `day`.
  bool target_withdrawn(std::uint64_t prefix_hash, std::uint32_t day) const {
    if (target_churn <= 0.0) return false;
    const double u = StableHash(churn_salt ^ 0xc4)
                         .mix(static_cast<std::uint64_t>(day))
                         .mix(prefix_hash)
                         .unit();
    return u < target_churn;
  }
};

}  // namespace laces::topo
