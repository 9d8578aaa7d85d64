#include "obs/report.hpp"

#include <algorithm>
#include <map>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace laces::obs {
namespace {

/// Stage rows: per span name, count + total/median/p90 simulated duration.
std::string stage_section(const std::vector<SpanRecord>& spans) {
  std::map<std::string, std::vector<double>> durations_s;
  for (const auto& span : spans) {
    durations_s[span.name].push_back(span.duration().to_seconds());
  }
  if (durations_s.empty()) return "";

  TextTable table({"Span", "Count", "Total sim", "Median", "p90"});
  for (const auto& [name, xs] : durations_s) {
    double total = 0.0;
    for (const double x : xs) total += x;
    table.add_row({name, with_commas(static_cast<std::int64_t>(xs.size())),
                   fixed(total, 2) + "s", fixed(median(xs), 2) + "s",
                   fixed(percentile(xs, 90.0), 2) + "s"});
  }
  return "Pipeline stages (simulated time)\n" + table.render();
}

std::string probe_section(const MetricsSnapshot& metrics) {
  static constexpr const char* kProtocols[] = {"icmp", "tcp", "udp_dns"};
  TextTable table({"Protocol", "Anycast probes", "Responses", "Response rate",
                   "GCD probes"});
  bool any = false;
  for (const char* proto : kProtocols) {
    const Labels labels = {{"protocol", proto}};
    const double sent = metrics.value("laces_worker_probes_sent_total", labels);
    const double responses =
        metrics.value("laces_worker_responses_total", labels);
    const double gcd =
        metrics.value("laces_platform_probes_sent_total", labels);
    if (sent == 0.0 && gcd == 0.0) continue;
    any = true;
    table.add_row({proto, with_commas(static_cast<std::int64_t>(sent)),
                   with_commas(static_cast<std::int64_t>(responses)),
                   pct(responses, sent),
                   with_commas(static_cast<std::int64_t>(gcd))});
  }
  if (!any) return "";
  return "Probe cost per protocol\n" + table.render();
}

std::string rate_section(const MetricsSnapshot& metrics) {
  TextTable table({"Stage", "Configured tps", "Effective tps", "Headroom"});
  bool any = false;
  for (const char* stage : {"anycast", "gcd"}) {
    const Labels labels = {{"stage", stage}};
    const double configured = metrics.value(
        "laces_census_rate_configured_targets_per_second", labels);
    const double effective = metrics.value(
        "laces_census_rate_effective_targets_per_second", labels);
    if (configured == 0.0) continue;
    any = true;
    table.add_row({stage, fixed(configured, 0), fixed(effective, 0),
                   pct(configured - effective, configured)});
  }
  if (!any) return "";
  return "Responsible-rate budget (targets/s)\n" + table.render();
}

std::string classification_section(const MetricsSnapshot& metrics) {
  TextTable table({"Method", "Anycast", "Unicast", "Unresponsive"});
  bool any = false;
  for (const char* method : {"anycast", "gcd"}) {
    double counts[3] = {0, 0, 0};
    static constexpr const char* kVerdicts[] = {"anycast", "unicast",
                                                "unresponsive"};
    double total = 0.0;
    for (int i = 0; i < 3; ++i) {
      counts[i] = metrics.value(
          "laces_census_classified_total",
          {{"method", method}, {"verdict", kVerdicts[i]}});
      total += counts[i];
    }
    if (total == 0.0) continue;
    any = true;
    table.add_row({method, with_commas(static_cast<std::int64_t>(counts[0])),
                   with_commas(static_cast<std::int64_t>(counts[1])),
                   with_commas(static_cast<std::int64_t>(counts[2]))});
  }
  if (!any) return "";
  return "Classifications\n" + table.render();
}

std::string label_of(const MetricSample& sample, std::string_view key) {
  for (const auto& [k, v] : sample.labels) {
    if (k == key) return v;
  }
  return "";
}

/// Control-plane hardening counters: liveness, retransmissions, watchdogs,
/// channel integrity. All-zero rows are dropped; a fault-free run shows
/// only heartbeat traffic.
std::string control_plane_section(const MetricsSnapshot& metrics) {
  struct Row {
    const char* label;
    const char* metric;
  };
  static constexpr Row kRows[] = {
      {"heartbeats sent", "laces_orchestrator_heartbeats_sent_total"},
      {"chunks retransmitted", "laces_orchestrator_chunks_retransmitted_total"},
      {"workers timed out", "laces_orchestrator_workers_timed_out_total"},
      {"workers resumed", "laces_orchestrator_workers_resumed_total"},
      {"watchdog fires", "laces_orchestrator_watchdog_fires_total"},
      {"measurements degraded",
       "laces_orchestrator_measurements_degraded_total"},
      {"channel auth failures", "laces_channel_auth_failures_total"},
      {"sends after close", "laces_channel_send_after_close_total"},
  };
  TextTable table({"Event", "Count"});
  bool any = false;
  for (const auto& row : kRows) {
    const double count = metrics.value(row.metric);
    if (count == 0.0) continue;
    any = true;
    table.add_row({row.label, with_commas(static_cast<std::int64_t>(count))});
  }
  if (!any) return "";
  return "Control-plane hardening\n" + table.render();
}

/// Injected faults by kind (only present when a fault plan was installed).
std::string fault_section(const MetricsSnapshot& metrics) {
  TextTable table({"Fault kind", "Injected"});
  bool any = false;
  for (const auto& sample : metrics.samples) {
    if (sample.name != "laces_fault_injected_total" || sample.value == 0.0) {
      continue;
    }
    any = true;
    table.add_row({label_of(sample, "kind"),
                   with_commas(static_cast<std::int64_t>(sample.value))});
  }
  if (!any) return "";
  return "Injected faults\n" + table.render();
}

/// Applied scenario regimes by kind, plus the churn/suppression gauges the
/// ScenarioRunner publishes. Empty unless a scenario was installed (the
/// laces_scenario_* metrics only exist then), so scenario-off reports are
/// byte-identical to the historical format.
std::string scenario_section(const MetricsSnapshot& metrics) {
  TextTable table({"Scenario regime", "Applied"});
  bool any = false;
  for (const auto& sample : metrics.samples) {
    if (sample.name != "laces_scenario_regimes_applied_total" ||
        sample.value == 0.0) {
      continue;
    }
    any = true;
    table.add_row({label_of(sample, "regime"),
                   with_commas(static_cast<std::int64_t>(sample.value))});
  }
  struct Extra {
    const char* label;
    const char* metric;
  };
  static constexpr Extra kExtras[] = {
      {"worker outages", "laces_scenario_worker_outages_total"},
      {"probes suppressed", "laces_scenario_probes_suppressed"},
      {"catchment flips forced", "laces_scenario_overlay_flips"},
      {"packets lost on path", "laces_scenario_overlay_path_lost"},
      {"probes to withdrawn prefixes", "laces_scenario_overlay_withdrawn"},
  };
  for (const auto& extra : kExtras) {
    const double value = metrics.value(extra.metric);
    if (value == 0.0) continue;
    any = true;
    table.add_row({extra.label,
                   with_commas(static_cast<std::int64_t>(value))});
  }
  if (!any) return "";
  return "Scenario\n" + table.render();
}

/// Canary alarms: per (day, worker), baseline vs. observed catchment share.
std::string canary_section(const MetricsSnapshot& metrics) {
  std::map<std::pair<std::string, std::string>, std::pair<double, double>>
      alarms;  // (day, worker) -> (baseline, today)
  for (const auto& sample : metrics.samples) {
    if (sample.name != "laces_canary_alarm_share") continue;
    auto& entry = alarms[{label_of(sample, "day"), label_of(sample, "worker")}];
    if (label_of(sample, "share") == "baseline") {
      entry.first = sample.value;
    } else {
      entry.second = sample.value;
    }
  }
  if (alarms.empty()) return "";

  TextTable table({"Day", "Worker", "Baseline share", "Today share"});
  for (const auto& [key, shares] : alarms) {
    table.add_row({key.first, key.second, pct(shares.first, 1.0),
                   pct(shares.second, 1.0)});
  }
  const double total = metrics.value("laces_canary_alarms_total");
  return "Canary alarms (" +
         with_commas(static_cast<std::int64_t>(total)) + " total)\n" +
         table.render();
}

/// laces_store activity: segments written/loaded, archive vs. CSV bytes
/// (compression), checkpointing and segment-cache effectiveness. Empty
/// unless the run touched an archive.
std::string archive_section(const MetricsSnapshot& metrics) {
  const double written = metrics.value("laces_store_segments_written_total");
  const double loaded = metrics.value("laces_store_segments_loaded_total");
  if (written == 0.0 && loaded == 0.0) return "";

  TextTable table({"Archive activity", "Value"});
  if (written > 0) {
    const double seg_bytes = metrics.value("laces_store_segment_bytes_total");
    const double csv_bytes = metrics.value("laces_store_csv_bytes_total");
    table.add_row({"segments written",
                   with_commas(static_cast<std::int64_t>(written))});
    table.add_row({"segment bytes",
                   with_commas(static_cast<std::int64_t>(seg_bytes))});
    table.add_row({"equivalent CSV bytes",
                   with_commas(static_cast<std::int64_t>(csv_bytes))});
    if (csv_bytes > 0) {
      table.add_row({"compression ratio", pct(seg_bytes, csv_bytes)});
    }
    table.add_row({"checkpoints written",
                   with_commas(static_cast<std::int64_t>(metrics.value(
                       "laces_store_checkpoints_written_total")))});
  }
  if (loaded > 0) {
    const double hits = metrics.value("laces_store_cache_hits_total");
    const double misses = metrics.value("laces_store_cache_misses_total");
    table.add_row({"segments loaded",
                   with_commas(static_cast<std::int64_t>(loaded))});
    table.add_row({"segment cache hit rate", pct(hits, hits + misses)});
  }
  const double corrupt = metrics.value("laces_store_corrupt_segments_total");
  if (corrupt > 0) {
    table.add_row({"CORRUPT segments detected",
                   with_commas(static_cast<std::int64_t>(corrupt))});
  }
  return "Longitudinal archive (laces_store)\n" + table.render();
}

/// Every read-path cache in one table: routing (simulation fast paths),
/// the serve response cache, and the archive segment cache. Rows with no
/// traffic are dropped.
std::string cache_section(const MetricsSnapshot& metrics) {
  struct CacheRow {
    const char* label;
    const char* hits_metric;
    const char* misses_metric;
  };
  static constexpr CacheRow kCaches[] = {
      {"delay base", "laces_routing_delay_cache_hits_total",
       "laces_routing_delay_cache_misses_total"},
      {"catchment ranking", "laces_routing_catchment_cache_hits_total",
       "laces_routing_catchment_cache_misses_total"},
      {"serve response", "laces_serve_response_cache_hits_total",
       "laces_serve_response_cache_misses_total"},
      {"archive segment", "laces_store_cache_hits_total",
       "laces_store_cache_misses_total"},
  };
  TextTable table({"Cache", "Hits", "Misses", "Hit rate"});
  bool any = false;
  for (const auto& cache : kCaches) {
    const double hits = metrics.value(cache.hits_metric);
    const double misses = metrics.value(cache.misses_metric);
    if (hits == 0.0 && misses == 0.0) continue;
    any = true;
    table.add_row({cache.label, with_commas(static_cast<std::int64_t>(hits)),
                   with_commas(static_cast<std::int64_t>(misses)),
                   pct(hits, hits + misses)});
  }
  if (!any) return "";
  return "Cache effectiveness\n" + table.render();
}

/// Threshold health rules over the run's metrics. Each rule prints its
/// observed value against the threshold and an OK / ALERT verdict; rules
/// whose subsystem saw no traffic are skipped, so a census-only run shows
/// no serve rows and vice versa.
std::string health_section(const MetricsSnapshot& metrics) {
  TextTable table({"Health rule", "Observed", "Threshold", "Status"});
  bool any = false;
  bool alerts = false;
  const auto add = [&](const std::string& rule, const std::string& observed,
                       const std::string& threshold, bool ok) {
    any = true;
    alerts = alerts || !ok;
    table.add_row({rule, observed, threshold, ok ? "OK" : "ALERT"});
  };

  const double executed = metrics.value("laces_serve_requests_executed_total");
  const double shed = metrics.value("laces_serve_requests_shed_total");
  if (executed + shed > 0) {
    const double shed_rate = shed / (executed + shed);
    add("serve shed rate", pct(shed, executed + shed), "<= 5%",
        shed_rate <= 0.05);
    const double p999_us = metrics.value("laces_serve_total_p999_us");
    if (p999_us > 0) {
      add("serve total p999", fixed(p999_us / 1000.0, 2) + "ms", "<= 50ms",
          p999_us <= 50000.0);
    }
  }
  const double days = metrics.value("laces_census_days_total");
  if (days > 0) {
    const double degraded = metrics.value("laces_census_degraded_days_total");
    add("degraded census days",
        with_commas(static_cast<std::int64_t>(degraded)), "0",
        degraded == 0.0);
    const double watchdogs =
        metrics.value("laces_orchestrator_watchdog_fires_total");
    add("watchdog fires", with_commas(static_cast<std::int64_t>(watchdogs)),
        "0", watchdogs == 0.0);
    const double aborted =
        metrics.value("laces_orchestrator_measurements_aborted_total");
    add("measurements aborted",
        with_commas(static_cast<std::int64_t>(aborted)), "0",
        aborted == 0.0);
  }
  if (!any) return "";
  std::string head = alerts ? "Health rules (ALERTS PRESENT)\n"
                            : "Health rules (all OK)\n";
  return head + table.render();
}

}  // namespace

std::string render_run_report(const MetricsSnapshot& metrics,
                              const std::vector<SpanRecord>& spans) {
  std::string out = "=== LACeS run report ===\n";
  const double days = metrics.value("laces_census_days_total");
  if (days > 0) {
    out += "census days: " + with_commas(static_cast<std::int64_t>(days)) +
           ", AT list size: " +
           with_commas(static_cast<std::int64_t>(
               metrics.value("laces_census_at_list_size"))) +
           "\n";
  }
  for (const auto& section :
       {stage_section(spans), probe_section(metrics), rate_section(metrics),
        classification_section(metrics), control_plane_section(metrics),
        fault_section(metrics), scenario_section(metrics),
        canary_section(metrics),
        archive_section(metrics), cache_section(metrics),
        health_section(metrics)}) {
    if (!section.empty()) out += "\n" + section;
  }
  return out;
}

}  // namespace laces::obs
