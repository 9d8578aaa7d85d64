// pathbench: one benchmark for the census-to-consumer path.
//
//   pathbench --workload census|publish|query --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Prints a stamp line (host, compiler, build type, flush policy), then as
// its last line one JSON object: correct, attempted, failed and every
// metric the run measured, each with its unit. Exits 1 when any operation
// or correctness check failed and 2 on bad arguments or a build that is
// not Release. run.py builds this program and selects the metrics
// BENCHMARK.json names.
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace pathbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Name of the file system that holds `dir` (the archives' flush target).
std::string filesystem_of(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Hash of this program's own executable, so expected counts are only
/// compared between runs of the same code.
std::string binary_id() {
  std::ifstream in("/proc/self/exe", std::ios::binary);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// Exact counts must repeat across runs of one seed: the first run of a
/// (binary, workload, seed, seconds, trace) writes them, later runs compare.
void check_counts(const Options& options, Result& result) {
  const auto dir =
      std::filesystem::path(options.work_dir) / "counts" / binary_id();
  std::filesystem::create_directories(dir);
  std::ostringstream key;
  key << options.workload << "-seed" << options.seed << "-sec"
      << options.seconds << "-trace" << options.trace << ".txt";
  std::ostringstream now;
  for (const auto& [name, value] : result.counts) {
    now << name << ' ' << value << '\n';
  }
  const auto path = dir / key.str();
  std::ifstream in(path);
  if (in) {
    std::stringstream before;
    before << in.rdbuf();
    result.check(before.str() == now.str(),
                 "exact counts repeat for this seed (" + path.string() + ")");
  } else {
    std::ofstream(path) << now.str();
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "pathbench: %s\nusage: pathbench --workload census|publish|"
               "query --seed N --seconds S --trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  constexpr bool kAsserts = true;
#else
  constexpr bool kAsserts = false;
#endif
  if (std::strcmp(PATHBENCH_BUILD_TYPE, "Release") != 0 || kAsserts) {
    std::fprintf(stderr, "pathbench: refusing to report from a %s build\n",
                 PATHBENCH_BUILD_TYPE);
    return 2;
  }
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value != "0";
    else if (flag == "--work-dir") options.work_dir = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (options.work_dir.empty()) return usage("--work-dir is required");
  if (options.seconds <= 0) return usage("--seconds must be positive");
  options.cores = std::max(1u, std::thread::hardware_concurrency());

  // Archives of this process live under run-<pid>, removed at exit.
  const auto run_dir = std::filesystem::path(options.work_dir) /
                       ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(run_dir);
  Options run_options = options;
  run_options.work_dir = run_dir.string();

  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cores\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"flush\": \"archive writes are tmp+rename without fsync; "
      "they land in the page cache of %s\"}}\n",
      json_escape(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0, options.cores, PATHBENCH_COMPILER,
      PATHBENCH_BUILD_TYPE, filesystem_of(run_dir.string()).c_str());
  std::fflush(stdout);

  Result result;
  try {
    if (options.workload == "census") result = run_census(run_options);
    else if (options.workload == "publish") result = run_publish(run_options);
    else if (options.workload == "query") result = run_query(run_options);
    else return usage("unknown workload");
  } catch (const std::exception& e) {
    result.op(false, std::string("workload aborted: ") + e.what());
  }
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  check_counts(options, result);

  if (options.trace) {
    // Where the traced half's time went, per span, for a reader of the log.
    std::fprintf(stderr, "%-26s %8s %12s %12s %12s\n", "span", "count",
                 "p50 ms", "self p50 ms", "self sum ms");
    for (const auto& [name, s] : Tracer::global().summarize()) {
      std::fprintf(stderr, "%-26s %8zu %12.4f %12.4f %12.1f\n", name.c_str(),
                   s.count, s.total_p50_ms, s.self_p50_ms, s.self_sum_ms);
    }
  }
  for (const auto& why : result.failures) {
    std::fprintf(stderr, "pathbench: FAILED %s\n", why.c_str());
  }
  std::ostringstream out;
  out.precision(10);
  out << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    out << sep << '"' << json_escape(name) << "\": {\"value\": "
        << metric.value << ", \"unit\": \"" << json_escape(metric.unit)
        << "\"}";
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return result.failed == 0 ? 0 : 1;
}
