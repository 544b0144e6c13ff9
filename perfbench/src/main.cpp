// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <predict_wire|regime_fleet|time_to_model>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a stamp line (seed, nproc, CPU model, compiler, build type), then,
// as the last line of stdout, one JSON object with `correct`, `attempted`,
// `failed` and `metrics`. --trace 0 reports the end-to-end metrics of an
// untraced run. --trace 1 runs the workload untraced and then traced, writes
// the traced run's spans and per-layer table under --out-dir, and reports the
// per-layer metrics plus the tracing overhead (traced - untraced) of every
// end-to-end metric. Any failed output check exits non-zero without numbers.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"

namespace {

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

/// Numbers from a build without optimization or with sanitizers measure the
/// instrumentation, not the program.
const char* unfit_build() {
#if !defined(__OPTIMIZE__)
  return "unoptimized build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") != nullptr) return "sanitizer build";
  return nullptr;
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string stamp(const std::string& workload, std::uint64_t seed, double seconds, bool trace) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}",
                workload.c_str(), static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0,
                std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
                json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE);
  return buf;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::vector<Metric> e2e_metrics(const EndToEnd& e) {
  return {{"setup_s", e.setup_s, "s"},         {"qps", e.qps, "1/s"},
          {"p50_us", e.p50_us, "us"},          {"p99_us", e.p99_us, "us"},
          {"tune_lag_ms", e.tune_lag_ms, "ms"}, {"tuned_gain", e.tuned_gain, "ratio"},
          {"peak_rss_mb", e.peak_rss_mb, "MB"}};
}

Phase run(const std::string& workload, std::uint64_t seed, double seconds, SpanLog* log) {
  if (workload == "predict_wire") return run_predict_wire(seed, seconds, log);
  if (workload == "regime_fleet") return run_regime_fleet(seed, seconds, log);
  return run_time_to_model(seed, seconds, log);
}

bool fails(const Phase& phase) { return !phase.problems.empty() || phase.failed != 0; }

void report_problems(const Phase& phase) {
  for (const auto& problem : phase.problems) std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  if (phase.failed != 0) {
    std::fprintf(stderr, "check failed: %llu of %llu operations failed\n",
                 static_cast<unsigned long long>(phase.failed),
                 static_cast<unsigned long long>(phase.attempted));
  }
}

std::string metric_json(const std::string& name, double value, const std::string& unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", name.c_str(),
                value, unit.c_str());
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") workload = value;
    else if (key == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") trace = value == "1";
    else if (key == "--out-dir") out_dir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (workload != "predict_wire" && workload != "regime_fleet" && workload != "time_to_model") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (!(seconds > 0.0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  if (const char* why = unfit_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why);
    return 2;
  }
  const std::string stamp_json = stamp(workload, seed, seconds, trace);
  std::printf("stamp %s\n", stamp_json.c_str());
  std::fflush(stdout);

  const Phase untraced = run(workload, seed, seconds, nullptr);
  if (fails(untraced)) {
    report_problems(untraced);
    return 1;
  }
  std::string metrics;
  const auto append = [&](const std::string& entry) {
    if (!metrics.empty()) metrics += ", ";
    metrics += entry;
  };
  std::uint64_t attempted = untraced.attempted;
  if (!trace) {
    for (const auto& metric : e2e_metrics(untraced.e2e)) {
      append(metric_json(metric.name, metric.value, metric.unit));
    }
  } else {
    SpanLog log;
    Phase traced = run(workload, seed, seconds, &log);
    if (fails(traced)) {
      report_problems(traced);
      return 1;
    }
    attempted += traced.attempted;
    const auto base = e2e_metrics(untraced.e2e);
    const auto with = e2e_metrics(traced.e2e);
    for (std::size_t i = 0; i < base.size(); ++i) {
      traced.layers[std::string("overhead.") + base[i].name] = with[i].value - base[i].value;
    }
    const std::string prefix = out_dir + "/" + workload + "-seed" + std::to_string(seed);
    std::FILE* table = std::fopen((prefix + ".layers.txt").c_str(), "w");
    if (!log.write_csv(prefix + ".spans.csv") || table == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write trace output under %s\n", out_dir.c_str());
      if (table != nullptr) std::fclose(table);
      return 1;
    }
    std::fprintf(table, "# %s\n%-30s %16s  %s\n", stamp_json.c_str(), "metric", "value", "unit");
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = traced.layers.find(name);
      const double value = it == traced.layers.end() ? 0.0 : it->second;
      std::fprintf(table, "%-30s %16.6f  %s\n", name.c_str(), value, unit.c_str());
      append(metric_json(name, value, unit));
    }
    std::fclose(table);
    std::fprintf(stderr, "perfbench: spans and layer table written to %s.*\n", prefix.c_str());
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": 0, \"metrics\": {%s}}\n",
              static_cast<unsigned long long>(attempted), metrics.c_str());
  return 0;
}
