// perfbench: the repository benchmark program. One process runs one
// workload for about --seconds of measurement and prints one JSON object
// on its last stdout line:
//
//   {"workload":..., "seed":..., "attempted":N, "failed":N,
//    "checks":{name: bool, ...}, "info":{...},
//    "metrics":{name: {"value": x, "unit": u}, ...}}
//
// perfbench/run.py builds this binary, runs it, adds provenance and the
// reference-digest check, and reduces the object to the benchmark result.
//
//   perfbench --workload sweep_default|sweep_residue|store_scale
//             --seed N --seconds S --trace 0|1 --out DIR
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "util/prng.h"

namespace perfbench {

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {

Tail tail_percentile(const std::vector<double>& samples) {
  const double n = static_cast<double>(samples.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0}) {
    if (n * (100.0 - p) / 100.0 >= 10.0) return Tail{p, percentile(samples, p)};
  }
  return Tail{50.0, percentile(samples, 50.0)};
}

}  // namespace

Tail windowed_tail(const std::vector<double>& samples) {
  constexpr std::size_t kWindow = 1000;
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / kWindow);
  std::vector<double> tails;
  Tail tail;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(w * kWindow);
    const auto last = w + 1 == windows
                          ? samples.end()
                          : first + static_cast<std::ptrdiff_t>(kWindow);
    tail = tail_percentile(std::vector<double>(first, last));
    tails.push_back(tail.value);
  }
  return Tail{tail.p, median(tails)};
}

double proc_status_mb(const char* field) {
  const std::string prefix = std::string{field} + ":";
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t counter_value(const char* name) {
  return msa::obs::counter(name).value();
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string to_json(const Options& options, const Result& result) {
  std::string out = "{\"workload\":" + json_string(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"attempted\":" + std::to_string(result.attempted) +
                    ",\"failed\":" + std::to_string(result.failed) +
                    ",\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : result.checks) {
    out += (first ? "" : ",") + json_string(name) + ":" + (ok ? "true" : "false");
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, value] : result.info) {
    out += (first ? "" : ",") + json_string(name) + ":" + json_string(value);
    first = false;
  }
  out += "},\"metrics\":{";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    out += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
           json_number(metric.value) + ",\"unit\":" + json_string(metric.unit) +
           "}";
    first = false;
  }
  return out + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload sweep_default|sweep_residue|"
               "store_scale --seed N --seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.out_dir.empty() || !(options.seconds > 0.0)) {
    return usage();
  }
  Result result;
  // The per-trial salt of the sweeps: a fixed mix of the seed, so nearby
  // seeds do not share shifted trial streams.
  std::uint64_t seed_state = options.seed;
  const std::uint64_t salt = msa::util::splitmix64(seed_state);
  try {
    if (options.workload == "sweep_default") {
      run_sweep_workload(default_plan(salt), options, result);
    } else if (options.workload == "sweep_residue") {
      run_sweep_workload(residue_plan(salt), options, result);
    } else if (options.workload == "store_scale") {
      run_store_scale(options, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  result.set("peak_rss_mb", proc_status_mb("VmHWM"), "MiB");
  result.info["threads_available"] =
      std::to_string(std::thread::hardware_concurrency());
  result.info["build_type"] = PERFBENCH_BUILD_TYPE;
  result.info["msa_enable_simd"] = std::to_string(PERFBENCH_SIMD);
  result.info["compiler"] = __VERSION__;
  std::printf("%s\n", to_json(options, result).c_str());
  return 0;
}
