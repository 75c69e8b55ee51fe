// Parallel campaign sweep: fans the end-to-end scenario out over a
// cartesian grid of defense preset x model x attack delay x scrubber
// throughput, and prints (or writes) the aggregate report. The default
// grid is 24 cells; the CSV is byte-identical for any --threads value.
//
//   campaign_sweep [--threads N] [--trials N]
//                  [--defenses a,b,...] [--models a,b,...]
//                  [--delays s1,s2,...] [--scrubbers r1,r2,...]
//                  [--axis NAME=v1,v2,...]...
//                  [--no-profile-cache] [--fsync-every K]
//                  [--store PATH [--resume]] [--shard I/N]
//                  [--cell-budget K]
//                  [--workers-dir DIR --worker-id ID
//                   [--expiry-scans K] [--idle-backoff-ms M]]
//                  [--trace-out trace.json]
//                  [--csv out.csv] [--json out.json] [--quiet]
//   campaign_sweep merge [--workers-dir DIR | STORE...]
//                  [--csv out.csv] [--json out.json] [--quiet]
//   campaign_sweep stats [--format text|csv|json]
//                  [--workers-dir DIR | STORE...]
//   campaign_sweep diff [--format text|csv|json]
//                  [--exit-on-significant [--metric M] [--direction D]
//                   [--alpha A] [--min-effect E] [--permutations N]] A B
//   campaign_sweep compact STORE...
//   campaign_sweep metrics [--format text|csv|json] [sweep flags...]
//   campaign_sweep progress --workers-dir DIR [--once] [--interval-ms M]
//   campaign_sweep axes
//
// --axis sweeps ANY registered scenario knob (see `campaign_sweep axes`
// for the registry): each occurrence adds one grid dimension (or
// replaces the value list of a legacy axis named again), so
// `--axis power_cycled=0,1 --axis corrupt_fraction=0.5,1.0` crosses the
// default grid with a power-cycle axis and a corruption axis. Values are
// validated against the axis's type and range at parse time; an unknown
// axis name or a bad value exits 2.
//
// With --store, every finished trial and completed cell is streamed to a
// crash-safe on-disk record store; an interrupted sweep is continued with
// --resume (already-completed cells are skipped and the final report is
// byte-identical to an uninterrupted run). --shard I/N sweeps only the
// cells with index % N == I so N processes can cover the grid in
// parallel, one store file each; `merge` reassembles shard stores into
// the single-process report. --cell-budget K scores at most K new cells
// and exits 3 if that leaves the shard incomplete (the CI crash/restart
// harness and batch schedulers use this to bound one invocation's work).
//
// --workers-dir replaces the static --shard partition with work-stealing:
// every worker process points at the same directory (a shared filesystem
// across machines works), leases cells through its own append-only lease
// log, and streams results into its own store there. Heterogeneous cell
// costs even out automatically, a SIGKILLed worker's leases expire and
// its cells are re-run by survivors, and a restarted worker (same
// --worker-id) resumes its store. Each worker exits only when the WHOLE
// grid is complete and prints the merged report — byte-identical to the
// single-process run. `merge --workers-dir DIR` reassembles the report
// offline; `stats` prints per-cell percentiles/CIs and per-axis
// marginals from the trial stream (--format selects text, strict CSV,
// or JSON); `compact` drops superseded duplicate records a resumed or
// raced sweep leaves behind.
//
// `diff A B` compares two sweeps: each side is a store file or a
// workers directory, cells are aligned by AXIS VALUES on the axes the
// two sweeps share (never by index, so reordered, partially overlapping,
// or differently-dimensioned grids — a v1 four-axis store against a v2
// superset included — still pair up), and every matched cell gets its
// success-rate delta (B minus A) with a Newcombe/Wilson 95% CI and
// p-value (plus its Benjamini-Hochberg FDR adjustment over the matched
// cells), PSNR percentile shifts, and denial-rate change; unmatched
// cells are listed per side.
//
// `diff --exit-on-significant` turns the diff into a CI regression gate:
// a whole-grid paired sign-flip permutation test over the matched cells
// (seeded from the two stores' grid fingerprints — deterministic for a
// given pair of artifacts regardless of sweep thread count or shard
// layout) plus the per-cell FDR flags, evaluated against --metric
// (success_rate|denial|psnr_p50), --direction (regress|improve|any),
// --alpha, and --min-effect. A one-line verdict naming the offending
// cells goes to stderr and the process exits 4 when the gate trips; the
// requested diff output still goes to stdout either way.
//
// --trace-out enables the obs span recorder for the sweep and writes the
// collected spans as Chrome trace-event JSON (open it in Perfetto or
// chrome://tracing) when the sweep finishes. `metrics` runs the same
// sweep but prints the process metrics registry to stdout instead of the
// report CSV (the report still goes to --csv/--json files when asked);
// `progress` is a read-only live view over a work-stealing workers
// directory — per-worker claim/completion state, cells/s, and an ETA —
// that polls incrementally and exits when the grid is complete (--once
// renders a single deterministic snapshot instead).
//
// The offline-profiling phase is cached across cells and trials by
// default (reports are byte-identical either way; the cache only changes
// cells/second). --no-profile-cache re-profiles a fresh twin board per
// trial — the escape hatch for A/B-ing the cache itself.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage, 3 sweep incomplete
// (cell budget reached), 4 regression gate tripped.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "campaign/axis.h"
#include "campaign/compare.h"
#include "campaign/gate.h"
#include "campaign/grid.h"
#include "campaign/report.h"
#include "campaign/runner.h"
#include "campaign/stats.h"
#include "defense/presets.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "persist/campaign_store.h"
#include "persist/lease_log.h"
#include "util/monotime.h"
#include "util/strings.h"
#include "vitis/model_zoo.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--threads N] [--trials N] [--defenses a,b] [--models a,b]\n"
      "          [--delays s1,s2] [--scrubbers r1,r2]\n"
      "          [--axis NAME=v1,v2,...]... [--no-profile-cache]\n"
      "          [--store PATH [--resume]] [--shard I/N] [--cell-budget K]\n"
      "          [--workers-dir DIR --worker-id ID [--expiry-scans K]\n"
      "           [--idle-backoff-ms M]] [--fsync-every K]\n"
      "          [--trace-out FILE] [--csv PATH] [--json PATH] [--quiet]\n"
      "       %s merge [--workers-dir DIR | STORE...]\n"
      "                [--csv PATH] [--json PATH] [--quiet]\n"
      "       %s stats [--format text|csv|json] [--cells AXIS=V1[,V2...]]...\n"
      "                [--workers-dir DIR | STORE...]\n"
      "       %s diff [--format text|csv|json] [--cells AXIS=V1[,V2...]]...\n"
      "               [--exit-on-significant [--metric M] [--direction D]\n"
      "                [--alpha A] [--min-effect E] [--permutations N]] A B\n"
      "                (A and B are each a store file or a workers dir)\n"
      "       %s compact [--max-level-bytes N] STORE...\n"
      "       %s metrics [--format text|csv|json] [sweep flags...]\n"
      "       %s progress --workers-dir DIR [--once] [--interval-ms M]\n"
      "       %s axes\n"
      "  --threads/--trials/--cell-budget/--fsync-every/--expiry-scans/\n"
      "  --idle-backoff-ms take positive integers; --delays/--scrubbers\n"
      "  take comma-separated finite non-negative reals\n"
      "  --axis sweeps any registered scenario knob (list them with the\n"
      "  `axes` subcommand); values are typed and validated per axis\n"
      "  --cells restricts stats/diff to cells matching every given\n"
      "  AXIS=VALUE[,VALUE...] clause (values by canonical label; a value\n"
      "  no opened store lists is a usage error; on a compacted store\n"
      "  only the matching blocks are read)\n"
      "  compact rewrites stores into sorted block-indexed segments; the\n"
      "  default merges everything into one segment, --max-level-bytes N\n"
      "  keeps a tiered shape where levels over N bytes merge downward\n"
      "  --workers-dir is work-stealing mode (one process per --worker-id,\n"
      "  any number of machines over a shared filesystem); it excludes\n"
      "  --store/--resume/--shard/--cell-budget\n"
      "  --trace-out records trial-pipeline spans for the sweep and writes\n"
      "  Chrome trace-event JSON; `metrics` sweeps then prints the metrics\n"
      "  registry; `progress` watches a workers dir without writing to it\n"
      "  diff --exit-on-significant gates on a whole-grid paired\n"
      "  permutation test plus per-cell FDR flags: --metric\n"
      "  success_rate|denial|psnr_p50 (default success_rate), --direction\n"
      "  regress|improve|any (default regress), --alpha in (0,1) (default\n"
      "  0.05), --min-effect >= 0 (default 0), --permutations a positive\n"
      "  resample count (default 10000)\n"
      "  exit codes: 0 success/gate clean, 1 runtime failure, 2 usage\n"
      "  error, 3 sweep incomplete (cell budget reached), 4 regression\n"
      "  gate tripped\n",
      argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// `campaign_sweep axes`: the sweepable-knob registry, one line per axis.
int run_axes(const char* argv0, int argc, char** /*argv*/) {
  if (argc != 0) return usage(argv0);
  for (const msa::campaign::AxisDescriptor& axis :
       msa::campaign::axis_registry()) {
    std::string kind = msa::campaign::axis_kind_name(axis.kind);
    if (!axis.enum_labels.empty()) {
      kind += '{';
      for (std::size_t i = 0; i < axis.enum_labels.size(); ++i) {
        if (i > 0) kind += '|';
        kind += axis.enum_labels[i];
      }
      kind += '}';
    }
    std::printf("%-22s %-10s %s\n", axis.name.c_str(), kind.c_str(),
                axis.description.c_str());
  }
  return 0;
}

/// stats/diff/metrics output format.
using OutputFormat = msa::obs::MetricsFormat;

bool parse_format(const std::string& s, OutputFormat* format) {
  if (s == "text") *format = OutputFormat::kText;
  else if (s == "csv") *format = OutputFormat::kCsv;
  else if (s == "json") *format = OutputFormat::kJson;
  else return false;
  return true;
}

[[noreturn]] void bad_number(const char* argv0, const char* flag,
                             const std::string& value) {
  std::fprintf(stderr, "%s: bad value '%s'\n", flag, value.c_str());
  std::exit(usage(argv0));
}

/// Axis values (--delays/--scrubbers) must be finite and non-negative:
/// strtod happily parses "nan", "inf", and "-5", all of which would
/// silently build a nonsense grid axis (NaN delays never compare equal,
/// negative scrubber rates underflow the simulated timeline).
double parse_double(const char* argv0, const char* flag,
                    const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v) ||
      v < 0.0) {
    bad_number(argv0, flag, s);
  }
  return v;
}

/// Byte counts (--max-level-bytes) go beyond unsigned range.
std::uint64_t parse_u64(const char* argv0, const char* flag,
                        const std::string& s) {
  // strtoull accepts "-1" (wraps to ULLONG_MAX); require plain digits.
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    bad_number(argv0, flag, s);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || errno == ERANGE) {
    bad_number(argv0, flag, s);
  }
  return static_cast<std::uint64_t>(v);
}

unsigned parse_unsigned(const char* argv0, const char* flag,
                        const std::string& s) {
  const std::uint64_t v = parse_u64(argv0, flag, s);
  if (v > std::numeric_limits<unsigned>::max()) bad_number(argv0, flag, s);
  return static_cast<unsigned>(v);
}

/// Rejects zero as well: "--threads 0" and "--trials 0" are almost always
/// typos, and silently mapping them to a default hides the mistake.
unsigned parse_positive(const char* argv0, const char* flag,
                        const std::string& s) {
  const unsigned v = parse_unsigned(argv0, flag, s);
  if (v == 0) bad_number(argv0, flag, s);
  return v;
}

/// "--shard I/N" with 0 <= I < N.
void parse_shard(const char* argv0, const std::string& s,
                 unsigned* shard_index, unsigned* shard_count) {
  const auto slash = s.find('/');
  if (slash == std::string::npos) bad_number(argv0, "--shard", s);
  *shard_index = parse_unsigned(argv0, "--shard", s.substr(0, slash));
  *shard_count = parse_positive(argv0, "--shard", s.substr(slash + 1));
  if (*shard_index >= *shard_count) bad_number(argv0, "--shard", s);
}

using AxisFlags =
    std::vector<std::pair<std::string, std::vector<msa::campaign::AxisValue>>>;

/// One "--axis NAME=v1,v2,..." occurrence, validated against the axis
/// registry; false (after saying why) on a usage error.
bool parse_axis(const char* argv0, const std::string& spec, AxisFlags* out) {
  const auto eq = spec.find('=');
  if (eq == 0 || eq == std::string::npos || eq + 1 == spec.size()) {
    std::fprintf(stderr, "--axis wants NAME=v1,v2,... (got '%s')\n",
                 spec.c_str());
    return false;
  }
  const std::string name = spec.substr(0, eq);
  const msa::campaign::AxisDescriptor* axis = msa::campaign::find_axis(name);
  if (axis == nullptr) {
    std::fprintf(stderr,
                 "--axis: unknown axis '%s' (list the registry with "
                 "`%s axes`)\n",
                 name.c_str(), argv0);
    return false;
  }
  std::vector<msa::campaign::AxisValue> values;
  for (const auto& piece : msa::util::split(spec.substr(eq + 1), ',')) {
    try {
      values.push_back(msa::campaign::parse_axis_value(*axis, piece));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--axis: %s\n", e.what());
      return false;
    }
    // Catch duplicates here for a clean exit 2; GridBuilder would
    // reject them at build() time (exit 1) otherwise.
    for (std::size_t j = 0; j + 1 < values.size(); ++j) {
      if (values[j] == values.back()) {
        std::fprintf(stderr, "--axis: axis '%s' repeats value '%s'\n",
                     name.c_str(), values.back().label().c_str());
        return false;
      }
    }
  }
  out->emplace_back(name, std::move(values));
  return true;
}

/// One entry of a subcommand's flag table. `apply` gets the flag's value
/// (nullptr for a switch) and returns false on a usage error; the
/// number parsers above exit 2 themselves.
struct Flag {
  const char* name;
  bool takes_value;
  std::function<bool(const char* value)> apply;
};

Flag text_flag(const char* name, std::string* out) {
  return {name, true, [out](const char* v) {
            *out = v;
            return true;
          }};
}

Flag switch_flag(const char* name, bool* out) {
  return {name, false, [out](const char*) {
            *out = true;
            return true;
          }};
}

Flag positive_flag(const char* argv0, const char* name, unsigned* out) {
  return {name, true, [=](const char* v) {
            *out = parse_positive(argv0, name, v);
            return true;
          }};
}

/// A comma-separated list flag (--defenses/--models).
Flag list_flag(const char* name, std::vector<std::string>* out) {
  return {name, true, [out](const char* v) {
            *out = msa::util::split(v, ',');
            return true;
          }};
}

/// A comma-separated list of finite non-negative reals
/// (--delays/--scrubbers).
Flag doubles_flag(const char* argv0, const char* name,
                  std::vector<double>* out) {
  return {name, true, [=](const char* v) {
            out->clear();
            for (const auto& piece : msa::util::split(v, ',')) {
              out->push_back(parse_double(argv0, name, piece));
            }
            return true;
          }};
}

/// Passes `ok` through, first saying what `flag` accepts when it is false.
bool check_choice(bool ok, const char* flag, const char* choices,
                  const char* value) {
  if (!ok) {
    std::fprintf(stderr, "%s wants %s (got '%s')\n", flag, choices, value);
  }
  return ok;
}

Flag format_flag(OutputFormat* format) {
  return {"--format", true,
          [format](const char* v) { return parse_format(v, format); }};
}

/// "--cells AXIS=V1[,V2...]"; repeats AND together.
Flag cells_flag(msa::persist::CellFilter* filter) {
  return {"--cells", true, [filter](const char* v) {
            try {
              filter->clauses.push_back(
                  msa::persist::CellFilter::parse_clause(v));
            } catch (const std::invalid_argument& e) {
              std::fprintf(stderr, "--cells: %s\n", e.what());
              return false;
            }
            return true;
          }};
}

/// The argv loop every subcommand parses through. A flag takes the next
/// argument as its value whatever it looks like; an argument not starting
/// with '-' is a positional, collected into `positionals`, or a usage
/// error where the subcommand takes none (null). Returns false on any
/// usage error: an unknown flag, a missing value, or a rejected value.
bool parse_flags(int argc, char** argv, const std::vector<Flag>& table,
                 std::vector<std::string>* positionals) {
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.empty() || arg[0] != '-') {
      if (positionals == nullptr) return false;
      positionals->emplace_back(arg);
      continue;
    }
    const auto flag =
        std::find_if(table.begin(), table.end(),
                     [&](const Flag& f) { return arg == f.name; });
    if (flag == table.end()) return false;
    const char* value = nullptr;
    if (flag->takes_value) {
      if (i + 1 == argc) {
        std::fprintf(stderr, "%s wants a value\n", flag->name);
        return false;
      }
      value = argv[++i];
    }
    if (!flag->apply(value)) return false;
  }
  return true;
}

/// Writes `content` to `path`, saying so on stderr when that fails.
bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const bool ok = f != nullptr && std::fwrite(content.data(), 1,
                                              content.size(), f) ==
                                      content.size();
  if (f != nullptr && std::fclose(f) == 0 && ok) return true;
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return false;
}

/// Writes the report to whichever of --csv/--json were given.
bool write_report_files(const msa::campaign::SweepReport& report,
                        const std::string& csv_path,
                        const std::string& json_path) {
  return (csv_path.empty() || write_file(csv_path, report.to_csv())) &&
         (json_path.empty() || write_file(json_path, report.to_json()));
}

/// Emits the report as CSV (stdout or --csv) and optional JSON.
int emit_report(const msa::campaign::SweepReport& report,
                const std::string& csv_path, const std::string& json_path,
                bool quiet) {
  if (csv_path.empty()) std::fputs(report.to_csv().c_str(), stdout);
  if (!write_report_files(report, csv_path, json_path)) return 1;
  if (!quiet) {
    std::fprintf(stderr,
                 "[campaign] %zu trials: %zu full successes, %zu denials\n",
                 report.total_trials(), report.total_full_successes(),
                 report.total_denials());
  }
  return 0;
}

/// Prints a stats or diff report to stdout in `format`.
template <typename Report>
void print_report(const Report& report, OutputFormat format) {
  switch (format) {
    case OutputFormat::kText:
      std::fputs(report.to_text().c_str(), stdout);
      break;
    case OutputFormat::kCsv:
      std::fputs(report.to_csv().c_str(), stdout);
      break;
    case OutputFormat::kJson:
      std::fputs(report.to_json().c_str(), stdout);
      std::fputc('\n', stdout);
      break;
  }
}

/// Says which --cells value no opened store lists and returns false, or
/// returns true when every value is listed somewhere.
bool check_cells_listed(
    const msa::persist::CellFilter& filter,
    const std::map<std::string, std::set<std::string>>& listed) {
  const std::string unlisted = filter.first_unlisted(listed);
  if (unlisted.empty()) return true;
  std::fprintf(stderr, "--cells: no store lists %s\n", unlisted.c_str());
  return false;
}

void warn_torn_tail(const msa::persist::SweepData& data,
                    const std::string& what) {
  if (!data.truncated_tail) return;
  std::fprintf(stderr,
               "[campaign] warning: %s had a torn tail (crashed writer); its "
               "unflushed records were skipped\n",
               what.c_str());
}

int run_merge(const char* argv0, int argc, char** argv) {
  bool quiet = false;
  std::string csv_path;
  std::string json_path;
  std::string workers_dir;
  std::vector<std::string> stores;
  if (!parse_flags(argc, argv,
                   {text_flag("--csv", &csv_path),
                    text_flag("--json", &json_path),
                    text_flag("--workers-dir", &workers_dir),
                    switch_flag("--quiet", &quiet)},
                   &stores) ||
      workers_dir.empty() == stores.empty()) {
    return usage(argv0);
  }

  msa::campaign::SweepReport report;
  try {
    // Worker stores may legally duplicate a cell (lease reclaimed,
    // original worker resurrected); shard stores may not.
    if (workers_dir.empty()) {
      report = msa::persist::merge_stores(stores);
    } else {
      report = msa::persist::merge_worker_stores({workers_dir});
      stores = msa::persist::list_store_files(workers_dir);  // for the count
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "merge failed: %s\n", e.what());
    return 1;
  }
  if (!quiet) {
    std::fprintf(stderr, "[campaign] merged %zu store(s): %zu cells\n",
                 stores.size(), report.cells.size());
  }
  return emit_report(report, csv_path, json_path, quiet);
}

int run_stats(const char* argv0, int argc, char** argv) {
  OutputFormat format = OutputFormat::kText;
  std::string workers_dir;
  std::vector<std::string> stores;
  msa::persist::CellFilter filter;
  if (!parse_flags(argc, argv,
                   {text_flag("--workers-dir", &workers_dir),
                    format_flag(&format), cells_flag(&filter)},
                   &stores) ||
      workers_dir.empty() == stores.empty()) {
    return usage(argv0);
  }
  if (!workers_dir.empty()) stores = {workers_dir};

  try {
    const msa::persist::SweepData data =
        msa::persist::load_sweep(stores, filter);
    if (!check_cells_listed(filter, data.filter_labels)) return 2;
    print_report(msa::campaign::analyze_sweep(data), format);
    warn_torn_tail(data, "a store");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stats failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_diff(const char* argv0, int argc, char** argv) {
  OutputFormat format = OutputFormat::kText;
  bool gate_enabled = false;
  bool gate_flag_seen = false;  // any of the gate-tuning flags
  msa::campaign::GateSpec spec;
  msa::persist::CellFilter filter;
  std::vector<std::string> sides;
  // The gate-tuning flags: each one needs --exit-on-significant.
  const auto gate_flag = [&](const char* name, auto apply) {
    return Flag{name, true, [&gate_flag_seen, apply](const char* v) {
                  gate_flag_seen = true;
                  return apply(v);
                }};
  };
  const std::vector<Flag> table{
      format_flag(&format),
      cells_flag(&filter),
      switch_flag("--exit-on-significant", &gate_enabled),
      gate_flag("--metric",
                [&](const char* v) {
                  return check_choice(
                      msa::campaign::parse_diff_metric(v, &spec.metric),
                      "--metric", "success_rate|denial|psnr_p50", v);
                }),
      gate_flag("--direction",
                [&](const char* v) {
                  return check_choice(
                      msa::campaign::parse_gate_direction(v, &spec.direction),
                      "--direction", "regress|improve|any", v);
                }),
      gate_flag("--alpha",
                [&](const char* v) {
                  // A significance level is strictly inside (0,1): 0 can
                  // never trip and 1 always trips, both configuration
                  // mistakes.
                  spec.alpha = parse_double(argv0, "--alpha", v);
                  if (spec.alpha <= 0.0 || spec.alpha >= 1.0) {
                    bad_number(argv0, "--alpha", v);
                  }
                  return true;
                }),
      gate_flag("--min-effect",
                [&](const char* v) {
                  spec.min_effect = parse_double(argv0, "--min-effect", v);
                  return true;
                }),
      gate_flag("--permutations",
                [&](const char* v) {
                  spec.iterations = parse_positive(argv0, "--permutations", v);
                  return true;
                }),
  };
  if (!parse_flags(argc, argv, table, &sides) || sides.size() != 2) {
    return usage(argv0);
  }
  if (gate_flag_seen && !gate_enabled) {
    std::fprintf(stderr,
                 "--metric/--direction/--alpha/--min-effect/--permutations "
                 "require --exit-on-significant\n");
    return usage(argv0);
  }

  try {
    const msa::persist::SweepData a =
        msa::persist::load_sweep({sides[0]}, filter);
    const msa::persist::SweepData b =
        msa::persist::load_sweep({sides[1]}, filter);
    std::map<std::string, std::set<std::string>> listed = a.filter_labels;
    for (const auto& [axis, labels] : b.filter_labels) {
      listed[axis].insert(labels.begin(), labels.end());
    }
    if (!check_cells_listed(filter, listed)) return 2;
    warn_torn_tail(a, sides[0]);
    warn_torn_tail(b, sides[1]);
    const msa::campaign::DiffReport report = msa::campaign::diff_sweeps(
        msa::campaign::analyze_sweep(a), msa::campaign::analyze_sweep(b));
    print_report(report, format);
    if (gate_enabled) {
      const msa::campaign::GateResult gate = msa::campaign::evaluate_gate(
          report, spec,
          msa::campaign::gate_seed(a.manifest.grid_fingerprint,
                                   b.manifest.grid_fingerprint));
      std::fprintf(stderr, "[campaign] %s\n", gate.verdict_line().c_str());
      if (gate.tripped()) return 4;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "diff failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

int run_compact(const char* argv0, int argc, char** argv) {
  msa::persist::CompactOptions options;
  std::vector<std::string> stores;
  const Flag max_level_bytes{"--max-level-bytes", true, [&](const char* v) {
                               options.max_level_bytes =
                                   parse_u64(argv0, "--max-level-bytes", v);
                               return true;
                             }};
  if (!parse_flags(argc, argv, {max_level_bytes}, &stores) || stores.empty()) {
    return usage(argv0);
  }

  for (const std::string& path : stores) {
    try {
      const msa::persist::CompactionResult result =
          msa::persist::compact_store(path, options);
      std::fprintf(stderr,
                   "[campaign] compacted %s: %llu -> %llu bytes, "
                   "%zu segment(s) (%zu trial record(s), %zu cell "
                   "record(s) dropped)\n",
                   path.c_str(),
                   static_cast<unsigned long long>(result.bytes_before),
                   static_cast<unsigned long long>(result.bytes_after),
                   result.segments_live, result.trials_dropped,
                   result.cells_dropped);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "compact failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}

/// `campaign_sweep progress`: read-only live view over a work-stealing
/// workers directory. Exits 0 once the grid is complete (immediately
/// with --once), 2 when --workers-dir is missing or points at nothing
/// observable.
int run_progress(const char* argv0, int argc, char** argv) {
  std::string workers_dir;
  bool once = false;
  unsigned interval_ms = 1000;
  if (!parse_flags(argc, argv,
                   {text_flag("--workers-dir", &workers_dir),
                    switch_flag("--once", &once),
                    positive_flag(argv0, "--interval-ms", &interval_ms)},
                   nullptr)) {
    return usage(argv0);
  }
  if (workers_dir.empty()) {
    std::fprintf(stderr, "progress wants --workers-dir DIR\n");
    return usage(argv0);
  }

  // Construction failure (missing directory, no lease log yet) is a
  // usage-shaped error: --workers-dir pointed at nothing observable.
  std::optional<msa::obs::ProgressView> view;
  try {
    view.emplace(workers_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "--workers-dir %s: %s\n", workers_dir.c_str(),
                 e.what());
    return usage(argv0);
  }

  try {
    if (once) {
      std::fputs(msa::obs::ProgressView::render(view->poll(), -1.0).c_str(),
                 stdout);
      return 0;
    }
    const bool tty = isatty(STDOUT_FILENO) != 0;
    const std::uint64_t start_ns = msa::util::monotonic_ns();
    std::uint64_t baseline = 0;
    bool have_baseline = false;
    for (;;) {
      const msa::obs::ProgressSnapshot snapshot = view->poll();
      if (!have_baseline) {
        baseline = snapshot.completed_cells;
        have_baseline = true;
      }
      // Rate over this observer's own window: cells completed since the
      // first poll, not since the sweep began (a late-joining watcher
      // would otherwise report a stale, inflated rate).
      const std::uint64_t elapsed = msa::util::monotonic_ns() - start_ns;
      double cells_per_s = -1.0;
      if (elapsed > 0 && snapshot.completed_cells > baseline) {
        cells_per_s = static_cast<double>(snapshot.completed_cells - baseline) *
                      1e9 / static_cast<double>(elapsed);
      }
      if (tty) std::fputs("\x1b[H\x1b[J", stdout);
      std::fputs(msa::obs::ProgressView::render(snapshot, cells_per_s).c_str(),
                 stdout);
      std::fflush(stdout);
      if (snapshot.complete()) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds{interval_ms});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "progress failed: %s\n", e.what());
  }
  return 1;
}

/// The sweep driver behind both the default invocation and the `metrics`
/// subcommand (`metrics_mode` swaps the stdout report CSV for a
/// metrics-registry snapshot; --csv/--json still write the report).
int run_sweep(const char* argv0, int argc, char** argv, bool metrics_mode) {
  using namespace msa;

  OutputFormat metrics_format = OutputFormat::kText;
  std::string trace_out;
  unsigned threads = 0;  // 0 = hardware concurrency (flag rejects 0)
  unsigned trials = 1;
  unsigned shard_index = 0;
  unsigned shard_count = 1;
  unsigned cell_budget = 0;  // 0 = unlimited
  unsigned fsync_every = 0;  // 0 = flush only (default durability)
  unsigned expiry_scans = 8;
  unsigned idle_backoff_ms = 25;
  bool resume = false;
  bool quiet = false;
  bool profile_cache = true;
  std::string store_path;
  std::string workers_dir;
  std::string worker_id;
  std::string csv_path;
  std::string json_path;
  // Defaults: 2 defenses x 2 models x 3 delays x 2 scrubber rates = 24
  // cells spanning "attack wins" to "scrubber beat the attacker".
  std::vector<std::string> defenses{"baseline", "zero_on_free"};
  std::vector<std::string> models{"resnet50_pt", "squeezenet_pt"};
  std::vector<double> delays{0.0, 5.0, 60.0};
  std::vector<double> scrubbers{0.0, 4.0 * 1024 * 1024};
  // --axis occurrences, validated at parse time, applied to the grid
  // after the legacy flags (so `--axis delay_s=...` overrides --delays).
  AxisFlags axis_flags;

  std::vector<Flag> table{
      positive_flag(argv0, "--threads", &threads),
      positive_flag(argv0, "--trials", &trials),
      list_flag("--defenses", &defenses),
      list_flag("--models", &models),
      doubles_flag(argv0, "--delays", &delays),
      doubles_flag(argv0, "--scrubbers", &scrubbers),
      {"--axis", true,
       [&](const char* v) { return parse_axis(argv0, v, &axis_flags); }},
      text_flag("--store", &store_path),
      text_flag("--workers-dir", &workers_dir),
      text_flag("--worker-id", &worker_id),
      positive_flag(argv0, "--expiry-scans", &expiry_scans),
      // Zero would busy-spin the endgame AND shrink the lease-expiry
      // window to ~nothing (mass-stealing live peers' cells).
      positive_flag(argv0, "--idle-backoff-ms", &idle_backoff_ms),
      positive_flag(argv0, "--fsync-every", &fsync_every),
      switch_flag("--resume", &resume),
      {"--no-profile-cache", false,
       [&](const char*) {
         profile_cache = false;
         return true;
       }},
      {"--shard", true,
       [&](const char* v) {
         parse_shard(argv0, v, &shard_index, &shard_count);
         return true;
       }},
      positive_flag(argv0, "--cell-budget", &cell_budget),
      text_flag("--csv", &csv_path),
      text_flag("--json", &json_path),
      text_flag("--trace-out", &trace_out),
      switch_flag("--quiet", &quiet),
  };
  if (metrics_mode) {
    table.push_back({"--format", true, [&](const char* v) {
                       return check_choice(parse_format(v, &metrics_format),
                                           "metrics --format",
                                           "text|csv|json", v);
                     }});
  }
  if (!parse_flags(argc, argv, table, nullptr)) return usage(argv0);
  if (store_path.empty() && (resume || cell_budget != 0)) {
    std::fprintf(stderr, "--resume/--cell-budget require --store\n");
    return usage(argv0);
  }
  if (workers_dir.empty() != worker_id.empty()) {
    std::fprintf(stderr, "--workers-dir and --worker-id go together\n");
    return usage(argv0);
  }
  if (!workers_dir.empty() &&
      (!store_path.empty() || resume || cell_budget != 0 || shard_count > 1)) {
    std::fprintf(stderr,
                 "--workers-dir (work-stealing) excludes "
                 "--store/--resume/--shard/--cell-budget\n");
    return usage(argv0);
  }
  if (!worker_id.empty() &&
      !persist::LeaseScheduler::valid_worker_id(worker_id)) {
    std::fprintf(stderr, "--worker-id must match [A-Za-z0-9_-]+\n");
    return usage(argv0);
  }

  // Recording starts before the runner exists so every pool thread's
  // ring is live from its first span; export happens after run() joins.
  if (!trace_out.empty()) obs::Trace::enable();

  attack::ScenarioConfig base;
  base.image_width = 96;
  base.image_height = 96;

  campaign::GridBuilder grid{base};
  grid.defenses(defenses).models(models).attack_delays_s(delays).scrubber_rates(
      scrubbers);
  for (auto& [axis_name, axis_values] : axis_flags) {
    grid.axis(axis_name, std::move(axis_values));
  }
  if (shard_count > 1) grid.shard(shard_index, shard_count);

  campaign::CampaignOptions options;
  options.threads = threads;
  options.trials_per_cell = trials;
  options.share_profiles = profile_cache;
  if (!quiet) {
    options.on_cell_done = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "\r[campaign] %zu/%zu cells", done, total);
      if (done == total) std::fputc('\n', stderr);
    };
  }

  campaign::SweepReport report;
  std::size_t shard_cells = 0;
  std::size_t completed = 0;
  persist::StoreManifest manifest;
  manifest.grid_fingerprint = grid.fingerprint();
  manifest.grid_cells = grid.full_size();
  manifest.trials_per_cell = trials;
  manifest.trial_salt = options.trial_salt;
  manifest.shard_index = shard_index;
  manifest.shard_count = shard_count;
  manifest.axes = grid.axis_schema();
  try {
    campaign::CampaignRunner runner{options};
    shard_cells = grid.size();
    if (!quiet) {
      std::fprintf(stderr,
                   "[campaign] %zu cells x %u trial(s) on %u thread(s)%s\n",
                   shard_cells, trials, runner.thread_count(),
                   !workers_dir.empty()    ? " (work-stealing)"
                   : shard_count > 1 ? " (sharded)" : "");
    }
    if (!workers_dir.empty()) {
      // Work-stealing mode: lease cells from the shared directory, stream
      // results into this worker's own store there, and exit only when
      // the WHOLE grid is complete — at which point the merged report can
      // be emitted locally (every worker computes identical bytes).
      std::filesystem::create_directories(workers_dir);
      persist::CampaignStore store{
          persist::LeaseScheduler::store_path(workers_dir, worker_id),
          manifest, persist::CampaignStore::Mode::kCreateOrResume,
          persist::StoreOptions{fsync_every}};
      persist::LeaseSchedulerOptions lease_options;
      lease_options.expiry_scans = expiry_scans;
      lease_options.idle_backoff = std::chrono::milliseconds{idle_backoff_ms};
      persist::LeaseScheduler scheduler{workers_dir,    worker_id,
                                        grid.build(),   manifest,
                                        &store,         lease_options};
      if (!quiet && scheduler.planned() < shard_cells) {
        std::fprintf(stderr, "[campaign] joining: %zu/%zu cells already done\n",
                     shard_cells - scheduler.planned(), shard_cells);
      }
      (void)runner.run(scheduler, store);
      const persist::LeaseScheduler::Telemetry t = scheduler.telemetry();
      if (!quiet) {
        std::fprintf(stderr,
                     "[campaign] worker %s: %llu claim(s) (%llu stolen), "
                     "%llu forfeit(s), %llu scan(s), %zu cell(s) in store\n",
                     worker_id.c_str(),
                     static_cast<unsigned long long>(t.claims),
                     static_cast<unsigned long long>(t.steals),
                     static_cast<unsigned long long>(t.forfeits),
                     static_cast<unsigned long long>(t.scans),
                     store.completed_count());
      }
      report = persist::merge_worker_stores({workers_dir});
      completed = shard_cells;
    } else if (store_path.empty()) {
      report = runner.run(grid);
      completed = shard_cells;
    } else {
      persist::CampaignStore store{store_path, manifest,
                                   resume
                                       ? persist::CampaignStore::Mode::kResume
                                       : persist::CampaignStore::Mode::kCreate,
                                   persist::StoreOptions{fsync_every}};
      if (resume && !quiet) {
        std::fprintf(stderr, "[campaign] resuming: %zu/%zu cells on disk\n",
                     store.completed_count(), shard_cells);
      }
      report = runner.run(grid, store, cell_budget);
      completed = store.completed_count();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign failed: %s\n", e.what());
    return 1;
  }

  // In lease mode the emitted report is the merged cross-worker one,
  // which carries no cache telemetry — printing its zeros would mislead.
  if (!quiet && profile_cache && workers_dir.empty()) {
    std::fprintf(stderr,
                 "[campaign] profile cache: %llu hits, %llu misses\n",
                 static_cast<unsigned long long>(report.profile_cache_hits),
                 static_cast<unsigned long long>(report.profile_cache_misses));
  }

  // The trace is written even when the cell budget cuts the sweep short:
  // a bounded invocation's spans are exactly what a CI drill inspects.
  if (!trace_out.empty() && !write_file(trace_out, obs::Trace::chrome_json())) {
    return 1;
  }

  if (completed < shard_cells) {
    std::fprintf(stderr,
                 "[campaign] cell budget reached: %zu/%zu cells persisted; "
                 "re-run with --resume to continue\n",
                 completed, shard_cells);
    return 3;
  }
  if (metrics_mode) {
    if (!write_report_files(report, csv_path, json_path)) return 1;
    std::fputs(obs::render_metrics(metrics_format).c_str(), stdout);
    return 0;
  }
  return emit_report(report, csv_path, json_path, quiet);
}

int run_metrics(const char* argv0, int argc, char** argv) {
  return run_sweep(argv0, argc, argv, true);
}

/// Subcommands by their first argument; without one, argv is sweep flags.
struct Subcommand {
  std::string_view name;
  int (*run)(const char* argv0, int argc, char** argv);
};
constexpr Subcommand kSubcommands[] = {
    {"merge", run_merge},       {"stats", run_stats},
    {"diff", run_diff},         {"compact", run_compact},
    {"progress", run_progress}, {"axes", run_axes},
    {"metrics", run_metrics},
};

}  // namespace

int main(int argc, char** argv) {
  for (const Subcommand& sub : kSubcommands) {
    if (argc > 1 && argv[1] == sub.name) {
      return sub.run(argv[0], argc - 2, argv + 2);
    }
  }
  return run_sweep(argv[0], argc - 1, argv + 1, false);
}
