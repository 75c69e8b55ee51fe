// The traced run. A single thread performs every trial of a sweep plan
// through the same public calls attack::run_scenario makes, in the same
// order, with a span around each call into a layer:
//
//   profile        ProfileCache::get_or_profile            (attack)
//   board_acquire  VictimBoardPool::acquire                (os + mem)
//   victim_input   ProfileCache::victim_input              (img)
//   victim_launch  VitisAiRuntime::launch                  (vitis)
//   find_victim    AttackOrchestrator::find_victim         (attack)
//   resolve        AttackOrchestrator::resolve             (attack)
//   terminate      PetaLinuxSystem::terminate              (os)
//   scrubber       ScrubberDaemon::run_for                 (os)
//   decay          RemanenceModel::apply over the heap     (dram)
//   scrape         MemoryScraper::scrape / scrape_physical_range (attack)
//   analyze        signature scan + reconstruction         (attack)
//   score          pixel_match_fraction + psnr_db          (img)
//   board_release  VictimBoardPool::release                (os + mem)
//
// Each trial's seeds are derived exactly as CampaignRunner::score_cell
// derives them, and every traced outcome is compared with run_scenario's
// on the same config through outcome_bytes, which covers every
// ScenarioResult field: a mismatch means the decomposition measures a
// different program, and fails the run.
//
// After each trial the victim model's work is split by re-running it
// outside the trial's wall time: XModel::serialize (DpuRunner serializes twice
// per launch) and each Layer::forward along the layer chain on the same
// preprocessed input. victim_launch minus those is the staging share.
// The split replays DpuRunner's current call sequence: a change to that
// sequence must update split_launch, and a negative staging share fails
// the run.
//
// Spans stay in memory and are written at the end as Chrome trace-event
// JSON (<out>/<workload>/spans.json, loadable in Perfetto).
#include <bit>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

#include "attack/descriptor_scan.h"
#include "attack/profile_cache.h"
#include "attack/scenario.h"
#include "common.h"
#include "dram/remanence.h"
#include "os/scrubber.h"
#include "util/crc32.h"
#include "util/prng.h"
#include "util/strings.h"
#include "vitis/model_zoo.h"
#include "vitis/tensor.h"

namespace perfbench {

namespace {

using namespace msa;

enum Span : std::uint8_t {
  kProfile,
  kBoardAcquire,
  kVictimInput,
  kVictimLaunch,
  kFindVictim,
  kResolve,
  kTerminate,
  kScrubber,
  kDecay,
  kScrape,
  kAnalyze,
  kScore,
  kBoardRelease,
  kTopLevelSpans,
  // Vitis split, recorded after the trial (not inside its wall time).
  kSerialize = kTopLevelSpans,
  kConv2d,
  kPool,
  kDense,
  kSpanCount,
};

constexpr const char* kSpanNames[kSpanCount] = {
    "profile",   "board_acquire", "victim_input", "victim_launch",
    "find_victim", "resolve",     "terminate",    "scrubber",
    "decay",     "scrape",        "analyze",      "score",
    "board_release", "vitis/serialize", "vitis/conv2d", "vitis/pool",
    "vitis/dense"};

struct SpanRecord {
  std::uint32_t trial = 0;
  Span span = kProfile;
  std::int64_t start_ns = 0;  ///< since the traced run began
  std::int64_t dur_ns = 0;
};

/// In-memory span log plus per-span totals.
class Recorder {
 public:
  std::uint32_t trial = 0;
  std::vector<SpanRecord> spans;
  double total_ms[kSpanCount] = {};

  void add(Span span, Clock::time_point t0, Clock::time_point t1) {
    const auto ns = [this](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
          .count();
    };
    spans.push_back(SpanRecord{trial, span, ns(t0), ns(t1) - ns(t0)});
    total_ms[span] += ms_between(t0, t1);
  }

 private:
  Clock::time_point origin_ = Clock::now();
};

class Scoped {
 public:
  Scoped(Recorder& rec, Span span) : rec_{rec}, span_{span} {}
  ~Scoped() { rec_.add(span_, start_, Clock::now()); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Recorder& rec_;
  Span span_;
  Clock::time_point start_ = Clock::now();
};

/// run_scenario's post-termination timeline, split into its two layers.
void post_termination(os::PetaLinuxSystem& board,
                      const attack::ScenarioConfig& cfg, Recorder& rec) {
  if (cfg.attack_delay_s <= 0.0) return;
  board.advance_time(static_cast<std::uint64_t>(cfg.attack_delay_s));
  if (cfg.scrubber_bytes_per_s > 0.0) {
    const Scoped span{rec, kScrubber};
    os::ScrubberDaemon scrubber{board, cfg.scrubber_bytes_per_s};
    scrubber.run_for(cfg.attack_delay_s);
  }
  if (cfg.power_cycled && !board.terminated().empty()) {
    const Scoped span{rec, kDecay};
    const dram::RemanenceModel remanence{dram::RemanenceParams{
        .refresh_active = false,
        .retention_half_life_s = cfg.retention_half_life_s}};
    util::Prng prng{cfg.system.seed ^ 0xDEC4FULL};
    dram::RemanenceScratch scratch;
    for (const dram::PhysAddr pa : board.terminated().back().heap_frames) {
      remanence.apply(board.dram(), pa, mem::kPageSize, cfg.attack_delay_s,
                      prng, scratch);
    }
  }
}

/// AttackOrchestrator::attack_after_termination's analysis of a dump.
attack::AttackReport analyze_dump(attack::ScrapedDump dump,
                                  const attack::ResolvedTarget& target,
                                  const attack::SignatureDb& signatures,
                                  const attack::ProfileDb& profiles) {
  attack::AttackReport report;
  report.devmem_reads = dump.devmem_reads;
  report.residue_bytes = dump.bytes.size();
  report.pages_unmapped = dump.pages_unmapped;
  const auto matches = signatures.scan(dump.bytes);
  if (!matches.empty()) {
    report.identified_model = matches.front().model_name;
    report.signature_hits = matches.front().hits;
  }
  report.deep_match = attack::SignatureDb::identify_deep(dump.bytes);
  if (report.model_identified()) {
    if (const auto profile = profiles.find(report.identified_model)) {
      report.reconstructed_image =
          attack::ImageReconstructor::reconstruct(dump, *profile);
    }
  }
  report.descriptor_image = attack::reconstruct_via_descriptor(dump);
  report.recovered_scores = attack::recover_output_scores(dump);
  report.victim_pid = target.pid;

  std::string t;
  t += "[step 2] heap " + util::hex_no_prefix(target.heap_start) + "-" +
       util::hex_no_prefix(target.heap_end) + " (" +
       std::to_string(target.page_pa.size()) + " pages, " +
       std::to_string(target.pages_resolved()) + " resolved)\n";
  t += "[step 3] scraped " + std::to_string(report.residue_bytes) +
       " bytes with " + std::to_string(report.devmem_reads) +
       " devmem reads\n";
  t += "[step 4a] identified model: " +
       (report.model_identified() ? report.identified_model : "<none>") +
       " (" + std::to_string(report.signature_hits) + " signature hits)\n";
  t += "[step 4b] image " +
       std::string{report.image_recovered() ? "reconstructed"
                                            : "not recovered"} +
       "\n";
  report.transcript = std::move(t);
  return report;
}

/// AttackOrchestrator::attack_physical_scan's analysis of a raw sweep.
attack::AttackReport analyze_scan(const attack::ScrapedDump& scan,
                                  const attack::SignatureDb& signatures,
                                  const attack::ProfileDb& profiles,
                                  dram::PhysAddr base, std::uint64_t len) {
  attack::AttackReport report;
  report.devmem_reads = scan.devmem_reads;
  report.residue_bytes = scan.bytes.size();
  if (const auto best = signatures.identify(scan.bytes)) {
    report.identified_model = *best;
    report.signature_hits = signatures.scan(scan.bytes).front().hits;
  }
  report.deep_match = attack::SignatureDb::identify_deep(scan.bytes);
  if (report.model_identified()) {
    if (const auto profile = profiles.find(report.identified_model)) {
      report.reconstructed_image =
          attack::ImageReconstructor::reconstruct_from_scan(scan, *profile);
    }
  }
  report.transcript = "[scan] swept " + std::to_string(len) + " bytes at " +
                      util::hex_0x(base) + "\n";
  return report;
}

/// One trial, decomposed: run_scenario(config, &cache) call for call.
/// When `scraped_crc` is set it receives the CRC-32 of the bytes the
/// attacker scraped, computed outside the spans.
attack::ScenarioResult traced_trial(const attack::ScenarioConfig& config,
                                    attack::ProfileCache& cache, Recorder& rec,
                                    std::uint32_t* scraped_crc = nullptr) {
  attack::ScenarioResult result;
  attack::ProfileDb profiles;
  {
    const Scoped span{rec, kProfile};
    profiles.add(cache.get_or_profile(config));
  }
  std::unique_ptr<attack::VictimBoardPool::Board> pooled;
  {
    const Scoped span{rec, kBoardAcquire};
    pooled = cache.victim_boards().acquire(config);
  }
  struct Park {
    attack::ProfileCache& cache;
    const attack::ScenarioConfig& config;
    std::unique_ptr<attack::VictimBoardPool::Board>& board;
    Recorder& rec;
    ~Park() {
      const Scoped span{rec, kBoardRelease};
      cache.victim_boards().release(config, std::move(board));
    }
  } park{cache, config, pooled, rec};
  os::PetaLinuxSystem& board = pooled->system;

  board.add_user(config.victim_uid, "victim");
  board.add_user(config.attacker_uid, "attacker");
  {
    const Scoped span{rec, kVictimInput};
    result.victim_input = *cache.victim_input(config);
  }
  board.advance_time(8 * 3600 + 43 * 60);
  vitis::VictimRun victim;
  {
    const Scoped span{rec, kVictimLaunch};
    victim = pooled->runtime.launch(config.victim_uid, config.model_name,
                                    result.victim_input, "pts/1");
  }
  result.victim_top_class = victim.top_class;

  dbg::SystemDebugger debugger{board, config.attacker_uid, config.acl};
  dbg::MemoryFirewall firewall{board, config.firewall};
  if (config.firewall != dbg::FirewallMode::kDisabled) {
    debugger.set_firewall(&firewall);
  }
  const attack::SignatureDb signatures = attack::SignatureDb::for_zoo();
  // Used only for its find_victim/resolve/victim_terminated steps; the
  // scrape and analysis below run outside it so each gets its own span.
  attack::AttackOrchestrator orchestrator{debugger, attack::SignatureDb{},
                                          std::move(profiles)};
  const attack::ProfileDb& known = orchestrator.profiles();
  attack::MemoryScraper scraper{debugger};

  try {
    if (config.post_mortem_scan) {
      {
        const Scoped span{rec, kTerminate};
        board.terminate(victim.pid);
      }
      post_termination(board, config, rec);
      const auto profile = known.find(config.model_name);
      const std::uint64_t heap_guess = profile ? profile->heap_bytes : 1 << 20;
      const std::uint64_t len =
          config.scan_bytes != 0 ? config.scan_bytes : heap_guess * 4;
      const dram::PhysAddr pool_base =
          mem::PageFrameAllocator::frame_to_phys(config.system.pool_first_pfn);
      attack::ScrapedDump scan;
      {
        const Scoped span{rec, kScrape};
        scan = scraper.scrape_physical_range(pool_base, len);
      }
      if (scraped_crc) *scraped_crc = util::crc32(scan.bytes);
      const Scoped span{rec, kAnalyze};
      result.report = analyze_scan(scan, signatures, known, pool_base, len);
    } else {
      std::optional<attack::PsEntry> entry;
      {
        const Scoped span{rec, kFindVictim};
        entry = orchestrator.find_victim(config.model_name);
      }
      if (!entry) {
        result.denied = true;
        result.denial_reason = "victim not visible in ps";
        return result;
      }
      attack::ResolvedTarget target;
      {
        const Scoped span{rec, kResolve};
        target = orchestrator.resolve(entry->pid);
      }
      board.advance_time(60);
      {
        const Scoped span{rec, kTerminate};
        board.terminate(victim.pid);
      }
      if (!orchestrator.victim_terminated(entry->pid)) {
        throw std::logic_error("traced: victim still alive after terminate");
      }
      post_termination(board, config, rec);
      attack::ScrapedDump dump;
      {
        const Scoped span{rec, kScrape};
        dump = scraper.scrape(target);
      }
      if (scraped_crc) *scraped_crc = util::crc32(dump.bytes);
      const Scoped span{rec, kAnalyze};
      result.report = analyze_dump(std::move(dump), target, signatures, known);
    }
  } catch (const dbg::DebuggerAccessDenied& e) {
    result.denied = true;
    result.denial_reason = e.what();
    return result;
  } catch (const os::PermissionError& e) {
    result.denied = true;
    result.denial_reason = e.what();
    return result;
  }

  const Scoped span{rec, kScore};
  result.model_identified_correctly =
      result.report.identified_model == config.model_name;
  if (result.report.reconstructed_image) {
    result.pixel_match = img::pixel_match_fraction(
        *result.report.reconstructed_image, result.victim_input);
    result.psnr =
        img::psnr_db(*result.report.reconstructed_image, result.victim_input);
  }
  if (result.report.descriptor_image) {
    result.descriptor_pixel_match = img::pixel_match_fraction(
        *result.report.descriptor_image, result.victim_input);
  }
  return result;
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_bytes(std::string& out, const void* data, std::size_t size) {
  put_u64(out, size);
  out.append(static_cast<const char*>(data), size);
}
void put_string(std::string& out, const std::string& s) {
  put_bytes(out, s.data(), s.size());
}
void put_double(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
void put_image(std::string& out, const img::Image& image) {
  put_u64(out, image.width());
  put_u64(out, image.height());
  const std::vector<std::uint8_t> rgb = image.to_rgb_bytes();
  put_bytes(out, rgb.data(), rgb.size());
}
void put_image(std::string& out, const std::optional<img::Image>& image) {
  put_u64(out, image.has_value());
  if (image) put_image(out, *image);
}

/// Re-runs the victim model's work for one input outside the trial:
/// two serializations and the layer chain, one span per layer.
void split_launch(const vitis::XModel& model, const img::Image& input,
                  Recorder& rec) {
  for (int i = 0; i < 2; ++i) {
    const Scoped span{rec, kSerialize};
    const std::vector<std::uint8_t> blob = model.serialize();
    if (blob.empty()) throw std::logic_error("traced: empty xmodel");
  }
  const img::Image preprocessed = img::resize_nearest(
      input, model.input_shape().w, model.input_shape().h);
  vitis::Tensor x = vitis::tensor_from_image(preprocessed);
  for (const std::unique_ptr<vitis::Layer>& layer : model.layers()) {
    const Span span = layer->kind() == vitis::LayerKind::kConv2d ? kConv2d
                      : layer->kind() == vitis::LayerKind::kDense ? kDense
                                                                  : kPool;
    const Scoped timed{rec, span};
    x = layer->forward(x);
  }
}

struct CacheCounters {
  std::uint64_t profile_hits = 0, profile_misses = 0;
  std::uint64_t boards_built = 0, boards_reused = 0;

  static CacheCounters now() {
    return {counter_value("cache.profile_hits"),
            counter_value("cache.profile_misses"),
            counter_value("cache.victim_boards_built"),
            counter_value("cache.victim_boards_reused")};
  }
  void add_delta(const CacheCounters& before, const CacheCounters& after) {
    profile_hits += after.profile_hits - before.profile_hits;
    profile_misses += after.profile_misses - before.profile_misses;
    boards_built += after.boards_built - before.boards_built;
    boards_reused += after.boards_reused - before.boards_reused;
  }
};

void write_spans(const std::string& path, const Recorder& rec) {
  std::ofstream out{path};
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& s : rec.spans) {
    out << (first ? "" : ",") << "{\"name\":\"" << kSpanNames[s.span]
        << "\",\"cat\":\"" << (s.span < kTopLevelSpans ? "trial" : "vitis")
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
        << ",\"args\":{\"trial\":" << s.trial << "}}";
    first = false;
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace

std::string outcome_bytes(const attack::ScenarioResult& r) {
  std::string out;
  const attack::AttackReport& a = r.report;
  put_u64(out, static_cast<std::uint64_t>(a.victim_pid));
  put_string(out, a.identified_model);
  put_u64(out, a.signature_hits);
  put_u64(out, a.deep_match.has_value());
  if (a.deep_match) {
    put_string(out, a.deep_match->model_name);
    put_u64(out, a.deep_match->container_offset);
    put_u64(out, a.deep_match->param_bytes);
  }
  put_image(out, a.reconstructed_image);
  put_image(out, a.descriptor_image);
  put_u64(out, a.recovered_scores.has_value());
  if (a.recovered_scores) {
    put_bytes(out, a.recovered_scores->data(),
              a.recovered_scores->size() * sizeof(float));
  }
  put_u64(out, a.devmem_reads);
  put_u64(out, a.residue_bytes);
  put_u64(out, a.pages_unmapped);
  put_string(out, a.transcript);
  put_image(out, r.victim_input);
  put_u64(out, r.victim_top_class);
  put_u64(out, r.denied);
  put_string(out, r.denial_reason);
  put_u64(out, r.model_identified_correctly);
  put_double(out, r.pixel_match);
  put_double(out, r.psnr);
  put_double(out, r.descriptor_pixel_match);
  return out;
}

attack::ScenarioConfig trial_config(const campaign::CampaignCell& cell,
                                    std::uint32_t trial,
                                    std::uint64_t trial_salt) {
  attack::ScenarioConfig cfg = cell.config;
  if (trial > 0) {  // CampaignRunner::score_cell's reseeding
    std::uint64_t stream =
        trial_salt + trial + (static_cast<std::uint64_t>(cell.index) << 32);
    cfg.system.seed ^= util::splitmix64(stream);
    cfg.image_seed ^= util::splitmix64(stream);
  }
  return cfg;
}

attack::ScenarioResult decomposed_trial(const attack::ScenarioConfig& config,
                                        attack::ProfileCache& cache,
                                        std::uint32_t& scraped_crc) {
  Recorder unused;
  return traced_trial(config, cache, unused, &scraped_crc);
}

const std::vector<std::pair<std::string, std::string>>& trial_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"attack.profile_ms", "ms"},     {"os.board_acquire_ms", "ms"},
      {"img.victim_input_ms", "ms"},   {"vitis.launch_ms", "ms"},
      {"attack.find_victim_ms", "ms"}, {"attack.resolve_ms", "ms"},
      {"os.terminate_ms", "ms"},       {"os.scrubber_ms", "ms"},
      {"dram.decay_ms", "ms"},         {"attack.scrape_ms", "ms"},
      {"attack.analyze_ms", "ms"},     {"img.score_ms", "ms"},
      {"os.board_release_ms", "ms"},   {"vitis.serialize_ms", "ms"},
      {"vitis.conv2d_ms", "ms"},       {"vitis.pool_ms", "ms"},
      {"vitis.dense_ms", "ms"},        {"vitis.staging_ms", "ms"},
      {"attack.scraped_bytes_per_trial", "bytes"},
      {"attack.devmem_reads_per_trial", "count"},
      {"cache.profile_hit_ratio", "ratio"},
      {"cache.victim_board_reuse_ratio", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"campaign.scaling_efficiency", "ratio"},
      {"campaign.queue_wait_ns_p99", "ns"}};
  return names;
}

void run_traced(const SweepPlan& plan, const Options& options,
                double untraced_trial_ms_mean, Result& result) {
  campaign::GridBuilder grid = plan.grid;
  const std::vector<campaign::CampaignCell> cells = grid.build();
  std::map<std::string, vitis::XModel> models;
  Recorder rec;
  CacheCounters cache_counters;
  double trial_wall_ms = 0.0;
  double scraped_bytes = 0.0;
  double devmem_reads = 0.0;
  bool all_equal = true;

  const Clock::time_point start = Clock::now();
  while (rec.trial == 0 || seconds_since(start) < 0.5 * options.seconds) {
    // One full pass per iteration with a cold cache, like the untraced
    // passes. The vitis split runs right after each trial, outside its
    // wall time, so both see the machine in the same state; the
    // run_scenario comparison follows the pass.
    std::vector<attack::ScenarioConfig> configs;
    for (const campaign::CampaignCell& cell : cells) {
      for (unsigned trial = 0; trial < plan.trials_per_cell; ++trial) {
        configs.push_back(trial_config(cell, trial, plan.trial_salt));
      }
    }
    std::vector<attack::ScenarioResult> traced;
    traced.reserve(configs.size());
    {
      attack::ProfileCache cache;
      for (const attack::ScenarioConfig& cfg : configs) {
        const CacheCounters before = CacheCounters::now();
        const Clock::time_point t0 = Clock::now();
        traced.push_back(traced_trial(cfg, cache, rec));
        trial_wall_ms += ms_between(t0, Clock::now());
        cache_counters.add_delta(before, CacheCounters::now());
        scraped_bytes += static_cast<double>(traced.back().report.residue_bytes);
        devmem_reads += static_cast<double>(traced.back().report.devmem_reads);
        auto model = models.find(cfg.model_name);
        if (model == models.end()) {
          model = models.emplace(cfg.model_name,
                                 vitis::make_zoo_model(cfg.model_name))
                      .first;
        }
        split_launch(model->second, traced.back().victim_input, rec);
        ++rec.trial;
      }
    }
    attack::ProfileCache reference_cache;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      all_equal = all_equal &&
                  outcome_bytes(traced[i]) ==
                      outcome_bytes(
                          attack::run_scenario(configs[i], &reference_cache));
    }
  }
  result.attempted += rec.trial;

  const double n = rec.trial;
  auto per_trial = [&](Span s) { return rec.total_ms[s] / n; };
  double top_level_ms = 0.0;
  for (int s = 0; s < kTopLevelSpans; ++s) top_level_ms += rec.total_ms[s];
  const double trial_ms = trial_wall_ms / n;
  const double coverage = top_level_ms / trial_wall_ms;
  const double launch = per_trial(kVictimLaunch);
  const double serialize = per_trial(kSerialize);
  const double conv = per_trial(kConv2d);
  const double pool = per_trial(kPool);
  const double dense = per_trial(kDense);

  result.set("attack.profile_ms", per_trial(kProfile), "ms");
  result.set("os.board_acquire_ms", per_trial(kBoardAcquire), "ms");
  result.set("img.victim_input_ms", per_trial(kVictimInput), "ms");
  result.set("vitis.launch_ms", launch, "ms");
  result.set("attack.find_victim_ms", per_trial(kFindVictim), "ms");
  result.set("attack.resolve_ms", per_trial(kResolve), "ms");
  result.set("os.terminate_ms", per_trial(kTerminate), "ms");
  result.set("os.scrubber_ms", per_trial(kScrubber), "ms");
  result.set("dram.decay_ms", per_trial(kDecay), "ms");
  result.set("attack.scrape_ms", per_trial(kScrape), "ms");
  result.set("attack.analyze_ms", per_trial(kAnalyze), "ms");
  result.set("img.score_ms", per_trial(kScore), "ms");
  result.set("os.board_release_ms", per_trial(kBoardRelease), "ms");
  result.set("vitis.serialize_ms", serialize, "ms");
  result.set("vitis.conv2d_ms", conv, "ms");
  result.set("vitis.pool_ms", pool, "ms");
  result.set("vitis.dense_ms", dense, "ms");
  result.set("vitis.staging_ms", launch - serialize - conv - pool - dense,
             "ms");
  result.set("attack.scraped_bytes_per_trial", scraped_bytes / n, "bytes");
  result.set("attack.devmem_reads_per_trial", devmem_reads / n, "count");
  const CacheCounters& c = cache_counters;
  result.set("cache.profile_hit_ratio",
             static_cast<double>(c.profile_hits) /
                 static_cast<double>(c.profile_hits + c.profile_misses),
             "ratio");
  result.set("cache.victim_board_reuse_ratio",
             static_cast<double>(c.boards_reused) /
                 static_cast<double>(c.boards_built + c.boards_reused),
             "ratio");
  result.set("trace.coverage", coverage, "ratio");
  result.set("trace.overhead_ms", trial_ms - untraced_trial_ms_mean, "ms");
  result.info["traced_trials"] = std::to_string(rec.trial);
  result.info["traced_trial_ms_mean"] = std::to_string(trial_ms);

  // Validity of the attribution and of the workload's shape.
  result.check("traced_trials_equal_run_scenario", all_equal);
  result.check("trace_coverage_at_least_0.95", coverage >= 0.95);
  result.check("vitis_split_within_launch",
               launch - serialize - conv - pool - dense >= 0.0);
  if (plan.name == "sweep_default") {
    result.check("default_launch_share_at_least_0.5", launch / trial_ms >= 0.5);
  } else {
    result.check("residue_decay_scrape_share_at_least_0.6",
                 (per_trial(kDecay) + per_trial(kScrape)) / trial_ms >= 0.6);
    result.check("residue_launch_share_at_most_0.2", launch / trial_ms <= 0.2);
  }
  write_spans(options.out_dir + "/" + plan.name + "/spans.json", rec);
}

}  // namespace perfbench
