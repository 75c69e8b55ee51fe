// Ablation — trial hot path, broken down by pipeline stage. Runs the
// end-to-end scenario under the obs span recorder and reports the mean
// wall time of each traced stage (profile, residue_decay, scrape,
// reconstruct, score) as benchmark counters, so the CI JSON artifact
// (BENCH_trial_hotpath.json) carries a per-stage breakdown a plain
// end-to-end number hides: a scrape regression and a scoring regression
// look identical from the outside, but not here. The untraced twin of
// the same loop pins the cost of the tracing gate itself.
//
// Those two run on the test_small fixture. BM_VictimBoardAcquire times
// the board reboot every pooled trial starts with at production shape
// (ZCU104, 512 MiB frame pool), where the fixture understates it.
#include "bench_common.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "attack/profile_cache.h"
#include "obs/trace.h"

namespace {

using namespace msa;

/// One representative success cell: baseline defense, 5 simulated
/// seconds of scrubber+decay between termination and scrape, so every
/// traced stage (including residue_decay) appears in the breakdown.
attack::ScenarioConfig hotpath_config() {
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::test_small();
  cfg.image_width = 48;
  cfg.image_height = 48;
  cfg.attack_delay_s = 5.0;
  cfg.scrubber_bytes_per_s = 512.0 * 1024;
  return cfg;
}

void print_intro() {
  bench::print_header("Abl. trial hotpath",
                      "per-stage time breakdown from trace spans");
  std::puts("TrialTraced: one cached-profile trial per iteration with the");
  std::puts("span recorder on; stage_<name>_ms counters are the mean span");
  std::puts("duration per stage, aggregated from the trace rings.");
  std::puts("TrialUntraced: the identical loop with tracing disabled — the");
  std::puts("pair bounds the recorder's own overhead on the hot path.");
  std::puts("VictimBoardAcquire: VictimBoardPool::acquire of a parked ZCU104");
  std::puts("board, idle (launched:0) or after one resnet50_pt launch");
  std::puts("(launched:1); only the acquire is timed.\n");
}

void BM_TrialTraced(benchmark::State& state) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config();
  (void)attack::run_scenario(cfg, &cache);  // warm the profile cache

  obs::Trace::enable(/*per_thread_capacity=*/std::size_t{1} << 20);
  obs::Trace::clear();
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_scenario(cfg, &cache));
  }
  obs::Trace::disable();

  // Mean duration per stage occurrence. Dividing each stage by its own
  // span count (not by iterations) keeps the numbers honest even if a
  // ring wrapped and dropped the oldest spans.
  struct Stage {
    std::uint64_t total_ns = 0;
    std::uint64_t spans = 0;
  };
  std::map<std::string, Stage> stages;
  for (const obs::ThreadTrace& thread : obs::Trace::snapshot()) {
    for (const obs::TraceSpan& span : thread.spans) {
      if (std::string_view{span.category} != "trial") continue;
      Stage& stage = stages[span.name];
      stage.total_ns += span.dur_ns;
      stage.spans += 1;
    }
  }
  obs::Trace::clear();
  for (const auto& [name, stage] : stages) {
    state.counters["stage_" + name + "_ms"] = benchmark::Counter(
        static_cast<double>(stage.total_ns) / 1e6 /
        static_cast<double>(stage.spans));
  }
}
BENCHMARK(BM_TrialTraced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_TrialUntraced(benchmark::State& state) {
  attack::ProfileCache cache;
  const attack::ScenarioConfig cfg = hotpath_config();
  (void)attack::run_scenario(cfg, &cache);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::run_scenario(cfg, &cache));
  }
}
BENCHMARK(BM_TrialUntraced)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_VictimBoardAcquire(benchmark::State& state) {
  const bool launched = state.range(0) != 0;
  attack::ScenarioConfig cfg;
  cfg.system = os::SystemConfig::zcu104();
  const img::Image input = attack::make_victim_input(cfg);
  attack::VictimBoardPool pool;
  pool.release(cfg, pool.acquire(cfg));  // park one board
  for (auto _ : state) {
    if (launched) {
      auto board = pool.acquire(cfg);
      board->system.add_user(cfg.victim_uid, "victim");
      (void)board->runtime.launch(cfg.victim_uid, cfg.model_name, input,
                                  "pts/1");
      pool.release(cfg, std::move(board));
    }
    const auto start = std::chrono::steady_clock::now();
    auto board = pool.acquire(cfg);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    pool.release(cfg, std::move(board));
  }
}
BENCHMARK(BM_VictimBoardAcquire)
    ->ArgName("launched")
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();
// The untimed launch dominates wall time; a fixed count keeps the case
// from running thousands of inferences to fill the minimum timed window.
BENCHMARK(BM_VictimBoardAcquire)
    ->ArgName("launched")
    ->Arg(1)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond)
    ->UseManualTime();

}  // namespace

MSA_BENCH_MAIN(print_intro)
