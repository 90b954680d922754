// Robustness — census recall under injected faults, and checkpoint
// salvage (Sec. 3.5's operational reality, made measurable).
//
// Part 1 sweeps a fault matrix: crash/outage/storm/straggler rates rise
// together from 0% to 50% of VPs while the runner's defences (bounded
// retries, straggler deadline, quarantine) stay fixed. The shape to check
// is *graceful* degradation: detection recall (relative to the fault-free
// census) falls monotonically and without a cliff, because crashed and
// cut-off VPs keep their partial rows and retries win back outage losses.
//
// Part 2 damages checkpoint files the way real uploads break — truncation
// and bit rot — and shows collation salvaging the valid prefixes instead
// of discarding whole files.
#include <filesystem>
#include <fstream>
#include <vector>

#include "anycast/census/resume.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/net/fault.hpp"
#include "common.hpp"

namespace {

namespace fs = std::filesystem;
using namespace anycast;

std::size_t detected_anycast(const census::ShardedCensusMatrix& data,
                             const census::Hitlist& hitlist,
                             std::span<const net::VantagePoint> vps) {
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  return analyzer.analyze(data, hitlist).size();
}

}  // namespace

int main() {
  using namespace anycast::bench;

  net::WorldConfig world_config;
  world_config.seed = 2015;
  world_config.unicast_alive_slash24 = 2500;
  world_config.unicast_silent_slash24 = 2500;
  world_config.unicast_dead_slash24 = 2500;
  const net::SimulatedInternet internet(world_config);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  const auto vps = net::make_planetlab({.node_count = 80, .seed = 9});

  census::FastPingConfig fastping;
  fastping.seed = 1;
  fastping.retry_max_attempts = 2;
  fastping.quarantine_drop_rate = 0.9;
  fastping.vp_deadline_hours =
      3.0 * static_cast<double>(hitlist.size()) / fastping.probe_rate_pps /
      3600.0;

  print_title("Robustness — recall under the fault matrix");
  std::printf("  %zu VPs x %zu targets; retries=2, deadline=3x healthy "
              "walk, quarantine at 90%% drop\n\n",
              vps.size(), hitlist.size());
  std::printf("  %7s %6s %6s %6s %6s %6s %12s %8s\n", "faults", "done",
              "crash", "cut", "quar", "skip", "anycast /24", "recall");

  double baseline = 0.0;
  double previous_recall = 1.0;
  bool monotone = true;
  double worst_step = 0.0;
  double final_recall = 1.0;
  for (const double rate : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    net::FaultSpec spec;
    spec.crash_rate = rate;
    spec.outage_rate = rate;
    spec.storm_rate = rate;
    spec.straggler_rate = rate;
    const net::FaultPlan plan(spec);

    census::Greylist blacklist;
    const census::ShardedCensusOutput output = census::run_census_sharded(
        internet, vps, hitlist, blacklist, fastping, /*plane=*/{},
        rate > 0.0 ? &plan : nullptr);
    const std::size_t detected =
        detected_anycast(output.data, hitlist, vps);
    if (baseline == 0.0) baseline = static_cast<double>(detected);
    const double recall = static_cast<double>(detected) / baseline;

    using census::VpOutcome;
    const census::CensusSummary& s = output.summary;
    std::printf("  %6.0f%% %6zu %6zu %6zu %6zu %6zu %12zu %7.0f%%\n",
                rate * 100.0, s.outcome_count(VpOutcome::kCompleted),
                s.outcome_count(VpOutcome::kCrashed),
                s.outcome_count(VpOutcome::kCutOff),
                s.outcome_count(VpOutcome::kQuarantined),
                s.outcome_count(VpOutcome::kSkipped), detected,
                recall * 100.0);

    // Graceful = monotone within noise, and no single step falls off a
    // cliff. 5% slack absorbs detection jitter near the threshold.
    if (recall > previous_recall + 0.05) monotone = false;
    worst_step = std::max(worst_step, previous_recall - recall);
    previous_recall = recall;
    final_recall = recall;
  }
  std::printf(
      "\n  shape: recall degrades monotonically (worst single step "
      "-%.0f%%),\n  still %.0f%% with every fault hitting half the "
      "platform — partial rows\n  from crashed/cut-off VPs and retry "
      "passes keep the census useful.\n",
      worst_step * 100.0, final_recall * 100.0);

  // --- Part 2: corrupted-checkpoint salvage --------------------------------
  const fs::path dir =
      fs::temp_directory_path() /
      ("anycast_bench_fault_matrix_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  census::Greylist blacklist;
  census::FastPingConfig clean_config;
  clean_config.seed = 1;
  census::resume_census_sharded(internet, vps, hitlist, blacklist,
                                clean_config, dir, /*census_id=*/7);

  std::vector<fs::path> files;
  for (const net::VantagePoint& vp : vps) {
    files.push_back(census::census_checkpoint_path(dir, 7, vp.id));
  }
  // Break every 8th upload: truncate most, bit-flip one, destroy one.
  std::size_t damaged = 0;
  for (std::size_t i = 0; i < files.size(); i += 8, ++damaged) {
    if (i == 8) {
      std::fstream file(files[i],
                        std::ios::in | std::ios::out | std::ios::binary);
      file.seekp(200);
      file.put('\x7F');
    } else if (i == 16) {
      std::ofstream(files[i], std::ios::binary) << "lost to the void";
    } else {
      fs::resize_file(files[i], fs::file_size(files[i]) / 3);
    }
  }

  census::CollateStats salvage_stats;
  const census::ShardedCensusMatrix salvaged =
      census::collate_census_files_sharded(files, hitlist.size(), {},
                                           &salvage_stats);
  census::CollateStats strict_stats;
  const census::ShardedCensusMatrix strict =
      census::collate_census_files_sharded(files, hitlist.size(), {},
                                           &strict_stats, /*salvage=*/false);
  const std::size_t strict_skipped = strict_stats.files_skipped;

  print_subtitle("corrupted-checkpoint salvage");
  std::printf("  damaged %zu of %zu uploads (truncated, bit-flipped, "
              "destroyed)\n",
              damaged, files.size());
  std::printf("  strict collation:  %zu files dropped whole\n",
              strict_skipped);
  std::printf("  salvage collation: %zu intact, %zu salvaged, %zu "
              "skipped; %s rows kept\n",
              salvage_stats.files_ok, salvage_stats.files_salvaged,
              salvage_stats.files_skipped,
              fmt_int(salvage_stats.observations).c_str());
  const std::size_t strict_detected = detected_anycast(strict, hitlist, vps);
  const std::size_t salvage_detected =
      detected_anycast(salvaged, hitlist, vps);
  std::printf("  anycast /24 detected: %zu strict vs %zu salvaged "
              "(baseline %.0f)\n",
              strict_detected, salvage_detected, baseline);
  fs::remove_all(dir);

  const bool salvage_helps = salvage_detected >= strict_detected &&
                             salvage_stats.files_salvaged > 0;
  return (monotone && final_recall > 0.3 && worst_step < 0.5 &&
          salvage_helps)
             ? 0
             : 1;
}
