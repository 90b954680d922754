// Continuous-census daemon economics: what does a watch round cost, and
// what does incremental re-analysis buy on the low-churn rounds the
// longitudinal campaign is made of?
//
// Ten rounds probe the same world with a fixed census seed; from round 2
// on, one deployment prefix toggles a replica site per round (the watch
// daemon's churn model), so each round dirties a handful of rows out of
// thousands. Every round is analyzed twice — a full detection + iGreedy
// sweep and the incremental splice over the dirty rows — and the bench
// asserts the two are element-identical before reporting the speedup.
// Results land in BENCH_daemon.json: per-round wall/CPU for the census
// and both analysis passes, dirty-row counts, and RSS across the rounds
// (the daemon must not accrete memory round over round).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <vector>

#include "common.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/rng/distributions.hpp"

namespace {

using namespace anycast;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
#if defined(__linux__) || defined(__APPLE__)
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::size_t current_rss_kb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kb;
}

/// The watch daemon's churn model, replicated: toggle one replica site of
/// one prefix, drawn purely from (seed, round).
void apply_round_churn(net::SimulatedInternet& internet, std::uint64_t seed,
                       int round) {
  const auto draw = [&](std::uint64_t tag) {
    return rng::hash_uniform01(
        rng::hash_key(seed, static_cast<std::uint64_t>(round), tag));
  };
  const auto deployments = internet.deployments();
  const std::size_t start = static_cast<std::size_t>(
      draw(1) * static_cast<double>(deployments.size()));
  for (std::size_t i = 0; i < deployments.size(); ++i) {
    const std::size_t dep = (start + i) % deployments.size();
    if (deployments[dep].sites.size() < 2 ||
        deployments[dep].prefix_site_masks.empty()) {
      continue;
    }
    const std::size_t prefix = static_cast<std::size_t>(
        draw(2) *
        static_cast<double>(deployments[dep].prefix_site_masks.size()));
    const std::size_t site = static_cast<std::size_t>(
        draw(3) * static_cast<double>(deployments[dep].sites.size()));
    const std::uint64_t mask = deployments[dep].prefix_site_masks[prefix];
    internet.set_prefix_site_mask(dep, prefix,
                                  mask ^ (std::uint64_t{1} << site));
    return;
  }
}

bool same_outcomes(const std::vector<analysis::TargetOutcome>& a,
                   const std::vector<analysis::TargetOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].target_index != b[i].target_index ||
        a[i].slash24_index != b[i].slash24_index ||
        a[i].result.anycast != b[i].result.anycast ||
        a[i].result.replicas.size() != b[i].result.replicas.size()) {
      return false;
    }
  }
  return true;
}

struct RoundCost {
  int round = 0;
  double census_s = 0.0;
  double census_cpu_s = 0.0;
  double full_s = 0.0;
  double incremental_s = 0.0;  // 0 on round 1 (nothing to splice against)
  std::size_t dirty = 0;
  std::size_t anycast = 0;
  std::size_t rss_kb = 0;
};

}  // namespace

int main() {
  constexpr int kRounds = 10;
  constexpr std::uint64_t kChurnSeed = 77;

  net::WorldConfig world_config;
  world_config.seed = 2015;
  world_config.unicast_alive_slash24 = 6000;
  world_config.unicast_dead_slash24 = 2000;
  net::SimulatedInternet internet(world_config);
  const auto vps = net::make_planetlab({.node_count = 120, .seed = 7});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::FastPingConfig fastping;
  fastping.seed = 90;  // fixed across rounds: static rows replay exactly
  concurrency::ThreadPool pool(0);
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());

  bench::print_title(
      "Continuous daemon rounds — census + incremental re-analysis cost");
  std::printf("  %zu targets, %zu VPs, %d rounds, 1 site toggle per round\n",
              hitlist.size(), vps.size(), kRounds);
  std::printf("  %-6s %10s %10s %10s %10s %8s %8s %10s\n", "round",
              "census s", "cpu s", "full s", "incr s", "dirty", "anycast",
              "rss MB");

  census::ShardedCensusMatrix prev;
  std::vector<analysis::TargetOutcome> prev_outcomes;
  std::vector<RoundCost> costs;
  bool identical = true;
  for (int round = 1; round <= kRounds; ++round) {
    if (round >= 2) apply_round_churn(internet, kChurnSeed, round);

    RoundCost cost;
    cost.round = round;
    census::Greylist blacklist;
    const double cpu0 = cpu_seconds();
    auto start = Clock::now();
    census::ShardedCensusMatrix data =
        census::run_census_sharded(internet, vps, hitlist, blacklist,
                                   fastping, {}, nullptr, &pool)
            .data;
    cost.census_s = seconds_since(start);
    cost.census_cpu_s = cpu_seconds() - cpu0;

    start = Clock::now();
    const auto full = analyzer.analyze(data, hitlist, 2, &pool);
    cost.full_s = seconds_since(start);
    cost.anycast = full.size();

    if (round >= 2) {
      start = Clock::now();
      auto incremental = analysis::incremental_analyze(
          analyzer, prev_outcomes, prev, data, hitlist, 2, &pool);
      cost.incremental_s = seconds_since(start);
      cost.dirty = incremental.dirty.size();
      identical = identical && same_outcomes(incremental.outcomes, full);
    }
    cost.rss_kb = current_rss_kb();
    std::printf("  %-6d %10.3f %10.3f %10.3f %10.3f %8zu %8zu %10.1f\n",
                round, cost.census_s, cost.census_cpu_s, cost.full_s,
                cost.incremental_s, cost.dirty, cost.anycast,
                static_cast<double>(cost.rss_kb) / 1024.0);
    costs.push_back(cost);

    prev = std::move(data);
    prev_outcomes = full;
  }

  double full_total = 0.0, incr_total = 0.0;
  for (const RoundCost& cost : costs) {
    if (cost.round >= 2) {
      full_total += cost.full_s;
      incr_total += cost.incremental_s;
    }
  }
  const double speedup = incr_total > 0.0 ? full_total / incr_total : 0.0;
  bench::print_rule();
  std::printf("  incremental vs full (rounds 2-%d): %.1fx  (%s)\n", kRounds,
              speedup,
              identical ? "outcomes element-identical"
                        : "OUTCOMES DIVERGED — INCREMENTAL BUG");
  const double rss_growth =
      static_cast<double>(costs.back().rss_kb) -
      static_cast<double>(costs[1].rss_kb);
  std::printf("  RSS drift rounds 2->%d: %+.1f MB\n", kRounds,
              rss_growth / 1024.0);

  std::FILE* json = std::fopen("BENCH_daemon.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"daemon_rounds\",\n"
                 "  \"targets\": %zu,\n  \"vps\": %zu,\n"
                 "  \"round_count\": %d,\n"
                 "  \"incremental_identical\": %s,\n"
                 "  \"incremental_speedup\": %.2f,\n  \"rounds\": [\n",
                 hitlist.size(), vps.size(), kRounds,
                 identical ? "true" : "false", speedup);
    for (std::size_t i = 0; i < costs.size(); ++i) {
      const RoundCost& cost = costs[i];
      std::fprintf(json,
                   "    {\"round\": %d, \"census_s\": %.6f, "
                   "\"census_cpu_s\": %.6f, \"full_analyze_s\": %.6f, "
                   "\"incremental_s\": %.6f, \"dirty\": %zu, "
                   "\"anycast\": %zu, \"rss_kb\": %zu}%s\n",
                   cost.round, cost.census_s, cost.census_cpu_s, cost.full_s,
                   cost.incremental_s, cost.dirty, cost.anycast, cost.rss_kb,
                   i + 1 < costs.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::printf("  wrote BENCH_daemon.json\n");
  }
  return identical ? 0 : 1;
}
