// Full census walkthrough: the paper's complete workflow (Fig. 1) in one
// program — build the world, run multiple censuses from a PlanetLab-like
// platform with greylisting, combine them by per-pair minimum RTT, run the
// iGreedy analysis, and print the characterisation summary.
#include <cstdio>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

int main() {
  using namespace anycast;

  // 1. Measurement substrate: a 1:300-scale Internet (full anycast
  //    population, sampled unicast background).
  net::WorldConfig world_config;
  world_config.seed = 7;
  world_config.unicast_alive_slash24 = 9000;
  world_config.unicast_silent_slash24 = 10000;
  world_config.unicast_dead_slash24 = 10000;
  const net::SimulatedInternet internet(world_config);
  const auto vps = net::make_planetlab({.node_count = 200, .seed = 8});
  std::printf("world: %zu routed /24, %zu anycast deployments; %zu VPs\n",
              internet.targets().size(), internet.deployments().size(),
              vps.size());

  // 2. Hitlist: one representative per routed /24, dead space dropped.
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  std::printf("hitlist: %zu probed targets\n", hitlist.size());

  // 3. Censuses: each VP pings every target in LFSR order; ICMP
  //    prohibitions feed the greylist, merged into the blacklist between
  //    censuses. One pool drives every VP walk and the analysis sweep;
  //    output is identical for any thread count (merge order is fixed).
  concurrency::ThreadPool pool;  // one lane per core
  census::Greylist blacklist;
  census::ShardedCensusMatrix combined(hitlist.size(), /*plane=*/{});
  for (int c = 0; c < 3; ++c) {
    census::FastPingConfig fastping;
    fastping.seed = 100 + static_cast<std::uint64_t>(c);
    const census::ShardedCensusOutput output = census::run_census_sharded(
        internet, vps, hitlist, blacklist, fastping, /*plane=*/{},
        /*faults=*/nullptr, &pool);
    std::printf(
        "census %d: %llu probes, %llu replies, %llu errors (%zu newly "
        "greylisted)\n",
        c + 1,
        static_cast<unsigned long long>(output.summary.probes_sent),
        static_cast<unsigned long long>(output.summary.echo_replies),
        static_cast<unsigned long long>(output.summary.errors),
        output.summary.greylist_new);
    combined.combine_min(output.data);
  }

  // 4. Analysis: speed-of-light detection, then iGreedy enumeration and
  //    geolocation per detected /24.
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const analysis::CensusReport report(
      internet, analyzer.analyze(combined, hitlist, /*min_vps=*/2, &pool));

  // 5. Characterisation: the Fig. 10-style summary.
  const analysis::GlanceRow all = report.glance_all();
  std::printf("\nanycast found: %zu /24 in %zu ASes, %llu replicas across "
              "%zu cities in %zu countries\n",
              all.ip24, all.ases,
              static_cast<unsigned long long>(all.replicas), all.cities,
              all.countries);

  std::printf("\ntop-10 ASes by geographic footprint:\n");
  const auto ases = report.ases();
  for (std::size_t i = 0; i < 10 && i < ases.size(); ++i) {
    std::printf("  %2zu. %-18s %-8s mean %.1f replicas over %zu /24\n",
                i + 1, ases[i].deployment->whois_name.c_str(),
                std::string(net::to_string(ases[i].deployment->category))
                    .c_str(),
                ases[i].mean_replicas, ases[i].detected_ip24);
  }
  return all.ip24 > 0 ? 0 : 1;
}
