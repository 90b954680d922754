// Sec. 3.2 — why existing public datasets don't support an anycast census.
//
// CAIDA Archipelago probes every /24 every 2-3 days, but its VPs are split
// into three clusters, each probing a RANDOM address in each /24 (hit rate
// ~6%), so at most 3 monitors target a /24 — with generally different IPs.
// The bench emulates that measurement pattern against the simulated world
// and contrasts it with the census pattern (all VPs x one representative):
// Archipelago-style data detects almost no anycast and can't map
// footprints even when it hits.
#include "anycast/rng/distributions.hpp"
#include "common.hpp"

int main() {
  using namespace anycast;
  using namespace anycast::bench;

  net::WorldConfig world_config;
  world_config.seed = 2015;
  world_config.unicast_alive_slash24 = 3000;
  world_config.unicast_silent_slash24 = 3000;
  world_config.unicast_dead_slash24 = 3000;
  const net::SimulatedInternet internet(world_config);
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  const auto vps = net::make_planetlab({.node_count = 120, .seed = 32});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());

  // --- Archipelago pattern: 3 clusters, one random-IP probe per /24 each.
  // A random IP hits an alive host with ~6% probability.
  constexpr double kArkHitRate = 0.06;
  constexpr int kClusters = 3;
  rng::Xoshiro256 gen(7);
  census::ShardedCensusMatrixBuilder ark_builder(hitlist.size());
  std::uint64_t ark_probes = 0;
  std::uint64_t ark_hits = 0;
  for (std::uint32_t t = 0; t < hitlist.size(); ++t) {
    for (int cluster = 0; cluster < kClusters; ++cluster) {
      // One monitor per cluster targets this /24 this cycle.
      const net::VantagePoint& vp =
          vps[static_cast<std::size_t>(cluster) * vps.size() / kClusters];
      ++ark_probes;
      if (!rng::bernoulli(gen, kArkHitRate)) continue;  // random-IP miss
      const auto reply = internet.probe(vp, hitlist[t].representative,
                                        net::Protocol::kIcmpEcho, gen);
      if (reply.kind == net::ReplyKind::kEchoReply) {
        ++ark_hits;
        ark_builder.add(t, static_cast<std::uint16_t>(vp.id),
                        static_cast<float>(reply.rtt_ms));
      }
    }
  }
  const census::ShardedCensusMatrix ark_data = ark_builder.build();
  const auto ark_outcomes = analyzer.analyze(ark_data, hitlist);

  // --- Census pattern: every VP probes the representative of every /24.
  census::Greylist blacklist;
  census::FastPingConfig fastping;
  fastping.seed = 8;
  const auto census_output = census::run_census_sharded(
      internet, vps, hitlist, blacklist, fastping);
  const auto census_outcomes = analyzer.analyze(census_output.data, hitlist);

  print_title("Sec. 3.2 — Archipelago-style dataset vs dedicated census");
  std::printf("  %-38s %16s %16s\n", "metric", "Archipelago", "census");
  print_compare("probes per /24", "3 (max)",
                std::to_string(vps.size()));
  print_compare("hit rate", fmt_pct(static_cast<double>(ark_hits) /
                                    static_cast<double>(ark_probes), 1),
                "~45% (alive targets)");
  print_compare("targets with >=2 usable RTTs",
                fmt_int(ark_data.responsive_targets(2)),
                fmt_int(census_output.data.responsive_targets(2)));
  print_compare("anycast /24 detected", fmt_int(ark_outcomes.size()),
                fmt_int(census_outcomes.size()));
  std::printf(
      "\n  paper: 'such dataset is not appropriate for our purpose, as it\n"
      "  would not lead to a complete census, nor to an accurate\n"
      "  geolocation footprint even in case of hits' (Sec. 3.2).\n");
  return ark_outcomes.size() * 10 < census_outcomes.size() ? 0 : 1;
}
