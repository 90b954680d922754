#include <gtest/gtest.h>

#include "anycast/analysis/hijack.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace anycast::analysis {
namespace {

struct Setup {
  net::SimulatedInternet internet;
  std::vector<net::VantagePoint> vps;
  census::Hitlist hitlist;
  census::ShardedCensusMatrix reference;

  Setup()
      : internet([] {
          net::WorldConfig config;
          config.seed = 101;
          config.unicast_alive_slash24 = 400;
          config.unicast_dead_slash24 = 100;
          config.prohibited_fraction = 0.0;
          return config;
        }()),
        vps(net::make_planetlab({.node_count = 60, .seed = 102})),
        hitlist(census::Hitlist::from_world(internet).without_dead()) {
    census::Greylist blacklist;
    census::FastPingConfig config;
    config.seed = 103;
    reference =
        run_census_sharded(internet, vps, hitlist, blacklist, config).data;
  }
};

const Setup& setup() {
  static const Setup instance;
  return instance;
}

/// Index of a reference-unicast target that is far from the impostor and
/// has a vantage point nearby (so both the true and the hijacked origin
/// produce tight disks — the detectable configuration).
std::uint32_t pick_unicast_target(const geodesy::GeoPoint& impostor) {
  for (std::uint32_t t = 0; t < setup().hitlist.size(); ++t) {
    const net::TargetInfo* info = setup().internet.target_for(
        setup().hitlist[t].representative);
    if (info->kind != net::TargetInfo::Kind::kUnicast || !info->alive ||
        setup().reference.measurements(t).size() < 20) {
      continue;
    }
    if (geodesy::distance_km(info->unicast_location, impostor) < 6000.0) {
      continue;
    }
    for (const net::VantagePoint& vp : setup().vps) {
      if (geodesy::distance_km(vp.location, info->unicast_location) <
          600.0) {
        return t;
      }
    }
  }
  ADD_FAILURE() << "no suitable unicast target found";
  return 0;
}

TEST(HijackMonitor, ReferenceLearnsOnlyUnicastPrefixes) {
  HijackMonitor monitor(setup().vps, geo::world_index());
  monitor.set_reference(setup().reference, setup().hitlist);
  EXPECT_GT(monitor.monitored_prefixes(), 200u);
  // Anycast prefixes are excluded from the watchlist: re-scanning the
  // reference itself raises no alarms.
  const auto alarms = monitor.scan(setup().reference, setup().hitlist);
  EXPECT_TRUE(alarms.empty());
}

TEST(HijackMonitor, SplicedHijackRaisesAlarmAndGeolocatesImpostor) {
  HijackMonitor monitor(setup().vps, geo::world_index());
  monitor.set_reference(setup().reference, setup().hitlist);

  // A regional hijack attracts the networks NEAR the impostor: every VP
  // within 4,000 km of Tokyo now reaches the impostor instead of the
  // victim (rebuild the row rather than min-merging — a hijacked path
  // replaces the real one).
  const geo::City* tokyo = geo::world_index().by_name("Tokyo");
  const std::uint32_t victim = pick_unicast_target(tokyo->location());
  census::ShardedCensusMatrixBuilder hijack_builder(setup().hitlist.size());
  for (std::uint32_t t = 0; t < setup().hitlist.size(); ++t) {
    for (const census::VpRtt& sample : setup().reference.measurements(t)) {
      const bool diverted =
          geodesy::distance_km(setup().vps[sample.vp].location,
                               tokyo->location()) < 4000.0;
      if (t == victim && diverted) {
        const double km = geodesy::distance_km(
            setup().vps[sample.vp].location, tokyo->location());
        hijack_builder.add(t, sample.vp,
                           static_cast<float>(
                               geodesy::distance_to_min_rtt_ms(km) * 1.2 +
                               0.5));
      } else {
        hijack_builder.add(t, sample.vp, sample.rtt_ms);
      }
    }
  }
  const census::ShardedCensusMatrix hijacked = hijack_builder.build();

  const auto alarms = monitor.scan(hijacked, setup().hitlist);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].target_index, victim);
  EXPECT_TRUE(alarms[0].result.anycast);
  // One of the apparent origins is near the impostor.
  bool impostor_located = false;
  for (const core::Replica& replica : alarms[0].result.replicas) {
    if (geodesy::distance_km(replica.location, tokyo->location()) < 800.0) {
      impostor_located = true;
    }
  }
  EXPECT_TRUE(impostor_located);
}

TEST(HijackMonitor, EmptyReferenceMonitorsNothing) {
  HijackMonitor monitor(setup().vps, geo::world_index());
  EXPECT_EQ(monitor.monitored_prefixes(), 0u);
  EXPECT_TRUE(monitor.scan(setup().reference, setup().hitlist).empty());
}

}  // namespace
}  // namespace anycast::analysis
