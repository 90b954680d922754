// End-to-end pipeline tests: world -> censuses -> combination -> analysis
// -> report, plus failure injection (VP geolocation error, overdriven
// prober). These exercise the same code path as the Fig. 10/12 benches at
// a smaller scale.
#include <gtest/gtest.h>

#include <set>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/report.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"

namespace anycast {
namespace {

net::WorldConfig world_config() {
  net::WorldConfig config;
  config.seed = 61;
  config.unicast_alive_slash24 = 500;
  config.unicast_dead_slash24 = 300;
  return config;
}

struct MultiCensus {
  net::SimulatedInternet internet{world_config()};
  std::vector<net::VantagePoint> vps =
      net::make_planetlab({.node_count = 100, .seed = 62});
  census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  std::vector<census::ShardedCensusMatrix> censuses;
  census::ShardedCensusMatrix combined;
  census::Greylist blacklist;

  MultiCensus() {
    combined = census::ShardedCensusMatrix(hitlist.size(), {});
    for (int c = 0; c < 3; ++c) {
      census::FastPingConfig config;
      config.seed = 100 + static_cast<std::uint64_t>(c);
      censuses.push_back(
          run_census_sharded(internet, vps, hitlist, blacklist, config).data);
      combined.combine_min(censuses.back());
    }
  }
};

const MultiCensus& multi() {
  static const MultiCensus instance;
  return instance;
}

std::size_t anycast_count(const census::ShardedCensusMatrix& data) {
  const analysis::CensusAnalyzer analyzer(multi().vps, geo::world_index());
  return analyzer.analyze(data, multi().hitlist).size();
}

TEST(Integration, CombinationNeverLosesMeasurements) {
  for (std::uint32_t t = 0; t < multi().combined.target_count(); t += 13) {
    for (const census::ShardedCensusMatrix& single : multi().censuses) {
      EXPECT_GE(multi().combined.measurements(t).size(),
                single.measurements(t).size());
    }
  }
}

TEST(Integration, CombinationRttIsPointwiseMinimum) {
  for (std::uint32_t t = 0; t < multi().combined.target_count(); t += 29) {
    const auto combined_row = multi().combined.measurements(t);
    for (const census::VpRtt& sample : combined_row) {
      float expected = 1e30F;
      for (const census::ShardedCensusMatrix& single : multi().censuses) {
        for (const census::VpRtt& other : single.measurements(t)) {
          if (other.vp == sample.vp) expected = std::min(expected,
                                                         other.rtt_ms);
        }
      }
      EXPECT_FLOAT_EQ(sample.rtt_ms, expected);
    }
  }
}

TEST(Integration, CombinationFindsAtLeastAsManyAnycastPrefixes) {
  // Fig. 12: combining censuses raises detection recall.
  const std::size_t combined_count = anycast_count(multi().combined);
  for (const census::ShardedCensusMatrix& single : multi().censuses) {
    EXPECT_GE(combined_count, anycast_count(single));
  }
}

TEST(Integration, IndividualCensusesAreConsistent) {
  // "Results are quite consistent across censuses" (Sec. 4.1): per-census
  // anycast counts differ by at most ~10%.
  std::vector<std::size_t> counts;
  for (const census::ShardedCensusMatrix& single : multi().censuses) {
    counts.push_back(anycast_count(single));
  }
  const auto [min_it, max_it] =
      std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(static_cast<double>(*max_it - *min_it),
            0.12 * static_cast<double>(*max_it));
}

TEST(Integration, NoFalsePositivesWithAccurateVpLocations) {
  const analysis::CensusAnalyzer analyzer(multi().vps, geo::world_index());
  const auto outcomes = analyzer.analyze(multi().combined, multi().hitlist);
  for (const analysis::TargetOutcome& outcome : outcomes) {
    const net::TargetInfo* info = multi().internet.target_for(
        ipaddr::IPv4Address::from_slash24_index(outcome.slash24_index, 1));
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->kind, net::TargetInfo::Kind::kAnycast)
        << "false positive on /24 " << outcome.slash24_index;
  }
}

TEST(Integration, WrongVpGeolocationCreatesFalsePositives) {
  // Failure injection for the Sec. 4.2 caveat: two-replica detections "could
  // be tied to the wrong geolocation of some VP raising false positives".
  // Corrupt the believed locations heavily and count unicast detections.
  auto corrupted = multi().vps;
  for (std::size_t i = 0; i < corrupted.size(); i += 3) {
    corrupted[i].believed_location = geodesy::destination(
        corrupted[i].location, static_cast<double>(i * 37 % 360), 6000.0);
  }
  const analysis::CensusAnalyzer analyzer(corrupted, geo::world_index());
  const auto outcomes = analyzer.analyze(multi().combined, multi().hitlist);
  std::size_t false_positives = 0;
  for (const analysis::TargetOutcome& outcome : outcomes) {
    const net::TargetInfo* info = multi().internet.target_for(
        ipaddr::IPv4Address::from_slash24_index(outcome.slash24_index, 1));
    if (info->kind != net::TargetInfo::Kind::kAnycast) ++false_positives;
  }
  EXPECT_GT(false_positives, 0u);
}

TEST(Integration, GreylistOnlyGrowsAndStabilizes) {
  // After the first census the offending targets are blacklisted; further
  // censuses add nothing (same world, same offenders).
  net::SimulatedInternet internet(world_config());
  const auto vps = net::make_planetlab({.node_count = 5, .seed = 63});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::Greylist blacklist;
  census::FastPingConfig config;
  const auto first =
      run_census_sharded(internet, vps, hitlist, blacklist, config);
  const std::size_t after_first = blacklist.size();
  const auto second =
      run_census_sharded(internet, vps, hitlist, blacklist, config);
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(blacklist.size(), after_first);
  EXPECT_EQ(second.summary.greylist_new, 0u);
}

TEST(Integration, ReportFromCombinedCensusHasPaperShape) {
  const analysis::CensusAnalyzer analyzer(multi().vps, geo::world_index());
  const analysis::CensusReport report(
      multi().internet, analyzer.analyze(multi().combined, multi().hitlist));
  const analysis::GlanceRow all = report.glance_all();
  // With 100 VPs on a small world we still find the bulk of the anycast
  // population (1,696 true anycast /24s).
  EXPECT_GT(all.ip24, 1100u);
  EXPECT_LE(all.ip24, 1696u);
  EXPECT_GT(all.ases, 215u);
  EXPECT_LE(all.ases, 346u);
  // Mean footprint O(10) replicas (Sec. 1).
  EXPECT_GT(all.replicas, 4 * all.ip24);
  EXPECT_LT(all.replicas, 40 * all.ip24);
}

TEST(Integration, BinaryRecordsSurviveCensusRoundTrip) {
  // A VP's observation stream encodes to the binary format and back
  // without losing the analysis-relevant content.
  net::SimulatedInternet internet(world_config());
  const auto vps = net::make_planetlab({.node_count = 1, .seed = 64});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  census::Greylist blacklist;
  census::Greylist greylist;
  const census::FastPingResult result = census::run_fastping(
      internet, vps[0], hitlist, blacklist, greylist,
      census::FastPingConfig{});
  const auto decoded =
      census::decode_binary(census::encode_binary(result.observations));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), result.observations.size());
  for (std::size_t i = 0; i < decoded->size(); ++i) {
    EXPECT_EQ((*decoded)[i].kind, result.observations[i].kind);
    EXPECT_EQ((*decoded)[i].target_index,
              result.observations[i].target_index);
  }
}

TEST(Integration, OverdrivenCensusDetectsFewerPrefixes) {
  // The probing-rate lesson end-to-end: 10k pps loses replies near
  // overdriven VPs, which costs detection recall vs the slowed-down rate.
  net::SimulatedInternet internet(world_config());
  const auto vps = net::make_planetlab({.node_count = 60, .seed = 65});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());

  census::FastPingConfig slow;
  slow.probe_rate_pps = 1000.0;
  census::FastPingConfig fast = slow;
  fast.probe_rate_pps = 10000.0;

  census::Greylist blacklist_slow;
  census::Greylist blacklist_fast;
  const auto slow_data =
      run_census_sharded(internet, vps, hitlist, blacklist_slow, slow).data;
  const auto fast_data =
      run_census_sharded(internet, vps, hitlist, blacklist_fast, fast).data;
  const auto slow_outcomes = analyzer.analyze(slow_data, hitlist);
  const auto fast_outcomes = analyzer.analyze(fast_data, hitlist);
  // Reply volume drops measurably at 10k pps...
  const auto total_measurements = [](const census::ShardedCensusMatrix& data) {
    std::uint64_t total = 0;
    for (std::uint32_t t = 0; t < data.target_count(); ++t) {
      total += data.measurements(t).size();
    }
    return total;
  };
  EXPECT_LT(total_measurements(fast_data),
            0.95 * static_cast<double>(total_measurements(slow_data)));
  // ...which can only hurt detection and enumeration.
  EXPECT_GE(slow_outcomes.size(), fast_outcomes.size());
  std::uint64_t slow_replicas = 0;
  std::uint64_t fast_replicas = 0;
  for (const auto& outcome : slow_outcomes) {
    slow_replicas += outcome.result.replicas.size();
  }
  for (const auto& outcome : fast_outcomes) {
    fast_replicas += outcome.result.replicas.size();
  }
  EXPECT_GT(slow_replicas, fast_replicas);
}

}  // namespace
}  // namespace anycast
