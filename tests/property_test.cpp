// Cross-cutting randomized invariants of the whole pipeline. Each property
// is something the paper's methodology quietly relies on; violations would
// invalidate the census semantics rather than just a number.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/record.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/core/igreedy.hpp"
#include "anycast/geo/city_data.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/rng/distributions.hpp"

namespace anycast {
namespace {

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<core::Measurement> random_anycast_measurements(
    rng::Xoshiro256& gen, std::size_t vp_count, int replica_count) {
  const auto cities = geo::world_cities();
  std::vector<geodesy::GeoPoint> replicas;
  for (int i = 0; i < replica_count; ++i) {
    replicas.push_back(
        cities[rng::uniform_index(gen, 150)].location());
  }
  std::vector<core::Measurement> out;
  for (std::uint32_t v = 0; v < vp_count; ++v) {
    const geodesy::GeoPoint vp =
        cities[rng::uniform_index(gen, 400)].location();
    double best = 1e18;
    for (const geodesy::GeoPoint& replica : replicas) {
      const double rtt =
          geodesy::distance_to_min_rtt_ms(geodesy::distance_km(vp, replica)) *
              rng::uniform(gen, 1.0, 1.6) +
          rng::exponential(gen, 1.0);
      best = std::min(best, rtt);
    }
    out.push_back(core::Measurement{v, vp, best});
  }
  return out;
}

TEST_P(PipelineProperty, DetectionIsMonotoneInMeasurementSubsets) {
  // Removing measurements can only lose speed-of-light violations: if a
  // subset detects anycast, every superset must too.
  rng::Xoshiro256 gen(GetParam());
  const auto full = random_anycast_measurements(gen, 24, 4);
  std::vector<core::Measurement> subset(full.begin(),
                                        full.begin() + full.size() / 2);
  if (core::IGreedy::detect(subset)) {
    EXPECT_TRUE(core::IGreedy::detect(full));
  }
}

TEST_P(PipelineProperty, ClassifiedReplicasLieInsideTheirDisks) {
  // The geolocated city is evidence for the replica only if it is a
  // feasible location, i.e. inside the latency disk that isolated it.
  rng::Xoshiro256 gen(GetParam() ^ 0xABCD);
  const auto measurements = random_anycast_measurements(gen, 30, 5);
  const core::IGreedy igreedy(geo::world_index());
  const core::Result result = igreedy.analyze(measurements);
  for (const core::Replica& replica : result.replicas) {
    if (replica.city != nullptr) {
      EXPECT_TRUE(replica.disk.contains(replica.location))
          << replica.city->display();
    } else {
      EXPECT_EQ(replica.location, replica.disk.center());
    }
  }
}

TEST_P(PipelineProperty, FirstRoundNeverExceedsFinalCount) {
  rng::Xoshiro256 gen(GetParam() ^ 0x1234);
  const auto measurements = random_anycast_measurements(gen, 28, 6);
  const core::IGreedy igreedy(geo::world_index());
  const core::Result result = igreedy.analyze(measurements);
  EXPECT_LE(result.first_round_replicas, result.replicas.size());
}

TEST_P(PipelineProperty, AnalysisIsDeterministic) {
  rng::Xoshiro256 gen(GetParam() ^ 0x5678);
  const auto measurements = random_anycast_measurements(gen, 20, 4);
  const core::IGreedy igreedy(geo::world_index());
  const core::Result a = igreedy.analyze(measurements);
  const core::Result b = igreedy.analyze(measurements);
  EXPECT_EQ(a.anycast, b.anycast);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].city, b.replicas[i].city);
    EXPECT_EQ(a.replicas[i].vp_id, b.replicas[i].vp_id);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(CombineProperty, OrderOfCombinationIsIrrelevant) {
  // combine_min must be commutative and associative over censuses — the
  // paper combines four censuses without caring about order.
  net::WorldConfig config;
  config.seed = 71;
  config.unicast_alive_slash24 = 200;
  config.unicast_dead_slash24 = 100;
  const net::SimulatedInternet internet(config);
  const auto vps = net::make_planetlab({.node_count = 15, .seed = 72});
  const census::Hitlist hitlist =
      census::Hitlist::from_world(internet).without_dead();

  std::vector<census::ShardedCensusMatrix> runs;
  for (int c = 0; c < 3; ++c) {
    census::Greylist blacklist;
    census::FastPingConfig fastping;
    fastping.seed = 300 + static_cast<std::uint64_t>(c);
    runs.push_back(
        run_census_sharded(internet, vps, hitlist, blacklist, fastping).data);
  }

  census::ShardedCensusMatrix forward(hitlist.size(), {});
  for (const auto& run : runs) forward.combine_min(run);
  census::ShardedCensusMatrix backward(hitlist.size(), {});
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    backward.combine_min(*it);
  }
  for (std::uint32_t t = 0; t < hitlist.size(); ++t) {
    const auto a = forward.measurements(t);
    const auto b = backward.measurements(t);
    ASSERT_EQ(a.size(), b.size()) << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].vp, b[i].vp);
      EXPECT_FLOAT_EQ(a[i].rtt_ms, b[i].rtt_ms);
    }
  }
}

// --- Salvage decoder robustness ----------------------------------------------

std::vector<census::Observation> random_observations(rng::Xoshiro256& gen,
                                                     std::size_t count) {
  std::vector<census::Observation> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    census::Observation obs;
    obs.target_index =
        static_cast<std::uint32_t>(rng::uniform_index(gen, 0xFFFFFF));
    obs.time_s = rng::uniform(gen, 0.0, 20000.0);
    const std::size_t kind = rng::uniform_index(gen, 5);
    switch (kind) {
      case 0: obs.kind = net::ReplyKind::kTimeout; break;
      case 1: obs.kind = net::ReplyKind::kNetProhibited; break;
      case 2: obs.kind = net::ReplyKind::kHostProhibited; break;
      case 3: obs.kind = net::ReplyKind::kAdminProhibited; break;
      default:
        obs.kind = net::ReplyKind::kEchoReply;
        obs.rtt_ms = rng::uniform(gen, 0.1, 700.0);
        break;
    }
    out.push_back(obs);
  }
  return out;
}

void expect_observation_prefix(const std::vector<census::Observation>& got,
                               const std::vector<census::Observation>& full) {
  ASSERT_LE(got.size(), full.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].target_index, full[i].target_index) << i;
    EXPECT_EQ(got[i].kind, full[i].kind) << i;
  }
}

TEST_P(PipelineProperty, SalvageDecoderSurvivesRandomTruncation) {
  // Chop an encoded stream anywhere: decode_binary_prefix must never
  // crash, never exceed the declared count, and always return an exact
  // record-for-record prefix of the intact decode.
  rng::Xoshiro256 gen(GetParam() ^ 0x9A17);
  const auto stream =
      random_observations(gen, 50 + rng::uniform_index(gen, 200));
  const auto bytes = census::encode_binary(stream);
  const auto intact = census::decode_binary(bytes);
  ASSERT_TRUE(intact.has_value());
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t keep = rng::uniform_index(gen, bytes.size() + 1);
    std::size_t declared = 0;
    const auto salvaged = census::decode_binary_prefix(
        std::span<const std::uint8_t>(bytes.data(), keep), &declared);
    if (keep < 8) {
      // Not even a payload header left.
      EXPECT_FALSE(salvaged.has_value());
      continue;
    }
    ASSERT_TRUE(salvaged.has_value());
    EXPECT_EQ(declared, stream.size());
    EXPECT_LE(salvaged->size(), declared);
    EXPECT_EQ(salvaged->size(), (keep - 8) / 6);  // every whole record
    expect_observation_prefix(*salvaged, *intact);
  }
}

TEST_P(PipelineProperty, SalvageDecoderSurvivesRandomBitFlips) {
  // Flip random payload bits: never a crash, never more than the declared
  // count, and records before the first damaged byte still decode
  // verbatim (record damage is local — 6-byte records, no framing).
  rng::Xoshiro256 gen(GetParam() ^ 0x77E2);
  const auto stream =
      random_observations(gen, 50 + rng::uniform_index(gen, 200));
  const auto pristine = census::encode_binary(stream);
  const auto intact = census::decode_binary(pristine);
  ASSERT_TRUE(intact.has_value());
  for (int trial = 0; trial < 20; ++trial) {
    auto bytes = pristine;
    // 1-4 flips, anywhere past the magic (a wrong magic is the one case
    // salvage rejects outright, covered separately below).
    const std::size_t flips = 1 + rng::uniform_index(gen, 4);
    std::size_t first_damaged = bytes.size();
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t at = 4 + rng::uniform_index(gen, bytes.size() - 4);
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng::uniform_index(gen, 8));
      first_damaged = std::min(first_damaged, at);
    }
    std::size_t declared = 0;
    const auto salvaged = census::decode_binary_prefix(bytes, &declared);
    ASSERT_TRUE(salvaged.has_value());
    EXPECT_LE(salvaged->size(), declared);
    const std::size_t undamaged_records =
        first_damaged < 8 ? 0 : (first_damaged - 8) / 6;
    const std::size_t trustworthy =
        std::min(undamaged_records, salvaged->size());
    expect_observation_prefix(
        {salvaged->begin(),
         salvaged->begin() + static_cast<std::ptrdiff_t>(trustworthy)},
        *intact);
  }
  // A damaged magic is unrecoverable by design.
  auto bad_magic = pristine;
  bad_magic[0] ^= 0x01;
  EXPECT_FALSE(census::decode_binary_prefix(bad_magic).has_value());
}

TEST(AnalyzerProperty, HugeRttsNeverCauseDetection) {
  // Disks above the max-RTT cutoff constrain nothing and must be ignored:
  // a target answering with garbage latencies is not thereby anycast.
  const auto vps = net::make_planetlab({.node_count = 40, .seed = 73});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  std::vector<census::VpRtt> row;
  for (std::uint16_t v = 0; v < 40; ++v) {
    row.push_back(census::VpRtt{v, 100000.0F});
  }
  EXPECT_FALSE(analyzer.detect(row));
  const core::Result result = analyzer.analyze_row(row);
  EXPECT_FALSE(result.anycast);
  EXPECT_EQ(result.usable_measurements, 0u);
}

TEST(AnalyzerProperty, DetectNeedsTwoMeasurements) {
  const auto vps = net::make_planetlab({.node_count = 5, .seed = 74});
  const analysis::CensusAnalyzer analyzer(vps, geo::world_index());
  const std::vector<census::VpRtt> one{{0, 5.0F}};
  EXPECT_FALSE(analyzer.detect(one));
  const std::vector<census::VpRtt> none{};
  EXPECT_FALSE(analyzer.detect(none));
}

}  // namespace
}  // namespace anycast
