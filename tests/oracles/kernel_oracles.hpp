// Pre-kernel analysis pipeline — TEST/BENCH ORACLE ONLY.
//
// The scalar implementations the analysis kernel (DESIGN.md §14)
// replaced, kept verbatim so kernel_test can pin every fast path to its
// original bit for bit and bench_analysis_kernel can duel the two sides
// on identical inputs:
//   - the MIS solvers and the disjoint-pair test over
//     vector<vector<bool>> adjacency and haversine pair tests;
//   - the latitude-band city scans behind `CityScan`;
//   - the full O(n^2) detection sweep over a precomputed VP distance
//     matrix;
//   - `ReferenceIGreedy` (hash-map measurement collapse, scalar
//     containment in the collapse-and-resolve rounds) and
//     `ReferenceCensusAnalyzer`, the serial detect -> iGreedy sweep.
// Nothing here is instrumented: no metric, span or journal event, so an
// oracle run cannot perturb the production telemetry it is compared to.
// It lives in the test-only `anycast_oracles` target, so no library can
// link it; production code must use the kernel.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/core/igreedy.hpp"
#include "anycast/geo/city.hpp"
#include "anycast/geodesy/disk.hpp"
#include "anycast/geodesy/geopoint.hpp"
#include "anycast/net/types.hpp"

namespace anycast::oracles {

// ---- MIS (oracles of core::greedy_mis / exact_mis / has_disjoint_pair) ----

std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks);
std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks);
bool has_disjoint_pair(std::span<const geodesy::Disk> disks);

// ---- City queries (oracles of geo::CityIndex) -----------------------------

/// Latitude-band scans over the cities in ascending-latitude order, built
/// with the same std::sort as the CityIndex constructor, so an index and a
/// scan over the same span agree on every tie (views must outlive it).
class CityScan {
 public:
  explicit CityScan(std::span<const geo::City> cities);

  [[nodiscard]] std::vector<const geo::City*> cities_in(
      const geodesy::Disk& disk) const;
  [[nodiscard]] const geo::City* most_populated_in(
      const geodesy::Disk& disk) const;
  [[nodiscard]] const geo::City* nearest(const geodesy::GeoPoint& point) const;
  [[nodiscard]] const geo::City* by_name(std::string_view name) const;

 private:
  template <typename Visitor>  // Visitor(const City&)
  void visit_band(const geodesy::Disk& disk, Visitor&& visit) const;

  std::vector<const geo::City*> by_latitude_;  // ascending latitude
};

/// Scan over the embedded world-city table (the oracle of
/// geo::world_index()).
const CityScan& world_scan();

// ---- iGreedy (oracle of core::IGreedy::analyze) ----------------------------

class ReferenceIGreedy {
 public:
  explicit ReferenceIGreedy(const CityScan& cities, core::Options options = {})
      : cities_(&cities), options_(options) {}

  [[nodiscard]] core::Result analyze(
      std::span<const core::Measurement> measurements) const;

 private:
  core::Replica geolocate(const geodesy::Disk& disk,
                          std::uint32_t vp_id) const;

  const CityScan* cities_;
  core::Options options_;
};

// ---- Census sweep (oracle of analysis::CensusAnalyzer) ---------------------

class ReferenceCensusAnalyzer {
 public:
  /// `vps` must outlive the analyzer.
  ReferenceCensusAnalyzer(std::span<const net::VantagePoint> vps,
                          const CityScan& cities, core::Options options = {});

  /// Serial sweep in target order: min-VP gate, full pairwise detection,
  /// reference iGreedy on detected rows, anycast outcomes kept.
  [[nodiscard]] std::vector<analysis::TargetOutcome> analyze(
      const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
      std::size_t min_vps = 2) const;

  /// Full O(n^2) pairwise detection sweep (oracle of CensusAnalyzer::detect).
  [[nodiscard]] bool detect(std::span<const census::VpRtt> row) const;

  [[nodiscard]] core::Result analyze_row(
      std::span<const census::VpRtt> row) const;

 private:
  std::span<const net::VantagePoint> vps_;
  core::Options options_;
  ReferenceIGreedy igreedy_;
  std::vector<double> vp_distance_km_;  // dense vp x vp matrix
};

}  // namespace anycast::oracles
