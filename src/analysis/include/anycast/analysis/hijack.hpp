// BGP-hijack monitoring (Sec. 5).
//
// "Detecting geo-inconsistencies for knowingly unicast prefixes is
// symptomatic of BGP hijacking attacks: being able to periodically and
// quickly scan the network to raise alarms ... is a relevant extension of
// this work." HijackMonitor turns that paragraph into an API: a reference
// census classifies prefixes as unicast; subsequent scans raise an alarm
// for any reference-unicast prefix that starts violating the speed of
// light, and geolocate the apparent impostor regions.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/census/hitlist.hpp"

namespace anycast::analysis {

struct HijackAlarm {
  std::uint32_t slash24_index = 0;
  std::uint32_t target_index = 0;
  core::Result result;  // enumeration/geolocation of the apparent origins
};

class HijackMonitor {
 public:
  /// `vps` must outlive the monitor (same contract as CensusAnalyzer).
  HijackMonitor(std::span<const net::VantagePoint> vps,
                const geo::CityIndex& cities, core::Options options = {});

  /// Learns the baseline: every responsive target that shows NO
  /// geo-inconsistency in `reference` is recorded as knowingly unicast.
  /// Targets already anycast in the reference are ignored by later scans
  /// (they are expected to violate the speed of light).
  void set_reference(const census::ShardedCensusMatrix& reference,
                     const census::Hitlist& hitlist, std::size_t min_vps = 2);

  /// Scans a later census: raises one alarm per reference-unicast prefix
  /// that now violates the speed of light.
  [[nodiscard]] std::vector<HijackAlarm> scan(
      const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
      std::size_t min_vps = 2) const;

  /// Like `scan`, restricted to the given target indices (sorted
  /// ascending). The watch daemon passes the round's dirty rows: the
  /// reference is fixed and detection is row-pure, so a row that did not
  /// change cannot change its verdict — scanning only dirty rows raises
  /// exactly the alarms a full scan would raise minus those already
  /// standing in the previous round (edge-triggered reporting).
  [[nodiscard]] std::vector<HijackAlarm> scan_targets(
      const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
      std::span<const std::uint32_t> targets, std::size_t min_vps = 2) const;

  [[nodiscard]] std::size_t monitored_prefixes() const {
    return unicast_reference_.size();
  }

 private:
  [[nodiscard]] std::optional<HijackAlarm> scan_one(
      const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
      std::uint32_t target_index, std::size_t min_vps) const;

  CensusAnalyzer analyzer_;
  std::unordered_set<std::uint32_t> unicast_reference_;  // /24 indices
};

}  // namespace anycast::analysis
