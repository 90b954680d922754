// Input generators for the pipeline benchmark. Both are seeded from the
// command line and hand the program nothing but their output: per-VP row
// fragments (target-sorted TargetRtt lists) for two census rounds.
//
//   paper shape   geometry-consistent: every RTT is fibre propagation
//                 (2/3 c) from the VP to the target's true host or, for a
//                 planted anycast row, to the replica site the simulator's
//                 catchment picks for that VP, stretched by the simulator's
//                 WorldConfig inflation and jitter model.
//   adversarial   the geometry-free draw of bench_serving's synthetic_rtt
//                 (uniform 10-210 ms), under which almost every row breaks
//                 the speed-of-light bound: iGreedy's worst case.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "anycast/census/census.hpp"
#include "anycast/net/internet.hpp"

namespace pipebench {

using Fragment = std::vector<anycast::census::TargetRtt>;

/// Counter-based hashing shared by the generators and the query maker.
std::uint64_t splitmix64(std::uint64_t x);
/// Uniform in [0, 1) from a keyed hash.
double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

/// Two rounds of a synthetic census over `targets` rows and `vps` VPs.
struct SyntheticCensus {
  std::size_t targets = 0;
  std::size_t vps = 0;
  std::vector<Fragment> round1;  // per VP, ascending target index
  /// Round 2 per VP; empty when round 2 is derived on the fly from round 1
  /// (the paper shape patches the churned rows while copying).
  std::vector<Fragment> round2;
  std::vector<std::uint16_t> row_size;         // round-1 VPs per row
  std::vector<std::uint32_t> anycast_rows;     // planted anycast, ascending
  std::vector<std::uint32_t> churned;          // rows round 2 changes
  std::vector<std::uint8_t> churned_mask;      // per target, 1 when churned
  /// Distinct replica sites each planted anycast row reaches (paper only).
  std::vector<std::uint32_t> planted_sites;
  std::size_t observations = 0;                // round-1 entries

  /// Round-2 fragment of `vp` (a copy: the builder takes ownership).
  [[nodiscard]] Fragment round2_fragment(std::size_t vp) const;
  /// Round-2 RTT of entry `i` of VP `vp`'s round-1 fragment.
  [[nodiscard]] float round2_rtt(std::size_t vp, std::size_t i) const;
};

struct PaperShape {
  std::size_t targets = 500'000;
  std::size_t vps = 1000;
  double density = 0.03;              // P(VP v answers target t)
  double anycast_per_target = 2.5e-4; // planted anycast fraction (0.25 per mille)
  double churn_fraction = 0.005;      // responsive rows round 2 re-measures
};

/// Both rounds of a paper-shaped census, held in memory.
SyntheticCensus paper_census(const PaperShape& shape,
                             const std::vector<anycast::net::VantagePoint>& vps,
                             std::uint64_t seed);

/// The adversarial generator: bench_serving's synthetic_rtt and per-VP
/// stride coverage, with the seed shifting the target index it hashes.
SyntheticCensus adversarial_census(std::size_t targets, std::size_t vps,
                                   std::uint64_t seed);

}  // namespace pipebench
