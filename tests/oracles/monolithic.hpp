// Sharded -> monolithic flattening — TEST ORACLE ONLY.
//
// Rebuilds one CensusMatrix over the whole target range from a
// ShardedCensusMatrix's per-shard rows, so sharded_test can compare a
// sharded run against the one-shard run with the monolithic builder's
// canonicalisation. Materializes everything resident: cross-check scale
// only.
#pragma once

#include <cstdint>

#include "anycast/census/census.hpp"
#include "anycast/census/sharded.hpp"

namespace anycast::oracles {

inline census::CensusMatrix to_monolithic(
    const census::ShardedCensusMatrix& data) {
  census::CensusMatrixBuilder builder(data.target_count());
  for (std::size_t s = 0; s < data.shard_count(); ++s) {
    const census::CensusMatrix& shard = data.shard(s);
    const std::size_t base = data.shard_base(s);
    for (std::uint32_t t = 0; t < shard.target_count(); ++t) {
      for (const census::VpRtt& sample : shard.measurements(t)) {
        builder.add(static_cast<std::uint32_t>(base + t), sample.vp,
                    sample.rtt_ms);
      }
    }
  }
  return builder.build_uncounted();
}

}  // namespace anycast::oracles
