// The benchmark's own reference computations. Nothing here calls into the
// program's geometry or serving code: distances are a plain haversine, and
// served answers are re-derived from the analysis outcome vector.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/net/types.hpp"
#include "generators.hpp"

namespace pipebench {

/// Great-circle distance in km (haversine, R = 6371 km).
double haversine_km(double lat1, double lon1, double lat2, double lon2);

/// Disk radius (km) a fibre RTT allows: rtt / 2 at 2/3 c.
double radius_km(double rtt_ms);

/// One query line of the serving protocol, as the benchmark generated it.
struct Query {
  enum class Verb : std::uint8_t { kPoint, kReplicas, kNearest, kBatch };
  explicit Query(Verb v) : verb(v) {}
  Verb verb;
  std::vector<std::uint32_t> targets;  // resolved dense indices
  std::uint32_t key_pos = 0;  // first key as written (index or dotted
  std::uint32_t key_len = 0;  // quad): Request::text.substr(key_pos, key_len)
  double lat = 0.0;
  double lon = 0.0;
};

/// A multi-line request: `text` is what the client sends.
struct Request {
  std::string text;
  std::vector<Query> queries;
};

/// The request set's make-up. It is this benchmark's assumption, taken from
/// no measured traffic: bench_serving's mix (4 batch-256 requests, then 1
/// point request, uniform keys) has no replicas or nearest lines. The line
/// counts, batch width, hot-key shares and dotted-quad share below set
/// queries_per_s, request_p50_us, request_p99_us and every serving.*_us
/// per-layer figure.
struct QueryMix {
  std::size_t requests = 5000;
  std::size_t point = 6;     // lines per request, by verb
  std::size_t replicas = 4;
  std::size_t nearest = 3;
  std::size_t batch = 3;
  std::size_t batch_keys = 16;
  static constexpr double kPointHotShare = 0.1;    // point keys from the hot set
  static constexpr double kReplicaHotShare = 0.5;  // replicas/nearest keys from it
  static constexpr double kDottedShare = 0.25;     // keys written as dotted quads
  [[nodiscard]] std::size_t lines() const {
    return point + replicas + nearest + batch;
  }
};

/// A fixed request set. Keys are uniform over `target_count`, except that
/// point, replicas and nearest lines pick from `hot` (the anycast targets)
/// at the mix's hot-key shares, so that replica answers and the nearest
/// search are served and checked even where anycast rows are 0.25 per mille
/// of targets. Keys written as dotted quads use the target's /24
/// (`slash24_of[t]`).
std::vector<Request> make_requests(const QueryMix& mix, std::size_t target_count,
                                   std::span<const std::uint32_t> hot,
                                   std::span<const std::uint32_t> slash24_of,
                                   std::uint64_t seed);

/// Re-derives every answer of a request from the outcome vector and
/// compares it with what the program served. The nearest replica is found
/// by brute force over the outcome's replicas; the served one must be as
/// near to within rounding.
class AnswerOracle {
 public:
  AnswerOracle(std::span<const anycast::analysis::TargetOutcome> outcomes,
               std::span<const std::uint16_t> row_size);

  /// Empty on a match, else a one-line description of the first mismatch.
  [[nodiscard]] std::string verify(const Request& request,
                                   std::string_view served) const;

 private:
  const anycast::analysis::TargetOutcome* outcome(std::uint32_t t) const {
    return outcome_of_[t] < 0 ? nullptr : &outcomes_[static_cast<std::size_t>(outcome_of_[t])];
  }
  std::span<const anycast::analysis::TargetOutcome> outcomes_;
  std::span<const std::uint16_t> row_size_;
  std::vector<std::int32_t> outcome_of_;
};

/// Per-target rows of a generated round, in the benchmark's own CSR.
struct Rows {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint16_t> vp;
  std::vector<float> rtt;
};
Rows gather_rows(const SyntheticCensus& census, int round,
                 std::span<const std::uint32_t> only = {});

/// Whether two VPs of row `t` have disks apart by a clear margin.
bool clearly_disjoint(const Rows& rows, std::uint32_t t,
                      std::span<const anycast::net::VantagePoint> vps);

/// Adversarial check for one flagged row: at least two replicas, every
/// replica inside its own VP's disk, and two replicas with disjoint disks.
/// The last clause is waived, with `*single_disk_mis` set, when the greedy
/// first-round MIS held one disk (the program then adds replicas from
/// overlapping disks) but the row itself has a disjoint pair; the caller
/// bounds how many rows may take the waiver. Empty when it holds.
std::string check_replica_geometry(const anycast::analysis::TargetOutcome& o,
                                   const Rows& rows,
                                   std::span<const anycast::net::VantagePoint> vps,
                                   bool* single_disk_mis);

/// Element-wise equality of two outcome vectors (replica sets included).
bool same_outcomes(std::span<const anycast::analysis::TargetOutcome> a,
                   std::span<const anycast::analysis::TargetOutcome> b);

}  // namespace pipebench
