#include "kernel_oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "anycast/geo/city_data.hpp"

namespace anycast::oracles {

// ---- MIS ------------------------------------------------------------------
//
// Any change here invalidates both the kernel property tests and the
// bench_analysis_kernel duel.

namespace {

/// Adjacency as vector<vector<bool>>; instances beyond a few hundred
/// disks never reach the exact solver.
std::vector<std::vector<bool>> intersection_matrix(
    std::span<const geodesy::Disk> disks) {
  const std::size_t n = disks.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool overlap = disks[i].intersects(disks[j]);
      adj[i][j] = overlap;
      adj[j][i] = overlap;
    }
  }
  return adj;
}

struct BranchState {
  const std::vector<std::vector<bool>>* adj;
  std::vector<std::size_t> best;
  std::vector<std::size_t> current;

  void branch(std::vector<std::size_t>& candidates) {
    if (current.size() + candidates.size() <= best.size()) return;  // bound
    if (candidates.empty()) {
      if (current.size() > best.size()) best = current;
      return;
    }
    // Branch on the candidate with the most remaining conflicts first —
    // resolves dense cores early and tightens the bound.
    std::size_t pick_pos = 0;
    std::size_t max_degree = 0;
    for (std::size_t p = 0; p < candidates.size(); ++p) {
      std::size_t degree = 0;
      for (const std::size_t other : candidates) {
        if ((*adj)[candidates[p]][other]) ++degree;
      }
      if (degree >= max_degree) {
        max_degree = degree;
        pick_pos = p;
      }
    }
    const std::size_t pick = candidates[pick_pos];

    // Include `pick`.
    std::vector<std::size_t> reduced;
    reduced.reserve(candidates.size());
    for (const std::size_t other : candidates) {
      if (other != pick && !(*adj)[pick][other]) reduced.push_back(other);
    }
    current.push_back(pick);
    branch(reduced);
    current.pop_back();

    // Exclude `pick`.
    candidates.erase(candidates.begin() +
                     static_cast<std::ptrdiff_t>(pick_pos));
    branch(candidates);
  }
};

}  // namespace

std::vector<std::size_t> greedy_mis(std::span<const geodesy::Disk> disks) {
  std::vector<std::size_t> order(disks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return disks[a].radius_km() < disks[b].radius_km();
                   });
  std::vector<std::size_t> kept;
  for (const std::size_t candidate : order) {
    const bool clear = std::none_of(
        kept.begin(), kept.end(), [&](std::size_t held) {
          return disks[candidate].intersects(disks[held]);
        });
    if (clear) kept.push_back(candidate);
  }
  return kept;
}

std::vector<std::size_t> exact_mis(std::span<const geodesy::Disk> disks) {
  const auto adj = intersection_matrix(disks);
  BranchState state;
  state.adj = &adj;
  // Seed the bound with the greedy solution: exact can only improve on it.
  state.best = greedy_mis(disks);
  std::vector<std::size_t> candidates(disks.size());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  state.branch(candidates);
  std::sort(state.best.begin(), state.best.end());
  return state.best;
}

bool has_disjoint_pair(std::span<const geodesy::Disk> disks) {
  for (std::size_t i = 0; i < disks.size(); ++i) {
    for (std::size_t j = i + 1; j < disks.size(); ++j) {
      if (!disks[i].intersects(disks[j])) return true;
    }
  }
  return false;
}

// ---- City queries ---------------------------------------------------------

namespace {

// Kilometres per degree of latitude (constant on the sphere).
constexpr double kKmPerLatDegree = 111.195;

}  // namespace

CityScan::CityScan(std::span<const geo::City> cities) {
  by_latitude_.reserve(cities.size());
  for (const geo::City& city : cities) by_latitude_.push_back(&city);
  std::sort(by_latitude_.begin(), by_latitude_.end(),
            [](const geo::City* a, const geo::City* b) {
              return a->latitude_deg < b->latitude_deg;
            });
}

template <typename Visitor>
void CityScan::visit_band(const geodesy::Disk& disk, Visitor&& visit) const {
  // A disk of radius r km can only contain cities within r/111 degrees of
  // latitude of its centre; binary-search that band, then test exactly.
  const double band_deg = disk.radius_km() / kKmPerLatDegree;
  const double lo = disk.center().latitude() - band_deg;
  const double hi = disk.center().latitude() + band_deg;
  auto first = std::lower_bound(
      by_latitude_.begin(), by_latitude_.end(), lo,
      [](const geo::City* c, double v) { return c->latitude_deg < v; });
  for (; first != by_latitude_.end() && (*first)->latitude_deg <= hi;
       ++first) {
    if (disk.contains((*first)->location())) visit(**first);
  }
}

std::vector<const geo::City*> CityScan::cities_in(
    const geodesy::Disk& disk) const {
  std::vector<const geo::City*> out;
  visit_band(disk, [&](const geo::City& city) { out.push_back(&city); });
  std::sort(out.begin(), out.end(), [](const geo::City* a, const geo::City* b) {
    return a->population > b->population;
  });
  return out;
}

const geo::City* CityScan::most_populated_in(const geodesy::Disk& disk) const {
  const geo::City* best = nullptr;
  visit_band(disk, [&](const geo::City& city) {
    if (best == nullptr || city.population > best->population) best = &city;
  });
  return best;
}

const geo::City* CityScan::nearest(const geodesy::GeoPoint& point) const {
  const geo::City* best = nullptr;
  double best_km = std::numeric_limits<double>::infinity();
  for (const geo::City* city : by_latitude_) {
    // Latitude pruning: if even the latitude difference alone exceeds the
    // best distance so far, the city cannot win.
    const double lat_gap_km =
        std::abs(city->latitude_deg - point.latitude()) * kKmPerLatDegree;
    if (lat_gap_km >= best_km) continue;
    const double km = geodesy::distance_km(city->location(), point);
    if (km < best_km) {
      best_km = km;
      best = city;
    }
  }
  return best;
}

const geo::City* CityScan::by_name(std::string_view name) const {
  for (const geo::City* city : by_latitude_) {
    if (city->name == name) return city;
  }
  return nullptr;
}

const CityScan& world_scan() {
  static const CityScan scan(geo::world_cities());
  return scan;
}

// ---- iGreedy --------------------------------------------------------------

namespace {

/// Hash-map collapse to one disk per VP at its minimum RTT, ascending by
/// VP id (ties keep the first measurement seen).
std::vector<geodesy::Disk> make_disks_map(
    std::span<const core::Measurement> measurements, double max_rtt_ms,
    std::vector<std::uint32_t>* vp_ids) {
  std::unordered_map<std::uint32_t, core::Measurement> best;
  best.reserve(measurements.size());
  for (const core::Measurement& m : measurements) {
    if (m.rtt_ms <= 0.0 || m.rtt_ms > max_rtt_ms) continue;
    const auto [it, inserted] = best.emplace(m.vp_id, m);
    if (!inserted && m.rtt_ms < it->second.rtt_ms) it->second = m;
  }
  std::vector<geodesy::Disk> disks;
  disks.reserve(best.size());
  vp_ids->clear();
  vp_ids->reserve(best.size());
  // Deterministic order (by VP id) regardless of hash-map iteration.
  std::vector<const core::Measurement*> ordered;
  ordered.reserve(best.size());
  for (const auto& [id, m] : best) ordered.push_back(&m);
  std::sort(ordered.begin(), ordered.end(),
            [](const core::Measurement* a, const core::Measurement* b) {
              return a->vp_id < b->vp_id;
            });
  for (const core::Measurement* m : ordered) {
    disks.push_back(geodesy::Disk::from_rtt(m->vp_location, m->rtt_ms));
    vp_ids->push_back(m->vp_id);
  }
  return disks;
}

}  // namespace

core::Replica ReferenceIGreedy::geolocate(const geodesy::Disk& disk,
                                          std::uint32_t vp_id) const {
  core::Replica replica;
  replica.disk = disk;
  replica.vp_id = vp_id;
  replica.location = disk.center();
  switch (options_.city_policy) {
    case core::CityPolicy::kLargestPopulation:
      replica.city = cities_->most_populated_in(disk);
      break;
    case core::CityPolicy::kNearestToCenter: {
      const geo::City* nearest = cities_->nearest(disk.center());
      if (nearest != nullptr && disk.contains(nearest->location())) {
        replica.city = nearest;
      }
      break;
    }
    case core::CityPolicy::kNone:
      break;
  }
  if (replica.city != nullptr) replica.location = replica.city->location();
  return replica;
}

core::Result ReferenceIGreedy::analyze(
    std::span<const core::Measurement> measurements) const {
  core::Result result;
  std::vector<std::uint32_t> vp_ids;
  std::vector<geodesy::Disk> disks =
      make_disks_map(measurements, options_.max_rtt_ms, &vp_ids);
  result.usable_measurements = disks.size();
  if (disks.empty()) return result;

  result.anycast = has_disjoint_pair(disks);
  if (!result.anycast) {
    // Unicast (or undetectable): classic latency geolocation in the
    // smallest disk.
    std::size_t smallest = 0;
    for (std::size_t i = 1; i < disks.size(); ++i) {
      if (disks[i].radius_km() < disks[smallest].radius_km()) smallest = i;
    }
    result.replicas.push_back(geolocate(disks[smallest], vp_ids[smallest]));
    result.first_round_replicas = 1;
    return result;
  }

  std::vector<core::Replica> fixed;
  std::vector<char> consumed(disks.size(), 0);

  for (int round = 0; round < options_.max_iterations; ++round) {
    // Candidate disks this round: unconsumed disks that do not intersect
    // any collapsed replica point (those are already explained).
    std::vector<std::size_t> candidates;
    candidates.reserve(disks.size());
    for (std::size_t idx = 0; idx < disks.size(); ++idx) {
      if (consumed[idx] != 0) continue;
      const bool explained = std::any_of(
          fixed.begin(), fixed.end(), [&](const core::Replica& replica) {
            return disks[idx].contains(replica.location);
          });
      if (!explained) candidates.push_back(idx);
    }
    if (candidates.empty()) break;

    std::vector<geodesy::Disk> candidate_disks;
    candidate_disks.reserve(candidates.size());
    for (const std::size_t idx : candidates) {
      candidate_disks.push_back(disks[idx]);
    }
    const std::vector<std::size_t> picked =
        options_.exact_enumeration ? exact_mis(candidate_disks)
                                   : greedy_mis(candidate_disks);
    if (picked.empty()) break;
    if (round == 0) result.first_round_replicas = picked.size();

    // Geolocate this round's disks and collapse them.
    bool progress = false;
    for (const std::size_t p : picked) {
      const std::size_t idx = candidates[p];
      core::Replica replica = geolocate(disks[idx], vp_ids[idx]);
      // Collapse (Fig. 3e): reclassification at the same city as an
      // existing replica adds no information.
      const bool duplicate = std::any_of(
          fixed.begin(), fixed.end(), [&](const core::Replica& existing) {
            return existing.city != nullptr && existing.city == replica.city;
          });
      if (!duplicate || replica.city == nullptr) {
        fixed.push_back(replica);
        progress = true;
      }
      // Disk is consumed either way.
      consumed[idx] = 1;
    }
    ++result.iterations;
    if (!progress) break;
  }

  result.replicas = std::move(fixed);
  return result;
}

// ---- Census sweep ---------------------------------------------------------

ReferenceCensusAnalyzer::ReferenceCensusAnalyzer(
    std::span<const net::VantagePoint> vps, const CityScan& cities,
    core::Options options)
    : vps_(vps), options_(options), igreedy_(cities, options) {
  vp_distance_km_.resize(vps.size() * vps.size());
  for (std::size_t i = 0; i < vps.size(); ++i) {
    for (std::size_t j = i + 1; j < vps.size(); ++j) {
      const double km = geodesy::distance_km(vps[i].believed_location,
                                             vps[j].believed_location);
      vp_distance_km_[i * vps.size() + j] = km;
      vp_distance_km_[j * vps.size() + i] = km;
    }
  }
}

bool ReferenceCensusAnalyzer::detect(
    std::span<const census::VpRtt> row) const {
  // Radii from the per-VP minimum RTTs; a pair of VPs whose mutual
  // distance exceeds the radius sum cannot both contain the target.
  // Row entries are vp-sorted and unique; all arithmetic is precomputed
  // distances, no trigonometry on the hot path.
  thread_local std::vector<double> radii;
  radii.clear();
  radii.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    radii.push_back(sample.rtt_ms <= options_.max_rtt_ms
                        ? geodesy::rtt_to_radius_km(sample.rtt_ms)
                        : -1.0);
  }
  const std::size_t n = row.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (radii[i] < 0.0) continue;
    const std::size_t vi = row[i].vp;
    const double* distance_row = &vp_distance_km_[vi * vps_.size()];
    for (std::size_t j = i + 1; j < n; ++j) {
      if (radii[j] < 0.0) continue;
      if (distance_row[row[j].vp] > radii[i] + radii[j]) return true;
    }
  }
  return false;
}

core::Result ReferenceCensusAnalyzer::analyze_row(
    std::span<const census::VpRtt> row) const {
  std::vector<core::Measurement> measurements;
  measurements.reserve(row.size());
  for (const census::VpRtt& sample : row) {
    core::Measurement m;
    m.vp_id = sample.vp;
    m.vp_location = vps_[sample.vp].believed_location;
    m.rtt_ms = sample.rtt_ms;
    measurements.push_back(m);
  }
  return igreedy_.analyze(measurements);
}

std::vector<analysis::TargetOutcome> ReferenceCensusAnalyzer::analyze(
    const census::ShardedCensusMatrix& data, const census::Hitlist& hitlist,
    std::size_t min_vps) const {
  const std::size_t targets = std::min(data.target_count(), hitlist.size());
  std::vector<analysis::TargetOutcome> out;
  for (std::size_t t = 0; t < targets; ++t) {
    const auto row = data.measurements(static_cast<std::uint32_t>(t));
    if (row.size() < min_vps) continue;
    if (!detect(row)) continue;
    analysis::TargetOutcome outcome;
    outcome.target_index = static_cast<std::uint32_t>(t);
    outcome.slash24_index = hitlist[t].representative.slash24_index();
    outcome.result = analyze_row(row);
    if (outcome.result.anycast) out.push_back(std::move(outcome));
  }
  return out;
}

}  // namespace anycast::oracles
