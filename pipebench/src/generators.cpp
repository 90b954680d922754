#include "generators.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <unordered_set>

#include "anycast/geo/city_data.hpp"

namespace pipebench {

namespace net = anycast::net;
using anycast::census::TargetRtt;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double hash01(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h =
      splitmix64(seed ^ splitmix64(a ^ splitmix64(b + 0x51ED27)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

float SyntheticCensus::round2_rtt(std::size_t vp, std::size_t i) const {
  if (!round2.empty()) return round2[vp][i].rtt_ms;
  const TargetRtt& e = round1[vp][i];
  if (churned_mask[e.target_index] == 0) return e.rtt_ms;
  // Re-measured later with fresh queueing: never faster than before, so
  // the row stays consistent with its geometry, and always different.
  return e.rtt_ms +
         (0.25F + static_cast<float>(2.0 * hash01(0xC4u, vp, e.target_index)));
}

Fragment SyntheticCensus::round2_fragment(std::size_t vp) const {
  if (!round2.empty()) return round2[vp];
  Fragment out = round1[vp];
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (churned_mask[out[i].target_index] != 0) out[i].rtt_ms = round2_rtt(vp, i);
  }
  return out;
}

namespace {

/// Runs `per_vp(v)` for every VP on two threads (VPs split by parity).
template <typename PerVp>
void for_each_vp(std::size_t vps, PerVp per_vp) {
  std::thread odd([&] {
    for (std::size_t v = 1; v < vps; v += 2) per_vp(v);
  });
  for (std::size_t v = 0; v < vps; v += 2) per_vp(v);
  odd.join();
}

void tally_rows(SyntheticCensus& census) {
  census.row_size.assign(census.targets, 0);
  census.observations = 0;
  for (const Fragment& fragment : census.round1) {
    census.observations += fragment.size();
    for (const TargetRtt& e : fragment) ++census.row_size[e.target_index];
  }
}

void finish_churn(SyntheticCensus& census) {
  census.churned.clear();
  for (std::uint32_t t = 0; t < census.targets; ++t) {
    if (census.churned_mask[t] != 0) census.churned.push_back(t);
  }
}

// ---- adversarial: bench_serving's generator, verbatim ---------------------

constexpr std::uint32_t kStrides[] = {29, 31, 37, 41, 43, 23, 47, 53};

float synthetic_rtt(std::uint32_t vp, std::uint32_t target, int round) {
  if (target % 10007 == 0) {
    return 1.0F + static_cast<float>((vp + static_cast<unsigned>(round)) % 5);
  }
  std::uint64_t seed = (static_cast<std::uint64_t>(vp) << 32) | target;
  if (round > 1 && (splitmix64(target) & 0xFF) == 0) {
    seed ^= 0xB0B0'0000ULL + static_cast<std::uint64_t>(round);
  }
  const std::uint64_t h = splitmix64(seed);
  return 10.0F + static_cast<float>(h % 20000) / 100.0F;  // 10..210 ms
}

/// The geometry-consistent generator: any VP's round-1 fragment is
/// produced on its own, so VPs are generated in parallel.
class PaperGenerator {
 public:
  /// `vps` is the platform the program analyses with (true locations are
  /// used for propagation); it must outlive the generator.
  PaperGenerator(const PaperShape& shape,
                 const std::vector<anycast::net::VantagePoint>& vps,
                 std::uint64_t seed);

  /// VP `v`'s round-1 fragment. Aborts the process if an RTT falls below
  /// the fibre bound to the host (or replica site) it was drawn for.
  [[nodiscard]] Fragment fragment(std::size_t v) const;

  [[nodiscard]] const std::vector<std::uint32_t>& anycast_rows() const {
    return anycast_rows_;
  }
  /// Planted row index of target `t`, or -1 for a unicast row.
  [[nodiscard]] std::int32_t planted_index(std::uint32_t t) const {
    return anycast_of_[t];
  }
  /// The replica site VP `v` reaches for planted row `a` (nullptr: none).
  [[nodiscard]] const anycast::net::ReplicaSite* site(std::size_t a,
                                                      std::size_t v) const {
    return site_of_[a * shape_.vps + v];
  }

 private:
  struct Unit {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
  };
  static Unit unit_of(double lat_deg, double lon_deg);
  static double fibre_rtt_ms(const Unit& a, const Unit& b);

  PaperShape shape_;
  std::uint64_t seed_;
  anycast::net::WorldConfig world_config_;
  std::unique_ptr<anycast::net::SimulatedInternet> world_;
  std::vector<std::uint32_t> anycast_rows_;
  std::vector<std::int32_t> anycast_of_;
  std::vector<Unit> site_unit_;  // [a * vps + v]
  std::vector<const anycast::net::ReplicaSite*> site_of_;
  std::vector<Unit> host_;
  std::vector<Unit> vp_unit_;
  std::vector<double> vp_access_;
  std::array<double, 4096> stretch_{};
  std::array<double, 4096> jitter_{};
  std::array<double, 4096> spike_{};
  std::uint64_t spike_cut_ = 0;
};

PaperGenerator::Unit PaperGenerator::unit_of(double lat_deg, double lon_deg) {
  const double lat = lat_deg * M_PI / 180.0;
  const double lon = lon_deg * M_PI / 180.0;
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}

double PaperGenerator::fibre_rtt_ms(const Unit& a, const Unit& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  const double chord = std::sqrt(dx * dx + dy * dy + dz * dz);
  const double km = 2.0 * 6371.0 * std::asin(std::min(1.0, chord / 2.0));
  return 2.0 * km / (299.792458 * 2.0 / 3.0);
}

PaperGenerator::PaperGenerator(const PaperShape& shape,
                               const std::vector<net::VantagePoint>& vps,
                               std::uint64_t seed)
    : shape_(shape), seed_(seed) {
  // The simulator's catalogue supplies the anycast deployments and the
  // catchment each VP lands in; its unicast population is not used.
  world_config_.seed = seed;
  world_config_.unicast_alive_slash24 = 1000;
  world_config_.unicast_dead_slash24 = 1000;
  world_ = std::make_unique<net::SimulatedInternet>(world_config_);
  std::vector<std::pair<std::size_t, std::size_t>> prefixes;
  for (std::size_t d = 0; d < world_->deployments().size(); ++d) {
    const net::Deployment& dep = world_->deployments()[d];
    for (std::size_t p = 0; p < dep.prefix_site_masks.size(); ++p) {
      if (dep.prefix_site_masks[p] != 0) prefixes.emplace_back(d, p);
    }
  }

  // Planted anycast rows: distinct targets, each announcing one catalogue
  // prefix (drawn without replacement while the catalogue lasts).
  const std::size_t planted = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             static_cast<double>(shape.targets) * shape.anycast_per_target)));
  std::unordered_set<std::uint32_t> taken;
  for (std::uint64_t i = 0; anycast_rows_.size() < planted; ++i) {
    const auto t = static_cast<std::uint32_t>(
        hash01(seed ^ 0xA1, i, 0) * static_cast<double>(shape.targets));
    if (taken.insert(t).second) anycast_rows_.push_back(t);
  }
  std::sort(anycast_rows_.begin(), anycast_rows_.end());
  anycast_of_.assign(shape.targets, -1);
  for (std::size_t a = 0; a < anycast_rows_.size(); ++a) {
    anycast_of_[anycast_rows_[a]] = static_cast<std::int32_t>(a);
  }
  std::vector<std::size_t> order(prefixes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return splitmix64(seed ^ a) < splitmix64(seed ^ b);
  });
  site_unit_.resize(planted * shape.vps);
  site_of_.assign(planted * shape.vps, nullptr);
  for (std::size_t a = 0; a < planted; ++a) {
    const auto [d, p] = prefixes[order[a % order.size()]];
    for (std::size_t v = 0; v < shape.vps; ++v) {
      const net::ReplicaSite* s = world_->catchment(vps[v], d, p);
      site_of_[a * shape.vps + v] = s;
      if (s != nullptr) {
        site_unit_[a * shape.vps + v] =
            unit_of(s->location.latitude(), s->location.longitude());
      }
    }
  }

  // Unicast hosts sit near the embedded table's cities.
  const auto cities = anycast::geo::world_cities();
  host_.resize(shape.targets);
  for (std::uint32_t t = 0; t < shape.targets; ++t) {
    const auto& city = cities[static_cast<std::size_t>(
        hash01(seed ^ 0xC1, t, 0) * static_cast<double>(cities.size()))];
    const double lat = std::clamp(
        city.latitude_deg + (hash01(seed ^ 0xC2, t, 0) - 0.5), -89.0, 89.0);
    const double lon = city.longitude_deg + (hash01(seed ^ 0xC3, t, 0) - 0.5);
    host_[t] = unit_of(lat, lon);
  }

  // The simulator's RTT model (WorldConfig): propagation x (1 + lognormal
  // stretch) + last-mile access at both ends + exponential queueing jitter
  // + rare congestion spikes. Stretch and jitter come from 4096-entry
  // tables indexed by a per-(VP, target) hash.
  for (std::size_t i = 0; i < stretch_.size(); ++i) {
    const double u1 = std::max(hash01(seed ^ 0xD1, i, 0), 0x1.0p-53);
    const double u2 = hash01(seed ^ 0xD2, i, 0);
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    stretch_[i] = 1.0 + std::exp(world_config_.inflation_mu +
                                 world_config_.inflation_sigma * z);
    const double u3 = std::max(hash01(seed ^ 0xD3, i, 0), 0x1.0p-53);
    jitter_[i] = -world_config_.jitter_mean_ms * std::log(u3);
    spike_[i] = -world_config_.spike_mean_ms * std::log(u3);
  }
  spike_cut_ = static_cast<std::uint64_t>(world_config_.spike_probability * 65536.0);
  vp_unit_.resize(shape.vps);
  vp_access_.resize(shape.vps);
  for (std::size_t v = 0; v < shape.vps; ++v) {
    vp_unit_[v] = unit_of(vps[v].location.latitude(), vps[v].location.longitude());
    vp_access_[v] = hash01(seed ^ 2, v, 0) * world_config_.vp_access_ms_max;
  }
}

Fragment PaperGenerator::fragment(std::size_t v) const {
  Fragment fragment;
  fragment.reserve(static_cast<std::size_t>(
      static_cast<double>(shape_.targets) * shape_.density * 1.1));
  const double log_miss = std::log(1.0 - shape_.density);
  std::uint64_t draw = 0;
  std::uint64_t t = 0;
  while (true) {
    // Geometric gap to VP v's next answering target.
    const double u = std::max(hash01(seed_ ^ 0xE1, v, draw++), 0x1.0p-53);
    t += static_cast<std::uint64_t>(std::log(u) / log_miss);
    if (t >= shape_.targets) break;
    const auto target = static_cast<std::uint32_t>(t++);
    const Unit* where = &host_[target];
    if (const std::int32_t a = anycast_of_[target]; a >= 0) {
      const std::size_t slot = static_cast<std::size_t>(a) * shape_.vps + v;
      if (site_of_[slot] == nullptr) continue;  // prefix not reachable
      where = &site_unit_[slot];
    }
    const std::uint64_t h = splitmix64(seed_ ^ (std::uint64_t{v} << 32) ^ target);
    const double floor_ms = fibre_rtt_ms(vp_unit_[v], *where);
    double rtt = floor_ms * stretch_[h & 4095] + vp_access_[v] +
                 hash01(seed_ ^ 3, target, 0) * world_config_.target_access_ms_max +
                 jitter_[(h >> 12) & 4095];
    if (((h >> 24) & 0xFFFF) < spike_cut_) rtt += spike_[(h >> 40) & 4095];
    const auto stored = static_cast<float>(rtt);
    if (static_cast<double>(stored) < floor_ms) {
      std::fprintf(stderr,
                   "paper generator: RTT %.6f ms below the fibre bound %.6f ms "
                   "(vp %zu, target %u)\n",
                   static_cast<double>(stored), floor_ms, v, target);
      std::abort();
    }
    fragment.push_back({target, stored});
  }
  return fragment;
}

}  // namespace

SyntheticCensus paper_census(const PaperShape& shape,
                             const std::vector<net::VantagePoint>& vps,
                             std::uint64_t seed) {
  const PaperGenerator gen(shape, vps, seed);
  SyntheticCensus census;
  census.targets = shape.targets;
  census.vps = shape.vps;
  census.anycast_rows = gen.anycast_rows();
  census.round1.resize(shape.vps);
  for_each_vp(shape.vps, [&](std::size_t v) { census.round1[v] = gen.fragment(v); });
  tally_rows(census);

  // Replica sites actually reached by the VPs that answered each row.
  const std::size_t planted = census.anycast_rows.size();
  std::vector<std::unordered_set<const net::ReplicaSite*>> reached(planted);
  for (std::size_t v = 0; v < shape.vps; ++v) {
    for (const TargetRtt& e : census.round1[v]) {
      if (const std::int32_t a = gen.planted_index(e.target_index); a >= 0) {
        reached[static_cast<std::size_t>(a)].insert(gen.site(static_cast<std::size_t>(a), v));
      }
    }
  }
  for (const auto& sites : reached) {
    census.planted_sites.push_back(static_cast<std::uint32_t>(sites.size()));
  }

  // Round 2 re-measures a seeded sample of responsive rows plus every
  // fourth planted anycast row.
  census.churned_mask.assign(shape.targets, 0);
  for (std::uint32_t t = 0; t < shape.targets; ++t) {
    if (census.row_size[t] > 0 && hash01(seed ^ 0xF1, t, 0) < shape.churn_fraction) {
      census.churned_mask[t] = 1;
    }
  }
  for (std::size_t a = 0; a < planted; a += 4) {
    const std::uint32_t t = census.anycast_rows[a];
    if (census.row_size[t] > 0) census.churned_mask[t] = 1;
  }
  finish_churn(census);
  return census;
}

SyntheticCensus adversarial_census(std::size_t targets, std::size_t vps,
                                   std::uint64_t seed) {
  SyntheticCensus census;
  census.targets = targets;
  census.vps = vps;
  const auto base = static_cast<std::uint32_t>(splitmix64(seed) % (1u << 24));
  const auto build_round = [&](int round, std::vector<Fragment>& out) {
    out.resize(vps);
    for_each_vp(vps, [&](std::size_t v) {
      const std::uint32_t stride =
          kStrides[v % (sizeof kStrides / sizeof kStrides[0])];
      const auto offset = static_cast<std::uint32_t>(splitmix64(v) % stride);
      Fragment& fragment = out[v];
      fragment.reserve(targets / stride + 1);
      for (std::uint64_t t = offset; t < targets; t += stride) {
        fragment.push_back(
            {static_cast<std::uint32_t>(t),
             synthetic_rtt(static_cast<std::uint32_t>(v),
                           base + static_cast<std::uint32_t>(t), round)});
      }
    });
  };
  build_round(1, census.round1);
  build_round(2, census.round2);
  tally_rows(census);
  census.churned_mask.assign(targets, 0);
  for (std::size_t v = 0; v < vps; ++v) {
    const Fragment& a = census.round1[v];
    const Fragment& b = census.round2[v];
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].rtt_ms != b[i].rtt_ms) census.churned_mask[a[i].target_index] = 1;
    }
  }
  finish_churn(census);
  // The 10007 lattice carries the original generator's contradictory
  // near-zero rows: the "planted" anycast signature.
  for (std::uint32_t t = 0; t < targets; ++t) {
    if ((base + t) % 10007 == 0) census.anycast_rows.push_back(t);
  }
  return census;
}

}  // namespace pipebench
