#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace pipebench {

namespace analysis = anycast::analysis;

double haversine_km(double lat1, double lon1, double lat2, double lon2) {
  constexpr double kRad = M_PI / 180.0;
  const double dlat = (lat2 - lat1) * kRad;
  const double dlon = (lon2 - lon1) * kRad;
  const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1 * kRad) * std::cos(lat2 * kRad) *
                       std::sin(dlon / 2) * std::sin(dlon / 2);
  return 2.0 * 6371.0 * std::asin(std::min(1.0, std::sqrt(a)));
}

double radius_km(double rtt_ms) { return rtt_ms / 2.0 * (299.792458 * 2.0 / 3.0); }

namespace {

void append_fmt(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_fmt(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min<std::size_t>(static_cast<std::size_t>(n), sizeof buf - 1));
}

std::string key_text(std::uint32_t t, std::span<const std::uint32_t> slash24_of,
                     bool dotted) {
  if (!dotted) return std::to_string(t);
  const std::uint32_t s = slash24_of[t];
  return std::to_string(s >> 16) + "." + std::to_string((s >> 8) & 0xFF) + "." +
         std::to_string(s & 0xFF) + ".1";
}

std::string city_text(const anycast::core::Replica& r) {
  return r.city != nullptr ? r.city->display() : "-";
}

double vp_distance(const anycast::net::VantagePoint& a,
                   const anycast::net::VantagePoint& b) {
  return haversine_km(a.believed_location.latitude(),
                      a.believed_location.longitude(),
                      b.believed_location.latitude(),
                      b.believed_location.longitude());
}

}  // namespace

std::vector<Request> make_requests(const QueryMix& mix, std::size_t target_count,
                                   std::span<const std::uint32_t> hot,
                                   std::span<const std::uint32_t> slash24_of,
                                   std::uint64_t seed) {
  std::vector<Request> requests(mix.requests);
  std::uint64_t draw = 0;
  const auto u = [&] { return hash01(seed ^ 0x9E5, draw++, 0); };
  const auto pick = [&](double hot_share) {
    if (!hot.empty() && u() < hot_share) {
      return hot[static_cast<std::size_t>(u() * static_cast<double>(hot.size()))];
    }
    return static_cast<std::uint32_t>(u() * static_cast<double>(target_count));
  };
  using Verb = Query::Verb;
  for (Request& request : requests) {
    const auto add = [&](Verb verb, const char* word, std::size_t keys,
                         double hot_share) {
      Query q(verb);
      request.text += word;
      for (std::size_t k = 0; k < keys; ++k) {
        const std::uint32_t t = pick(hot_share);
        q.targets.push_back(t);
        request.text += ' ';
        if (k == 0) q.key_pos = static_cast<std::uint32_t>(request.text.size());
        request.text += key_text(t, slash24_of, u() < QueryMix::kDottedShare);
        if (k == 0) {
          q.key_len = static_cast<std::uint32_t>(request.text.size()) - q.key_pos;
        }
      }
      if (verb == Verb::kNearest) {
        q.lat = std::round((u() * 130.0 - 60.0) * 1e4) / 1e4;
        q.lon = std::round((u() * 360.0 - 180.0) * 1e4) / 1e4;
        append_fmt(request.text, " %.4f %.4f", q.lat, q.lon);
      }
      request.text += '\n';
      request.queries.push_back(std::move(q));
    };
    for (std::size_t i = 0; i < mix.point; ++i) {
      add(Verb::kPoint, "point", 1, QueryMix::kPointHotShare);
    }
    for (std::size_t i = 0; i < mix.replicas; ++i) {
      add(Verb::kReplicas, "replicas", 1, QueryMix::kReplicaHotShare);
    }
    for (std::size_t i = 0; i < mix.nearest; ++i) {
      add(Verb::kNearest, "nearest", 1, QueryMix::kReplicaHotShare);
    }
    for (std::size_t i = 0; i < mix.batch; ++i) add(Verb::kBatch, "batch", mix.batch_keys, 0.0);
  }
  return requests;
}

AnswerOracle::AnswerOracle(std::span<const analysis::TargetOutcome> outcomes,
                           std::span<const std::uint16_t> row_size)
    : outcomes_(outcomes), row_size_(row_size),
      outcome_of_(row_size.size(), -1) {
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcome_of_[outcomes[i].target_index] = static_cast<std::int32_t>(i);
  }
}

std::string AnswerOracle::verify(const Request& request,
                                 std::string_view served) const {
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::string_view {
    if (pos >= served.size()) return {};
    const std::size_t eol = served.find('\n', pos);
    const std::size_t end = eol == std::string_view::npos ? served.size() : eol + 1;
    const std::string_view line = served.substr(pos, end - pos);
    pos = end;
    return line;
  };
  std::string want;
  using Verb = Query::Verb;
  for (const Query& q : request.queries) {
    want.clear();
    const std::uint32_t t = q.targets[0];
    const analysis::TargetOutcome* o = outcome(t);
    const std::string key_string = request.text.substr(q.key_pos, q.key_len);
    const char* key = key_string.c_str();
    switch (q.verb) {
      case Verb::kPoint:
        append_fmt(want, "point %s target=%u anycast=%u responsive=%u vps=%u replicas=%zu\n",
                   key, t, o != nullptr ? 1u : 0u, row_size_[t] > 0 ? 1u : 0u,
                   static_cast<unsigned>(row_size_[t]),
                   o != nullptr ? o->result.replicas.size() : 0);
        break;
      case Verb::kReplicas: {
        const std::size_t n = o != nullptr ? o->result.replicas.size() : 0;
        append_fmt(want, "replicas %s target=%u count=%zu\n", key, t, n);
        for (std::size_t i = 0; i < n; ++i) {
          const anycast::core::Replica& r = o->result.replicas[i];
          append_fmt(want, "  replica vp=%u city=\"%s\" lat=%.4f lon=%.4f\n",
                     r.vp_id, city_text(r).c_str(), r.location.latitude(),
                     r.location.longitude());
        }
        break;
      }
      case Verb::kBatch: {
        std::size_t anycast = 0, responsive = 0, replicas = 0;
        for (const std::uint32_t b : q.targets) {
          const analysis::TargetOutcome* ob = outcome(b);
          anycast += ob != nullptr ? 1 : 0;
          responsive += row_size_[b] > 0 ? 1 : 0;
          replicas += ob != nullptr ? ob->result.replicas.size() : 0;
        }
        append_fmt(want, "batch n=%zu unknown=0 anycast=%zu responsive=%zu replicas=%zu\n",
                   q.targets.size(), anycast, responsive, replicas);
        break;
      }
      case Verb::kNearest: {
        const std::string_view got = next_line();
        if (o == nullptr || o->result.replicas.empty()) {
          append_fmt(want, "nearest %s target=%u none\n", key, t);
          if (got != want) return "nearest answer '" + std::string(got) + "' != '" + want + "'";
          continue;
        }
        // Brute force over the outcome's replicas.
        double best = 1e300;
        for (const anycast::core::Replica& r : o->result.replicas) {
          best = std::min(best, haversine_km(q.lat, q.lon, r.location.latitude(),
                                             r.location.longitude()));
        }
        unsigned vp = 0;
        double km = 0.0;
        append_fmt(want, "nearest %s target=%u vp=", key, t);
        if (got.substr(0, want.size()) != want ||
            std::sscanf(std::string(got.substr(want.size())).c_str(), "%u", &vp) != 1) {
          return "nearest answer '" + std::string(got) + "' lacks prefix '" + want + "'";
        }
        const anycast::core::Replica* served_replica = nullptr;
        for (const anycast::core::Replica& r : o->result.replicas) {
          if (r.vp_id == vp) served_replica = &r;
        }
        const std::size_t km_at = got.find(" km=");
        if (served_replica == nullptr || km_at == std::string_view::npos ||
            std::sscanf(std::string(got.substr(km_at + 4)).c_str(), "%lf", &km) != 1) {
          return "nearest answer '" + std::string(got) + "' names no replica";
        }
        const double d = haversine_km(q.lat, q.lon, served_replica->location.latitude(),
                                      served_replica->location.longitude());
        std::string tail;
        append_fmt(tail, "%u city=\"%s\" km=", vp, city_text(*served_replica).c_str());
        if (d > best + 1e-6 * (1.0 + best) ||
            std::fabs(km - d) > 0.051 + 1e-6 * d ||
            got.substr(want.size(), tail.size()) != tail) {
          char why[256];
          std::snprintf(why, sizeof why, "nearest: served vp %u at %.3f km, brute force %.3f km",
                        vp, d, best);
          return why + std::string(" in '") + std::string(got) + "'";
        }
        continue;
      }
    }
    const std::string_view got = served.substr(pos, want.size());
    if (got != want) {
      return "answer '" + std::string(served.substr(pos, std::min<std::size_t>(want.size(), 200))) +
             "' != expected '" + want.substr(0, 200) + "'";
    }
    pos += want.size();
  }
  if (pos != served.size()) return "served text has trailing lines";
  return {};
}

Rows gather_rows(const SyntheticCensus& census, int round,
                 std::span<const std::uint32_t> only) {
  Rows rows;
  std::vector<std::uint8_t> keep;
  if (!only.empty()) {
    keep.assign(census.targets, 0);
    for (const std::uint32_t t : only) keep[t] = 1;
  }
  const auto kept = [&](std::uint32_t t) { return keep.empty() || keep[t] != 0; };
  rows.offsets.assign(census.targets + 1, 0);
  for (const Fragment& f : census.round1) {
    for (const auto& e : f) {
      if (kept(e.target_index)) ++rows.offsets[e.target_index + 1];
    }
  }
  for (std::size_t t = 0; t < census.targets; ++t) rows.offsets[t + 1] += rows.offsets[t];
  rows.vp.resize(rows.offsets.back());
  rows.rtt.resize(rows.offsets.back());
  std::vector<std::uint64_t> fill(rows.offsets.begin(), rows.offsets.end() - 1);
  // VPs in ascending order, so every row comes out vp-sorted.
  for (std::size_t v = 0; v < census.round1.size(); ++v) {
    const Fragment& f = census.round1[v];
    for (std::size_t i = 0; i < f.size(); ++i) {
      const std::uint32_t t = f[i].target_index;
      if (!kept(t)) continue;
      const std::uint64_t at = fill[t]++;
      rows.vp[at] = static_cast<std::uint16_t>(v);
      rows.rtt[at] = round == 1 ? f[i].rtt_ms : census.round2_rtt(v, i);
    }
  }
  return rows;
}

bool clearly_disjoint(const Rows& rows, std::uint32_t t,
                      std::span<const anycast::net::VantagePoint> vps) {
  const std::uint64_t b = rows.offsets[t];
  const std::uint64_t e = rows.offsets[t + 1];
  for (std::uint64_t i = b; i < e; ++i) {
    for (std::uint64_t j = i + 1; j < e; ++j) {
      const double gap = vp_distance(vps[rows.vp[i]], vps[rows.vp[j]]) -
                         radius_km(rows.rtt[i]) - radius_km(rows.rtt[j]);
      if (gap > 1.0 + 1e-3 * (radius_km(rows.rtt[i]) + radius_km(rows.rtt[j]))) {
        return true;
      }
    }
  }
  return false;
}

std::string check_replica_geometry(const analysis::TargetOutcome& o,
                                   const Rows& rows,
                                   std::span<const anycast::net::VantagePoint> vps,
                                   bool* single_disk_mis) {
  *single_disk_mis = false;
  const std::uint32_t t = o.target_index;
  const auto rtt_of = [&](std::uint32_t vp) -> double {
    for (std::uint64_t i = rows.offsets[t]; i < rows.offsets[t + 1]; ++i) {
      if (rows.vp[i] == vp) return rows.rtt[i];
    }
    return -1.0;
  };
  const auto& replicas = o.result.replicas;
  if (replicas.size() < 2) {
    return "target " + std::to_string(t) + " flagged with " +
           std::to_string(replicas.size()) + " replica(s)";
  }
  std::vector<double> radius(replicas.size());
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    const double rtt = rtt_of(replicas[i].vp_id);
    if (rtt < 0.0) {
      return "target " + std::to_string(t) + ": replica from VP " +
             std::to_string(replicas[i].vp_id) + " that has no RTT in the row";
    }
    radius[i] = radius_km(rtt);
    const auto& at = vps[replicas[i].vp_id].believed_location;
    const double d = haversine_km(at.latitude(), at.longitude(),
                                  replicas[i].location.latitude(),
                                  replicas[i].location.longitude());
    if (d > radius[i] * (1.0 + 1e-6) + 0.5) {
      char why[200];
      std::snprintf(why, sizeof why,
                    "target %u: replica of VP %u lies %.2f km out, disk %.2f km",
                    t, replicas[i].vp_id, d, radius[i]);
      return why;
    }
  }
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    for (std::size_t j = i + 1; j < replicas.size(); ++j) {
      if (vp_distance(vps[replicas[i].vp_id], vps[replicas[j].vp_id]) >
          (radius[i] + radius[j]) * (1.0 - 1e-9)) {
        return {};
      }
    }
  }
  // The first-round MIS is pairwise disjoint by the program's own contract.
  if (o.result.first_round_replicas >= 2) {
    return "target " + std::to_string(t) + ": no two replica disks are disjoint, "
           "yet the first-round MIS held " +
           std::to_string(o.result.first_round_replicas);
  }
  // A one-disk greedy MIS: the verdict must still rest on a disjoint pair
  // somewhere in the row.
  const std::uint64_t b = rows.offsets[t];
  const std::uint64_t e = rows.offsets[t + 1];
  for (std::uint64_t i = b; i < e; ++i) {
    for (std::uint64_t j = i + 1; j < e; ++j) {
      const double reach = radius_km(rows.rtt[i]) + radius_km(rows.rtt[j]);
      if (vp_distance(vps[rows.vp[i]], vps[rows.vp[j]]) > reach * (1.0 - 1e-6) - 1.0) {
        *single_disk_mis = true;
        return {};
      }
    }
  }
  return "target " + std::to_string(t) + " flagged, but no two disks of its row are disjoint";
}

bool same_outcomes(std::span<const analysis::TargetOutcome> a,
                   std::span<const analysis::TargetOutcome> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.target_index != y.target_index || x.slash24_index != y.slash24_index ||
        x.result.anycast != y.result.anycast ||
        x.result.replicas.size() != y.result.replicas.size()) {
      return false;
    }
    for (std::size_t k = 0; k < x.result.replicas.size(); ++k) {
      const auto& p = x.result.replicas[k];
      const auto& q = y.result.replicas[k];
      if (p.vp_id != q.vp_id || p.city != q.city || !(p.location == q.location)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace pipebench
