// pipebench: the census pipeline timed end to end and layer by layer.
//
// One process, a 2-lane ThreadPool plus one client thread. Each iteration:
//   round 1   ingest -> CensusAnalyzer::analyze -> SnapshotView::build ->
//             SnapshotStore::publish                       (pipeline_s)
//   queries   one closed-loop client sends a fixed request set through
//             serving::answer_queries against the idle snapshot
//             (queries_per_s, request_p50_us, request_p99_us)
//   round 2   churned ingest -> incremental_analyze -> build ->
//             changed_since -> publish, with a light open-loop reader
//             beside it                                    (round_s)
// Every output is checked against the benchmark's own computation outside
// the timed regions; a mismatch exits 1 without printing a result.
//
//   pipebench --workload census_pipeline|paper_matrix|igreedy_adversarial
//             --seed N --seconds S --trace 0|1 [--scale full|smoke]
//             [--work-dir DIR]
//
// --scale smoke shrinks every workload to a seconds-long run with every
// check.
//
// The last stdout line is one JSON object: end-to-end metrics with
// --trace 0, per-layer metrics (from obs::Span records) with --trace 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "anycast/analysis/analyzer.hpp"
#include "anycast/analysis/incremental.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/census/storage.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/geo/city_index.hpp"
#include "anycast/net/internet.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/latency.hpp"
#include "anycast/obs/trace.hpp"
#include "anycast/obs/trace_export.hpp"
#include "anycast/serving/query.hpp"
#include "anycast/serving/snapshot.hpp"
#include "anycast/serving/store.hpp"
#include "generators.hpp"
#include "oracle.hpp"

namespace {

namespace fs = std::filesystem;
namespace analysis = anycast::analysis;
namespace census = anycast::census;
namespace net = anycast::net;
namespace obs = anycast::obs;
namespace serving = anycast::serving;
using pipebench::Request;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kLanes = 2;    // ThreadPool lanes (caller included)
constexpr std::size_t kMinVps = 2;   // analyzer min_vps, as anycastd uses
constexpr int kMinIterations = 4;  // warm-up + 3 measured
constexpr int kQueryPasses = 4;    // closed-loop passes over the request set per iteration

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", why.c_str());
  std::exit(1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
double percentile_us(std::vector<std::uint32_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(ns.size())));
  return static_cast<double>(ns[std::max<std::size_t>(rank, 1) - 1]) / 1e3;
}

double vm_hwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::uint32_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint32_t>(std::min<std::int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count(),
      0xFFFFFFFF));
}

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  fs::path work_dir = ".bench_build/work";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "pipebench: %s needs a value\n", flag.c_str());
      std::exit(2);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") {
        std::fprintf(stderr, "pipebench: --scale is full or smoke\n");
        std::exit(2);
      }
      args.smoke = value == "smoke";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "pipebench: unknown flag %s\n", flag.c_str());
      std::exit(2);
    }
  }
  if (args.workload != "census_pipeline" && args.workload != "paper_matrix" &&
      args.workload != "igreedy_adversarial") {
    std::fprintf(stderr, "pipebench: unknown workload '%s'\n", args.workload.c_str());
    std::exit(2);
  }
  return args;
}

// ---- the program's own set-up -------------------------------------------------

struct Program {
  std::unique_ptr<net::SimulatedInternet> internet;  // census_pipeline only
  std::vector<net::VantagePoint> vps;
  census::Hitlist hitlist;
  std::unique_ptr<anycast::geo::CityIndex> cities;
  std::unique_ptr<analysis::CensusAnalyzer> analyzer;
  std::unique_ptr<anycast::concurrency::ThreadPool> pool;
};

// ---- tracing --------------------------------------------------------------------

/// Opens an obs::Span around one public call when the iteration is traced.
class Layer {
 public:
  Layer(bool on, const char* name) {
    if (on) span_.emplace(name);
  }

 private:
  std::optional<obs::Span> span_;
};

/// Durations (s) of the benchmark's own spans directly under `root`, by
/// name, plus the root itself.
struct RoundTrace {
  double root_s = 0.0;
  std::map<std::string, double> calls;
  [[nodiscard]] double layer(const std::string& prefix) const {
    double sum = 0.0;
    for (const auto& [name, s] : calls) {
      if (name.rfind(prefix + ".", 0) == 0) sum += s;
    }
    return sum;
  }
  [[nodiscard]] double call(const std::string& name) const {
    const auto it = calls.find(name);
    return it == calls.end() ? 0.0 : it->second;
  }
};

RoundTrace read_round(std::uint32_t root_id) {
  RoundTrace out;
  for (const obs::SpanRecord& r : obs::trace().finished()) {
    if (r.id == root_id) out.root_s = static_cast<double>(r.duration_ns) / 1e9;
    if (r.parent == root_id && !r.adopted) {
      out.calls[r.name] += static_cast<double>(r.duration_ns) / 1e9;
    }
  }
  return out;
}

// ---- workloads ------------------------------------------------------------------

/// What one workload feeds the shared pipeline.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the program's objects (timed as setup_s).
  virtual Program setup() const = 0;
  /// Generates inputs (untimed). Called once, after setup.
  virtual void prepare(const Program& program) = 0;
  /// Round-1 and round-2 ingest: public calls only, each in its Layer.
  virtual census::ShardedCensusMatrix ingest(Program& program, int round,
                                             bool traced) = 0;
  /// Untimed work before a round starts (cleanup, world churn).
  virtual void before_round(Program&, int) {}
  /// Untimed work after round 2 (undo churn).
  virtual void after_iteration(Program&) {}
  /// Checks of one round's analysis outcome.
  virtual void check_outcomes(const Program& program, int round,
                              const census::ShardedCensusMatrix& matrix,
                              std::span<const analysis::TargetOutcome> outcomes) = 0;
  /// Round-2 dirty-row check (incremental_analyze's dirty set).
  virtual void check_dirty(std::span<const std::uint32_t> dirty) = 0;
  /// VPs per row, as the benchmark knows them, for answer checks.
  virtual std::vector<std::uint16_t> row_sizes(
      const census::ShardedCensusMatrix& matrix) const = 0;
  virtual std::vector<std::uint32_t> hot_targets(const Program&) const = 0;
  virtual std::vector<std::uint32_t> slash24_of(const Program& program) const {
    std::vector<std::uint32_t> out(program.hitlist.size());
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = program.hitlist[t].representative.slash24_index();
    }
    return out;
  }
  virtual void describe(const Program& program) const = 0;

  census::DataPlaneConfig plane;
  int round2_repeats = 1;
  // Per-layer side figures of the last round-1 ingest.
  double checkpoint_mb = 0.0;
  double probes = 0.0;
};

census::Hitlist synthetic_hitlist(std::size_t targets) {
  std::vector<census::HitlistEntry> entries(targets);
  for (std::uint32_t t = 0; t < targets; ++t) {
    entries[t].representative = anycast::ipaddr::IPv4Address::from_slash24_index(t, 1);
    entries[t].score = 3;
  }
  return census::Hitlist(std::move(entries));
}

Program synthetic_program(std::size_t targets, std::size_t vps, std::uint64_t seed) {
  Program p;
  p.vps = net::make_planetlab({.node_count = static_cast<int>(vps), .seed = seed ^ 0xF1E1D});
  p.hitlist = synthetic_hitlist(targets);
  p.cities = std::make_unique<anycast::geo::CityIndex>();
  p.analyzer = std::make_unique<analysis::CensusAnalyzer>(p.vps, *p.cities);
  p.pool = std::make_unique<anycast::concurrency::ThreadPool>(kLanes);
  return p;
}

void print_spread(const char* what, std::vector<double> v) {
  if (v.empty()) {
    std::printf("# %s: none\n", what);
    return;
  }
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) { return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))]; };
  std::printf("# %s: n=%zu min=%g p10=%g p50=%g p90=%g max=%g\n", what, v.size(),
              v.front(), at(0.1), at(0.5), at(0.9), v.back());
}

/// Synthetic censuses fed straight into ShardedCensusMatrixBuilder. The
/// two generators share the ingest and the bookkeeping; each workload
/// brings its own inputs and its own check of the analysis outcomes.
class FragmentWorkload : public Workload {
 public:
  FragmentWorkload(std::size_t targets, std::size_t vps, std::uint64_t seed)
      : targets_(targets), vps_(vps), seed_(seed) {}

  Program setup() const override { return synthetic_program(targets_, vps_, seed_); }

  void before_round(Program&, int round) override {
    // The copies the builder takes ownership of are made before the clock
    // starts: the generator is not part of the program.
    staged_.resize(gen_.vps);
    for (std::size_t v = 0; v < gen_.vps; ++v) {
      staged_[v] = round == 1 ? gen_.round1[v] : gen_.round2_fragment(v);
    }
  }

  census::ShardedCensusMatrix ingest(Program& program, int, bool traced) override {
    const Layer layer(traced, "census.build");
    census::ShardedCensusMatrixBuilder builder(program.hitlist.size(), plane);
    for (std::size_t v = 0; v < gen_.vps; ++v) {
      builder.add_fragment(static_cast<std::uint16_t>(v), std::move(staged_[v]));
    }
    return builder.build();
  }

  void check_outcomes(const Program& program, int round,
                      const census::ShardedCensusMatrix& matrix,
                      std::span<const analysis::TargetOutcome> outcomes) override {
    if (matrix.observation_count() != gen_.observations) {
      fail("round " + std::to_string(round) + " matrix holds " +
           std::to_string(matrix.observation_count()) + " observations, generator made " +
           std::to_string(gen_.observations));
    }
    check_rows(program, round, outcomes);
  }

  void check_dirty(std::span<const std::uint32_t> dirty) override {
    if (!std::equal(dirty.begin(), dirty.end(), gen_.churned.begin(), gen_.churned.end())) {
      fail("dirty_rows found " + std::to_string(dirty.size()) +
           " rows, the generator churned " + std::to_string(gen_.churned.size()));
    }
  }

  std::vector<std::uint16_t> row_sizes(const census::ShardedCensusMatrix&) const override {
    return gen_.row_size;
  }
  std::vector<std::uint32_t> hot_targets(const Program&) const override {
    return gen_.anycast_rows;
  }

  void describe(const Program&) const override {
    std::size_t responsive = 0;
    for (const std::uint16_t n : gen_.row_size) responsive += n > 0 ? 1 : 0;
    std::printf("# inputs: %s generator, %zu targets x %zu VPs, %zu observations, "
                "response density %.4f per VP, %zu responsive rows\n",
                generator(), targets_, vps_, gen_.observations,
                static_cast<double>(gen_.observations) /
                    (static_cast<double>(targets_) * static_cast<double>(vps_)),
                responsive);
    std::printf("# inputs: %zu planted anycast rows (%.4f per mille of targets), "
                "%zu rows churned in round 2\n",
                gen_.anycast_rows.size(),
                1e3 * static_cast<double>(gen_.anycast_rows.size()) /
                    static_cast<double>(targets_),
                gen_.churned.size());
    if (!gen_.planted_sites.empty()) {
      print_spread("inputs: replica sites reached per planted row",
                   std::vector<double>(gen_.planted_sites.begin(), gen_.planted_sites.end()));
    }
  }

 protected:
  [[nodiscard]] virtual const char* generator() const = 0;
  /// Checks one round's outcomes against the generated rows (rows1_/rows2_).
  virtual void check_rows(const Program& program, int round,
                          std::span<const analysis::TargetOutcome> outcomes) = 0;

  std::size_t targets_;
  std::size_t vps_;
  std::uint64_t seed_;
  pipebench::SyntheticCensus gen_;
  pipebench::Rows rows1_;
  pipebench::Rows rows2_;

 private:
  std::vector<pipebench::Fragment> staged_;
};

/// The geometry-consistent paper-shaped census.
class PaperWorkload : public FragmentWorkload {
 public:
  using FragmentWorkload::FragmentWorkload;

  void prepare(const Program& program) override {
    pipebench::PaperShape shape;
    shape.targets = targets_;
    shape.vps = vps_;
    gen_ = pipebench::paper_census(shape, program.vps, seed_);
    rows1_ = pipebench::gather_rows(gen_, 1, gen_.anycast_rows);
    rows2_ = pipebench::gather_rows(gen_, 2, gen_.anycast_rows);
    is_planted_.assign(targets_, 0);
    for (const std::uint32_t t : gen_.anycast_rows) is_planted_[t] = 1;
  }

 protected:
  const char* generator() const override { return "paper-shape"; }

  void check_rows(const Program& program, int round,
                  std::span<const analysis::TargetOutcome> outcomes) override {
    std::vector<std::uint8_t> flagged(targets_, 0);
    for (const analysis::TargetOutcome& o : outcomes) {
      if (is_planted_[o.target_index] == 0) {
        fail("unicast row " + std::to_string(o.target_index) + " flagged anycast");
      }
      flagged[o.target_index] = 1;
    }
    for (const std::uint32_t t : gen_.anycast_rows) {
      if (flagged[t] == 0 &&
          pipebench::clearly_disjoint(round == 1 ? rows1_ : rows2_, t, program.vps)) {
        fail("planted anycast row " + std::to_string(t) +
             " has clearly disjoint disks but was not flagged");
      }
    }
  }

 private:
  std::vector<std::uint8_t> is_planted_;
};

/// bench_serving's geometry-free RTTs: nearly every row is flagged.
class AdversarialWorkload : public FragmentWorkload {
 public:
  using FragmentWorkload::FragmentWorkload;

  void prepare(const Program&) override {
    gen_ = pipebench::adversarial_census(targets_, vps_, seed_);
    rows1_ = pipebench::gather_rows(gen_, 1);
    rows2_ = pipebench::gather_rows(gen_, 2, gen_.churned);
  }

 protected:
  const char* generator() const override { return "adversarial"; }

  void check_rows(const Program& program, int round,
                  std::span<const analysis::TargetOutcome> outcomes) override {
    // Round 2 re-analysed only churned rows; the others are round 1's.
    for (const analysis::TargetOutcome& o : outcomes) {
      if (round == 2 && gen_.churned_mask[o.target_index] == 0) continue;
      bool single_disk_mis = false;
      const std::string why = pipebench::check_replica_geometry(
          o, round == 1 ? rows1_ : rows2_, program.vps, &single_disk_mis);
      if (!why.empty()) fail(why);
      ++checked_;
      waived_ += single_disk_mis ? 1 : 0;
    }
    if (round == 1) return;
    // The waiver of check_replica_geometry is bounded. Measured at 0.40% of
    // flagged rows at full scale and 0.5-1.5% at smoke scale (100 VPs, ~650
    // rows); a change that collapses iGreedy's first round to one disk on
    // many more rows fails the run.
    const double share = static_cast<double>(waived_) / static_cast<double>(std::max<std::size_t>(checked_, 1));
    std::printf("# found: %zu of %zu checked flagged rows have a one-disk greedy "
                "first-round MIS and no two replicas with disjoint disks (%.3f%%, "
                "bound %.1f%%)\n",
                waived_, checked_, 100.0 * share, 100.0 * kMaxWaivedShare);
    if (share > kMaxWaivedShare) {
      fail("one-disk first-round MIS on " + std::to_string(waived_) + " of " +
           std::to_string(checked_) + " flagged rows, above the waiver bound");
    }
  }

 private:
  static constexpr double kMaxWaivedShare = 0.025;
  std::size_t checked_ = 0;
  std::size_t waived_ = 0;
};

/// The CLI path on the simulated Internet: probe walk with checkpoint
/// writes (resume_census_sharded), collate of the checkpoint files, and a
/// churned second census the way the watch daemon runs one.
class CensusWorkload : public Workload {
 public:
  CensusWorkload(std::uint32_t unicast, int vps, std::uint64_t seed, fs::path dir)
      : unicast_(unicast), vps_(vps), seed_(seed), dir_(std::move(dir)) {}

  Program setup() const override {
    Program p;
    net::WorldConfig world;
    world.seed = seed_;
    world.unicast_alive_slash24 = unicast_;
    world.unicast_silent_slash24 = unicast_;
    world.unicast_dead_slash24 = unicast_;
    p.internet = std::make_unique<net::SimulatedInternet>(world);
    p.vps = net::make_planetlab({.node_count = vps_, .seed = seed_ ^ 0xF1E1D});
    p.hitlist = census::Hitlist::from_world(*p.internet).without_dead();
    p.cities = std::make_unique<anycast::geo::CityIndex>();
    p.analyzer = std::make_unique<analysis::CensusAnalyzer>(p.vps, *p.cities);
    p.pool = std::make_unique<anycast::concurrency::ThreadPool>(kLanes);
    return p;
  }

  void prepare(const Program& program) override {
    fastping_.seed = seed_ ^ 0x7;
    // Churn: toggle one replica site on a seeded set of multi-site
    // prefixes, never withdrawing a prefix outright.
    const auto deployments = program.internet->deployments();
    for (std::uint64_t i = 0; churn_.size() < kChurnedPrefixes && i < 100000; ++i) {
      const auto d = static_cast<std::size_t>(pipebench::hash01(seed_ ^ 0x5A, i, 0) *
                                              static_cast<double>(deployments.size()));
      const net::Deployment& dep = deployments[d];
      if (dep.sites.size() < 2 || dep.prefix_site_masks.empty()) continue;
      const auto p = static_cast<std::size_t>(pipebench::hash01(seed_ ^ 0x5B, i, 0) *
                                              static_cast<double>(dep.prefix_site_masks.size()));
      const auto s = static_cast<std::size_t>(pipebench::hash01(seed_ ^ 0x5C, i, 0) *
                                              static_cast<double>(std::min<std::size_t>(dep.sites.size(), 64)));
      const std::uint64_t after = dep.prefix_site_masks[p] ^ (std::uint64_t{1} << s);
      if (after == 0) continue;
      if (std::any_of(churn_.begin(), churn_.end(),
                      [&](const Churn& c) { return c.deployment == d && c.prefix == p; })) {
        continue;
      }
      churn_.push_back({d, p, after, 0});
    }
    truth_.resize(program.hitlist.size());
    for (std::size_t t = 0; t < truth_.size(); ++t) {
      const net::TargetInfo* info = program.internet->target_for(program.hitlist[t].representative);
      truth_[t] = info == nullptr ? net::TargetInfo::Kind::kDead : info->kind;
    }
  }

  void before_round(Program& program, int round) override {
    if (round == 1) {
      // A fresh census owns its checkpoints, as `anycastd census` does.
      std::error_code ec;
      fs::remove_all(dir_, ec);
      fs::create_directories(dir_);
      blacklist_ = census::Greylist();
      return;
    }
    for (Churn& c : churn_) {
      c.before = program.internet->set_prefix_site_mask(c.deployment, c.prefix, c.after);
    }
  }

  void after_iteration(Program& program) override {
    for (const Churn& c : churn_) {
      program.internet->set_prefix_site_mask(c.deployment, c.prefix, c.before);
    }
  }

  census::ShardedCensusMatrix ingest(Program& program, int round, bool traced) override {
    const auto census_id = static_cast<std::uint32_t>(round);
    census::ShardedResumeReport report;
    {
      const Layer layer(traced, "census.walk");
      report = census::resume_census_sharded(*program.internet, program.vps,
                                             program.hitlist, blacklist_, fastping_,
                                             dir_, census_id, plane, nullptr,
                                             program.pool.get());
    }
    if (report.vps_rerun != program.vps.size() || report.vps_reused != 0) {
      fail("census " + std::to_string(round) + " reused checkpoints it should have walked");
    }
    echo_replies_ = report.output.summary.echo_replies;
    if (round == 1) probes = static_cast<double>(report.output.summary.probes_sent);
    if (round == 2) return std::move(report.output.data);
    // Round 1 continues as `anycastd analyze --in DIR` does: collate the
    // checkpoint files the walk wrote.
    std::vector<fs::path> paths;
    for (const net::VantagePoint& vp : program.vps) {
      paths.push_back(census::census_checkpoint_path(dir_, census_id, vp.id));
    }
    census::CollateStats stats;
    census::ShardedCensusMatrix matrix;
    {
      const Layer layer(traced, "census.collate");
      matrix = census::collate_census_files_sharded(paths, program.hitlist.size(),
                                                    plane, &stats, true);
    }
    collated_ = stats.observations;
    if (stats.files_ok != paths.size()) {
      fail("collate read " + std::to_string(stats.files_ok) + " of " +
           std::to_string(paths.size()) + " checkpoint files intact");
    }
    return matrix;
  }

  void check_outcomes(const Program& program, int round,
                      const census::ShardedCensusMatrix& matrix,
                      std::span<const analysis::TargetOutcome> outcomes) override {
    for (const analysis::TargetOutcome& o : outcomes) {
      if (truth_[o.target_index] != net::TargetInfo::Kind::kAnycast) {
        fail("target " + std::to_string(o.target_index) +
             " flagged anycast but is unicast or dead in the simulator");
      }
    }
    if (round == 1) {
      checkpoint_mb = 0.0;
      for (const net::VantagePoint& vp : program.vps) {
        checkpoint_mb += static_cast<double>(fs::file_size(
            census::census_checkpoint_path(dir_, 1, vp.id))) / (1024.0 * 1024.0);
      }
      if (collated_ != echo_replies_ || matrix.observation_count() != echo_replies_) {
        fail("collated observations " + std::to_string(collated_) + ", echo replies " +
             std::to_string(echo_replies_) + ", matrix observations " +
             std::to_string(matrix.observation_count()) + " disagree");
      }
    } else if (matrix.observation_count() != echo_replies_) {
      fail("round 2 matrix observations " + std::to_string(matrix.observation_count()) +
           " != echo replies " + std::to_string(echo_replies_));
    }
  }

  void check_dirty(std::span<const std::uint32_t> dirty) override {
    // Only rows of churned prefixes may change between the two censuses.
    for (const std::uint32_t t : dirty) {
      if (truth_[t] != net::TargetInfo::Kind::kAnycast) {
        fail("round 2 dirtied non-anycast row " + std::to_string(t));
      }
    }
  }

  std::vector<std::uint16_t> row_sizes(const census::ShardedCensusMatrix& matrix) const override {
    std::vector<std::uint16_t> out(matrix.target_count());
    for (std::uint32_t t = 0; t < out.size(); ++t) {
      out[t] = static_cast<std::uint16_t>(std::min<std::size_t>(matrix.measurements(t).size(), 0xFFFF));
    }
    return out;
  }

  std::vector<std::uint32_t> hot_targets(const Program&) const override {
    std::vector<std::uint32_t> out;
    for (std::uint32_t t = 0; t < truth_.size(); ++t) {
      if (truth_[t] == net::TargetInfo::Kind::kAnycast) out.push_back(t);
    }
    return out;
  }


  void describe(const Program& program) const override {
    const std::size_t anycast = hot_targets(program).size();
    std::printf("# inputs: simulated census, %zu hitlist targets x %zu VPs "
                "(%u unicast /24s per class), %zu anycast targets in ground truth "
                "(%.4f per mille), %zu prefixes churned in round 2\n",
                program.hitlist.size(), program.vps.size(), unicast_, anycast,
                1e3 * static_cast<double>(anycast) / static_cast<double>(program.hitlist.size()),
                churn_.size());
  }

 private:
  static constexpr std::size_t kChurnedPrefixes = 24;
  struct Churn {
    std::size_t deployment;
    std::size_t prefix;
    std::uint64_t after;
    std::uint64_t before;
  };
  std::uint32_t unicast_;
  int vps_;
  std::uint64_t seed_;
  fs::path dir_;
  census::FastPingConfig fastping_;
  census::Greylist blacklist_;
  std::vector<Churn> churn_;
  std::vector<net::TargetInfo::Kind> truth_;
  std::uint64_t echo_replies_ = 0;
  std::uint64_t collated_ = 0;
};

// ---- serving clients --------------------------------------------------------------

struct ReaderRecord {
  std::size_t request = 0;
  std::uint64_t snapshot = 0;
  std::string served;
};

/// Open-loop reader beside round 2: one request every `interval`, timed
/// from when it was due, answers kept for checking after the round.
struct Reader {
  std::vector<std::uint32_t> latency_ns;
  std::vector<ReaderRecord> records;
  std::size_t failed = 0;
};

void run_reader(serving::SnapshotStore& store, const std::vector<Request>& requests,
                std::atomic<bool>& stop, Clock::duration interval, Reader& log) {
  Clock::time_point due = Clock::now();
  std::size_t next = 0;
  std::string out;
  while (!stop.load()) {
    std::this_thread::sleep_until(due);
    const std::size_t i = next++ % requests.size();
    out.clear();
    serving::ReadGuard guard = store.acquire();
    const serving::QueryContext context{&guard.view(), nullptr};
    const serving::QueryBatchResult result =
        serving::answer_queries(context, requests[i].text, out);
    const std::uint64_t snapshot = guard.view().id();
    guard.release();
    log.latency_ns.push_back(elapsed_ns(due, Clock::now()));
    if (!result.ok()) {
      ++log.failed;
    } else {
      log.records.push_back({i, snapshot, out});
    }
    due += interval;
  }
}

// ---- the run ------------------------------------------------------------------------

struct Totals {
  // Measured iterations (round_s: every repeat).
  std::vector<double> pipeline_s, round_s;
  std::vector<double> traced_pipeline_s, plain_pipeline_s;
  // Closed-loop client, one entry per pass over the request set.
  std::vector<double> queries_per_s, request_p50_us, request_p99_us;
  std::size_t request_samples = 0;
  std::vector<std::uint32_t> reader_ns;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Per-layer (traced iterations only).
  std::vector<RoundTrace> pipeline_traces, round_traces;
  std::vector<double> dirty_rows_s;
  std::map<std::string, std::vector<std::uint32_t>> verb_ns;
  double responsive_rows = 0.0;
  double detected = 0.0;
  double dirty = 0.0;
  double observations = 0.0;
  double spilled_shards = 0.0;
  double spill_mb = 0.0;
};

const char* verb_name(pipebench::Query::Verb v) {
  switch (v) {
    case pipebench::Query::Verb::kPoint: return "point";
    case pipebench::Query::Verb::kReplicas: return "replicas";
    case pipebench::Query::Verb::kNearest: return "nearest";
    case pipebench::Query::Verb::kBatch: return "batch";
  }
  return "?";
}

std::string query_line(const Request& request, std::size_t k) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < k; ++i) pos = request.text.find('\n', pos) + 1;
  return request.text.substr(pos, request.text.find('\n', pos) - pos + 1);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// The result line. Every check ran before it: a failed one exits without
/// a result, so `correct` is always true here.
void print_json(std::size_t attempted, std::size_t failed, const Metrics& metrics) {
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].first.c_str(), metrics[i].second.first,
                metrics[i].second.second.c_str());
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload;
  pipebench::QueryMix mix;
  if (args.workload == "census_pipeline") {
    workload = std::make_unique<CensusWorkload>(args.smoke ? 300 : 5000, args.smoke ? 12 : 300,
                                                args.seed, args.work_dir / "census");
  } else if (args.workload == "paper_matrix") {
    workload = std::make_unique<PaperWorkload>(args.smoke ? 40000 : 500000,
                                               args.smoke ? 200 : 1000, args.seed);
    // Tight enough that most frozen shards spill.
    workload->plane.shard_targets = args.smoke ? 4096 : 32768;
    workload->plane.rss_budget_mb = args.smoke ? 1 : 32;
    workload->plane.stage_budget_mb = args.smoke ? 4 : 32;
  } else {
    workload = std::make_unique<AdversarialWorkload>(args.smoke ? 5000 : 100000,
                                                     args.smoke ? 100 : 1000, args.seed);
    workload->plane.shard_targets = 65536;
    // Its round 2 re-analyses ~0.5% of rows in ~0.2 s: repeat it.
    workload->round2_repeats = 4;
  }
  workload->plane.spill_dir = (args.work_dir / "spill").string();
  if (args.smoke) mix.requests = 200;
  std::error_code ec;
  fs::remove_all(args.work_dir, ec);
  fs::create_directories(args.work_dir / "spill");

  // Set-up: repeated until about a second has gone, median reported.
  std::vector<double> setup_s;
  Program program;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < 3 || (since(setup_start) < 1.0 && setup_s.size() < 25)) {
    program = Program();
    const Clock::time_point t0 = Clock::now();
    program = workload->setup();
    setup_s.push_back(since(t0));
  }
  workload->prepare(program);
  const std::vector<Request> requests = pipebench::make_requests(
      mix, program.hitlist.size(), workload->hot_targets(program),
      workload->slash24_of(program), args.seed);
  std::printf("# workload %s seed %llu scale %s: %zu lanes + 1 client thread, "
              "hardware_threads %u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.smoke ? "smoke" : "full", kLanes, std::thread::hardware_concurrency());
  workload->describe(program);
  std::printf("# VmHWM after set-up, inputs and request set: %.1f MiB\n", vm_hwm_mb());
  std::printf("# queries: %zu requests x %zu lines (%zu point, %zu replicas, %zu nearest, "
              "%zu batch of %zu keys); hot-key share %.2f point, %.2f replicas/nearest; "
              "dotted-quad share %.2f\n",
              requests.size(), mix.lines(), mix.point, mix.replicas, mix.nearest, mix.batch,
              mix.batch_keys, pipebench::QueryMix::kPointHotShare,
              pipebench::QueryMix::kReplicaHotShare, pipebench::QueryMix::kDottedShare);

  if (args.trace) obs::trace().set_capacity(std::size_t{1} << 20);
  serving::SnapshotStore store;
  Totals totals;
  std::vector<analysis::TargetOutcome> first_outcomes;
  std::vector<analysis::TargetOutcome> first_outcomes2;
  std::vector<std::uint64_t> verified(requests.size(), 0);
  std::vector<std::uint16_t> sizes1;
  std::vector<double> iteration_s;
  census::ShardedCensusMatrix last_matrix1;
  const Clock::time_point measure_start = Clock::now();
  for (int it = 0;; ++it) {
    const Clock::time_point iteration_start = Clock::now();
    // Iteration 0 warms caches and the allocator and is left out of every
    // figure; a traced run alternates traced and untraced iterations.
    const bool warm = it == 0;
    const bool traced = args.trace && it % 2 == 1;
    const auto id1 = static_cast<std::uint64_t>(2 * it + 1);
    const auto id2 = id1 + 1;

    // Round 1.
    workload->before_round(program, 1);
    census::ShardedCensusMatrix matrix1;
    std::vector<analysis::TargetOutcome> outcomes1;
    std::uint32_t root1 = 0;
    const Clock::time_point t1 = Clock::now();
    {
      std::optional<obs::Span> root;
      if (traced) {
        root.emplace("pipeline");
        root1 = root->id();
      }
      matrix1 = workload->ingest(program, 1, traced);
      {
        const Layer layer(traced, "analysis.analyze");
        outcomes1 = program.analyzer->analyze(matrix1, program.hitlist, kMinVps,
                                              program.pool.get());
      }
      serving::SnapshotView view;
      {
        const Layer layer(traced, "serving.snapshot_build");
        view = serving::SnapshotView::build(matrix1, outcomes1, id1, &program.hitlist);
      }
      const Layer layer(traced, "serving.publish");
      store.publish(std::move(view));
    }
    const double pipeline_s = since(t1);
    if (!warm) {
      totals.pipeline_s.push_back(pipeline_s);
      (traced ? totals.traced_pipeline_s : totals.plain_pipeline_s).push_back(pipeline_s);
    }
    totals.attempted += 4;
    if (traced) totals.pipeline_traces.push_back(read_round(root1));

    // Inputs are identical every iteration: outcomes are checked in full
    // once, and later iterations must reproduce them exactly.
    if (it == 0) {
      workload->check_outcomes(program, 1, matrix1, outcomes1);
      first_outcomes = outcomes1;
      sizes1 = workload->row_sizes(matrix1);
      totals.observations = static_cast<double>(matrix1.observation_count());
      for (std::size_t s = 0; s < matrix1.shard_count(); ++s) {
        if (matrix1.shard_spilled(s)) {
          totals.spilled_shards += 1.0;
          totals.spill_mb += static_cast<double>(matrix1.shard(s).value_bytes()) / (1024.0 * 1024.0);
        }
      }
      totals.responsive_rows = 0.0;
      for (std::size_t s = 0; s < matrix1.shard_count(); ++s) {
        totals.responsive_rows += static_cast<double>(matrix1.shard(s).responsive_targets(kMinVps));
      }
      totals.detected = static_cast<double>(outcomes1.size());
      std::vector<double> replica_counts;
      for (const auto& o : outcomes1) replica_counts.push_back(static_cast<double>(o.result.replicas.size()));
      std::printf("# realised: %zu of %zu targets flagged anycast (fraction %.6f), "
                  "%.0f observations\n",
                  outcomes1.size(), matrix1.target_count(),
                  static_cast<double>(outcomes1.size()) / static_cast<double>(matrix1.target_count()),
                  totals.observations);
      print_spread("realised: replicas per flagged target", replica_counts);
    } else if (!pipebench::same_outcomes(outcomes1, first_outcomes)) {
      fail("round-1 outcomes differ between iterations on identical inputs");
    }
    const pipebench::AnswerOracle oracle1(outcomes1, sizes1);

    // Closed-loop client against the idle round-1 snapshot.
    // Each pass over the request set is one sample of rate, p50 and p99;
    // the run reports their medians.
    double qps = 0.0;
    for (int pass = 0; pass < kQueryPasses; ++pass) {
      double lines = 0.0;
      double busy_s = 0.0;
      std::vector<std::uint32_t> pass_ns;
      pass_ns.reserve(requests.size());
      std::string out;
      for (const Request& request : requests) {
        const Clock::time_point a = Clock::now();
        serving::ReadGuard guard = store.acquire();
        const serving::QueryContext context{&guard.view(), nullptr};
        const serving::QueryBatchResult result =
            serving::answer_queries(context, request.text, out);
        guard.release();
        const Clock::time_point b = Clock::now();
        ++totals.attempted;
        if (!result.ok() || result.answered != request.queries.size()) {
          ++totals.failed;
          out.clear();
          continue;
        }
        pass_ns.push_back(elapsed_ns(a, b));
        busy_s += std::chrono::duration<double>(b - a).count();
        lines += static_cast<double>(result.answered);
        // An answer byte-identical to one already verified for this
        // request (same snapshot content) is not re-derived.
        const std::uint64_t hash = std::hash<std::string>{}(out);
        const std::size_t r = static_cast<std::size_t>(&request - requests.data());
        if (verified[r] != hash) {
          const std::string why = oracle1.verify(request, out);
          if (!why.empty()) fail("served answer: " + why);
          verified[r] = hash;
        }
        out.clear();
      }
      qps = lines / busy_s;
      if (!warm) {
        totals.queries_per_s.push_back(qps);
        totals.request_p50_us.push_back(percentile_us(pass_ns, 0.50));
        totals.request_p99_us.push_back(percentile_us(pass_ns, 0.99));
        totals.request_samples += pass_ns.size();
      }
    }
    if (traced) {
      // One line per call, by verb, over a slice of the request set.
      serving::ReadGuard guard = store.acquire();
      const serving::QueryContext context{&guard.view(), nullptr};
      std::string out;
      for (std::size_t r = 0; r < std::min<std::size_t>(requests.size(), 1000); ++r) {
        for (std::size_t k = 0; k < requests[r].queries.size(); ++k) {
          const std::string line = query_line(requests[r], k);
          out.clear();
          const Clock::time_point a = Clock::now();
          const serving::QueryBatchResult result = serving::answer_queries(context, line, out);
          totals.verb_ns[verb_name(requests[r].queries[k].verb)].push_back(
              elapsed_ns(a, Clock::now()));
          if (!result.ok()) fail("single-line query failed: " + result.error);
        }
      }
    }

    // Round 2, with the open-loop reader beside it.
    workload->before_round(program, 2);
    Reader reader;
    std::atomic<bool> stop{false};
    std::thread reader_thread(run_reader, std::ref(store), std::cref(requests),
                              std::ref(stop), std::chrono::microseconds(2000),
                              std::ref(reader));
    census::ShardedCensusMatrix matrix2;
    analysis::IncrementalResult incremental;
    serving::SnapshotDelta delta;
    double round_s = 0.0;
    // A short round 2 is repeated on the same input (median reported).
    for (int rep = 0; rep < workload->round2_repeats; ++rep) {
      if (rep > 0) {
        // Back to the round-1 state, untimed, so every repeat does the same work.
        workload->before_round(program, 2);
        store.publish(serving::SnapshotView::build(matrix1, outcomes1, id1, &program.hitlist));
      }
      std::uint32_t root2 = 0;
      const Clock::time_point t2 = Clock::now();
      {
        std::optional<obs::Span> root;
        if (traced) {
          root.emplace("round");
          root2 = root->id();
        }
        matrix2 = workload->ingest(program, 2, traced);
        {
          const Layer layer(traced, "analysis.incremental");
          incremental = analysis::incremental_analyze(*program.analyzer, outcomes1, matrix1,
                                                      matrix2, program.hitlist, kMinVps,
                                                      program.pool.get());
        }
        serving::SnapshotView view;
        {
          const Layer layer(traced, "serving.snapshot_build");
          view = serving::SnapshotView::build(matrix2, incremental.outcomes, id2,
                                              &program.hitlist);
        }
        {
          const Layer layer(traced, "serving.diff");
          serving::ReadGuard previous = store.acquire();
          delta = view.changed_since(previous.view(), 1, program.pool.get());
        }
        const Layer layer(traced, "serving.publish");
        store.publish(std::move(view));
      }
      round_s = since(t2);
      totals.attempted += 5;
      if (!warm) totals.round_s.push_back(round_s);
      if (traced) totals.round_traces.push_back(read_round(root2));
    }
    stop.store(true);
    reader_thread.join();
    totals.attempted += reader.records.size() + reader.failed;
    totals.failed += reader.failed;
    if (!warm) {
      totals.reader_ns.insert(totals.reader_ns.end(), reader.latency_ns.begin(),
                              reader.latency_ns.end());
    }
    if (traced) {
      const Clock::time_point a = Clock::now();
      const std::vector<std::uint32_t> dirty =
          analysis::dirty_rows(matrix1, matrix2, program.pool.get());
      totals.dirty_rows_s.push_back(since(a));
      if (dirty != incremental.dirty) fail("dirty_rows disagrees with incremental_analyze");
    }
    workload->after_iteration(program);
    // Only the traced run's serial replay reads a round-1 matrix after its
    // iteration; an untraced run frees it here, so peak_rss_mb counts no
    // matrix the program itself would no longer hold.
    if (args.trace) last_matrix1 = std::move(matrix1);

    // Round-2 checks.
    workload->check_dirty(incremental.dirty);
    if (delta.dirty != incremental.dirty) fail("changed_since dirty set differs from incremental_analyze");
    if (it == 0) {
      workload->check_outcomes(program, 2, matrix2, incremental.outcomes);
      const auto full = program.analyzer->analyze(matrix2, program.hitlist, kMinVps,
                                                  program.pool.get());
      if (!pipebench::same_outcomes(full, incremental.outcomes)) {
        fail("incremental round-2 outcomes differ from a full analyze");
      }
      first_outcomes2 = incremental.outcomes;
    } else if (!pipebench::same_outcomes(incremental.outcomes, first_outcomes2)) {
      fail("round-2 outcomes differ between iterations on identical inputs");
    }
    totals.dirty = static_cast<double>(incremental.dirty.size());
    {
      const std::vector<std::uint16_t> sizes2 = workload->row_sizes(matrix2);
      const pipebench::AnswerOracle oracle2(incremental.outcomes, sizes2);
      for (const ReaderRecord& r : reader.records) {
        const std::string why = (r.snapshot == id1 ? oracle1 : oracle2)
                                    .verify(requests[r.request], r.served);
        if (r.snapshot != id1 && r.snapshot != id2) fail("reader saw an unknown snapshot");
        if (!why.empty()) fail("reader answer: " + why);
      }
    }

    iteration_s.push_back(since(iteration_start));
    std::printf("# iteration %d%s: pipeline_s %.4f round_s %.4f queries_per_s %.0f, "
                "%.2f s with checks\n",
                it, warm ? " (warm-up)" : traced ? " (traced)" : "", pipeline_s, round_s, qps,
                iteration_s.back());
    const double elapsed = since(measure_start);
    if (it + 1 >= kMinIterations && elapsed + median(iteration_s) > args.seconds) break;
    if (it + 1 >= 64) break;
  }

  std::printf("# %zu iterations in %.2f s (first one a warm-up); request latency samples "
              "%zu in %zu passes, round-2 reader samples %zu\n",
              iteration_s.size(), since(measure_start), totals.request_samples,
              totals.request_p50_us.size(), totals.reader_ns.size());
  Metrics metrics;
  const auto put = [&](const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  };
  if (!args.trace) {
    put("setup_s", median(setup_s), "s");
    put("pipeline_s", median(totals.pipeline_s), "s");
    put("round_s", median(totals.round_s), "s");
    put("queries_per_s", median(totals.queries_per_s), "1/s");
    put("request_p50_us", median(totals.request_p50_us), "us");
    put("request_p99_us", median(totals.request_p99_us), "us");
    put("peak_rss_mb", vm_hwm_mb(), "MiB");
  } else {
    // Serial replays of the public per-row calls over the same rows.
    const census::ShardedCensusMatrix& replay = last_matrix1;
    std::vector<std::uint32_t> rows;
    for (std::uint32_t t = 0; t < replay.target_count(); ++t) {
      if (replay.measurements(t).size() >= kMinVps) rows.push_back(t);
    }
    Clock::time_point a = Clock::now();
    std::size_t detected = 0;
    std::vector<std::uint32_t> hits;
    for (const std::uint32_t t : rows) {
      if (program.analyzer->detect(replay.measurements(t))) hits.push_back(t);
    }
    const double detect_s = since(a);
    detected = hits.size();
    a = Clock::now();
    std::size_t replicas = 0;
    for (const std::uint32_t t : hits) {
      replicas += program.analyzer->analyze_row(replay.measurements(t)).replicas.size();
    }
    const double igreedy_s = since(a);
    if (detected != first_outcomes.size()) fail("serial detect replay disagrees with analyze");
    std::size_t analyzed_replicas = 0;
    for (const auto& o : first_outcomes) analyzed_replicas += o.result.replicas.size();
    if (replicas != analyzed_replicas) fail("serial iGreedy replay disagrees with analyze");

    const auto traces = [&](const std::vector<RoundTrace>& v, auto fn) {
      std::vector<double> out;
      for (const RoundTrace& r : v) out.push_back(fn(r));
      return median(out);
    };
    const auto& p = totals.pipeline_traces;
    const auto& r = totals.round_traces;
    const double walk_s = traces(p, [](const RoundTrace& t) { return t.call("census.walk"); });
    const double collate_s = traces(p, [](const RoundTrace& t) { return t.call("census.collate"); });
    const double analyze_s = traces(p, [](const RoundTrace& t) { return t.call("analysis.analyze"); });
    const obs::LatencyHisto::Snapshot walk_hist =
        obs::LatencyHisto::get("census_walk_us", "us", "wall-clock per-VP census walk latency").snapshot();
    put("census.walk_s", walk_s, "s");
    put("census.probes_per_s", walk_s > 0 ? workload->probes / walk_s : 0.0, "1/s");
    put("census.vp_walk_p50_ms", walk_hist.count > 0 ? walk_hist.quantile(0.5) / 1e3 : 0.0, "ms");
    put("census.checkpoint_mb", workload->checkpoint_mb, "MiB");
    put("census.collate_s", collate_s, "s");
    put("census.collate_mb_per_s", collate_s > 0 ? workload->checkpoint_mb / collate_s : 0.0, "MiB/s");
    put("census.build_s", traces(p, [](const RoundTrace& t) { return t.call("census.build"); }), "s");
    put("census.observations", totals.observations, "count");
    put("census.spilled_shards", totals.spilled_shards, "count");
    put("census.spill_mb", totals.spill_mb, "MiB");
    put("analysis.analyze_s", analyze_s, "s");
    put("analysis.rows_per_s", totals.responsive_rows / analyze_s, "1/s");
    put("analysis.detect_s", detect_s, "s");
    put("analysis.detected", totals.detected, "count");
    put("analysis.detect_yield", totals.detected / std::max(1.0, totals.responsive_rows), "ratio");
    put("analysis.dirty_rows_s", median(totals.dirty_rows_s), "s");
    put("analysis.dirty_rows", totals.dirty, "count");
    put("analysis.incremental_s", traces(r, [](const RoundTrace& t) { return t.call("analysis.incremental"); }), "s");
    put("core.igreedy_s", igreedy_s, "s");
    put("core.igreedy_rows_per_s", igreedy_s > 0 ? static_cast<double>(detected) / igreedy_s : 0.0, "1/s");
    put("core.replicas", static_cast<double>(replicas), "count");
    put("serving.snapshot_build_s", traces(p, [](const RoundTrace& t) { return t.call("serving.snapshot_build"); }), "s");
    put("serving.publish_s", traces(p, [](const RoundTrace& t) { return t.call("serving.publish"); }), "s");
    put("serving.diff_s", traces(r, [](const RoundTrace& t) { return t.call("serving.diff"); }), "s");
    for (const char* verb : {"point", "replicas", "nearest", "batch"}) {
      put(std::string("serving.") + verb + "_us", percentile_us(totals.verb_ns[verb], 0.5), "us");
    }
    put("serving.round_request_p99_us", percentile_us(totals.reader_ns, 0.99), "us");
    const auto hist_us = [](const char* name, double q) {
      const obs::LatencyHisto::Snapshot s = obs::LatencyHisto::get(name, "ns", "").snapshot();
      return s.count > 0 ? s.quantile(q) / 1e3 : 0.0;
    };
    put("serving.lookup_hist_p50_us", hist_us("serving_lookup_ns", 0.5), "us");
    put("serving.nearest_hist_p50_us", hist_us("serving_nearest_ns", 0.5), "us");
    put("serving.query_hist_p99_us", hist_us("serving_query_ns", 0.99), "us");
    const double plain = median(totals.plain_pipeline_s);
    put("obs.trace_overhead_pct",
        plain > 0 ? 100.0 * (median(totals.traced_pipeline_s) - plain) / plain : 0.0, "%");
    for (const auto& [phase, v] : {std::pair{"pipeline", &p}, std::pair{"round", &r}}) {
      // Per traced round: each layer's span time, and "other" = the root
      // minus every layer (time between calls); medians over rounds.
      for (const char* layer : {"census", "analysis", "serving", "other"}) {
        const auto self = [&](const RoundTrace& t) {
          return std::string(layer) == "other"
                     ? t.root_s - t.layer("census") - t.layer("analysis") - t.layer("serving")
                     : t.layer(layer);
        };
        put(std::string(phase) + "." + layer + "_s", traces(*v, self), "s");
        put(std::string(phase) + "." + layer + "_pct",
            traces(*v, [&](const RoundTrace& t) { return 100.0 * self(t) / t.root_s; }), "%");
      }
    }
    const fs::path trace_path = args.work_dir / ("trace-" + args.workload + ".json");
    if (!obs::write_chrome_trace(trace_path)) fail("cannot write " + trace_path.string());
    std::printf("# chrome trace: %s\n", trace_path.string().c_str());
  }
  print_json(totals.attempted, totals.failed, metrics);
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  return run(args);
}
