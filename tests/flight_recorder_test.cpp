// Flight recorder tests: the structured event journal's determinism
// contract (semantic events byte-identical across thread counts and
// crash+resume), the bounded-buffer and rate-limit behavior, the
// Chrome-trace exporter's JSON validity, and the progress heartbeat.
//
// These mirror the metrics determinism tests in concurrency_test.cpp:
// same tiny world, same configs, same thread counts — the journal is the
// event-stream analogue of MetricsRegistry::semantic_snapshot() and must
// hold to the same byte contract (DESIGN.md §12).
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "anycast/analysis/run_report.hpp"
#include "anycast/census/resume.hpp"
#include "anycast/census/sharded.hpp"
#include "anycast/concurrency/thread_pool.hpp"
#include "anycast/net/fault.hpp"
#include "anycast/net/platform.hpp"
#include "anycast/obs/journal.hpp"
#include "anycast/obs/metrics.hpp"
#include "anycast/obs/progress.hpp"
#include "anycast/obs/trace.hpp"
#include "anycast/obs/trace_export.hpp"

namespace {

namespace fs = std::filesystem;
using namespace anycast;
using census::FastPingConfig;
using census::Greylist;
using census::Hitlist;
using concurrency::ThreadPool;
using obs::EventField;
using obs::Journal;
using obs::MetricClass;
using obs::Severity;

// --- Journal unit behavior ------------------------------------------------

TEST(Journal, SemanticEventsCommitSortedByOrderKey) {
  Journal j;
  j.set_recording(true);
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 2, {{"vp", 2u}});
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 0, {{"vp", 0u}});
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 1, {{"vp", 1u}});
  j.commit();
  const std::string text = j.semantic_text();
  const std::size_t p0 = text.find("\"order\":0");
  const std::size_t p1 = text.find("\"order\":1");
  const std::size_t p2 = text.find("\"order\":2");
  ASSERT_NE(p0, std::string::npos);
  EXPECT_LT(p0, p1);
  EXPECT_LT(p1, p2);
  EXPECT_EQ(j.events_recorded(), 3u);
  EXPECT_EQ(j.events_dropped(), 0u);
}

TEST(Journal, SemanticTextIsIdenticalForAnyEmitInterleaving) {
  // Two threads emit disjoint order keys; commit() sorts, so the final
  // text must not depend on scheduling.
  std::string first;
  for (int round = 0; round < 3; ++round) {
    Journal j;
    j.set_recording(true);
    std::thread even([&j] {
      for (std::uint64_t i = 0; i < 64; i += 2) {
        j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", i,
               {{"vp", i}});
      }
    });
    std::thread odd([&j] {
      for (std::uint64_t i = 1; i < 64; i += 2) {
        j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", i,
               {{"vp", i}});
      }
    });
    even.join();
    odd.join();
    j.commit();
    ASSERT_EQ(j.events_dropped(), 0u);
    if (round == 0) {
      first = j.semantic_text();
      ASSERT_FALSE(first.empty());
    } else {
      EXPECT_EQ(j.semantic_text(), first) << "round " << round;
    }
  }
}

TEST(Journal, FieldTypesSerializeDistinctly) {
  Journal j;
  j.set_recording(true);
  j.emit(MetricClass::kSemantic, Severity::kWarn, "mixed", 0,
         {{"u", 7u},
          {"i", -3},
          {"f", 1.5},
          {"yes", true},
          {"no", false},
          {"s", "text \"quoted\"\n"}});
  j.commit();
  const std::string text = j.semantic_text();
  EXPECT_NE(text.find("\"sev\":\"warn\""), std::string::npos);
  EXPECT_NE(text.find("\"u\":7"), std::string::npos);
  EXPECT_NE(text.find("\"i\":-3"), std::string::npos);
  EXPECT_NE(text.find("\"f\":1.5"), std::string::npos);
  EXPECT_NE(text.find("\"yes\":true"), std::string::npos);
  EXPECT_NE(text.find("\"no\":false"), std::string::npos);
  // String values are JSON-escaped.
  EXPECT_NE(text.find("\"s\":\"text \\\"quoted\\\"\\n\""),
            std::string::npos);
}

TEST(Journal, OversizedEventsAreTruncatedNotSplit) {
  Journal j;
  j.set_recording(true);
  const std::string huge(4096, 'x');
  j.emit(MetricClass::kSemantic, Severity::kInfo, "big", 0,
         {{"blob", huge}, {"after", 1u}});
  j.commit();
  const std::string text = j.semantic_text();
  // One complete line, flagged, still valid-ish JSON shape.
  ASSERT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
  EXPECT_NE(text.find("\"truncated\":true"), std::string::npos);
  EXPECT_EQ(text.back(), '\n');
  EXPECT_EQ(text[text.size() - 2], '}');
}

TEST(Journal, BadKeysThrowAndRecordingGateIsCheap) {
  Journal j;
  j.set_recording(true);
  EXPECT_THROW(j.emit(MetricClass::kSemantic, Severity::kInfo, "Bad Key", 0,
                      {}),
               std::logic_error);
  j.set_recording(false);
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 0, {{"vp", 1u}});
  j.commit();
  EXPECT_EQ(j.events_recorded(), 0u);
  EXPECT_TRUE(j.semantic_text().empty());
}

TEST(Journal, SeverityFloorDiscardsBelow) {
  Journal j;
  j.set_recording(true);
  j.set_min_severity(Severity::kWarn);
  j.emit(MetricClass::kSemantic, Severity::kDebug, "noise", 0, {});
  j.emit(MetricClass::kSemantic, Severity::kInfo, "noise", 1, {});
  j.emit(MetricClass::kSemantic, Severity::kError, "signal", 2, {});
  j.commit();
  EXPECT_EQ(j.events_recorded(), 1u);
  EXPECT_NE(j.semantic_text().find("signal"), std::string::npos);
}

TEST(Journal, RateLimiterCapsTimingEventsPerKey) {
  Journal j;
  j.set_recording(true);
  // Zero refill: exactly `burst` tokens per key, deterministic.
  j.set_rate_limit(/*per_second=*/0.0, /*burst=*/3.0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.emit(MetricClass::kTiming, Severity::kInfo, "chatty", i, {{"i", i}});
  }
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.emit(MetricClass::kTiming, Severity::kInfo, "other", i, {{"i", i}});
  }
  // Semantic events are exempt — the limiter is wall-clock-driven and
  // must never perturb the deterministic stream.
  for (std::uint64_t i = 0; i < 10; ++i) {
    j.emit(MetricClass::kSemantic, Severity::kInfo, "exempt", i,
           {{"i", i}});
  }
  j.commit();
  EXPECT_EQ(j.events_rate_limited(), 14u);  // 7 per timing key
  EXPECT_EQ(j.events_recorded(), 16u);      // 3 + 3 timing, 10 semantic
}

TEST(Journal, RateLimiterKeyMapIsBounded) {
  // A long-lived daemon emits timing events under an unbounded set of
  // names; the limiter map must stay bounded (oldest bucket evicted)
  // instead of growing for the life of the process.
  Journal j;
  j.set_recording(true);
  j.set_rate_limit(/*per_second=*/0.0, /*burst=*/2.0);
  for (int k = 0; k < 500; ++k) {
    const std::string name = "key_" + std::to_string(k);
    for (std::uint64_t i = 0; i < 4; ++i) {
      j.emit(MetricClass::kTiming, Severity::kInfo, name, i, {{"i", i}});
    }
  }
  EXPECT_LE(j.rate_limiter_key_count(), Journal::kMaxLimiterKeys);
  // Eviction only ever under-limits (an evicted key re-enters with a full
  // burst); the keys still resident keep limiting normally.
  j.commit();
  EXPECT_GT(j.events_rate_limited(), 0u);
  EXPECT_GE(j.events_recorded(), 2u * 500u);
}

TEST(Journal, FullArenaDropsAndCountsInsteadOfBlocking) {
  Journal j;
  j.set_arena_capacity(256);  // a handful of events per thread
  j.set_recording(true);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    j.emit(MetricClass::kTiming, Severity::kInfo, "flood", i, {{"i", i}});
  }
  EXPECT_GT(j.events_dropped(), 0u);
  j.commit();
  // Drained events plus drops account for every emit.
  EXPECT_EQ(j.events_recorded() + j.events_dropped(), 1000u);
}

TEST(Journal, FlushMidStreamPreservesSemanticOrdering) {
  // flush() (what the heartbeat calls) stages semantic events without
  // cutting a commit batch: late-but-lower-order events still sort first.
  Journal j;
  j.set_recording(true);
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 5, {{"vp", 5u}});
  j.flush();
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 1, {{"vp", 1u}});
  j.commit();
  const std::string text = j.semantic_text();
  EXPECT_LT(text.find("\"order\":1"), text.find("\"order\":5"));
}

TEST(Journal, OpenFailsFastOnUnwritablePath) {
  Journal j;
  EXPECT_FALSE(j.open("/nonexistent-dir/journal.jsonl"));
  EXPECT_FALSE(j.recording());
}

TEST(Journal, FileSinkReceivesCommittedLines) {
  const fs::path path =
      fs::temp_directory_path() /
      ("anycast_journal_test_" + std::to_string(::getpid()) + ".jsonl");
  Journal j;
  ASSERT_TRUE(j.open(path));
  EXPECT_TRUE(j.recording());
  j.emit(MetricClass::kSemantic, Severity::kInfo, "walk", 0, {{"vp", 0u}});
  j.emit(MetricClass::kTiming, Severity::kInfo, "tick", 0, {{"n", 1u}});
  j.close();
  std::ifstream in(path);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  fs::remove(path);
  EXPECT_NE(text.find("\"key\":\"walk\""), std::string::npos);
  EXPECT_NE(text.find("\"key\":\"tick\""), std::string::npos);
  // The file is a consistent prefix of complete lines.
  EXPECT_EQ(obs::journal_consistent_prefix(text), text);
}

TEST(Journal, ConsistentPrefixCutsAtLastNewline) {
  EXPECT_EQ(obs::journal_consistent_prefix(""), "");
  EXPECT_EQ(obs::journal_consistent_prefix("{\"a\":1}\n"), "{\"a\":1}\n");
  EXPECT_EQ(obs::journal_consistent_prefix("{\"a\":1}\n{\"b\""),
            "{\"a\":1}\n");
  EXPECT_EQ(obs::journal_consistent_prefix("torn"), "");
}

// --- Journal determinism through the census pipeline ----------------------

net::WorldConfig tiny_world_config() {
  net::WorldConfig config;
  config.seed = 21;
  config.unicast_alive_slash24 = 400;
  config.unicast_dead_slash24 = 300;
  return config;
}

const net::SimulatedInternet& tiny_world() {
  static const net::SimulatedInternet world(tiny_world_config());
  return world;
}

const Hitlist& tiny_hitlist() {
  static const Hitlist hitlist =
      Hitlist::from_world(tiny_world()).without_dead();
  return hitlist;
}

FastPingConfig loaded_config() {
  FastPingConfig config;
  config.seed = 90;
  config.vp_availability = 0.8;
  config.retry_max_attempts = 2;
  config.retry_probe_budget = 64;
  config.vp_deadline_hours = 10.0;
  config.quarantine_drop_rate = 0.5;
  return config;
}

net::FaultPlan stormy_plan() {
  net::FaultSpec spec;
  spec.crash_rate = 0.4;
  spec.outage_rate = 0.4;
  spec.storm_rate = 0.4;
  spec.straggler_rate = 0.4;
  return net::FaultPlan(spec);
}

/// Runs one census with the global journal capturing (no file sink) and
/// returns the committed semantic text.
std::string census_journal(ThreadPool* pool, const net::FaultPlan* plan) {
  obs::journal().reset();
  obs::journal().set_recording(true);
  obs::metrics().reset();
  Greylist blacklist;
  const auto vps = net::make_planetlab({.node_count = 12, .seed = 91});
  (void)census::run_census_sharded(tiny_world(), vps, tiny_hitlist(), blacklist,
                                   loaded_config(), /*plane=*/{}, plan, pool);
  std::string text = obs::journal().semantic_text();
  EXPECT_EQ(obs::journal().events_dropped(), 0u);
  obs::journal().set_recording(false);
  obs::journal().reset();
  return text;
}

TEST(JournalDeterminism, SemanticTextIdenticalAcrossThreadCounts) {
  std::string clean_serial;
  for (const bool chaos : {false, true}) {
    const net::FaultPlan plan = stormy_plan();
    const net::FaultPlan* faults = chaos ? &plan : nullptr;
    const std::string serial = census_journal(nullptr, faults);
    ASSERT_NE(serial.find("census.walk"), std::string::npos);
    ASSERT_NE(serial.find("census.summary"), std::string::npos);
    ASSERT_NE(serial.find("greylist.merge"), std::string::npos);
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ThreadPool pool(threads);
      EXPECT_EQ(census_journal(&pool, faults), serial)
          << "chaos=" << chaos << " threads=" << threads;
    }
    if (!chaos) {
      clean_serial = serial;
    } else {
      // The journal actually sees the chaos (crashed walks change
      // outcomes); it is not a constant string.
      EXPECT_NE(serial, clean_serial);
    }
  }
}

class JournalResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("anycast_flight_recorder_test_" + std::to_string(::getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    obs::journal().set_recording(false);
    obs::journal().reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(JournalResumeTest, SemanticTextSurvivesCrashAndResume) {
  // Same shape as the metrics twin in concurrency_test: a crashed census
  // resumed to completion must journal the exact same semantic events as
  // an uninterrupted run. Retries stay off — a replayed checkpoint
  // cannot distinguish retry probes from first attempts.
  const auto vps = net::make_planetlab({.node_count = 8, .seed = 91});
  FastPingConfig config;
  config.seed = 90;

  obs::journal().reset();
  obs::journal().set_recording(true);
  obs::metrics().reset();
  Greylist blacklist_clean;
  (void)census::resume_census_sharded(tiny_world(), vps, tiny_hitlist(),
                                      blacklist_clean, config, dir_ / "clean",
                                      /*census_id=*/1);
  const std::string clean_text = obs::journal().semantic_text();
  ASSERT_NE(clean_text.find("census.walk"), std::string::npos);

  net::FaultSpec spec;
  spec.crash_rate = 0.5;
  const net::FaultPlan plan(spec);
  const fs::path crash_dir = dir_ / "crashed";
  ThreadPool pool(8);
  obs::journal().reset();
  obs::journal().set_recording(true);
  Greylist blacklist_crash;
  const census::ShardedResumeReport crashed = census::resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_crash, config, crash_dir,
      /*census_id=*/1, /*plane=*/{}, &plan, &pool);
  ASSERT_GT(
      crashed.output.summary.outcome_count(census::VpOutcome::kCrashed), 0u);

  obs::journal().reset();
  obs::journal().set_recording(true);
  obs::metrics().reset();
  Greylist blacklist_resume;
  const census::ShardedResumeReport resumed = census::resume_census_sharded(
      tiny_world(), vps, tiny_hitlist(), blacklist_resume, config, crash_dir,
      /*census_id=*/1, /*plane=*/{}, /*faults=*/nullptr, &pool);
  EXPECT_GT(resumed.vps_reused, 0u);
  EXPECT_EQ(obs::journal().semantic_text(), clean_text);
}

// --- Drift diff -----------------------------------------------------------

TEST(JournalDrift, IdenticalStreamsReportZeroDrift) {
  const std::string a =
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":0,\"vp\":0}\n"
      "{\"class\":\"timing\",\"sev\":\"info\",\"key\":\"tick\",\"order\":1,"
      "\"t_ms\":1.5}\n"
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":1,\"vp\":1}\n";
  // Timing lines differ but are filtered from the comparison.
  std::string b = a;
  const std::size_t t = b.find("1.5");
  b.replace(t, 3, "9.9");
  const analysis::Divergence drift = analysis::journal_drift(a, b);
  EXPECT_FALSE(drift.diverged);
  EXPECT_EQ(drift.left_count, 2u);
  EXPECT_EQ(drift.right_count, 2u);
}

TEST(JournalDrift, FirstDivergingSemanticLineIsReported) {
  const std::string walk0 =
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":0,\"vp\":0,\"echo\":100}\n";
  const std::string walk1a =
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":1,\"vp\":1,\"echo\":200}\n";
  const std::string walk1b =
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":1,\"vp\":1,\"echo\":201}\n";
  const analysis::Divergence drift =
      analysis::journal_drift(walk0 + walk1a, walk0 + walk1b);
  ASSERT_TRUE(drift.diverged);
  EXPECT_EQ(drift.index, 1u);
  EXPECT_NE(drift.left.find("\"echo\":200"), std::string::npos);
  EXPECT_NE(drift.right.find("\"echo\":201"), std::string::npos);
}

TEST(JournalDrift, LengthMismatchDivergesAtStreamEnd) {
  const std::string walk =
      "{\"class\":\"semantic\",\"sev\":\"info\",\"key\":\"census.walk\","
      "\"order\":0,\"vp\":0}\n";
  const analysis::Divergence drift =
      analysis::journal_drift(walk + walk, walk);
  ASSERT_TRUE(drift.diverged);
  EXPECT_EQ(drift.index, 1u);
  EXPECT_FALSE(drift.left.empty());
  EXPECT_TRUE(drift.right.empty());
}

TEST(JournalSummary, CountsClassesKeysAndSeverities) {
  obs::Journal j;
  j.set_recording(true);
  j.emit(MetricClass::kSemantic, Severity::kInfo, "census.walk", 0,
         {{"vp", 0u}});
  j.emit(MetricClass::kSemantic, Severity::kWarn, "census.walk", 1,
         {{"vp", 1u}});
  j.emit(MetricClass::kTiming, Severity::kInfo, "tick", 0, {});
  j.emit(MetricClass::kSemantic, Severity::kInfo, "census.summary",
         Journal::kReductionOrderBase, {{"probes", 42u}});
  j.commit();
  const analysis::JournalSummary summary = analysis::summarize_journal(
      j.semantic_text() + "not an event line\n");
  EXPECT_EQ(summary.total_events, 3u);  // semantic_text: timing excluded
  EXPECT_EQ(summary.semantic_events, 3u);
  EXPECT_EQ(summary.malformed_lines, 1u);
  EXPECT_EQ(summary.by_key.at("census.walk"), 2u);
  EXPECT_EQ(summary.by_severity.at("warn"), 1u);
  EXPECT_NE(summary.last_census_summary.find("\"probes\":42"),
            std::string::npos);
}

// --- Chrome trace export --------------------------------------------------

/// Minimal JSON validity checker (objects, arrays, strings, numbers,
/// true/false/null). Returns true when `text` is one complete JSON value.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return at_ == text_.size();
  }

 private:
  bool value() {
    if (at_ >= text_.size()) return false;
    switch (text_[at_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++at_;  // {
    skip_ws();
    if (peek() == '}') { ++at_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++at_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == '}') { ++at_; return true; }
      return false;
    }
  }
  bool array() {
    ++at_;  // [
    skip_ws();
    if (peek() == ']') { ++at_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++at_; continue; }
      if (peek() == ']') { ++at_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++at_;
    while (at_ < text_.size() && text_[at_] != '"') {
      if (text_[at_] == '\\') ++at_;
      ++at_;
    }
    if (at_ >= text_.size()) return false;
    ++at_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = at_;
    if (peek() == '-') ++at_;
    while (at_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[at_])) != 0 ||
            text_[at_] == '.' || text_[at_] == 'e' || text_[at_] == 'E' ||
            text_[at_] == '+' || text_[at_] == '-')) {
      ++at_;
    }
    return at_ > start;
  }
  bool literal(std::string_view word) {
    if (text_.substr(at_, word.size()) != word) return false;
    at_ += word.size();
    return true;
  }
  char peek() const { return at_ < text_.size() ? text_[at_] : '\0'; }
  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_])) != 0) {
      ++at_;
    }
  }

  std::string_view text_;
  std::size_t at_ = 0;
};

TEST(TraceExport, ChromeTraceJsonIsValidAndPairsSpans) {
  std::vector<obs::SpanRecord> spans;
  obs::SpanRecord root;
  root.id = 1;
  root.name = "resume_census";
  root.start_ns = 1000;
  root.duration_ns = 9000;
  obs::SpanRecord child;
  child.id = 2;
  child.parent = 1;
  child.name = "vp_walk";
  child.label = 7;
  child.adopted = true;
  child.start_ns = 2000;
  child.duration_ns = 3000;
  spans = {root, child};
  std::vector<obs::CounterSample> samples;
  samples.push_back({.t_ns = 1500, .name = "census_probes_sent",
                     .value = 123.0});
  const std::string json = obs::chrome_trace_json(spans, samples, 4, 1);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // One async begin and one async end per span, same id.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"vp_walk[7]\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("census_probes_sent"), std::string::npos);
  // Drop accounting is surfaced, not silent.
  EXPECT_NE(json.find("\"dropped_spans\":4"), std::string::npos);
  EXPECT_NE(json.find("\"orphan_spans\":1"), std::string::npos);
  // Timestamps are microseconds: 2000 ns -> 2.000.
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);
}

TEST(TraceExport, EmptyInputsStillProduceValidJson) {
  const std::string json = obs::chrome_trace_json({}, {}, 0, 0);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(TraceExport, CounterSamplerIsBoundedAndCountsDrops) {
  obs::CounterSampler sampler;
  obs::MetricsRegistry registry;
  registry.counter("c", MetricClass::kSemantic).add(5);
  sampler.set_capacity(3);
  for (int i = 0; i < 5; ++i) {
    sampler.sample(registry, static_cast<std::int64_t>(i) * 1000);
  }
  EXPECT_EQ(sampler.samples().size(), 3u);
  EXPECT_EQ(sampler.dropped(), 2u);
  sampler.reset();
  EXPECT_TRUE(sampler.samples().empty());
  EXPECT_EQ(sampler.dropped(), 0u);
}

TEST(TraceExport, WriteChromeTraceRoundTripsThroughAFile) {
  const fs::path path =
      fs::temp_directory_path() /
      ("anycast_trace_test_" + std::to_string(::getpid()) + ".json");
  {
    const obs::Span span("export_test");
    (void)span;
  }
  ASSERT_TRUE(obs::write_chrome_trace(path));
  std::ifstream in(path);
  const std::string json{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  fs::remove(path);
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("export_test"), std::string::npos);
  EXPECT_FALSE(obs::write_chrome_trace("/nonexistent-dir/trace.json"));
}

// --- Progress heartbeat ---------------------------------------------------

TEST(Progress, TickFormatsRatesAndEta) {
  obs::MetricsRegistry registry;
  registry.counter("census_probes_sent", MetricClass::kSemantic).add(1000);
  registry.counter("census_replies_echo", MetricClass::kSemantic).add(800);
  registry.counter("census_timeouts_organic", MetricClass::kSemantic)
      .add(150);
  registry.counter("census_timeouts_injected", MetricClass::kTiming)
      .add(50);
  registry.counter("census_greylist_new", MetricClass::kSemantic).add(3);
  obs::ProgressConfig config;
  config.registry = &registry;
  config.phase = "census";
  obs::ProgressTracker tracker(config);
  // 5 of 10 VPs after 30 s -> another 30 s to go.
  const std::string line = tracker.tick(5, 10, 30.0);
  EXPECT_NE(line.find("[census] 5/10 VPs (50.0%)"), std::string::npos);
  EXPECT_NE(line.find("probes 1000"), std::string::npos);
  EXPECT_NE(line.find("echo 80.0%"), std::string::npos);
  EXPECT_NE(line.find("timeout 20.0%"), std::string::npos);
  EXPECT_NE(line.find("greylist +3"), std::string::npos);
  EXPECT_NE(line.find("ETA 30.0s"), std::string::npos);
  // Completed phases report elapsed, not ETA.
  const std::string done = tracker.tick(10, 10, 60.0);
  EXPECT_NE(done.find("(100.0%)"), std::string::npos);
  EXPECT_NE(done.find("elapsed 60.0s"), std::string::npos);
  EXPECT_EQ(done.find("ETA"), std::string::npos);
  EXPECT_EQ(tracker.ticks(), 2u);
}

TEST(Progress, TickJournalsHeartbeatAndSamplesCounters) {
  obs::MetricsRegistry registry;
  registry.counter("census_probes_sent", MetricClass::kSemantic).add(10);
  obs::Journal j;
  j.set_recording(true);
  obs::CounterSampler sampler;
  obs::ProgressConfig config;
  config.registry = &registry;
  config.journal = &j;
  config.sampler = &sampler;
  obs::ProgressTracker tracker(config);
  (void)tracker.tick(1, 4, 2.0);
  (void)tracker.tick(2, 4, 4.0);
  // Heartbeats are kTiming: recorded (post-flush), not in semantic text.
  EXPECT_EQ(j.events_recorded(), 2u);
  EXPECT_TRUE(j.semantic_text().empty());
  EXPECT_EQ(sampler.samples().size(), 2u);
  EXPECT_EQ(sampler.samples().front().name, "census_probes_sent");
}

TEST(Progress, ZeroTotalsDoNotDivide) {
  obs::MetricsRegistry registry;
  obs::ProgressConfig config;
  config.registry = &registry;
  obs::ProgressTracker tracker(config);
  const std::string line = tracker.tick(0, 0, 0.0);
  EXPECT_NE(line.find("0/0 VPs (0.0%)"), std::string::npos);
  EXPECT_NE(line.find("probes 0"), std::string::npos);
}

}  // namespace
