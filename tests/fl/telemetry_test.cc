// Structured run telemetry (fl/telemetry.h) plus the observability smoke
// test ISSUE 1 mandates: a short instrumented run must produce the expected
// spans and metrics while leaving SimulationResult bit-identical.
#include "fl/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fl/experiment.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fl {
namespace {

SimulationResult MakeFakeResult() {
  SimulationResult result;
  for (std::size_t i = 0; i < 3; ++i) {
    RoundRecord r;
    r.round = i;
    r.sim_time = 1.5 * static_cast<double>(i + 1);
    r.test_accuracy = (i == 1) ? -1.0 : 0.5 + 0.1 * static_cast<double>(i);
    r.buffered = 6;
    r.accepted = 4;
    r.rejected = 1;
    r.deferred = 1;
    r.dropped_stale = i;
    r.mean_staleness = 0.5;
    r.defense_micros = static_cast<long long>(100 * (i + 1));
    r.staleness_histogram[0] = 4;
    r.staleness_histogram[3] = 2;
    r.confusion.true_positive = 1;
    r.confusion.true_negative = 5;
    result.rounds.push_back(r);
  }
  FinalizeResult(result);
  return result;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(TelemetryTest, JsonlHasOneValidLinePerRound) {
  const SimulationResult result = MakeFakeResult();
  const std::string path = ::testing::TempDir() + "rounds_test.jsonl";
  WriteRoundsJsonl(result, path);
  const std::vector<std::string> lines = ReadLines(path);
  std::remove(path.c_str());

  ASSERT_EQ(lines.size(), result.rounds.size());
  for (const std::string& line : lines) {
    std::string error;
    EXPECT_TRUE(obs::JsonLint(line, &error)) << error << "\n" << line;
    EXPECT_NE(line.find("\"round\""), std::string::npos);
    EXPECT_NE(line.find("\"defense_micros\""), std::string::npos);
    EXPECT_NE(line.find("\"staleness_histogram\""), std::string::npos);
    EXPECT_NE(line.find("\"confusion\""), std::string::npos);
  }
  // Round 1 was not evaluated: accuracy must be JSON null, not -1.
  EXPECT_NE(lines[1].find("\"test_accuracy\":null"), std::string::npos);
  EXPECT_EQ(lines[0].find("\"test_accuracy\":null"), std::string::npos);
  EXPECT_NE(lines[0].find("\"staleness_histogram\":{\"0\":4,\"3\":2}"),
            std::string::npos);
}

TEST(TelemetryTest, RunSummaryJsonIsValidAndCarriesLatencyPercentiles) {
  const SimulationResult result = MakeFakeResult();
  const std::string json = RunSummaryJson(result);
  std::string error;
  ASSERT_TRUE(obs::JsonLint(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"final_accuracy\""), std::string::npos);
  EXPECT_NE(json.find("\"defense_latency\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_micros\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_micros\""), std::string::npos);
}

TEST(TelemetryTest, FinalizeResultSummarisesDefenseLatency) {
  const SimulationResult result = MakeFakeResult();  // 100/200/300 μs rounds
  EXPECT_EQ(result.defense_latency.samples, 3u);
  EXPECT_EQ(result.defense_latency.total_micros, 600);
  EXPECT_DOUBLE_EQ(result.defense_latency.max_micros, 300.0);
  EXPECT_GT(result.defense_latency.p50_micros, 0.0);
  EXPECT_LE(result.defense_latency.p50_micros,
            result.defense_latency.p95_micros);
  EXPECT_LE(result.defense_latency.p95_micros,
            result.defense_latency.p99_micros);
  EXPECT_LE(result.defense_latency.p99_micros, 300.0);
}

ExperimentConfig SmokeConfig(std::uint64_t seed) {
  ExperimentConfig config =
      MakeDefaultConfig(data::Profile::kFashionMnist, seed);
  config.num_clients = 20;
  config.num_malicious = 4;
  config.train_pool = 800;
  config.test_samples = 200;
  config.partition_size = 40;
  config.sim.buffer_goal = 8;
  config.sim.rounds = 2;
  config.sim.local.epochs = 1;
  config.threads = 2;
  config.attack = attacks::AttackKind::kGd;
  config.defense = DefenseKind::kAsyncFilter;
  return config;
}

// The ISSUE 1 acceptance smoke test: a 2-round instrumented run emits the
// expected spans and metrics, and turning tracing on changes nothing about
// the simulation's output.
TEST(ObservabilitySmokeTest, TwoRoundRunEmitsSpansAndMetricsWithoutDrift) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();

  // Baseline: tracing off.
  recorder.SetEnabled(false);
  recorder.Clear();
  obs::DefaultRegistry().Reset();
  const SimulationResult baseline = RunExperiment(SmokeConfig(21));
  EXPECT_EQ(recorder.SpanCount(), 0u);

  // Instrumented: tracing on, same seed.
  recorder.SetEnabled(true);
  recorder.Clear();
  obs::DefaultRegistry().Reset();
  const SimulationResult traced = RunExperiment(SmokeConfig(21));
  recorder.SetEnabled(false);

  // Zero behavioural change: bit-identical model and identical round records.
  ASSERT_EQ(traced.rounds.size(), baseline.rounds.size());
  EXPECT_EQ(traced.final_model, baseline.final_model);
  EXPECT_DOUBLE_EQ(traced.final_accuracy, baseline.final_accuracy);
  for (std::size_t i = 0; i < baseline.rounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(traced.rounds[i].test_accuracy,
                     baseline.rounds[i].test_accuracy);
    EXPECT_EQ(traced.rounds[i].accepted, baseline.rounds[i].accepted);
    EXPECT_EQ(traced.rounds[i].rejected, baseline.rounds[i].rejected);
    EXPECT_EQ(traced.rounds[i].staleness_histogram,
              baseline.rounds[i].staleness_histogram);
  }

  // The hot paths all reported spans.
  std::set<std::string> names;
  for (const obs::SpanEvent& event : recorder.Snapshot()) {
    names.insert(event.name);
  }
  for (const char* expected :
       {"sim.run", "train.batch", "client.train", "defense.process",
        "filter.process", "filter.score", "filter.cluster", "kmeans.run",
        "kmeans.iter", "eval.accuracy", "threadpool.task"}) {
    EXPECT_TRUE(names.count(expected) == 1) << "missing span: " << expected;
  }

  // And the metrics registry saw the run.
  obs::MetricsRegistry& registry = obs::DefaultRegistry();
  const obs::Labels labels{{"defense", "AsyncFilter"}};
  EXPECT_EQ(registry.GetCounter("sim.rounds", labels).Value(), 2u);
  EXPECT_EQ(registry.GetHistogram("defense.latency_us", labels).Count(), 2u);
  EXPECT_GT(registry.GetHistogram("sim.update_staleness", labels).Count(), 0u);
  const std::string snapshot = registry.SnapshotJson();
  std::string error;
  EXPECT_TRUE(obs::JsonLint(snapshot, &error)) << error;
  EXPECT_NE(snapshot.find("\"defense.latency_us\""), std::string::npos);

  recorder.Clear();
  obs::DefaultRegistry().Reset();
}

}  // namespace
}  // namespace fl
