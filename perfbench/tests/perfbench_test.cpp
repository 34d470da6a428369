//===- perfbench/tests/perfbench_test.cpp - The benchmark's own tests -----===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include <gtest/gtest.h>

#include <regex>
#include <set>

using namespace perfbench;
using staub::SolveStatus;
using staub::StaubPath;

namespace {

std::vector<std::pair<std::string, std::string>>
flatten(const std::vector<MetricSpec> &Specs) {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const MetricSpec &Spec : Specs)
    Out.emplace_back(Spec.Name, Spec.Unit);
  return Out;
}

} // namespace

// BENCHMARK.json lists these names and units; a run prints exactly them.
TEST(PerfbenchMetrics, EndToEndNamesAndUnitsAreStable) {
  std::vector<std::pair<std::string, std::string>> Expected = {
      {"query_p50_ms", "ms"},   {"query_tail_ms", "ms"},
      {"throughput_qps", "1/s"}, {"decided_pct", "%"},
      {"peak_rss_mb", "MiB"},   {"setup_s", "s"},
  };
  EXPECT_EQ(flatten(endToEndMetrics()), Expected);
}

TEST(PerfbenchMetrics, PerLayerNamesAndUnitsAreStable) {
  std::vector<std::pair<std::string, std::string>> Expected = {
      {"server.fallback_pct", "%"},
      {"server.fallback_ms", "ms"},
      {"smtlib.parse_ms", "ms"},
      {"smtlib.input_kb", "KiB"},
      {"analysis.presolve_ms", "ms"},
      {"analysis.presolve_decided_pct", "%"},
      {"analysis.presolve_rounds", "per_query"},
      {"analysis.conjuncts_dropped", "per_query"},
      {"analysis.width_bits_saved", "per_query"},
      {"staub.bounds_ms", "ms"},
      {"staub.translate_ms", "ms"},
      {"staub.guards_emitted", "per_query"},
      {"staub.guards_elided", "per_query"},
      {"staub.guards_elided_relational", "per_query"},
      {"staub.zone_facts", "per_query"},
      {"staub.width_mean", "bits"},
      {"staub.decisive_pct", "%"},
      {"staub.semantic_differences", "per_query"},
      {"staub.escalation_steps", "per_query"},
      {"staub.escalated_sat", "per_query"},
      {"staub.verify_ms", "ms"},
      {"staub.runstaub_ms", "ms"},
      {"staub.runstaub_self_ms", "ms"},
      {"solver.bounded_solve_ms", "ms"},
      {"solver.blast_ms", "ms"},
      {"solver.cdcl_ms", "ms"},
      {"solver.cnf_clauses", "per_query"},
      {"solver.bounded_limit_hits", "per_query"},
      {"solver.crosscache.hits", "per_query"},
      {"solver.crosscache.misses", "per_query"},
      {"solver.crosscache.hit_pct", "%"},
      {"solver.crosscache.evictions", "per_query"},
      {"solver.crosscache.bytes_mb", "MiB"},
      {"solver.crosscache.clauses_reused", "per_query"},
      {"solver.crosscache.net_speedup", "x"},
      {"theory.evaluate_ms", "ms"},
      {"trace.query_ms", "ms"},
      {"trace.query_p50_ms", "ms"},
      {"trace.replay_agree_pct", "%"},
  };
  EXPECT_EQ(flatten(perLayerMetrics()), Expected);
}

TEST(PerfbenchMetrics, NamesAndUnitsFitTheBenchmarkFormat) {
  std::regex Name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::regex Unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string_view> Seen;
  for (const auto *Specs : {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricSpec &Spec : *Specs) {
      std::string N(Spec.Name), U(Spec.Unit);
      EXPECT_TRUE(std::regex_match(N, Name)) << N;
      EXPECT_TRUE(std::regex_match(U, Unit)) << U;
      EXPECT_TRUE(Seen.insert(Spec.Name).second) << N << " used twice";
    }
}

TEST(PerfbenchMetrics, MetricSetReportsMissingAndUnknownNames) {
  MetricSet M;
  for (const MetricSpec &Spec : endToEndMetrics())
    M.set(Spec.Name, 1.0);
  EXPECT_TRUE(M.mismatches(endToEndMetrics()).empty());
  M.set("bogus", 2.0);
  EXPECT_EQ(M.mismatches(endToEndMetrics()),
            std::vector<std::string>{"bogus"});
  EXPECT_NE(M.json(endToEndMetrics()).find(
                "\"setup_s\": {\"value\": 1, \"unit\": \"s\"}"),
            std::string::npos);
}

// query_tail_ms: the highest ladder percentile with >= 10 samples beyond.
TEST(PerfbenchMetrics, TailPercentileForSampleCount) {
  struct Case {
    size_t Count;
    double Percentile;
    size_t Beyond;
  };
  const Case Cases[] = {
      {0, 50.0, 0},     {19, 50.0, 9},    {20, 50.0, 10},
      {39, 50.0, 19},   {40, 75.0, 10},   {99, 75.0, 24},
      {100, 90.0, 10},  {150, 90.0, 15},  {999, 90.0, 99},
      {1000, 99.0, 10}, {9999, 99.0, 99}, {10000, 99.9, 10},
  };
  for (const Case &C : Cases) {
    TailChoice Tail = tailPercentile(C.Count);
    EXPECT_EQ(Tail.Percentile, C.Percentile) << C.Count << " samples";
    EXPECT_EQ(Tail.Beyond, C.Beyond) << C.Count << " samples";
  }
}

TEST(PerfbenchMetrics, NearestRankPercentile) {
  std::vector<double> Samples;
  for (int I = 100; I >= 1; --I)
    Samples.push_back(I);
  EXPECT_EQ(percentile(Samples, 50.0), 50.0);
  EXPECT_EQ(percentile(Samples, 90.0), 90.0);
  EXPECT_EQ(percentile(Samples, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 90.0), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PerfbenchWorkloads, SameSeedSameQueries) {
  for (std::string_view Name : workloadNames()) {
    std::optional<Workload> A = makeWorkload(Name, 7);
    std::optional<Workload> B = makeWorkload(Name, 7);
    std::optional<Workload> C = makeWorkload(Name, 8);
    ASSERT_TRUE(A && B && C) << Name;
    ASSERT_FALSE(A->Stream.empty()) << Name;
    ASSERT_EQ(A->Stream.size(), B->Stream.size()) << Name;
    bool Differs = false;
    for (size_t I = 0; I < A->Stream.size(); ++I) {
      EXPECT_EQ(A->Stream[I].Text, B->Stream[I].Text) << Name;
      EXPECT_TRUE(A->Stream[I].Expected.has_value()) << Name;
      Differs |= I < C->Stream.size() && A->Stream[I].Text != C->Stream[I].Text;
    }
    EXPECT_TRUE(Differs) << Name << " ignores its seed";
  }
  EXPECT_FALSE(makeWorkload("no-such-workload", 1));
}

TEST(PerfbenchGate, CheckVerdict) {
  Query Q{"q", "", SolveStatus::Sat};
  EXPECT_FALSE(checkVerdict(Q, true, SolveStatus::Sat));
  EXPECT_FALSE(checkVerdict(Q, true, SolveStatus::Unknown));
  EXPECT_TRUE(checkVerdict(Q, true, SolveStatus::Unsat));
  EXPECT_TRUE(checkVerdict(Q, false, SolveStatus::Unknown));
  Query Open{"open", "", std::nullopt};
  EXPECT_FALSE(checkVerdict(Open, true, SolveStatus::Unsat));
  EXPECT_FALSE(checkVerdict(Open, false, SolveStatus::Unknown));
}

// A deliberately wrong planted verdict must fail the run, naming the
// query, traced or not.
TEST(PerfbenchGate, FiresOnWrongExpectedVerdict) {
  std::optional<Workload> W = makeWorkload("int-relational", 3);
  ASSERT_TRUE(W);
  W->Stream.resize(3);
  Query &Flipped = W->Stream[0];
  ASSERT_TRUE(Flipped.Expected);
  Flipped.Expected = *Flipped.Expected == SolveStatus::Sat
                         ? SolveStatus::Unsat
                         : SolveStatus::Sat;
  for (bool Trace : {false, true}) {
    RunReport R = runWorkload(*W, 0.2, Trace);
    EXPECT_FALSE(R.correct());
    ASSERT_FALSE(R.Mismatches.empty());
    EXPECT_EQ(R.Mismatches[0].rfind(Flipped.Name + ":", 0), 0u)
        << R.Mismatches[0];
  }

  W->Stream.erase(W->Stream.begin());
  RunReport Clean = runWorkload(*W, 0.2, false);
  EXPECT_TRUE(Clean.correct());
  EXPECT_GE(Clean.Attempted, 2u);
}

// The stage replay follows runStaub's path and width. A bounded-unknown
// on either side is a race against the limit, not a disagreement.
TEST(PerfbenchReplay, AgreesWithRunStaubOnSeededSample) {
  unsigned Compared = 0;
  for (std::string_view Name : {"int-relational", "table2-mix", "vc-stream"}) {
    std::optional<Workload> W = makeWorkload(Name, 5);
    ASSERT_TRUE(W);
    size_t Sample = Name == "table2-mix" ? 16 : 6;
    for (size_t I = 0; I < Sample; ++I) {
      const Query &Q = W->Stream[I];
      QueryTrace T = traceQuery(Q.Text, nullptr, W->LimitSeconds);
      StageReplay S = replayStages(Q.Text, W->LimitSeconds);
      ASSERT_TRUE(T.Ok) << Q.Name;
      if (T.Outcome.Path == StaubPath::BoundedUnknown ||
          S.Path == StaubPath::BoundedUnknown)
        continue;
      ++Compared;
      EXPECT_TRUE(replayAgrees(S, T.Outcome))
          << Q.Name << ": runStaub " << toString(T.Outcome.Path) << " at "
          << T.Outcome.ChosenWidth << ", replay " << toString(S.Path)
          << " at " << S.Width;
    }
  }
  EXPECT_GE(Compared, 20u);
}
