//===- perfbench/src/Runner.h - Timed and traced workload runs ------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a workload closed-loop (one client, the next query is sent when
/// the previous one answered) for a fixed number of seconds.
///
/// The untraced run sends every query through server::evaluateQuery and
/// yields the end-to-end metrics. The traced run re-issues
/// evaluateQuery's body through public calls with a span around each
/// (parseSmtLib, runStaub, the fallback SolverBackend::solve), then
/// replays the query's stages one by one on a fresh TermManager
/// (presolve, bound inference, translation, bit-blasting, CDCL,
/// verification) and yields the per-layer metrics. Spans live only in
/// this benchmark; the program is called, never copied.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_PERFBENCH_RUNNER_H
#define STAUB_PERFBENCH_RUNNER_H

#include "Metrics.h"
#include "Workloads.h"

#include "solver/CrossCache.h"
#include "staub/Staub.h"

#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct RunReport {
  MetricSet Metrics;
  uint64_t Attempted = 0;
  /// Queries the program could not process (!Ok). An unknown answer is a
  /// completed query; it only lowers decided_pct.
  uint64_t Failed = 0;
  /// Correctness-gate failures, one line each, naming the query.
  std::vector<std::string> Mismatches;
  /// Human-readable lines printed before the result.
  std::vector<std::string> Notes;

  bool correct() const { return Mismatches.empty(); }
};

/// Runs \p W for \p Seconds, traced or not.
RunReport runWorkload(const Workload &W, double Seconds, bool Trace);

/// The correctness gate for one answer: a description of the mismatch
/// when \p Q has a planted verdict and the answer is !Ok or decided the
/// other way; nullopt otherwise (unknown is undecided, not wrong).
std::optional<std::string> checkVerdict(const Query &Q, bool Ok,
                                        staub::SolveStatus Status);

/// One query through evaluateQuery's body, with a span per call.
struct QueryTrace {
  bool Ok = false;
  staub::SolveStatus Status = staub::SolveStatus::Unknown;
  bool Fallback = false;
  double ParseSeconds = 0.0;
  double RunStaubSeconds = 0.0;
  double FallbackSeconds = 0.0;
  double TotalSeconds = 0.0;
  /// runStaub's own result, with its term vectors and model dropped.
  staub::StaubOutcome Outcome;
};

QueryTrace traceQuery(const std::string &Text,
                      staub::SharedSolveCaches *Caches, double LimitSeconds);

/// One query's runStaub stages, replayed through their public entries on
/// a fresh TermManager with runStaub's default options and the same
/// width decisions. Bounded solving is replayed from scratch (no cross
/// cache) and without the escalation ladder, which has no public entry.
struct StageReplay {
  staub::StaubPath Path = staub::StaubPath::TranslationFailed;
  unsigned Width = 0; ///< Int width, or FP format bits on the Real lane.
  double PresolveSeconds = 0.0;
  double BoundsSeconds = 0.0;
  double TranslateSeconds = 0.0;
  double BlastSeconds = 0.0;   ///< Int lane: BitBlaster over the bounded set.
  double CdclSeconds = 0.0;    ///< Int lane: SatSolver on the blasted CNF.
  double VerifySeconds = 0.0;  ///< convertModelBack + evaluatesToTrue.
  double EvaluateSeconds = 0.0; ///< The evaluatesToTrue part of it.
  uint64_t CnfClauses = 0;     ///< Level-0 simplified clauses after blasting.
};

StageReplay replayStages(const std::string &Text, double LimitSeconds);

/// Whether a replay reached the same path and width as runStaub. A
/// replayed bounded-unsat matches any ladder outcome, at the base width.
bool replayAgrees(const StageReplay &Replay,
                  const staub::StaubOutcome &Outcome);

} // namespace perfbench

#endif // STAUB_PERFBENCH_RUNNER_H
