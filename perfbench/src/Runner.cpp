//===- perfbench/src/Runner.cpp - Timed and traced workload runs ----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "Runner.h"

#include "analysis/Presolve.h"
#include "server/Server.h"
#include "smtlib/Parser.h"
#include "solver/BitBlaster.h"
#include "staub/BoundInference.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

using namespace perfbench;
using namespace staub;

namespace {

std::string format(const char *Fmt, double A, double B = 0.0,
                   double C = 0.0) {
  char Buffer[256];
  std::snprintf(Buffer, sizeof(Buffer), Fmt, A, B, C);
  return Buffer;
}

/// The long-lived state a workload's queries share -- staubd's caches on
/// a cached workload; none on the CLI path, where every query builds its
/// own -- and what building it cost.
struct Setup {
  std::unique_ptr<SharedSolveCaches> Caches; ///< The last instance built.
  double Seconds = 0.0;      ///< Median construction time.
  double FirstSeconds = 0.0; ///< The process's first, cold construction.
};

/// Builds the state SetupSamples times, timing each construction on its
/// own. Every instance stays alive until all are built, so each takes
/// fresh memory.
Setup setUp(const Workload &W) {
  constexpr int SetupSamples = 21;
  std::vector<std::unique_ptr<SharedSolveCaches>> States(SetupSamples);
  std::vector<double> Samples;
  for (std::unique_ptr<SharedSolveCaches> &State : States) {
    WallTimer Timer;
    if (W.Cached)
      State = std::make_unique<SharedSolveCaches>();
    Samples.push_back(Timer.elapsedSeconds());
  }
  return {std::move(States.back()), median(Samples), Samples.front()};
}

std::string describe(const Workload &W) {
  std::string Cache =
      W.Cached ? format("%.0f MiB blast + %.0f MiB clause cache",
                        SharedSolveCaches::DefaultBlastBytes / 1048576.0,
                        SharedSolveCaches::DefaultClauseBytes / 1048576.0)
               : std::string("no shared cache");
  return "workload " + W.Name + ": " + W.Shape + "; " +
         std::to_string(W.Stream.size()) + " queries before wrap; limit " +
         format("%.2f s", W.LimitSeconds) + "; " + Cache;
}

/// The Int or Real lane runStaub takes; nullopt when it translates
/// nothing (bounded or mixed sorts).
std::optional<SortKind> laneOf(const TermManager &Manager,
                               const std::vector<Term> &Assertions) {
  bool HasInt = false, HasReal = false, HasBounded = false;
  std::vector<bool> Seen(Manager.numTerms(), false);
  std::vector<Term> Stack(Assertions.begin(), Assertions.end());
  while (!Stack.empty()) {
    Term T = Stack.back();
    Stack.pop_back();
    if (Seen[T.id()])
      continue;
    Seen[T.id()] = true;
    Sort S = Manager.sort(T);
    HasInt |= S.isInt();
    HasReal |= S.isReal();
    HasBounded |= S.isBitVec() || S.isFloatingPoint();
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  if (HasBounded || HasInt == HasReal)
    return std::nullopt;
  return HasInt ? SortKind::Int : SortKind::Real;
}

/// Verifies a bounded model against the original assertions the way
/// runStaub does, timing the evaluator part separately.
void verifyReplay(TermManager &Manager, const std::vector<Term> &Assertions,
                  const TransformResult &Transform, const Model &Bounded,
                  const analysis::PresolveResult &Pre, bool UsePresolvedSet,
                  StageReplay &R) {
  WallTimer Verify;
  Model Unbounded;
  if (!convertModelBack(Manager, Transform, Bounded, Unbounded)) {
    R.Path = StaubPath::SemanticDifference;
  } else {
    if (UsePresolvedSet)
      analysis::completeModel(Manager, Assertions, Pre, Unbounded);
    WallTimer Evaluate;
    bool Holds =
        evaluatesToTrue(Manager, Manager.mkAnd(Assertions), Unbounded);
    R.EvaluateSeconds = Evaluate.elapsedSeconds();
    R.Path = Holds ? StaubPath::VerifiedSat : StaubPath::SemanticDifference;
  }
  R.VerifySeconds = Verify.elapsedSeconds();
}

/// Sums over the queries of a traced run.
struct TraceTotals {
  uint64_t Queries = 0;
  std::vector<double> QuerySeconds;
  double Parse = 0, RunStaub = 0, Fallback = 0, Total = 0;
  double Presolve = 0, Bounds = 0, Translate = 0, BoundedSolve = 0;
  double Blast = 0, Cdcl = 0, Verify = 0, Evaluate = 0;
  double InputBytes = 0;
  uint64_t Fallbacks = 0, PresolveDecided = 0, PresolveRounds = 0;
  uint64_t Dropped = 0, WidthBitsSaved = 0;
  uint64_t GuardsEmitted = 0, GuardsElided = 0, RelationalElided = 0;
  uint64_t ZoneFacts = 0, WidthSum = 0, Translated = 0;
  uint64_t Decisive = 0, SemanticDifferences = 0, EscalationSteps = 0;
  uint64_t EscalatedSat = 0, CnfClauses = 0, LimitHits = 0;
  uint64_t CrossHits = 0, CrossMisses = 0, Evictions = 0, ClausesReused = 0;
  double CachedRunStaub = 0, ReferenceRunStaub = 0;
  uint64_t ReplayAgreed = 0;

  void add(const Query &Q, const QueryTrace &T, const StageReplay &S) {
    ++Queries;
    QuerySeconds.push_back(T.TotalSeconds);
    Parse += T.ParseSeconds;
    RunStaub += T.RunStaubSeconds;
    Fallback += T.FallbackSeconds;
    Total += T.TotalSeconds;
    Fallbacks += T.Fallback;
    InputBytes += static_cast<double>(Q.Text.size());
    Presolve += S.PresolveSeconds;
    Bounds += S.BoundsSeconds;
    Translate += S.TranslateSeconds;
    Blast += S.BlastSeconds;
    Cdcl += S.CdclSeconds;
    Verify += S.VerifySeconds;
    Evaluate += S.EvaluateSeconds;
    CnfClauses += S.CnfClauses;
    ReplayAgreed += replayAgrees(S, T.Outcome);

    const StaubOutcome &O = T.Outcome;
    BoundedSolve += O.SolveSeconds;
    PresolveDecided += O.Path == StaubPath::PresolvedSat ||
                       O.Path == StaubPath::PresolvedUnsat;
    PresolveRounds += O.Presolve.Rounds;
    Dropped += O.Presolve.AssertionsDropped;
    WidthBitsSaved += O.Presolve.WidthBitsSaved;
    GuardsEmitted += O.GuardsEmitted;
    GuardsElided += O.GuardsElided;
    RelationalElided += O.RelationalGuardsElided;
    ZoneFacts += O.ZoneFactsHarvested;
    unsigned Width = O.ChosenWidth ? O.ChosenWidth : O.ChosenFormat.totalBits();
    if (Width) {
      WidthSum += Width;
      ++Translated;
    }
    Decisive += isDecisive(O.Path);
    SemanticDifferences += O.Path == StaubPath::SemanticDifference;
    EscalationSteps += O.EscalationSteps;
    EscalatedSat += O.Path == StaubPath::EscalatedSat;
    LimitHits += O.Path == StaubPath::BoundedUnknown;
    CrossHits += O.CrossBlastCacheHits;
    CrossMisses += O.CrossBlastCacheMisses;
    ClausesReused += O.CrossClausesReused;
  }

  void fill(MetricSet &M, const SharedSolveCaches *Caches) const {
    double N = static_cast<double>(std::max<uint64_t>(Queries, 1));
    auto Ms = [N](double Seconds) { return 1e3 * Seconds / N; };
    auto Per = [N](uint64_t Count) { return static_cast<double>(Count) / N; };
    auto Pct = [N](uint64_t Count) {
      return 100.0 * static_cast<double>(Count) / N;
    };
    M.set("server.fallback_pct", Pct(Fallbacks));
    M.set("server.fallback_ms", Ms(Fallback));
    M.set("smtlib.parse_ms", Ms(Parse));
    M.set("smtlib.input_kb", InputBytes / 1024.0 / N);
    M.set("analysis.presolve_ms", Ms(Presolve));
    M.set("analysis.presolve_decided_pct", Pct(PresolveDecided));
    M.set("analysis.presolve_rounds", Per(PresolveRounds));
    M.set("analysis.conjuncts_dropped", Per(Dropped));
    M.set("analysis.width_bits_saved", Per(WidthBitsSaved));
    M.set("staub.bounds_ms", Ms(Bounds));
    M.set("staub.translate_ms", Ms(Translate));
    M.set("staub.guards_emitted", Per(GuardsEmitted));
    M.set("staub.guards_elided", Per(GuardsElided));
    M.set("staub.guards_elided_relational", Per(RelationalElided));
    M.set("staub.zone_facts", Per(ZoneFacts));
    M.set("staub.width_mean",
          Translated ? static_cast<double>(WidthSum) / Translated : 0.0);
    M.set("staub.decisive_pct", Pct(Decisive));
    M.set("staub.semantic_differences", Per(SemanticDifferences));
    M.set("staub.escalation_steps", Per(EscalationSteps));
    M.set("staub.escalated_sat", Per(EscalatedSat));
    M.set("staub.verify_ms", Ms(Verify));
    M.set("staub.runstaub_ms", Ms(RunStaub));
    M.set("staub.runstaub_self_ms",
          Ms(RunStaub - Presolve - Bounds - Translate - BoundedSolve - Verify));
    M.set("solver.bounded_solve_ms", Ms(BoundedSolve));
    M.set("solver.blast_ms", Ms(Blast));
    M.set("solver.cdcl_ms", Ms(Cdcl));
    M.set("solver.cnf_clauses", Per(CnfClauses));
    M.set("solver.bounded_limit_hits", Per(LimitHits));
    M.set("solver.crosscache.hits", Per(CrossHits));
    M.set("solver.crosscache.misses", Per(CrossMisses));
    M.set("solver.crosscache.hit_pct",
          CrossHits + CrossMisses
              ? 100.0 * static_cast<double>(CrossHits) /
                    static_cast<double>(CrossHits + CrossMisses)
              : 0.0);
    M.set("solver.crosscache.evictions", Per(Evictions));
    double CacheBytes = 0.0;
    if (Caches)
      CacheBytes = static_cast<double>(Caches->Blast.stats().Bytes +
                                       Caches->Clauses.stats().Bytes);
    M.set("solver.crosscache.bytes_mb", CacheBytes / 1048576.0);
    M.set("solver.crosscache.clauses_reused", Per(ClausesReused));
    M.set("solver.crosscache.net_speedup",
          CachedRunStaub > 0 ? ReferenceRunStaub / CachedRunStaub : 0.0);
    M.set("theory.evaluate_ms", Ms(Evaluate));
    M.set("trace.query_ms", Ms(Total));
    M.set("trace.query_p50_ms", 1e3 * median(QuerySeconds));
    M.set("trace.replay_agree_pct", Pct(ReplayAgreed));
  }
};

void runPlain(const Workload &W, double Seconds, RunReport &R) {
  resetPeakRss();
  Setup Set = setUp(W);
  std::unique_ptr<SharedSolveCaches> Caches = std::move(Set.Caches);
  std::vector<double> Latencies;
  std::map<std::string, uint64_t> Paths;
  uint64_t Decided = 0;
  WallTimer Wall;
  for (size_t I = 0; Wall.elapsedSeconds() < Seconds; ++I) {
    const Query &Q = W.Stream[I % W.Stream.size()];
    WallTimer Timer;
    server::QueryResult Result =
        server::evaluateQuery(Q.Text, Caches.get(), W.LimitSeconds);
    Latencies.push_back(Timer.elapsedSeconds());
    ++R.Attempted;
    R.Failed += !Result.Ok;
    Decided += Result.Ok && Result.Status != SolveStatus::Unknown;
    ++Paths[Result.Ok ? Result.Path : "error"];
    if (auto Wrong = checkVerdict(Q, Result.Ok, Result.Status))
      R.Mismatches.push_back(*Wrong);
  }
  double WallSeconds = Wall.elapsedSeconds();

  TailChoice Tail = tailPercentile(Latencies.size());
  R.Metrics.set("query_p50_ms", 1e3 * percentile(Latencies, 50.0));
  R.Metrics.set("query_tail_ms", 1e3 * percentile(Latencies, Tail.Percentile));
  R.Metrics.set("throughput_qps",
                static_cast<double>(R.Attempted) / WallSeconds);
  R.Metrics.set("decided_pct",
                100.0 * static_cast<double>(Decided) /
                    static_cast<double>(R.Attempted));
  R.Metrics.set("peak_rss_mb", peakRssMb());
  R.Metrics.set("setup_s", Set.Seconds);

  R.Notes.push_back(format("query_tail_ms is p%g: %.0f of the queries lie "
                           "beyond it",
                           Tail.Percentile, static_cast<double>(Tail.Beyond)));
  R.Notes.push_back(format("setup: median %.3g s, first (cold) %.3g s",
                           Set.Seconds, Set.FirstSeconds));
  R.Notes.push_back(format("%.0f queries in %.2f s wall",
                           static_cast<double>(R.Attempted), WallSeconds));
  std::string Mix = "paths:";
  for (const auto &[Path, Count] : Paths)
    Mix += " " + Path + "=" + std::to_string(Count);
  R.Notes.push_back(Mix);
  if (Caches) {
    CacheStats Blast = Caches->Blast.stats();
    R.Notes.push_back(format("blast cache: %.0f hits, %.0f misses, %.0f "
                             "evictions",
                             static_cast<double>(Blast.Hits),
                             static_cast<double>(Blast.Misses),
                             static_cast<double>(Blast.Evictions)));
  }
}

void runTraced(const Workload &W, double Seconds, RunReport &R) {
  std::unique_ptr<SharedSolveCaches> Caches = setUp(W).Caches;
  TraceTotals Totals;
  WallTimer Wall;
  for (size_t I = 0; Wall.elapsedSeconds() < Seconds; ++I) {
    const Query &Q = W.Stream[I % W.Stream.size()];
    uint64_t EvictionsBefore =
        Caches ? Caches->Blast.stats().Evictions : 0;
    QueryTrace T = traceQuery(Q.Text, Caches.get(), W.LimitSeconds);
    if (Caches)
      Totals.Evictions += Caches->Blast.stats().Evictions - EvictionsBefore;
    ++R.Attempted;
    R.Failed += !T.Ok;
    if (auto Wrong = checkVerdict(Q, T.Ok, T.Status))
      R.Mismatches.push_back(*Wrong);
    if (Caches) {
      // The cache-free reference: same query, same calls, no sharing.
      // Its verdict must match the cached one, and its runStaub time is
      // what the cache is measured against.
      QueryTrace Reference = traceQuery(Q.Text, nullptr, W.LimitSeconds);
      if (Reference.Ok != T.Ok ||
          (Reference.Status != SolveStatus::Unknown &&
           T.Status != SolveStatus::Unknown && Reference.Status != T.Status))
        R.Mismatches.push_back(Q.Name + ": cached verdict " +
                               std::string(toString(T.Status)) +
                               " but cache-free verdict " +
                               std::string(toString(Reference.Status)));
      Totals.CachedRunStaub += T.RunStaubSeconds;
      Totals.ReferenceRunStaub += Reference.RunStaubSeconds;
    }
    Totals.add(Q, T, replayStages(Q.Text, W.LimitSeconds));
  }
  Totals.fill(R.Metrics, Caches.get());

  // Where the query time goes, by layer; the largest share dominates.
  const MetricSet &M = R.Metrics;
  double StaubOwn = M.get("staub.bounds_ms") + M.get("staub.translate_ms") +
                    M.get("staub.verify_ms") +
                    M.get("staub.runstaub_self_ms");
  std::vector<std::pair<std::string, double>> Layers = {
      {"smtlib", M.get("smtlib.parse_ms")},
      {"analysis", M.get("analysis.presolve_ms")},
      {"staub", StaubOwn},
      {"solver", M.get("solver.bounded_solve_ms")},
      {"server", M.get("server.fallback_ms")},
  };
  double Query = M.get("trace.query_ms");
  std::string Shares = "layer shares of the traced query time:";
  for (const auto &[Layer, Ms] : Layers)
    Shares += " " + Layer + format("=%.1f%%", Query > 0 ? 100 * Ms / Query : 0);
  R.Notes.push_back(Shares);
  auto Top = std::max_element(
      Layers.begin(), Layers.end(),
      [](const auto &A, const auto &B) { return A.second < B.second; });
  R.Notes.push_back("dominant layer: " + Top->first);
  R.Notes.push_back(format("runStaub %.3f ms = replayed stages + bounded "
                           "solve + self time %.3f ms (%.1f%%)",
                           M.get("staub.runstaub_ms"),
                           M.get("staub.runstaub_self_ms"),
                           100 * M.get("staub.runstaub_self_ms") /
                               std::max(M.get("staub.runstaub_ms"), 1e-9)));
  R.Notes.push_back(format("bounded solve %.3f ms in the pipeline, %.3f ms "
                           "blast + CDCL replayed from scratch",
                           M.get("solver.bounded_solve_ms"),
                           M.get("solver.blast_ms") + M.get("solver.cdcl_ms")));
  R.Notes.push_back(format("%.0f traced queries in %.2f s wall",
                           static_cast<double>(R.Attempted),
                           Wall.elapsedSeconds()));
}

} // namespace

std::optional<std::string> perfbench::checkVerdict(const Query &Q, bool Ok,
                                                   SolveStatus Status) {
  if (!Q.Expected)
    return std::nullopt;
  if (!Ok)
    return Q.Name + ": query failed (!Ok), expected " +
           std::string(toString(*Q.Expected));
  if (Status != SolveStatus::Unknown && Status != *Q.Expected)
    return Q.Name + ": answered " + std::string(toString(Status)) +
           ", planted " + std::string(toString(*Q.Expected));
  return std::nullopt;
}

QueryTrace perfbench::traceQuery(const std::string &Text,
                                 SharedSolveCaches *Caches,
                                 double LimitSeconds) {
  QueryTrace T;
  WallTimer Total;
  TermManager Manager;
  WallTimer Parse;
  ParseResult Parsed = parseSmtLib(Manager, Text);
  T.ParseSeconds = Parse.elapsedSeconds();
  if (!Parsed.Ok) {
    T.TotalSeconds = Total.elapsedSeconds();
    return T;
  }
  T.Ok = true;
  const std::vector<Term> &Assertions = Parsed.Parsed.Assertions;
  std::unique_ptr<SolverBackend> Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = LimitSeconds;
  Options.Solve.Shared = Caches;

  WallTimer RunStaub;
  T.Outcome = runStaub(Manager, Assertions, *Backend, Options);
  T.RunStaubSeconds = RunStaub.elapsedSeconds();
  T.Outcome.VerifiedModel = Model();
  T.Outcome.BoundedAssertions.clear();
  T.Outcome.PresolveCertificate.clear();
  if (isDecisive(T.Outcome.Path)) {
    T.Status = T.Outcome.Path == StaubPath::PresolvedUnsat ? SolveStatus::Unsat
                                                           : SolveStatus::Sat;
  } else {
    T.Fallback = true;
    WallTimer Fallback;
    T.Status = Backend->solve(Manager, Assertions, Options.Solve).Status;
    T.FallbackSeconds = Fallback.elapsedSeconds();
  }
  T.TotalSeconds = Total.elapsedSeconds();
  return T;
}

StageReplay perfbench::replayStages(const std::string &Text,
                                    double LimitSeconds) {
  StageReplay R;
  TermManager Manager;
  ParseResult Parsed = parseSmtLib(Manager, Text);
  if (!Parsed.Ok)
    return R;
  const std::vector<Term> &Assertions = Parsed.Parsed.Assertions;
  std::optional<SortKind> Lane = laneOf(Manager, Assertions);
  if (!Lane)
    return R;
  const StaubOptions Defaults;

  WallTimer Presolve;
  analysis::PresolveOptions POpts;
  POpts.Relational = Defaults.Relational;
  analysis::PresolveResult Pre = analysis::presolve(Manager, Assertions, POpts);
  R.PresolveSeconds = Presolve.elapsedSeconds();
  if (Pre.Stats.Verdict == analysis::PresolveVerdict::TriviallyUnsat) {
    R.Path = StaubPath::PresolvedUnsat;
    return R;
  }
  if (Pre.Stats.Verdict == analysis::PresolveVerdict::TriviallySat) {
    R.Path = StaubPath::PresolvedSat;
    return R;
  }

  // Bound inference on the original and the presolved set; the presolved
  // set is used when it needs no more bits (runStaub's rule).
  bool UsePresolvedSet = false;
  TransformResult Transform;
  if (*Lane == SortKind::Int) {
    WallTimer Bounds;
    unsigned Width =
        inferIntBounds(Manager, Assertions, Defaults.WidthCap)
            .VariableAssumption;
    unsigned PreWidth = inferIntBounds(Manager, Pre.Assertions,
                                       Defaults.WidthCap, &Pre.VarRanges)
                            .VariableAssumption;
    R.BoundsSeconds = Bounds.elapsedSeconds();
    if (PreWidth <= Width) {
      UsePresolvedSet = true;
      Width = PreWidth;
    }
    R.Width = Width;
    WallTimer Translate;
    TransformOptions TOpts;
    TOpts.ElideGuards = Defaults.ElideGuards;
    TOpts.Relational = Defaults.Relational;
    TOpts.Escalate = Defaults.Escalate;
    Transform = transformIntToBv(
        Manager, UsePresolvedSet ? Pre.Assertions : Assertions, Width, TOpts);
    R.TranslateSeconds = Translate.elapsedSeconds();
  } else {
    WallTimer Bounds;
    RealBounds Real = inferRealBounds(Manager, Assertions, Defaults.WidthCap,
                                      config::RealPrecisionCap);
    FpFormat Format = chooseFpFormat(Real.RootMagnitude, Real.RootPrecision,
                                     Defaults.StandardFpFormats);
    RealBounds PreReal = inferRealBounds(Manager, Pre.Assertions,
                                         Defaults.WidthCap,
                                         config::RealPrecisionCap);
    FpFormat PreFormat =
        chooseFpFormat(PreReal.RootMagnitude, PreReal.RootPrecision,
                       Defaults.StandardFpFormats);
    R.BoundsSeconds = Bounds.elapsedSeconds();
    if (PreFormat.totalBits() <= Format.totalBits()) {
      UsePresolvedSet = true;
      Format = PreFormat;
    }
    R.Width = Format.totalBits();
    WallTimer Translate;
    Transform = transformRealToFp(
        Manager, UsePresolvedSet ? Pre.Assertions : Assertions, Format);
    R.TranslateSeconds = Translate.elapsedSeconds();
  }
  if (!Transform.Ok) {
    R.Path = StaubPath::TranslationFailed;
    return R;
  }

  if (*Lane == SortKind::Real) {
    // MiniSMT's FP lane (special values, then ICP on the relaxation) has
    // no blasting stage; replay it as one backend call. Its time is
    // runStaub's own solve time, reported as solver.bounded_solve_ms.
    std::unique_ptr<SolverBackend> Backend = createMiniSmtSolver();
    SolverOptions Options;
    Options.TimeoutSeconds = LimitSeconds;
    SolveResult Bounded = Backend->solve(Manager, Transform.Assertions, Options);
    if (Bounded.Status == SolveStatus::Sat)
      verifyReplay(Manager, Assertions, Transform, Bounded.TheModel, Pre,
                   UsePresolvedSet, R);
    else
      R.Path = Bounded.Status == SolveStatus::Unsat ? StaubPath::BoundedUnsat
                                                    : StaubPath::BoundedUnknown;
    return R;
  }

  // Int lane: blast the bounded set directly, then CDCL in conflict
  // chunks under the same wall deadline the backend uses (it starts
  // before blasting).
  WallTimer Deadline;
  SatSolver Sat;
  BitBlaster Blaster(Manager, Sat);
  std::vector<Term> Variables =
      Manager.collectVariables(Manager.mkAnd(Transform.Assertions));
  for (Term Assertion : Transform.Assertions)
    Blaster.assertTrue(Assertion);
  R.BlastSeconds = Deadline.elapsedSeconds();
  R.CnfClauses = Sat.copySimplifiedCnf().size();
  double CdclStart = Deadline.elapsedSeconds();
  SatStatus Status = SatStatus::Unknown;
  for (;;) {
    SatBudget Chunk;
    Chunk.MaxConflicts = 2000;
    Status = Sat.solve(Chunk);
    if (Status != SatStatus::Unknown ||
        Deadline.elapsedSeconds() > LimitSeconds)
      break;
  }
  R.CdclSeconds = Deadline.elapsedSeconds() - CdclStart;
  if (Status == SatStatus::Sat)
    verifyReplay(Manager, Assertions, Transform,
                 Blaster.extractModel(Variables), Pre, UsePresolvedSet, R);
  else
    R.Path = Status == SatStatus::Unsat ? StaubPath::BoundedUnsat
                                        : StaubPath::BoundedUnknown;
  return R;
}

bool perfbench::replayAgrees(const StageReplay &Replay,
                             const StaubOutcome &Outcome) {
  // The ladder records its final width only when it verifies a model.
  unsigned Width = Outcome.ChosenFormat.totalBits();
  if (Outcome.ChosenWidth)
    Width = Outcome.Path == StaubPath::EscalatedSat
                ? Outcome.ChosenWidth -
                      Outcome.EscalationSteps * config::EscalationStepBits
                : Outcome.ChosenWidth;
  if (Replay.Width != Width)
    return false;
  if (Replay.Path == StaubPath::BoundedUnsat)
    return Outcome.Path == StaubPath::BoundedUnsat ||
           Outcome.Path == StaubPath::EscalatedSat ||
           Outcome.Path == StaubPath::SemanticDifference;
  return Replay.Path == Outcome.Path;
}

RunReport perfbench::runWorkload(const Workload &W, double Seconds,
                                 bool Trace) {
  RunReport R;
  R.Notes.push_back(describe(W));
  if (Trace)
    runTraced(W, Seconds, R);
  else
    runPlain(W, Seconds, R);
  return R;
}
