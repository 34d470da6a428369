//===- bench/bench_server.cpp - Cross-query cache speedup -----------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staubd workload benchmark (docs/SERVER.md): replay a near-duplicate
/// VC stream — the shape a verifier's incremental re-check produces, N base
/// formulas each queried as M one-conjunct variants — through
/// server::evaluateQuery once with no cache and then twice against one
/// SharedSolveCaches instance.
///
///   * Pass 0 (no cache): every query blasted directly, the way a one-shot
///     `staub` run solves it. Its verdicts are checked like the others and
///     its latencies are the baseline the cache has to beat.
///   * Pass 1 (cold caches): the caches start empty. The first variant of
///     each base is a genuine cold query — every conjunct misses and is
///     scratch-blasted, probed, and inserted. Variants 2..M already hit
///     the base conjuncts (the stream is self-deduplicating even within
///     one pass, which is the point of a shared server cache).
///   * Pass 2 (warm): identical replay; everything hits.
///
/// Headline numbers: the warm speedup — mean latency of the cold
/// first-exposure queries over mean latency of warm-replay queries, i.e.
/// what a near-duplicate VC costs on this server relative to a novel one
/// — the warm speedup against no cache (mean cache-free latency over mean
/// warm latency of the same queries), and the warm pass's cross-query
/// blast-cache hit rate. The bars are >= 2x, >= 1x and >= 50%. All pass
/// wall-clocks are also reported. Each query runs the full pipeline
/// (fresh TermManager, parse, presolve, bound inference, translation,
/// verify), so the latencies are end-to-end, not a cache microbenchmark.
///
/// Knobs: STAUB_BENCH_SEED; STAUB_SERVER_BASES / STAUB_SERVER_VARIANTS
/// (default 6 x 8); `--json FILE` mirrors the numbers into BENCH_server.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "server/Server.h"
#include "smtlib/Printer.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace staub;

namespace {

unsigned envUnsigned(const char *Name, unsigned Default) {
  if (const char *Env = std::getenv(Name))
    return static_cast<unsigned>(std::max(1, std::atoi(Env)));
  return Default;
}

struct PassResult {
  double WallSeconds = 0.0;
  unsigned Correct = 0;
  unsigned Wrong = 0;
  uint64_t CrossHits = 0;
  uint64_t CrossMisses = 0;
  uint64_t ClausesReused = 0;
  std::vector<double> QuerySeconds;
};

/// Replays \p Queries against \p Caches (null: no cache).
PassResult runPass(const std::vector<std::string> &Queries,
                   const std::vector<SolveStatus> &Expected,
                   SharedSolveCaches *Caches, double Timeout) {
  PassResult R;
  WallTimer Wall;
  for (size_t I = 0; I < Queries.size(); ++I) {
    server::QueryResult Q =
        server::evaluateQuery(Queries[I], Caches, Timeout);
    if (Q.Ok && Q.Status == Expected[I])
      ++R.Correct;
    else
      ++R.Wrong;
    R.CrossHits += Q.CrossBlastHits;
    R.CrossMisses += Q.CrossBlastMisses;
    R.ClausesReused += Q.CrossClausesReused;
    R.QuerySeconds.push_back(Q.Seconds);
  }
  R.WallSeconds = Wall.elapsedSeconds();
  return R;
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

} // namespace

int main(int Argc, char **Argv) {
  const unsigned Bases = envUnsigned("STAUB_SERVER_BASES", 6);
  const unsigned Variants = envUnsigned("STAUB_SERVER_VARIANTS", 8);
  const double Timeout = std::max(5.0, benchTimeoutSeconds());

  BenchConfig Config = benchConfig();
  // Wide constants => wide inferred widths => expensive multiplier CNF,
  // i.e. the workload where re-blasting actually hurts. The row bounds
  // sit near Box^2, so the blasted width is about 2 * MaxConstantBits.
  Config.MaxConstantBits = envUnsigned("STAUB_SERVER_BITS", 14);

  TermManager Manager;
  std::vector<GeneratedConstraint> Stream =
      generateVcStreamSuite(Manager, Config, Bases, Variants);

  // Render each query to SMT-LIB text once: the server parses queries into
  // per-worker TermManagers, and the digests must line up across them.
  std::vector<std::string> Queries;
  std::vector<SolveStatus> Expected;
  for (const GeneratedConstraint &G : Stream) {
    Script S;
    S.Logic = "QF_NIA";
    S.Variables = Manager.collectVariables(Manager.mkAnd(G.Assertions));
    S.Assertions = G.Assertions;
    S.HasCheckSat = true;
    Queries.push_back(printScript(Manager, S));
    Expected.push_back(G.Expected.value_or(SolveStatus::Unknown));
  }

  std::printf("== staubd near-duplicate VC stream: cross-query cache ==\n");
  std::printf("stream: %u bases x %u variants = %zu queries, seed %llu\n\n",
              Bases, Variants, Queries.size(),
              static_cast<unsigned long long>(Config.Seed));

  // Size the caches like a staubd deployment would be sized for this
  // stream (staubd --cache-mb): enough headroom that the working set is
  // not evicted mid-replay. The default 64 MiB split into 16 shards gives
  // 4 MiB per shard, and at 14-bit constants (~28-bit widths) a handful
  // of multiplier-row templates overflow a shard and churn.
  SharedSolveCaches Caches(512u << 20, 64u << 20);
  PassResult NoCache = runPass(Queries, Expected, nullptr, Timeout);
  PassResult Cold = runPass(Queries, Expected, &Caches, Timeout);
  CacheStats AfterCold = Caches.Blast.stats();
  PassResult Warm = runPass(Queries, Expected, &Caches, Timeout);
  CacheStats AfterWarm = Caches.Blast.stats();

  const uint64_t WarmHits = AfterWarm.Hits - AfterCold.Hits;
  const uint64_t WarmMisses = AfterWarm.Misses - AfterCold.Misses;
  const double WarmHitRate =
      WarmHits + WarmMisses
          ? static_cast<double>(WarmHits) /
                static_cast<double>(WarmHits + WarmMisses)
          : 0.0;

  // Cold latency: the first variant of each base in pass 1 — the queries
  // served before anything of their base was cached. Warm latency: every
  // query of the replay pass.
  std::vector<double> ColdFirst;
  for (size_t I = 0; I < Cold.QuerySeconds.size(); I += Variants)
    ColdFirst.push_back(Cold.QuerySeconds[I]);
  const double ColdMean = mean(ColdFirst);
  const double WarmMean = mean(Warm.QuerySeconds);
  const double Speedup = WarmMean > 0 ? ColdMean / WarmMean : 0.0;
  const double NoCacheMean = mean(NoCache.QuerySeconds);
  const double SpeedupVsNoCache = WarmMean > 0 ? NoCacheMean / WarmMean : 0.0;

  std::printf("%-6s %10s %9s %9s %9s %9s\n", "pass", "wall(s)", "correct",
              "hits", "misses", "learnts");
  std::printf("%-6s %10.3f %9u %9s %9s %9s\n", "none", NoCache.WallSeconds,
              NoCache.Correct, "-", "-", "-");
  std::printf("%-6s %10.3f %9u %9llu %9llu %9llu\n", "cold", Cold.WallSeconds,
              Cold.Correct, static_cast<unsigned long long>(Cold.CrossHits),
              static_cast<unsigned long long>(Cold.CrossMisses),
              static_cast<unsigned long long>(Cold.ClausesReused));
  std::printf("%-6s %10.3f %9u %9llu %9llu %9llu\n", "warm", Warm.WallSeconds,
              Warm.Correct, static_cast<unsigned long long>(Warm.CrossHits),
              static_cast<unsigned long long>(Warm.CrossMisses),
              static_cast<unsigned long long>(Warm.ClausesReused));
  std::printf("\ncold first-exposure query: %.1f ms mean (%zu queries)\n",
              1e3 * ColdMean, ColdFirst.size());
  std::printf("warm replay query:         %.1f ms mean (%zu queries)\n",
              1e3 * WarmMean, Warm.QuerySeconds.size());
  std::printf("cache-free query:          %.1f ms mean (%zu queries)\n",
              1e3 * NoCacheMean, NoCache.QuerySeconds.size());
  std::printf("warm speedup:          %.2fx  (bar: >= 2x)\n", Speedup);
  std::printf("warm vs no cache:      %.2fx  (bar: >= 1x)\n",
              SpeedupVsNoCache);
  std::printf("warm blast hit rate:   %.1f%%  (bar: >= 50%%)\n",
              100.0 * WarmHitRate);
  std::printf("blast cache: %llu entries, %.1f MiB, %llu evictions\n",
              static_cast<unsigned long long>(AfterWarm.Entries),
              static_cast<double>(AfterWarm.Bytes) / (1024.0 * 1024.0),
              static_cast<unsigned long long>(AfterWarm.Evictions));

  bool Sound = NoCache.Wrong == 0 && Cold.Wrong == 0 && Warm.Wrong == 0;
  if (!Sound)
    std::printf("FAIL: %u cache-free / %u cold / %u warm verdicts disagreed "
                "with the planted ground truth\n",
                NoCache.Wrong, Cold.Wrong, Warm.Wrong);

  std::string JsonPath = benchJsonPath(Argc, Argv);
  if (!JsonPath.empty()) {
    JsonObject Json;
    Json.add("bench", "server")
        .add("bases", Bases)
        .add("variants", Variants)
        .add("queries", Queries.size())
        .add("seed", Config.Seed)
        .add("nocache_seconds", NoCache.WallSeconds)
        .add("cold_seconds", Cold.WallSeconds)
        .add("warm_seconds", Warm.WallSeconds)
        .add("cold_query_seconds_mean", ColdMean)
        .add("warm_query_seconds_mean", WarmMean)
        .add("nocache_query_seconds_mean", NoCacheMean)
        .add("warm_speedup", Speedup)
        .add("warm_speedup_vs_nocache", SpeedupVsNoCache)
        .add("warm_blast_hits", WarmHits)
        .add("warm_blast_misses", WarmMisses)
        .add("warm_blast_hit_rate", WarmHitRate)
        .add("warm_clauses_reused", Warm.ClausesReused)
        .add("blast_entries", AfterWarm.Entries)
        .add("blast_bytes", AfterWarm.Bytes)
        .add("blast_evictions", AfterWarm.Evictions)
        .add("all_verdicts_correct", Sound);
    writeJsonFile(JsonPath, Json.str());
  }

  return Sound && Speedup >= 2.0 && SpeedupVsNoCache >= 1.0 &&
                 WarmHitRate >= 0.5
             ? 0
             : 1;
}
