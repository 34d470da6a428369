//===- perfbench/src/Workloads.cpp - The benchmark's query streams --------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchgen/Generators.h"
#include "smtlib/Printer.h"
#include "support/Random.h"

using namespace perfbench;
using namespace staub;

namespace {

// Every stream is 2.7 to 3.5 times longer than what one run of
// BENCHMARK.json's run_seconds (40 s) sends today, so a faster program
// meets more of the same traffic rather than wrapping around.

// vc-stream: each base is sent as its variants, then revisited once, a
// seeded 1-16 bases later, so some revisits still find the base's
// templates in the default 64 MiB blast cache and some find them evicted.
// Revisits that would fall past the last base are dropped.
constexpr unsigned VcBases = 256;
constexpr unsigned VcVariants = 3;
constexpr unsigned VcMaxRevisitDistance = 16;
constexpr unsigned VcConstantBits = 14;

// int-relational: the generator cycles negative cycle, satisfiable
// cycle, chain, bands, and presolve decides both cycle kinds with no
// solver call. Both presolve and translation are meant to show in this
// workload's median query, so that query has to reach translation: the
// stream keeps every chain and band but the cycles of every other round
// only, so presolve decides a third of the queries rather than half.
constexpr unsigned CorrelatedCount = 4096;

// table2-mix: each logic's suite in the generator's own order, interleaved
// one query per logic, at the generator's default constant size. Every
// instance is planted sat: STAUB only decides a constraint itself when it
// verifies a bounded model, so on an unsat instance its lane is pure
// overhead and the answer comes from the plain fallback solve. The limit
// is short because the FP lane spends the whole limit on QF_LRA instances
// its ICP search cannot round to a model, before the fallback answers in
// about a millisecond; at 0.25 s those take about half of a run.
constexpr BenchLogic Table2Logics[] = {BenchLogic::QF_NIA, BenchLogic::QF_LIA,
                                       BenchLogic::QF_NRA, BenchLogic::QF_LRA};
constexpr unsigned Table2PerLogic = 512;
constexpr double Table2LimitSeconds = 0.25;

// staubd's default per-query limit (ServerOptions::DefaultTimeoutSeconds)
// and the CLI's (SolverOptions::TimeoutSeconds).
constexpr double DefaultLimitSeconds = 5.0;

Query render(TermManager &Manager, const GeneratedConstraint &G,
             std::string_view Logic, std::string Name) {
  Script S;
  S.Logic = std::string(Logic);
  S.Variables = Manager.collectVariables(Manager.mkAnd(G.Assertions));
  S.Assertions = G.Assertions;
  S.HasCheckSat = true;
  return {std::move(Name), printScript(Manager, S), G.Expected};
}

Workload vcStream(uint64_t Seed) {
  Workload W;
  W.Name = "vc-stream";
  W.LimitSeconds = DefaultLimitSeconds;
  W.Cached = true;

  TermManager Manager;
  BenchConfig Config;
  Config.Seed = Seed;
  Config.MaxConstantBits = VcConstantBits;
  std::vector<GeneratedConstraint> Suite =
      generateVcStreamSuite(Manager, Config, VcBases, VcVariants);

  // Revisits[b] lists the queries re-sent right after base b's variants.
  SplitMix64 Rng(Seed ^ 0x7E715175ull);
  std::vector<std::vector<unsigned>> Revisits(VcBases);
  for (unsigned B = 0; B < VcBases; ++B) {
    unsigned Distance =
        1 + static_cast<unsigned>(Rng.below(VcMaxRevisitDistance));
    unsigned Variant = static_cast<unsigned>(Rng.below(VcVariants));
    if (B + Distance < VcBases)
      Revisits[B + Distance].push_back(B * VcVariants + Variant);
  }
  for (unsigned B = 0; B < VcBases; ++B) {
    for (unsigned V = 0; V < VcVariants; ++V) {
      const GeneratedConstraint &G = Suite[B * VcVariants + V];
      W.Stream.push_back(render(Manager, G, "QF_NIA", G.Name));
    }
    for (unsigned Index : Revisits[B])
      W.Stream.push_back(
          render(Manager, Suite[Index], "QF_NIA", Suite[Index].Name + "@r"));
  }
  W.Shape = std::to_string(VcBases) + " bases x " +
            std::to_string(VcVariants) +
            " variants, each base revisited once 1-" +
            std::to_string(VcMaxRevisitDistance) + " bases later, " +
            std::to_string(VcConstantBits) + "-bit constants";
  return W;
}

Workload intRelational(uint64_t Seed) {
  Workload W;
  W.Name = "int-relational";
  W.LimitSeconds = DefaultLimitSeconds;
  TermManager Manager;
  BenchConfig Config;
  Config.Seed = Seed;
  Config.Count = CorrelatedCount;
  std::vector<GeneratedConstraint> Suite =
      generateCorrelatedSuite(Manager, Config);
  for (size_t I = 0; I < Suite.size(); ++I) {
    bool Cycle = Suite[I].Family == "CorrNegCycle" ||
                 Suite[I].Family == "CorrSatCycle";
    if (!Cycle || (I / 4) % 2 == 0)
      W.Stream.push_back(render(Manager, Suite[I], "QF_LIA", Suite[I].Name));
  }
  W.Shape = std::to_string(W.Stream.size()) +
            " correlated Int queries: per 6, 1 negative cycle, 1 "
            "satisfiable cycle, 2 chains, 2 bands";
  return W;
}

Workload table2Mix(uint64_t Seed) {
  Workload W;
  W.Name = "table2-mix";
  W.LimitSeconds = Table2LimitSeconds;
  TermManager Manager;
  BenchConfig Config;
  Config.Seed = Seed;
  Config.Count = Table2PerLogic;
  Config.SatPercent = 100;
  std::vector<std::vector<GeneratedConstraint>> Suites;
  for (BenchLogic Logic : Table2Logics)
    Suites.push_back(generateSuite(Manager, Logic, Config));
  for (unsigned I = 0; I < Table2PerLogic; ++I)
    for (size_t L = 0; L < Suites.size(); ++L) {
      std::string_view Logic = toString(Table2Logics[L]);
      const GeneratedConstraint &G = Suites[L][I];
      W.Stream.push_back(
          render(Manager, G, Logic, std::string(Logic) + "/" + G.Name));
    }
  W.Shape = std::to_string(Table2PerLogic) +
            " planted-sat queries per logic (QF_NIA, QF_LIA, QF_NRA, "
            "QF_LRA) in the generator's order, interleaved";
  return W;
}

} // namespace

const std::vector<std::string_view> &perfbench::workloadNames() {
  static const std::vector<std::string_view> Names = {
      "vc-stream", "int-relational", "table2-mix"};
  return Names;
}

std::optional<Workload> perfbench::makeWorkload(std::string_view Name,
                                                uint64_t Seed) {
  if (Name == "vc-stream")
    return vcStream(Seed);
  if (Name == "int-relational")
    return intRelational(Seed);
  if (Name == "table2-mix")
    return table2Mix(Seed);
  return std::nullopt;
}
