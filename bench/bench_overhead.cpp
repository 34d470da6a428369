//===- bench/bench_overhead.cpp - E11: Sec. 6.1 overhead ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies the Sec. 6.1 claims with google-benchmark: bound inference
/// and translation run in time linear in the constraint's AST size, and
/// T_check is de minimis. Each benchmark builds a chain-of-sums
/// constraint with the requested node count; the reported time should
/// scale ~linearly with the `/N` argument. BM_ZoneClose and
/// BM_OctagonClose time one relational closure on a fixed 21-variable
/// fact set shaped like the correlated suite's CorrChain family.
///
//===----------------------------------------------------------------------===//

#include "analysis/Octagon.h"
#include "analysis/Zone.h"
#include "smtlib/Term.h"
#include "staub/BoundInference.h"
#include "staub/Transform.h"
#include "theory/Evaluator.h"

#include <benchmark/benchmark.h>

using namespace staub;

namespace {

/// Builds sum_{i<N} (x_i * x_{i+1} + c_i) > 0 style constraints with ~N
/// distinct AST nodes.
std::vector<Term> buildChain(TermManager &M, int64_t N, const char *Prefix) {
  std::vector<Term> Sum;
  Term Prev = M.mkVariable(std::string(Prefix) + "_v0", Sort::integer());
  for (int64_t I = 1; I <= N; ++I) {
    Term Next = M.mkVariable(Prefix + std::string("_v") + std::to_string(I),
                             Sort::integer());
    Sum.push_back(M.mkMul(std::vector<Term>{Prev, Next}));
    Sum.push_back(M.mkIntConst(BigInt(I % 97)));
    Prev = Next;
  }
  Term Total = M.mkAdd(Sum);
  return {M.mkCompare(Kind::Gt, Total, M.mkIntConst(BigInt(0)))};
}

void BM_BoundInference(benchmark::State &State) {
  TermManager M;
  auto Assertions = buildChain(M, State.range(0), "bi");
  for (auto _ : State) {
    IntBounds Bounds = inferIntBounds(M, Assertions);
    benchmark::DoNotOptimize(Bounds.RootWidth);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_BoundInference)->Range(64, 8192)->Complexity(benchmark::oN);

void BM_Translation(benchmark::State &State) {
  TermManager M;
  auto Assertions = buildChain(M, State.range(0), "tr");
  unsigned Emitted = 0, Elided = 0;
  for (auto _ : State) {
    // Note: hash consing makes repeated translation cheaper after the
    // first iteration; a fresh manager per iteration would measure cold
    // translation but also the arena growth. We measure warm translation,
    // which is the relevant regime for portfolio deployment.
    TransformResult R = transformIntToBv(M, Assertions, 24);
    benchmark::DoNotOptimize(R.Ok);
    Emitted = R.GuardsEmitted;
    Elided = R.GuardsElided;
  }
  State.counters["guards_emitted"] = Emitted;
  State.counters["guards_elided"] = Elided;
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_Translation)->Range(64, 8192)->Complexity(benchmark::oN);

void BM_TranslationWithRangeFacts(benchmark::State &State) {
  // Same chain, but every variable carries an asserted box small enough
  // that the interval analysis discharges the overflow guards; measures
  // the elision path end to end (analysis + translation) and reports how
  // many guards survive.
  TermManager M;
  auto Assertions = buildChain(M, State.range(0), "te");
  for (Term Var : M.collectVariables(Assertions[0])) {
    Assertions.push_back(
        M.mkCompare(Kind::Le, Var, M.mkIntConst(BigInt(15))));
    Assertions.push_back(
        M.mkCompare(Kind::Ge, Var, M.mkIntConst(BigInt(-15))));
  }
  unsigned Emitted = 0, Elided = 0;
  for (auto _ : State) {
    TransformResult R = transformIntToBv(M, Assertions, 24);
    benchmark::DoNotOptimize(R.Ok);
    Emitted = R.GuardsEmitted;
    Elided = R.GuardsElided;
  }
  State.counters["guards_emitted"] = Emitted;
  State.counters["guards_elided"] = Elided;
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_TranslationWithRangeFacts)
    ->Range(64, 8192)
    ->Complexity(benchmark::oN);

void BM_VerificationCheck(benchmark::State &State) {
  TermManager M;
  auto Assertions = buildChain(M, State.range(0), "vc");
  Model Mod;
  for (Term Var : M.collectVariables(Assertions[0]))
    Mod.set(Var, Value(BigInt(3)));
  for (auto _ : State) {
    bool Holds = evaluatesToTrue(M, Assertions[0], Mod);
    benchmark::DoNotOptimize(Holds);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_VerificationCheck)->Range(64, 8192)->Complexity(benchmark::oN);

/// The CorrChain shape (benchgen correlatedChain) over v_0..v_20:
/// v_0 - v_1 >= 1, v_i - v_{i+1} <= 3, every v_i >= 0, v_20 <= 900 and
/// the sum breaker v_0 + v_1 >= 3.
std::vector<Term> buildCorrChain(TermManager &M) {
  constexpr unsigned K = 20;
  auto C = [&](int64_t V) { return M.mkIntConst(BigInt(V)); };
  std::vector<Term> V;
  for (unsigned I = 0; I <= K; ++I)
    V.push_back(M.mkVariable("cc_v" + std::to_string(I), Sort::integer()));
  std::vector<Term> Out;
  Out.push_back(
      M.mkCompare(Kind::Ge, M.mkSub(std::vector<Term>{V[0], V[1]}), C(1)));
  for (unsigned I = 0; I < K; ++I)
    Out.push_back(M.mkCompare(
        Kind::Le, M.mkSub(std::vector<Term>{V[I], V[I + 1]}), C(3)));
  for (unsigned I = 0; I <= K; ++I)
    Out.push_back(M.mkCompare(Kind::Ge, V[I], C(0)));
  Out.push_back(M.mkCompare(Kind::Le, V[K], C(900)));
  Out.push_back(
      M.mkCompare(Kind::Ge, M.mkAdd(std::vector<Term>{V[0], V[1]}), C(3)));
  return Out;
}

void BM_ZoneClose(benchmark::State &State) {
  TermManager M;
  std::vector<Term> Assertions = buildCorrChain(M);
  analysis::Zone Base;
  for (unsigned I = 0; I < Assertions.size(); ++I)
    analysis::harvestZoneFacts(M, Assertions[I], I, Base);
  bool Consistent = false;
  for (auto _ : State) {
    analysis::Zone Z = Base;
    Consistent = Z.close();
    benchmark::DoNotOptimize(Consistent);
  }
  State.counters["variables"] = Base.numVariables();
  State.counters["consistent"] = Consistent;
}
BENCHMARK(BM_ZoneClose);

void BM_OctagonClose(benchmark::State &State) {
  // Registered as guard elision registers them: Int, seeded with the
  // signed range of the width the relational pipeline infers (11 bits).
  TermManager M;
  std::vector<Term> Assertions = buildCorrChain(M);
  analysis::Octagon Base;
  analysis::Interval WidthRange =
      analysis::Interval::range(Rational(-1024), Rational(1023));
  for (Term A : Assertions)
    for (Term Var : M.collectVariables(A)) {
      if (Base.hasVariable(Var.id()))
        continue;
      Base.addVariable(Var.id(), /*IsInt=*/true);
      Base.constrainVar(Var.id(), WidthRange);
    }
  unsigned Facts = 0;
  for (const analysis::RelFact &F :
       analysis::harvestRelationalFacts(M, Assertions))
    Facts += Base.addFact(F);
  bool Consistent = false;
  for (auto _ : State) {
    analysis::Octagon Oct = Base;
    Consistent = Oct.close();
    benchmark::DoNotOptimize(Consistent);
  }
  State.counters["facts"] = Facts;
  State.counters["consistent"] = Consistent;
}
BENCHMARK(BM_OctagonClose);

void BM_HashConsingLookup(benchmark::State &State) {
  TermManager M;
  Term X = M.mkVariable("hx", Sort::integer());
  Term Y = M.mkVariable("hy", Sort::integer());
  for (auto _ : State) {
    // Re-creating an existing term is a pure hash lookup.
    Term T = M.mkAdd(std::vector<Term>{X, Y});
    benchmark::DoNotOptimize(T.id());
  }
}
BENCHMARK(BM_HashConsingLookup);

} // namespace

BENCHMARK_MAIN();
