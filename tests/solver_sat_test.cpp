//===- tests/solver_sat_test.cpp - CDCL SAT solver tests ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Sat.h"

#include "support/Random.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

Lit pos(unsigned V) { return Lit(V, false); }
Lit neg(unsigned V) { return Lit(V, true); }

TEST(SatTest, TrivialSat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addUnit(pos(A));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(A));
}

TEST(SatTest, TrivialUnsat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addUnit(pos(A));
  EXPECT_FALSE(S.addUnit(neg(A)));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

TEST(SatTest, TautologyAndDuplicates) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  EXPECT_TRUE(S.addClause({pos(A), neg(A), pos(B)})); // Tautology dropped.
  EXPECT_TRUE(S.addClause({pos(B), pos(B), pos(B)})); // Collapses to unit.
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatTest, UnitPropagationChain) {
  SatSolver S;
  std::vector<unsigned> V;
  for (int I = 0; I < 20; ++I)
    V.push_back(S.newVar());
  // v0 and (v_i -> v_{i+1}) forces all true.
  S.addUnit(pos(V[0]));
  for (int I = 0; I + 1 < 20; ++I)
    S.addBinary(neg(V[I]), pos(V[I + 1]));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  for (int I = 0; I < 20; ++I)
    EXPECT_TRUE(S.modelValue(V[I]));
}

TEST(SatTest, ZeroActivityDecisionsTakeLowestIndexFirst) {
  // Pairs (v_i or v_{11-i}) with saved phases all false: deciding the
  // lower index first (false) propagates its partner true. Any other tie
  // order decides some partner first and flips that pair.
  SatSolver S;
  for (unsigned I = 0; I < 10; ++I)
    S.newVar();
  for (unsigned I = 1; I <= 5; ++I)
    S.addBinary(pos(I), pos(11 - I));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_EQ(S.numConflicts(), 0u);
  for (unsigned I = 1; I <= 10; ++I)
    EXPECT_EQ(S.modelValue(I), I > 5) << "variable " << I;
  EXPECT_EQ(S.numDecisions(), 5u);
}

TEST(SatTest, RequiresConflictAnalysis) {
  // XOR-like structure that needs real search.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar(), C = S.newVar();
  // a xor b xor c = 1 (odd parity), encoded as CNF.
  S.addTernary(pos(A), pos(B), pos(C));
  S.addTernary(pos(A), neg(B), neg(C));
  S.addTernary(neg(A), pos(B), neg(C));
  S.addTernary(neg(A), neg(B), pos(C));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  int Parity = S.modelValue(A) + S.modelValue(B) + S.modelValue(C);
  EXPECT_EQ(Parity % 2, 1);
}

/// Pigeonhole PHP(n+1, n): unsatisfiable and exercises clause learning.
SatStatus pigeonhole(unsigned Holes, uint64_t MaxConflicts = UINT64_MAX) {
  SatSolver S;
  unsigned Pigeons = Holes + 1;
  // Var p*Holes + h + 1: pigeon p in hole h.
  std::vector<std::vector<unsigned>> Var(Pigeons,
                                         std::vector<unsigned>(Holes));
  for (unsigned P = 0; P < Pigeons; ++P)
    for (unsigned H = 0; H < Holes; ++H)
      Var[P][H] = S.newVar();
  for (unsigned P = 0; P < Pigeons; ++P) {
    std::vector<Lit> AtLeastOne;
    for (unsigned H = 0; H < Holes; ++H)
      AtLeastOne.push_back(pos(Var[P][H]));
    S.addClause(AtLeastOne);
  }
  for (unsigned H = 0; H < Holes; ++H)
    for (unsigned P1 = 0; P1 < Pigeons; ++P1)
      for (unsigned P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addBinary(neg(Var[P1][H]), neg(Var[P2][H]));
  SatBudget Budget;
  Budget.MaxConflicts = MaxConflicts;
  return S.solve(Budget);
}

TEST(SatTest, PigeonholeUnsat) {
  EXPECT_EQ(pigeonhole(4), SatStatus::Unsat);
  EXPECT_EQ(pigeonhole(6), SatStatus::Unsat);
}

TEST(SatTest, BudgetExhaustionReturnsUnknown) {
  // PHP(9,8) is hard enough that two conflicts are not enough.
  EXPECT_EQ(pigeonhole(8, /*MaxConflicts=*/2), SatStatus::Unknown);
}

TEST(SatTest, GraphColoringSat) {
  // 3-color a 5-cycle (possible) — classic small CSP.
  SatSolver S;
  const unsigned N = 5, K = 3;
  unsigned Var[N][K];
  for (unsigned V = 0; V < N; ++V)
    for (unsigned C = 0; C < K; ++C)
      Var[V][C] = S.newVar();
  for (unsigned V = 0; V < N; ++V) {
    S.addTernary(pos(Var[V][0]), pos(Var[V][1]), pos(Var[V][2]));
    for (unsigned C1 = 0; C1 < K; ++C1)
      for (unsigned C2 = C1 + 1; C2 < K; ++C2)
        S.addBinary(neg(Var[V][C1]), neg(Var[V][C2]));
  }
  for (unsigned V = 0; V < N; ++V)
    for (unsigned C = 0; C < K; ++C)
      S.addBinary(neg(Var[V][C]), neg(Var[(V + 1) % N][C]));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  // Validate the coloring.
  for (unsigned V = 0; V < N; ++V) {
    int Color = -1;
    for (unsigned C = 0; C < K; ++C)
      if (S.modelValue(Var[V][C]))
        Color = static_cast<int>(C);
    ASSERT_GE(Color, 0);
    int NextColor = -1;
    for (unsigned C = 0; C < K; ++C)
      if (S.modelValue(Var[(V + 1) % N][C]))
        NextColor = static_cast<int>(C);
    EXPECT_NE(Color, NextColor);
  }
}

TEST(SatTest, AssumptionsGuideAndRestrict) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addBinary(pos(A), pos(B)); // a or b.
  // Assuming ~a forces b.
  EXPECT_EQ(S.solve({}, {neg(A)}), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Contradictory assumptions are unsat without poisoning the solver.
  EXPECT_EQ(S.solve({}, {pos(A), neg(A)}), SatStatus::Unsat);
  EXPECT_EQ(S.solve(), SatStatus::Sat); // Still sat without assumptions.
  // Assumption conflicting with a learned/unit fact.
  S.addUnit(neg(B));
  EXPECT_EQ(S.solve({}, {neg(A)}), SatStatus::Unsat);
  EXPECT_EQ(S.solve({}, {pos(A)}), SatStatus::Sat);
}

TEST(SatTest, IncrementalClauseAddition) {
  // DPLL(T)-style usage: solve, block the model, repeat. Enumerates all
  // four models of two free variables.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addBinary(pos(A), pos(A)); // Touch the solver; a is free via (a or a)?
  // Actually make both free: tautology-free no-op clauses are dropped, so
  // just solve directly.
  int Models = 0;
  while (S.solve() == SatStatus::Sat && Models < 8) {
    ++Models;
    std::vector<Lit> Block;
    Block.push_back(S.modelValue(A) ? neg(A) : pos(A));
    Block.push_back(S.modelValue(B) ? neg(B) : pos(B));
    if (!S.addClause(Block))
      break;
  }
  // (a or a) == unit a, so a is pinned true: exactly 2 models.
  EXPECT_EQ(Models, 2);
}

/// Brute-force satisfiability for cross-checking random instances.
bool bruteForce(unsigned NumVars,
                const std::vector<std::vector<int>> &Clauses) {
  for (uint32_t Mask = 0; Mask < (1u << NumVars); ++Mask) {
    bool All = true;
    for (const auto &Clause : Clauses) {
      bool Any = false;
      for (int L : Clause) {
        unsigned V = static_cast<unsigned>(L > 0 ? L : -L) - 1;
        bool Val = (Mask >> V) & 1;
        if ((L > 0) == Val) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

class RandomCnfTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  SplitMix64 Rng(GetParam());
  const unsigned NumVars = 10;
  const unsigned NumClauses = 42; // Near the 3-SAT phase transition.
  std::vector<std::vector<int>> Clauses;
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<int> Clause;
    for (int J = 0; J < 3; ++J) {
      int V = static_cast<int>(Rng.below(NumVars)) + 1;
      Clause.push_back(Rng.chance(1, 2) ? V : -V);
    }
    Clauses.push_back(Clause);
  }
  SatSolver S;
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  bool TriviallyUnsat = false;
  for (const auto &Clause : Clauses) {
    std::vector<Lit> Lits;
    for (int L : Clause)
      Lits.push_back(Lit::fromDimacs(L));
    if (!S.addClause(Lits))
      TriviallyUnsat = true;
  }
  bool Expected = bruteForce(NumVars, Clauses);
  SatStatus Got = TriviallyUnsat ? SatStatus::Unsat : S.solve();
  EXPECT_EQ(Got, Expected ? SatStatus::Sat : SatStatus::Unsat);
  if (Got == SatStatus::Sat) {
    // The reported model must actually satisfy every clause.
    for (const auto &Clause : Clauses) {
      bool Any = false;
      for (int L : Clause) {
        unsigned V = static_cast<unsigned>(L > 0 ? L : -L);
        if ((L > 0) == S.modelValue(V))
          Any = true;
      }
      EXPECT_TRUE(Any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Range(uint64_t(1), uint64_t(41)));

} // namespace
