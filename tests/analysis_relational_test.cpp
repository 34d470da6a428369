//===- tests/analysis_relational_test.cpp - Relational domains ------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Units for the relational abstract-domain layer (analysis/Dbm.h,
/// analysis/Zone.h, analysis/Octagon.h): Floyd-Warshall closure and its
/// negative-cycle unsat certificate, provenance threading, the
/// bad-closure injection's triangle-consistency signature, widening
/// termination, zone fact harvesting and transitive projections,
/// shortest-path potentials, the octagon's signed-variable encoding with
/// integer tightening, the shared relational overflow oracle, and a
/// seeded differential check of the int64 closure kernel against the
/// Rational one.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dbm.h"
#include "analysis/Octagon.h"
#include "analysis/Zone.h"
#include "smtlib/Term.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace staub;
using namespace staub::analysis;

namespace {

Rational Q(int64_t V) { return Rational(BigInt(V)); }

//===--------------------------------------------------------------------===//
// DBM core.
//===--------------------------------------------------------------------===//

TEST(DbmTest, CloseComputesShortestPaths) {
  Dbm D(3);
  D.tighten(0, 1, Q(3), {0});
  D.tighten(1, 2, Q(-1), {1});
  ASSERT_TRUE(D.close());
  EXPECT_TRUE(D.consistent());
  EXPECT_TRUE(D.triangleConsistent());
  ASSERT_TRUE(D.at(0, 2).has_value());
  EXPECT_EQ(*D.at(0, 2), Q(2));
  // The relaxed edge unions the provenance of both legs.
  std::set<unsigned> Expected = {0, 1};
  EXPECT_EQ(D.sourcesAt(0, 2), Expected);
}

TEST(DbmTest, TightenKeepsTighterBoundAndUnionsEqualProvenance) {
  Dbm D(2);
  D.tighten(0, 1, Q(5), {0});
  D.tighten(0, 1, Q(7), {1}); // Looser: ignored entirely.
  ASSERT_TRUE(D.at(0, 1).has_value());
  EXPECT_EQ(*D.at(0, 1), Q(5));
  EXPECT_EQ(D.sourcesAt(0, 1), std::set<unsigned>{0});
  D.tighten(0, 1, Q(5), {2}); // Equally tight: provenance unions.
  std::set<unsigned> Both = {0, 2};
  EXPECT_EQ(D.sourcesAt(0, 1), Both);
}

TEST(DbmTest, NegativeCycleIsInconsistentAndNamesSources) {
  Dbm D(3);
  D.tighten(1, 2, Q(-3), {4});
  D.tighten(2, 1, Q(2), {7});
  EXPECT_FALSE(D.close());
  EXPECT_FALSE(D.consistent());
  std::set<unsigned> Cycle = D.negativeCycleSources();
  EXPECT_TRUE(Cycle.count(4));
  EXPECT_TRUE(Cycle.count(7));
}

TEST(DbmTest, InjectedSkipLastPivotLeavesTriangleInconsistency) {
  // The chain 1 -> 2 -> 3 -> 0 only reaches D(1, 0) by relaxing through
  // pivot 3; skipping it (the bad-closure mutant) leaves
  // D(1, 0) = inf > D(1, 3) + D(3, 0) — exactly what
  // triangleConsistent() exists to catch. An honest closure of the same
  // constraints passes.
  auto Build = [] {
    Dbm D(4);
    D.tighten(1, 2, Q(0), {0});
    D.tighten(2, 3, Q(0), {1});
    D.tighten(3, 0, Q(3), {2});
    D.tighten(0, 1, Q(0), {3});
    return D;
  };
  Dbm Bad = Build();
  ASSERT_TRUE(Bad.close(/*InjectSkipLastPivot=*/true));
  EXPECT_TRUE(Bad.consistent());
  EXPECT_FALSE(Bad.triangleConsistent());

  Dbm Good = Build();
  ASSERT_TRUE(Good.close());
  EXPECT_TRUE(Good.triangleConsistent());
  ASSERT_TRUE(Good.at(1, 0).has_value());
  EXPECT_EQ(*Good.at(1, 0), Q(3));
}

TEST(DbmTest, WideningDropsExceededBoundsAndReachesFixpoint) {
  Dbm A(2);
  A.tighten(0, 1, Q(5), {0});
  A.tighten(1, 0, Q(0), {0});
  ASSERT_TRUE(A.close());

  // B respects the (1,0) bound but exceeds the (0,1) bound: widening
  // keeps the former and drops the latter to unbounded.
  Dbm B(2);
  B.tighten(0, 1, Q(6), {1});
  B.tighten(1, 0, Q(0), {1});
  ASSERT_TRUE(B.close());
  Dbm W = Dbm::widen(A, B);
  EXPECT_FALSE(W.at(0, 1).has_value());
  ASSERT_TRUE(W.at(1, 0).has_value());
  EXPECT_EQ(*W.at(1, 0), Q(0));

  // Widening only ever drops bounds, so iterating against ever-looser
  // states reaches a fixpoint: the second application changes nothing.
  Dbm C(2);
  C.tighten(0, 1, Q(100), {2});
  C.tighten(1, 0, Q(0), {2});
  ASSERT_TRUE(C.close());
  Dbm W2 = Dbm::widen(W, C);
  for (unsigned I = 0; I < 2; ++I)
    for (unsigned J = 0; J < 2; ++J)
      EXPECT_EQ(W2.at(I, J).has_value(), W.at(I, J).has_value());
}

//===--------------------------------------------------------------------===//
// Zone domain.
//===--------------------------------------------------------------------===//

TEST(ZoneTest, HarvestRecognizesDiffBoundAndVarVarAtoms) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  unsigned Count = 0;
  Count += harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(5))),
      0, Z);
  Count += harvestZoneFacts(
      M, M.mkCompare(Kind::Lt, X, M.mkIntConst(BigInt(10))), 1, Z);
  Count += harvestZoneFacts(
      M, M.mkCompare(Kind::Ge, Y, M.mkIntConst(BigInt(0))), 2, Z);
  EXPECT_EQ(Count, 3u);
  EXPECT_TRUE(Z.hasBinaryConstraints());
  ASSERT_TRUE(Z.close());
  // Strict Int comparison tightened by one.
  Interval IX = Z.varInterval(X.id());
  ASSERT_TRUE(IX.Hi.has_value());
  EXPECT_EQ(*IX.Hi, Q(9));
  Interval IY = Z.varInterval(Y.id());
  ASSERT_TRUE(IY.Lo.has_value());
  EXPECT_EQ(*IY.Lo, Q(0));
}

TEST(ZoneTest, ChainProjectsTransitiveBoundsWithProvenance) {
  // x <= y <= z <= 3 with x >= 0: closure bounds every variable to
  // [0, 3] even though no single atom says so.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Term Z3 = M.mkVariable("z", Sort::integer());
  Zone Z;
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, Y), 0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, Z3), 1, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Z3, M.mkIntConst(BigInt(3))), 2,
                   Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0))), 3,
                   Z);
  ASSERT_TRUE(Z.close());
  for (Term V : {X, Y, Z3}) {
    Interval I = Z.varInterval(V.id());
    ASSERT_TRUE(I.Lo.has_value() && I.Hi.has_value());
    EXPECT_EQ(*I.Lo, Q(0));
    EXPECT_EQ(*I.Hi, Q(3));
  }
  // x's upper bound came through the whole chain.
  std::set<unsigned> Src = Z.varIntervalSources(X.id());
  for (unsigned Root : {0u, 1u, 2u, 3u})
    EXPECT_TRUE(Src.count(Root)) << "missing root " << Root;
}

TEST(ZoneTest, NegativeCycleCertificateNamesAssertions) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(-1))),
      0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, X), 1, Z);
  EXPECT_FALSE(Z.close());
  EXPECT_FALSE(Z.consistent());
  std::set<unsigned> Cycle = Z.negativeCycleSources();
  EXPECT_TRUE(Cycle.count(0));
  EXPECT_TRUE(Cycle.count(1));
  // Inconsistent zones project bottom.
  EXPECT_TRUE(Z.varInterval(X.id()).Empty);
}

TEST(ZoneTest, PotentialSatisfiesEveryRecordedConstraint) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(-2))),
      0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(5))), 1,
                   Z);
  ASSERT_TRUE(Z.close());
  std::optional<Rational> PX = Z.potential(X.id());
  std::optional<Rational> PY = Z.potential(Y.id());
  ASSERT_TRUE(PX && PY);
  EXPECT_TRUE(*PX - *PY <= Q(-2));
  EXPECT_TRUE(*PY <= Q(5));
}

TEST(ZoneTest, BinaryConstraintDetectionIgnoresBounds) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(7))), 0,
                   Z);
  Z.constrainVar(Y.id(), Interval::range(Q(0), Q(4)), {1});
  EXPECT_FALSE(Z.hasBinaryConstraints());
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, Y), 2, Z);
  EXPECT_TRUE(Z.hasBinaryConstraints());
}

TEST(ZoneTest, EmptySeedRangeIsContradiction) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Zone Z;
  Z.addVariable(X.id());
  Z.constrainVar(X.id(), Interval::bottom(), {3});
  EXPECT_FALSE(Z.close());
  EXPECT_TRUE(Z.negativeCycleSources().count(3));
}

//===--------------------------------------------------------------------===//
// Octagon domain.
//===--------------------------------------------------------------------===//

RelFact fact(uint32_t X, int SX, uint32_t Y, int SY, int64_t C) {
  RelFact F;
  F.X = X;
  F.SX = SX;
  F.Y = Y;
  F.SY = SY;
  F.C = Q(C);
  return F;
}

TEST(OctagonTest, SignedEncodingRoundTripsPairBounds) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), /*IsInt=*/true);
  Oct.addVariable(Y.id(), /*IsInt=*/true);
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));  // x + y <= 5
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 1))); // x - y <= 1
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, 0, 0, 0)));      // -x <= 0
  ASSERT_TRUE(Oct.close());
  ASSERT_TRUE(Oct.consistent());
  auto Sum = Oct.pairUpper(X.id(), 1, Y.id(), 1);
  ASSERT_TRUE(Sum.has_value());
  EXPECT_EQ(*Sum, Q(5));
  auto Diff = Oct.pairUpper(X.id(), 1, Y.id(), -1);
  ASSERT_TRUE(Diff.has_value());
  EXPECT_EQ(*Diff, Q(1));
  // Strengthening: (x+y) + (x-y) <= 6 gives 2x <= 6, so x in [0, 3].
  Interval IX = Oct.varInterval(X.id());
  ASSERT_TRUE(IX.Lo.has_value() && IX.Hi.has_value());
  EXPECT_EQ(*IX.Lo, Q(0));
  EXPECT_EQ(*IX.Hi, Q(3));
}

TEST(OctagonTest, IntegerTighteningRoundsOddUnaryBoundsDown) {
  // x + y <= 5 and x - y <= 0 give 2x <= 5; over Int the unary bound
  // tightens to x <= 2.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), /*IsInt=*/true);
  Oct.addVariable(Y.id(), /*IsInt=*/true);
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 0)));
  ASSERT_TRUE(Oct.close());
  Interval IX = Oct.varInterval(X.id());
  ASSERT_TRUE(IX.Hi.has_value());
  EXPECT_EQ(*IX.Hi, Q(2));
}

TEST(OctagonTest, ContradictoryFactsAreInconsistent) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), true);
  Oct.addVariable(Y.id(), true);
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 0)));   // x + y <= 0
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), -1, -1))); // -x - y <= -1
  EXPECT_FALSE(Oct.close());
  EXPECT_FALSE(Oct.consistent());
}

TEST(OctagonTest, FactsReferencingUnregisteredVariablesAreIgnored) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), true);
  EXPECT_FALSE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));
  EXPECT_TRUE(Oct.addFact(fact(X.id(), 1, 0, 0, 7)));
}

TEST(OctagonTest, HarvestRecognizesSumDiffNegAndVarAtoms) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, M.mkAdd(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(7))),
      M.mkCompare(Kind::Lt, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(4))),
      M.mkCompare(Kind::Ge, M.mkNeg(X), M.mkIntConst(BigInt(-9))),
      M.mkCompare(Kind::Le, X, Y),
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(4)))};
  std::vector<RelFact> Facts = harvestRelationalFacts(M, Assertions);
  ASSERT_GE(Facts.size(), 5u);

  // The sum fact reads through an overflow-capable Add and remembers it.
  const RelFact &Sum = Facts[0];
  EXPECT_EQ(Sum.SX, 1);
  EXPECT_EQ(Sum.SY, 1);
  EXPECT_EQ(Sum.C, Q(7));
  EXPECT_TRUE(Sum.HasSource);
  EXPECT_EQ(Sum.SourceOp, Kind::Add);

  // Strict Int comparison tightened by one on the Sub fact.
  const RelFact &Diff = Facts[1];
  EXPECT_EQ(Diff.SX, 1);
  EXPECT_EQ(Diff.SY, -1);
  EXPECT_EQ(Diff.C, Q(3));
  EXPECT_TRUE(Diff.HasSource);
  EXPECT_EQ(Diff.SourceOp, Kind::Sub);

  // -x >= -9 is the unary fact x <= 9 through a Neg.
  const RelFact &NegF = Facts[2];
  EXPECT_EQ(NegF.SY, 0);
  EXPECT_TRUE(NegF.HasSource);
  EXPECT_EQ(NegF.SourceOp, Kind::Neg);

  // Plain var-var and var-const atoms carry no source operation.
  EXPECT_FALSE(Facts[3].HasSource);
  EXPECT_FALSE(Facts[4].HasSource);
}

TEST(OctagonTest, GuardKeyNormalizesCommutativeOperands) {
  EXPECT_EQ(makeGuardKey(Kind::BvSAddO, 9, 3), makeGuardKey(Kind::BvSAddO, 3, 9));
  EXPECT_NE(makeGuardKey(Kind::BvSSubO, 9, 3), makeGuardKey(Kind::BvSSubO, 3, 9));
}

TEST(OctagonTest, RelationalOverflowOracleUsesPairBounds) {
  // |x - y| <= 3 makes an 8-bit subtraction unguardable even though the
  // per-variable projections are unbounded — exactly the refinement the
  // interval-only oracle cannot make.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), true);
  Oct.addVariable(Y.id(), true);
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 3)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), 1, 3)));
  ASSERT_TRUE(Oct.close());
  EXPECT_TRUE(relationalOverflowImpossible(M, Kind::BvSSubO, X, Y,
                                           Interval::top(), Interval::top(),
                                           8, Oct));
  // No pair bound on the sum: x + y can still exceed the width range.
  EXPECT_FALSE(relationalOverflowImpossible(M, Kind::BvSAddO, X, Y,
                                            Interval::top(), Interval::top(),
                                            8, Oct));
}

TEST(OctagonTest, InconsistentOctagonDischargesEveryGuard) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id(), true);
  Oct.addVariable(Y.id(), true);
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 0)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), -1, -1)));
  ASSERT_FALSE(Oct.close());
  EXPECT_TRUE(relationalOverflowImpossible(M, Kind::BvSMulO, X, Y,
                                           Interval::top(), Interval::top(),
                                           8, Oct));
}

//===--------------------------------------------------------------------===//
// Int64 kernel against the Rational reference.
//===--------------------------------------------------------------------===//

/// The kinds of constraint constants the differential tests draw.
enum class ConstMix {
  Integer,   ///< Small integers: the int64 kernel runs start to finish.
  Fraction,  ///< Small fractions: the common scale grows.
  NearLimit, ///< Around the overflow limit and past int64: fallbacks.
};

/// The largest integer bound the int64 kernel admits on \p N nodes: its
/// scaled magnitude limit over the scale unit 4 (Dbm.cpp).
int64_t kernelLimit(unsigned N) {
  return (INT64_MAX - 1) / (2 * int64_t(N)) / 4;
}

Rational randomConstant(SplitMix64 &Rng, ConstMix Mix, unsigned N) {
  int64_t Small = Rng.range(-12, 20);
  switch (Mix) {
  case ConstMix::Integer:
    return Q(Small);
  case ConstMix::Fraction:
    return Rational(BigInt(Small), BigInt(Rng.range(1, 7)));
  case ConstMix::NearLimit:
    break;
  }
  int64_t Limit = kernelLimit(N);
  switch (Rng.below(5)) {
  case 0:
    return Q(Limit - Rng.range(0, 3));
  case 1:
    return Q(-Limit + Rng.range(0, 3));
  case 2:
    return Q(Limit + Rng.range(1, 3)); // Just past the limit.
  case 3:
    return Rational(BigInt(INT64_MAX) * BigInt(Rng.range(2, 5)));
  default:
    return Q(Small);
  }
}

ConstMix mixOf(unsigned Trial) { return static_cast<ConstMix>(Trial % 3); }

/// Every entry, its provenance, consistency and the cycle certificate.
void expectSameDbm(const Dbm &Fast, const Dbm &Ref, unsigned Trial) {
  ASSERT_EQ(Fast.consistent(), Ref.consistent()) << "trial " << Trial;
  EXPECT_EQ(Fast.negativeCycleSources(), Ref.negativeCycleSources())
      << "trial " << Trial;
  for (unsigned I = 0; I < Ref.size(); ++I)
    for (unsigned J = 0; J < Ref.size(); ++J) {
      EXPECT_EQ(Fast.at(I, J), Ref.at(I, J))
          << "trial " << Trial << " entry (" << I << ", " << J << ")";
      EXPECT_EQ(Fast.sourcesAt(I, J), Ref.sourcesAt(I, J))
          << "trial " << Trial << " entry (" << I << ", " << J << ")";
    }
}

TEST(DbmKernelTest, Int64ClosureMatchesRationalReference) {
  SplitMix64 Rng(0x5eed);
  unsigned Machine = 0, FellBackAtEntry = 0, Inconsistent = 0;
  for (unsigned Trial = 0; Trial < 600; ++Trial) {
    unsigned N = unsigned(Rng.range(2, 12));
    Dbm Fast(N), Ref(N, /*ExactWeights=*/true);
    unsigned Edges = unsigned(Rng.range(1, 3 * N));
    for (unsigned E = 0; E < Edges; ++E) {
      unsigned I = unsigned(Rng.below(N)), J = unsigned(Rng.below(N));
      Rational C = randomConstant(Rng, mixOf(Trial), N);
      // Mostly positive bounds keep most systems consistent.
      if (C.isNegative() && Rng.chance(1, 2))
        C = -C;
      std::set<unsigned> Srcs = {unsigned(Rng.below(8))};
      Fast.tighten(I, J, C, Srcs);
      Ref.tighten(I, J, C, Srcs);
    }
    FellBackAtEntry += !Fast.machineWeights();
    EXPECT_EQ(Fast.close(), Ref.close());
    expectSameDbm(Fast, Ref, Trial);
    EXPECT_EQ(Fast.triangleConsistent(), Ref.triangleConsistent());
    for (unsigned I = 0; I < N; ++I)
      EXPECT_EQ(Fast.minOutgoing(I), Ref.minOutgoing(I));
    Machine += Fast.machineWeights();
    Inconsistent += !Ref.consistent();
  }
  // The sweep covers the int64 path, the entry fallback and negative
  // cycles (the in-closure fallback has its own test below).
  EXPECT_GT(Machine, 300u);
  EXPECT_GT(FellBackAtEntry, 0u);
  EXPECT_GT(Inconsistent, 50u);
}

TEST(DbmKernelTest, OverflowInsideClosureRerunsOnRational) {
  // Every edge of a complete 3-node graph at minus the admission limit:
  // each constant fits, but in-place Floyd-Warshall keeps feeding the
  // negative cycles' growing sums back in until an int64 sum overflows.
  // The closure restarts on Rational and still matches the reference,
  // provenance included.
  const unsigned N = 3;
  Dbm Fast(N), Ref(N, /*ExactWeights=*/true);
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      if (I != J) {
        Fast.tighten(I, J, Q(-kernelLimit(N)), {I});
        Ref.tighten(I, J, Q(-kernelLimit(N)), {I});
      }
  ASSERT_TRUE(Fast.machineWeights());
  EXPECT_FALSE(Fast.close());
  EXPECT_FALSE(Ref.close());
  EXPECT_FALSE(Fast.machineWeights());
  expectSameDbm(Fast, Ref, 0);
  std::set<unsigned> All = {0, 1, 2};
  EXPECT_EQ(Fast.negativeCycleSources(), All);

  // Dense random graphs of such edges overflow part-way through, after
  // relaxations have already rewritten provenance the rerun must not
  // see: the restart begins from the weights and sources close() began
  // with.
  SplitMix64 Rng(0x0f10);
  unsigned FellBack = 0;
  for (unsigned Trial = 0; Trial < 100; ++Trial) {
    unsigned Nodes = unsigned(Rng.range(3, 7));
    Dbm DenseFast(Nodes), DenseRef(Nodes, /*ExactWeights=*/true);
    for (unsigned I = 0; I < Nodes; ++I)
      for (unsigned J = 0; J < Nodes; ++J) {
        if (I == J || Rng.chance(1, 3))
          continue;
        Rational C = Rng.chance(1, 2) ? Q(-kernelLimit(Nodes) + Rng.range(0, 9))
                                      : Q(Rng.range(0, 9));
        std::set<unsigned> Srcs = {unsigned(Rng.below(16))};
        DenseFast.tighten(I, J, C, Srcs);
        DenseRef.tighten(I, J, C, Srcs);
      }
    EXPECT_EQ(DenseFast.close(), DenseRef.close());
    expectSameDbm(DenseFast, DenseRef, Trial);
    FellBack += !DenseFast.machineWeights();
  }
  EXPECT_GT(FellBack, 20u);
}

TEST(DbmKernelTest, Int64StrongClosureMatchesRationalReference) {
  SplitMix64 Rng(0x0c7a);
  unsigned Machine = 0, Inconsistent = 0;
  for (unsigned Trial = 0; Trial < 400; ++Trial) {
    unsigned Vars = unsigned(Rng.range(1, 6));
    unsigned N = 2 * Vars;
    std::vector<bool> IntPairs;
    for (unsigned K = 0; K < Vars; ++K)
      IntPairs.push_back(Rng.chance(3, 4));
    Dbm Fast(N), Ref(N, /*ExactWeights=*/true);
    unsigned Edges = unsigned(Rng.range(1, 2 * N));
    for (unsigned E = 0; E < Edges; ++E) {
      unsigned I = unsigned(Rng.below(N)), J = unsigned(Rng.below(N));
      Rational C = randomConstant(Rng, mixOf(Trial), N);
      if (C.isNegative() && Rng.chance(1, 2))
        C = -C;
      Fast.tighten(I, J, C);
      Ref.tighten(I, J, C);
    }
    EXPECT_EQ(Fast.strongClose(IntPairs), Ref.strongClose(IntPairs));
    expectSameDbm(Fast, Ref, Trial);
    Machine += Fast.machineWeights();
    Inconsistent += !Ref.consistent();
  }
  EXPECT_GT(Machine, 200u);
  EXPECT_GT(Inconsistent, 20u);
}

TEST(DbmKernelTest, ZoneMatchesRationalReference) {
  SplitMix64 Rng(0x2013);
  unsigned Inconsistent = 0;
  for (unsigned Trial = 0; Trial < 300; ++Trial) {
    Zone Fast, Ref(/*ExactWeights=*/true);
    unsigned Vars = unsigned(Rng.range(2, 8));
    unsigned Facts = unsigned(Rng.range(1, 3 * Vars));
    for (unsigned F = 0; F < Facts; ++F) {
      uint32_t X = uint32_t(Rng.below(Vars)), Y = uint32_t(Rng.below(Vars));
      Rational C = randomConstant(Rng, mixOf(Trial), Vars + 1);
      unsigned Root = unsigned(Rng.below(10));
      switch (Rng.below(4)) {
      case 0:
        if (X != Y) {
          Fast.addDiff(X, Y, C, Root);
          Ref.addDiff(X, Y, C, Root);
        }
        break;
      case 1:
        Fast.addUpper(X, C, Root);
        Ref.addUpper(X, C, Root);
        break;
      case 2:
        Fast.addLower(X, C, Root);
        Ref.addLower(X, C, Root);
        break;
      default: {
        Rational Hi = C + Q(Rng.range(-2, 6));
        Interval R = Interval::range(C, Hi); // Empty when Hi < C.
        Fast.constrainVar(X, R, {Root});
        Ref.constrainVar(X, R, {Root});
      }
      }
    }
    ASSERT_EQ(Fast.close(), Ref.close()) << "trial " << Trial;
    EXPECT_EQ(Fast.consistent(), Ref.consistent());
    EXPECT_EQ(Fast.negativeCycleSources(), Ref.negativeCycleSources());
    for (uint32_t V : Ref.variables()) {
      EXPECT_EQ(Fast.varInterval(V), Ref.varInterval(V)) << "trial " << Trial;
      EXPECT_EQ(Fast.varIntervalSources(V), Ref.varIntervalSources(V));
      EXPECT_EQ(Fast.potential(V), Ref.potential(V)) << "trial " << Trial;
    }
    Inconsistent += !Ref.consistent();
  }
  EXPECT_GT(Inconsistent, 10u);
}

TEST(DbmKernelTest, OctagonMatchesRationalReference) {
  SplitMix64 Rng(0x0c7b);
  unsigned Inconsistent = 0;
  for (unsigned Trial = 0; Trial < 300; ++Trial) {
    Octagon Fast, Ref(/*ExactWeights=*/true);
    unsigned Vars = unsigned(Rng.range(1, 6));
    for (uint32_t V = 0; V < Vars; ++V) {
      bool IsInt = Rng.chance(3, 4);
      Fast.addVariable(V, IsInt);
      Ref.addVariable(V, IsInt);
      if (Rng.chance(1, 2)) {
        Rational Lo = randomConstant(Rng, mixOf(Trial), 2 * Vars);
        Interval R = Interval::range(Lo, Lo + Q(Rng.range(0, 40)));
        Fast.constrainVar(V, R);
        Ref.constrainVar(V, R);
      }
    }
    unsigned Facts = unsigned(Rng.range(1, 3 * Vars));
    for (unsigned F = 0; F < Facts; ++F) {
      RelFact Fact;
      Fact.X = uint32_t(Rng.below(Vars));
      Fact.Y = uint32_t(Rng.below(Vars));
      Fact.SX = Rng.chance(1, 2) ? 1 : -1;
      Fact.SY = Fact.X == Fact.Y ? 0 : int(Rng.range(-1, 1));
      Fact.C = randomConstant(Rng, mixOf(Trial), 2 * Vars);
      Fast.addFact(Fact);
      Ref.addFact(Fact);
    }
    ASSERT_EQ(Fast.close(), Ref.close()) << "trial " << Trial;
    EXPECT_EQ(Fast.consistent(), Ref.consistent());
    for (uint32_t X = 0; X < Vars; ++X) {
      EXPECT_EQ(Fast.varInterval(X), Ref.varInterval(X)) << "trial " << Trial;
      for (uint32_t Y = 0; Y < Vars; ++Y)
        for (int SX : {1, -1})
          for (int SY : {1, -1})
            EXPECT_EQ(Fast.pairUpper(X, SX, Y, SY), Ref.pairUpper(X, SX, Y, SY))
                << "trial " << Trial;
    }
    Inconsistent += !Ref.consistent();
  }
  EXPECT_GT(Inconsistent, 10u);
}

TEST(DbmKernelTest, SkipLastPivotLeavesTriangleInconsistencyOnInt64) {
  // The bad-closure mutant must stay visible on the int64 path: the
  // same chain as InjectedSkipLastPivotLeavesTriangleInconsistency,
  // checked to have closed on machine weights.
  Dbm D(4);
  D.tighten(1, 2, Q(0), {0});
  D.tighten(2, 3, Q(0), {1});
  D.tighten(3, 0, Q(3), {2});
  D.tighten(0, 1, Q(0), {3});
  ASSERT_TRUE(D.close(/*InjectSkipLastPivot=*/true));
  EXPECT_TRUE(D.machineWeights());
  EXPECT_TRUE(D.consistent());
  EXPECT_FALSE(D.triangleConsistent());
  EXPECT_FALSE(D.at(1, 0).has_value());

  // Through the zone, as the relational-soundness oracle runs it.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Term Z3 = M.mkVariable("z", Sort::integer());
  Zone Z;
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, Y), 0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, Z3), 1, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Z3, M.mkIntConst(BigInt(3))), 2,
                   Z);
  ASSERT_TRUE(Z.close(/*InjectBadClosure=*/true));
  EXPECT_FALSE(Z.triangleConsistent());
}

TEST(DbmKernelTest, FractionalBoundsRescaleExactly) {
  // Thirds and halves share one scale (4 * 6 here); the closed bounds
  // read back as the exact fractions.
  Dbm D(3);
  D.tighten(0, 1, Rational(BigInt(1), BigInt(3)), {0});
  D.tighten(1, 2, Rational(BigInt(1), BigInt(2)), {1});
  ASSERT_TRUE(D.close());
  EXPECT_TRUE(D.machineWeights());
  EXPECT_EQ(*D.at(0, 2), Rational(BigInt(5), BigInt(6)));
  EXPECT_EQ(*D.at(0, 1), Rational(BigInt(1), BigInt(3)));
}

} // namespace
