//===- tests/analysis_test.cpp - Static analysis framework ----------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Units for the term-DAG analysis framework (analysis/): interval
/// arithmetic and fact harvesting, the width domains as framework
/// clients, known-bits propagation, and the memoization contract of
/// DagAnalysis.
///
//===----------------------------------------------------------------------===//

#include "analysis/Contract.h"
#include "analysis/Dataflow.h"
#include "analysis/Interval.h"
#include "analysis/KnownBits.h"
#include "analysis/Widths.h"

#include <gtest/gtest.h>

#include <climits>

using namespace staub;
using namespace staub::analysis;

namespace {

Rational Q(int64_t V) { return Rational(BigInt(V)); }
Interval rangeI(int64_t Lo, int64_t Hi) {
  return Interval::range(Q(Lo), Q(Hi));
}

//===--------------------------------------------------------------------===//
// Interval arithmetic.
//===--------------------------------------------------------------------===//

TEST(IntervalTest, PointAndRangeBasics) {
  Interval P = Interval::point(Q(5));
  EXPECT_TRUE(P.isFinite());
  EXPECT_TRUE(P.contains(Q(5)));
  EXPECT_FALSE(P.contains(Q(6)));

  Interval R = rangeI(-3, 7);
  EXPECT_TRUE(R.within(Q(-3), Q(7)));
  EXPECT_FALSE(R.within(Q(-2), Q(7)));
  EXPECT_TRUE(Interval::top().isTop());
  EXPECT_TRUE(Interval::bottom().within(Q(0), Q(0))); // Vacuous.
}

TEST(IntervalTest, Arithmetic) {
  EXPECT_EQ(addI(rangeI(1, 2), rangeI(10, 20)), rangeI(11, 22));
  EXPECT_EQ(subI(rangeI(1, 2), rangeI(10, 20)), rangeI(-19, -8));
  EXPECT_EQ(negI(rangeI(-3, 7)), rangeI(-7, 3));
  EXPECT_EQ(mulI(rangeI(-2, 3), rangeI(-5, 4)), rangeI(-15, 12));
  EXPECT_EQ(absI(rangeI(-9, 4)), rangeI(0, 9));
  // Unbounded operands stay unbounded.
  EXPECT_TRUE(addI(Interval::top(), rangeI(0, 1)).isTop());
  // Empty propagates.
  EXPECT_TRUE(addI(Interval::bottom(), rangeI(0, 1)).Empty);
}

TEST(IntervalTest, DivRemSharedSemantics) {
  // Divisor excludes zero: |q| bounded by max |dividend|.
  Interval Quot = divI(rangeI(-100, 50), rangeI(2, 5));
  EXPECT_TRUE(Quot.within(Q(-100), Q(100)));
  // Divisor interval containing zero: no information.
  EXPECT_TRUE(divI(rangeI(-100, 50), rangeI(-1, 1)).isTop());
  // Remainder lies in [-(D-1), D-1] on both translation sides.
  Interval Rem = remI(rangeI(-100, 100), rangeI(3, 7));
  EXPECT_TRUE(Rem.within(Q(-6), Q(6)));
}

TEST(IntervalTest, MeetAndHull) {
  EXPECT_EQ(meet(rangeI(0, 10), rangeI(5, 20)), rangeI(5, 10));
  EXPECT_TRUE(meet(rangeI(0, 1), rangeI(2, 3)).Empty);
  EXPECT_EQ(hull(rangeI(0, 1), rangeI(5, 6)), rangeI(0, 6));
  EXPECT_EQ(meet(Interval::top(), rangeI(1, 2)), rangeI(1, 2));
}

TEST(IntervalTest, OverflowImpossiblePredicate) {
  // 15 * 15 = 225 fits 16-bit signed but not 8-bit.
  Interval Small = rangeI(-15, 15);
  EXPECT_TRUE(overflowImpossible(Kind::BvSMulO, Small, Small, 16));
  EXPECT_FALSE(overflowImpossible(Kind::BvSMulO, Small, Small, 8));
  EXPECT_TRUE(overflowImpossible(Kind::BvSAddO, Small, Small, 8));
  // Negation overflows only at the minimum value.
  EXPECT_TRUE(
      overflowImpossible(Kind::BvNegO, rangeI(-127, 127), Interval::top(), 8));
  EXPECT_FALSE(
      overflowImpossible(Kind::BvNegO, rangeI(-128, 0), Interval::top(), 8));
  // Top operands are never provably safe.
  EXPECT_FALSE(
      overflowImpossible(Kind::BvSAddO, Interval::top(), Small, 16));
}

//===--------------------------------------------------------------------===//
// Full-precision kernels (analysis/Contract.h), as the presolver and the
// ICP search evaluate with them.
//===--------------------------------------------------------------------===//

Interval fromLo(int64_t Lo) {
  Interval I;
  I.Lo = Q(Lo);
  return I;
}

TEST(IntervalTest, AddSubNeg) {
  EXPECT_EQ(addI(rangeI(1, 3), rangeI(-2, 5)), rangeI(-1, 8));
  EXPECT_EQ(subI(rangeI(1, 3), rangeI(-2, 5)), rangeI(-4, 5));
  EXPECT_EQ(negI(rangeI(1, 3)), rangeI(-3, -1));
}

TEST(IntervalTest, UnboundedEndpoints) {
  Interval Sum = addI(fromLo(3), rangeI(1, 2));
  EXPECT_EQ(*Sum.Lo, Q(4));
  EXPECT_FALSE(Sum.Hi.has_value());
  Interval Negated = negI(fromLo(3));
  EXPECT_FALSE(Negated.Lo.has_value());
  EXPECT_EQ(*Negated.Hi, Q(-3));
}

TEST(IntervalTest, MulSignCases) {
  EXPECT_EQ(mulFullI(rangeI(2, 3), rangeI(4, 5)), rangeI(8, 15));
  EXPECT_EQ(mulFullI(rangeI(-3, 2), rangeI(-1, 4)), rangeI(-12, 8));
  EXPECT_EQ(mulFullI(rangeI(-2, -1), rangeI(-4, -3)), rangeI(3, 8));
  // Unbounded times positive keeps the finite side.
  EXPECT_EQ(mulFullI(fromLo(1), rangeI(2, 3)), fromLo(2));
}

TEST(IntervalTest, DivisionRules) {
  EXPECT_EQ(divFullI(rangeI(4, 8), rangeI(2, 4)), rangeI(1, 4));
  // A divisor that may be zero leaves the quotient unconstrained.
  EXPECT_TRUE(divFullI(rangeI(1, 2), rangeI(-1, 1)).isTop());
  EXPECT_EQ(divFullI(rangeI(4, 8), rangeI(-2, -1)), rangeI(-8, -2));
}

TEST(IntervalTest, PowEvenOdd) {
  EXPECT_EQ(powFullI(rangeI(-3, 2), 2), rangeI(0, 9)); // Even: >= 0.
  EXPECT_EQ(powFullI(rangeI(-3, 2), 3), rangeI(-27, 8));
  EXPECT_EQ(powFullI(rangeI(2, 3), 0), rangeI(1, 1));
  EXPECT_EQ(powFullI(Interval::top(), 2), fromLo(0));
}

TEST(IntervalTest, AbsMeetRound) {
  EXPECT_EQ(absI(rangeI(-5, 3)), rangeI(0, 5));
  EXPECT_EQ(meet(rangeI(0, 10), rangeI(5, 20)), rangeI(5, 10));
  // Emptiness is the flag, never crossed endpoints.
  EXPECT_TRUE(meet(rangeI(0, 2), rangeI(3, 5)).Empty);
  EXPECT_EQ(roundToIntI(Interval::range(Rational(BigInt(1), BigInt(2)),
                                        Rational(BigInt(7), BigInt(2)))),
            rangeI(1, 3));
}

//===--------------------------------------------------------------------===//
// Fact harvesting and the fixpoint.
//===--------------------------------------------------------------------===//

TEST(IntervalAnalysisTest, HarvestsVarConstFacts) {
  TermManager M;
  Term X = M.mkVariable("h_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(100))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0)))};
  IntervalSummary S = analyzeIntervals(M, Assertions);
  EXPECT_TRUE(S.hasFacts());
  EXPECT_EQ(S.varFact(X), rangeI(0, 100));
  Term Sum = M.mkAdd(std::vector<Term>{X, X});
  EXPECT_EQ(S.of(Sum), rangeI(0, 200));
}

TEST(IntervalAnalysisTest, EqualityAndAndDescent) {
  TermManager M;
  Term X = M.mkVariable("e_x", Sort::integer());
  Term Y = M.mkVariable("e_y", Sort::integer());
  // Facts nested under a top-level conjunction are harvested too.
  std::vector<Term> Assertions = {M.mkAnd(std::vector<Term>{
      M.mkEq(X, M.mkIntConst(BigInt(7))),
      M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(3)))})};
  IntervalSummary S = analyzeIntervals(M, Assertions);
  EXPECT_EQ(S.varFact(X), Interval::point(Q(7)));
  Interval YF = S.varFact(Y);
  ASSERT_TRUE(YF.Hi.has_value());
  EXPECT_EQ(*YF.Hi, Q(3));
}

TEST(IntervalAnalysisTest, VarVarFixpointPropagates) {
  TermManager M;
  Term X = M.mkVariable("vv_x", Sort::integer());
  Term Y = M.mkVariable("vv_y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, X, Y),
      M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(10)))};
  IntervalSummary S = analyzeIntervals(M, Assertions);
  Interval XF = S.varFact(X);
  ASSERT_TRUE(XF.Hi.has_value()) << "x <= y <= 10 must bound x above";
  EXPECT_EQ(*XF.Hi, Q(10));

  IntervalOptions NoVarVar;
  NoVarVar.UseVarVarFacts = false;
  IntervalSummary S2 = analyzeIntervals(M, Assertions, NoVarVar);
  EXPECT_FALSE(S2.varFact(X).Hi.has_value());
}

TEST(IntervalAnalysisTest, ContradictoryFactsGoEmpty) {
  TermManager M;
  Term X = M.mkVariable("c_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(0))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(5)))};
  IntervalSummary S = analyzeIntervals(M, Assertions);
  EXPECT_TRUE(S.varFact(X).Empty);
}

TEST(IntervalAnalysisTest, ClampAllWidthBoundsEveryIntNode) {
  TermManager M;
  Term X = M.mkVariable("cl_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Gt, X, M.mkIntConst(BigInt(0)))};
  IntervalOptions Opts;
  Opts.ClampAllWidth = 8;
  IntervalSummary S = analyzeIntervals(M, Assertions, Opts);
  EXPECT_TRUE(S.of(X).within(widthRangeLo(8), widthRangeHi(8)));
}

//===--------------------------------------------------------------------===//
// Width domains as framework clients.
//===--------------------------------------------------------------------===//

TEST(WidthDomainTest, WidthOfInterval) {
  EXPECT_EQ(widthOfInterval(rangeI(-128, 127)), 8u);
  EXPECT_EQ(widthOfInterval(rangeI(0, 100)), 8u);
  EXPECT_EQ(widthOfInterval(Interval::point(Q(0))), 1u);
  EXPECT_EQ(widthOfInterval(Interval::top()), UINT_MAX);
}

TEST(WidthDomainTest, IntervalRefinementTightensWidths) {
  TermManager M;
  Term X = M.mkVariable("w_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(3))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0)))};
  Term Product = M.mkMul(std::vector<Term>{X, X});

  IntWidthOptions Classic;
  Classic.Assumption = 16;
  DagAnalysis<IntWidthDomain> Plain(M, IntWidthDomain(M, Classic));
  unsigned ClassicWidth = Plain.get(Product);

  IntervalOptions IOpts;
  IOpts.ClampVarsWidth = 16;
  IOpts.UseVarVarFacts = false;
  IntervalSummary S = analyzeIntervals(M, Assertions, IOpts);
  IntWidthOptions Refined = Classic;
  Refined.Refine = &S;
  DagAnalysis<IntWidthDomain> Tight(M, IntWidthDomain(M, Refined));
  unsigned RefinedWidth = Tight.get(Product);

  // x in [0,3] => x*x in [0,9]: 5 bits, far below the classic 2*16.
  EXPECT_LT(RefinedWidth, ClassicWidth);
  EXPECT_LE(RefinedWidth, 5u);
}

TEST(DagAnalysisTest, MemoizesSharedSubdags) {
  TermManager M;
  Term X = M.mkVariable("m_x", Sort::integer());
  // ((x+x)+(x+x)) shares the inner sum; the memo must see each distinct
  // node once.
  Term Inner = M.mkAdd(std::vector<Term>{X, X});
  Term Outer = M.mkAdd(std::vector<Term>{Inner, Inner});
  IntWidthOptions Opts;
  DagAnalysis<IntWidthDomain> A(M, IntWidthDomain(M, Opts));
  A.get(Outer);
  EXPECT_EQ(A.memoSize(), M.dagSize(Outer));
  // A second query over the same DAG adds nothing.
  A.get(Inner);
  EXPECT_EQ(A.memoSize(), M.dagSize(Outer));
}

//===--------------------------------------------------------------------===//
// Known bits.
//===--------------------------------------------------------------------===//

TEST(KnownBitsTest, ConstantsFullyKnown) {
  TermManager M;
  Term C = M.mkBitVecConst(BitVecValue(8, BigInt(0xAB)));
  DagAnalysis<KnownBitsDomain> A(M, KnownBitsDomain(M));
  KnownBits K = A.get(C);
  ASSERT_TRUE(K.fullyKnown());
  EXPECT_EQ(K.value(), 0xABu);
}

TEST(KnownBitsTest, AndWithConstantClearsBits) {
  TermManager M;
  Term V = M.mkVariable("kb_v", Sort::bitVec(8));
  Term Mask = M.mkBitVecConst(BitVecValue(8, BigInt(0xF0)));
  Term And = M.mkApp(Kind::BvAnd, std::vector<Term>{V, Mask});
  DagAnalysis<KnownBitsDomain> A(M, KnownBitsDomain(M));
  KnownBits K = A.get(And);
  ASSERT_TRUE(K.hasInfo());
  EXPECT_FALSE(K.fullyKnown());
  EXPECT_EQ(K.Zero & 0x0Fu, 0x0Fu) << "low nibble must be known zero";
  EXPECT_EQ(K.One, 0u);
}

TEST(KnownBitsTest, ArithmeticOnFullyKnownOperandsWraps) {
  TermManager M;
  Term A = M.mkBitVecConst(BitVecValue(8, BigInt(200)));
  Term B = M.mkBitVecConst(BitVecValue(8, BigInt(100)));
  Term Sum = M.mkApp(Kind::BvAdd, std::vector<Term>{A, B});
  DagAnalysis<KnownBitsDomain> An(M, KnownBitsDomain(M));
  KnownBits K = An.get(Sum);
  ASSERT_TRUE(K.fullyKnown());
  EXPECT_EQ(K.value(), (200u + 100u) & 0xFFu);
}

TEST(KnownBitsTest, NonBitvectorTermsAreTop) {
  TermManager M;
  Term X = M.mkVariable("kb_i", Sort::integer());
  DagAnalysis<KnownBitsDomain> A(M, KnownBitsDomain(M));
  EXPECT_FALSE(A.get(X).hasInfo());
}

} // namespace
