//===- tests/solver_minismt_test.cpp - MiniSMT end-to-end tests -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "smtlib/Parser.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

/// Parses and solves a script with MiniSMT; checks any Sat model against
/// the original assertions with the exact evaluator.
SolveStatus solveText(const char *Text, double Timeout = 10.0) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  if (!R.Ok)
    return SolveStatus::Unknown;
  auto Solver = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = Timeout;
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, Options);
  if (Result.Status == SolveStatus::Sat) {
    EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel))
        << "model failed verification for:\n"
        << Text;
  }
  return Result.Status;
}

//===--------------------------------------------------------------------===//
// Bitvector path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtBvTest, SimpleSat) {
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 8))"
                      "(assert (= (bvadd x (_ bv1 8)) (_ bv0 8)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtBvTest, SimpleUnsat) {
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 8))"
                      "(assert (bvult x (_ bv0 8)))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, SumOfCubesBounded) {
  // The paper's Fig. 1b at width 12: must find x=7,y=8,z=0 (or another
  // non-overflowing solution).
  EXPECT_EQ(
      solveText("(declare-fun x () (_ BitVec 12))"
                "(declare-fun y () (_ BitVec 12))"
                "(declare-fun z () (_ BitVec 12))"
                "(assert (not (bvsmulo x x)))"
                "(assert (not (bvsmulo (bvmul x x) x)))"
                "(assert (not (bvsmulo y y)))"
                "(assert (not (bvsmulo (bvmul y y) y)))"
                "(assert (not (bvsmulo z z)))"
                "(assert (not (bvsmulo (bvmul z z) z)))"
                "(assert (not (bvsaddo (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y))))"
                "(assert (not (bvsaddo (bvadd (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y)) (bvmul (bvmul z z) z))))"
                "(assert (= (bvadd (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y) (bvmul (bvmul z z) z)) (_ bv855 12)))",
                30.0),
      SolveStatus::Sat);
}

TEST(MiniSmtBvTest, MulCommutes) {
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 6))"
                      "(declare-fun b () (_ BitVec 6))"
                      "(assert (distinct (bvmul a b) (bvmul b a)))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, DivisionSemantics) {
  // udiv by zero is all-ones.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 5))"
                      "(assert (distinct (bvudiv a (_ bv0 5)) (_ bv31 5)))"),
            SolveStatus::Unsat);
  // x = (x / y) * y + (x rem y) when y != 0.
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 5))"
                      "(declare-fun y () (_ BitVec 5))"
                      "(assert (distinct y (_ bv0 5)))"
                      "(assert (distinct x (bvadd (bvmul (bvudiv x y) y) "
                      "(bvurem x y))))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, ShiftSemantics) {
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (distinct (bvshl a (_ bv1 8)) "
                      "(bvmul a (_ bv2 8))))"),
            SolveStatus::Unsat);
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (= (bvlshr a (_ bv2 8)) (_ bv63 8)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtBvTest, OverflowPredicate) {
  // bvsmulo must hold exactly when the product exceeds the signed range.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (bvsgt a (_ bv11 8)))"
                      "(assert (not (bvsmulo a a)))"),
            SolveStatus::Unsat); // 12*12=144 > 127 overflows.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (bvsgt a (_ bv0 8)))"
                      "(assert (not (bvsmulo a a)))"),
            SolveStatus::Sat); // e.g. a=11.
}

TEST(MiniSmtBvTest, BooleanOnly) {
  EXPECT_EQ(solveText("(declare-fun p () Bool)(declare-fun q () Bool)"
                      "(assert (and (or p q) (not p)))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun p () Bool)"
                      "(assert (and p (not p)))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Linear integer arithmetic path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtLiaTest, SimpleSystem) {
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (<= (+ x y) 10))"
                      "(assert (>= (- x y) 4))"
                      "(assert (> y 0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, InfeasibleSystem) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 5))(assert (< x 3))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLiaTest, RequiresIntegrality) {
  // 2x = 1 has a rational solution but no integer one.
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (= (* 2 x) 1))"),
            SolveStatus::Unsat);
  // Branch and bound: 3x + 3y = 7 likewise.
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (= (+ (* 3 x) (* 3 y)) 7))"
                      "(assert (>= x 0))(assert (>= y 0))"
                      "(assert (<= x 10))(assert (<= y 10))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLiaTest, PaperFig4Example) {
  // a >= 15 and a - b < 0: sat (e.g. a=15, b=16).
  EXPECT_EQ(solveText("(declare-fun a () Int)(declare-fun b () Int)"
                      "(assert (>= a 15))"
                      "(assert (< (- a b) 0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, BooleanStructure) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (or (= x 3) (= x 5)))"
                      "(assert (not (= x 3)))"
                      "(assert (not (= x 5)))"),
            SolveStatus::Unsat);
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (or (= x 3) (= x 5)))"
                      "(assert (not (= x 3)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, StrictVsNonStrict) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 4))(assert (< x 6))"),
            SolveStatus::Sat); // x = 5.
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 4))(assert (< x 5))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Linear real arithmetic path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtLraTest, StrictGapIsSatOverReals) {
  // The integer-unsat gap 4 < x < 5 is sat over the reals.
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (> x 4.0))(assert (< x 5.0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLraTest, SystemWithFractions) {
  EXPECT_EQ(solveText("(declare-fun x () Real)(declare-fun y () Real)"
                      "(assert (= (+ x y) 1.5))"
                      "(assert (= (- x y) 0.25))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (< x 1.0))(assert (> x 1.0))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLraTest, ChainedConstraints) {
  EXPECT_EQ(solveText("(declare-fun a () Real)(declare-fun b () Real)"
                      "(declare-fun c () Real)"
                      "(assert (< a b))(assert (< b c))(assert (< c a))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Nonlinear (ICP) path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtNiaTest, SmallSquares) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (= (* x x) 49))"),
            SolveStatus::Sat);
}

TEST(MiniSmtNiaTest, SquareIsNonNegative) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (< (* x x) 0))"),
            SolveStatus::Unsat); // Proven on the unbounded box.
}

TEST(MiniSmtNiaTest, SumOfCubesSmall) {
  // Small instance of the MathProblems family: x^3 + y^3 = 91 (3,4).
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (>= x 0))(assert (>= y 0))"
                      "(assert (<= x 16))(assert (<= y 16))"
                      "(assert (= (+ (* x x x) (* y y y)) 91))",
                      30.0),
            SolveStatus::Sat);
}

TEST(MiniSmtNiaTest, ModByZeroIsUnconstrained) {
  // SMT-LIB leaves (mod x 0) unspecified, so any value is a model: these
  // are sat, and no interval argument may refute them.
  EXPECT_NE(solveText("(declare-fun x () Int)"
                      "(assert (= (mod x 0) 5))",
                      1.0),
            SolveStatus::Unsat);
  EXPECT_NE(solveText("(declare-fun x () Int)"
                      "(assert (= (mod (* x x) 0) 7))",
                      1.0),
            SolveStatus::Unsat);
}

TEST(MiniSmtNraTest, SimpleQuadratic) {
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (> (* x x) 4.0))(assert (< x 10.0))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (< (+ (* x x) 1.0) 0.0))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Floating-point path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtFpTest, SimpleSat) {
  EXPECT_EQ(solveText("(declare-fun a () Float32)"
                      "(assert (fp.eq (fp.add RNE a a) "
                      "(fp #b0 #b10000000 #b00000000000000000000000)))"),
            SolveStatus::Sat); // a = 1.0 gives a+a = 2.0.
}

TEST(MiniSmtFpTest, ZeroWitness) {
  EXPECT_EQ(solveText("(declare-fun a () Float32)"
                      "(assert (fp.eq (fp.mul RNE a a) a))"),
            SolveStatus::Sat); // a = 0 (or 1).
}

//===--------------------------------------------------------------------===//
// Dispatch edge cases.
//===--------------------------------------------------------------------===//

TEST(MiniSmtTest, MixedTheoriesUnknown) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(declare-fun v () (_ BitVec 4))"
                      "(assert (= x 1))(assert (= v (_ bv1 4)))"),
            SolveStatus::Unknown);
}

TEST(MiniSmtTest, EmptyAssertionsAreSat) {
  TermManager M;
  auto Solver = createMiniSmtSolver();
  SolveResult R = Solver->solve(M, {}, {});
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

} // namespace
