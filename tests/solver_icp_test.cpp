//===- tests/solver_icp_test.cpp - ICP branch-and-prune tests -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Icp.h"

#include "smtlib/Parser.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

//===--------------------------------------------------------------------===//
// IcpSolver end-to-end on targeted instances.
//===--------------------------------------------------------------------===//

SolveStatus icpSolve(const char *Text, double Timeout = 10.0) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  IcpSolver Solver(M, R.Parsed.Assertions);
  IcpOptions Options;
  Options.TimeoutSeconds = Timeout;
  SolveResult Result = Solver.solve(Options);
  if (Result.Status == SolveStatus::Sat)
    EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
  return Result.Status;
}

TEST(IcpSolverTest, UnsatProvenOnUnboundedBox) {
  EXPECT_EQ(icpSolve("(declare-fun x () Int)(assert (< (* x x) 0))"),
            SolveStatus::Unsat);
  EXPECT_EQ(icpSolve("(declare-fun x () Real)"
                     "(assert (< (+ (* x x) 1.0) 0.5))"),
            SolveStatus::Unsat);
}

TEST(IcpSolverTest, FindsIntegerWitness) {
  EXPECT_EQ(icpSolve("(declare-fun x () Int)(declare-fun y () Int)"
                     "(assert (= (+ (* x x) (* y y)) 25))"
                     "(assert (> x 0))(assert (> y 0))"),
            SolveStatus::Sat);
}

TEST(IcpSolverTest, FindsRealWitness) {
  EXPECT_EQ(icpSolve("(declare-fun x () Real)"
                     "(assert (> (* x x) 4.0))(assert (< x 100.0))"),
            SolveStatus::Sat);
}

TEST(IcpSolverTest, BudgetExhaustionIsUnknown) {
  // A needle outside the early deepening boxes with a tiny budget.
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)"
                          "(assert (= (* x x) 1046529))"); // 1023^2.
  ASSERT_TRUE(R.Ok);
  IcpSolver Solver(M, R.Parsed.Assertions);
  IcpOptions Options;
  Options.MaxNodes = 3;
  Options.TimeoutSeconds = 0.2;
  EXPECT_EQ(Solver.solve(Options).Status, SolveStatus::Unknown);
}

TEST(IcpSolverTest, BoolVariablesAreNoBoxDimension) {
  // x*x = 2 has no integer root, which interval search cannot prove; the
  // Bool variable must neither become a box dimension nor be bound to a
  // number in a candidate model.
  EXPECT_EQ(icpSolve("(declare-fun p () Bool)(declare-fun x () Int)"
                     "(assert p)(assert (= (* x x) 2))",
                     1.0),
            SolveStatus::Unknown);
  EXPECT_EQ(icpSolve("(declare-fun p () Bool)(declare-fun x () Int)"
                     "(assert (or p (= (* x x) 49)))"),
            SolveStatus::Sat);
}

TEST(IcpSolverTest, NoVariables) {
  EXPECT_EQ(icpSolve("(assert (> 3 2))"), SolveStatus::Sat);
  EXPECT_EQ(icpSolve("(assert (> 2 3))"), SolveStatus::Unsat);
}

} // namespace
