//===- solver/Icp.h - Interval constraint propagation -----------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval-based search for nonlinear integer and real arithmetic
/// (MiniSMT's NIA/NRA engine, in the spirit of dReal-style ICP):
/// branch-and-prune over boxes of Int/Real variable ranges with iterative
/// deepening of the initial box. Each box is judged by the presolver's
/// tri-state evaluator (analysis/BoxEvaluator.h), so the two read every
/// term kind alike; Bool variables are no box dimension and evaluate to
/// Unknown. Candidate points are discharged with the exact evaluator, so
/// a Sat answer always carries a checked model. This engine is
/// intentionally the "slow unbounded path" that theory arbitrage routes
/// around.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_ICP_H
#define STAUB_SOLVER_ICP_H

#include "analysis/BoxEvaluator.h"
#include "smtlib/Term.h"
#include "solver/Solver.h"
#include "support/Rational.h"

#include <unordered_map>
#include <vector>

namespace staub {

/// Options controlling the ICP search.
struct IcpOptions {
  double TimeoutSeconds = 5.0;
  uint64_t MaxNodes = 200000;        ///< Branch-and-prune node budget.
  unsigned InitialBoundLog = 8;      ///< First deepening box: [-2^k, 2^k].
  unsigned MaxBoundLog = 32;         ///< Last deepening box.
  uint64_t EnumerationLimit = 4096;  ///< Max integer points per small box.
  /// Cooperative cancellation, polled once per branch-and-prune node.
  const CancellationToken *Cancel = nullptr;
};

/// Branch-and-prune solver for a conjunction of assertions whose
/// numeric variables are all Int or all Real.
class IcpSolver {
public:
  IcpSolver(TermManager &Manager, std::vector<Term> Assertions);
  /// Eval's variable lookup points into this object.
  IcpSolver(const IcpSolver &) = delete;

  SolveResult solve(const IcpOptions &Options);

private:
  /// A box: one interval per numeric variable (indexed like Variables).
  using Box = std::vector<analysis::Interval>;

  TermManager &Manager;
  std::vector<Term> Assertions;
  Term Conjunction;
  /// The Int/Real variables, one box dimension each.
  std::vector<Term> Variables;
  /// Variable id -> index into Variables.
  std::unordered_map<uint32_t, size_t> Dimension;
  bool IntegerMode = false;
  /// Active token for the running solve() (also polled inside the integer
  /// point enumeration, whose boxes can hold thousands of candidates).
  const CancellationToken *Cancel = nullptr;
  /// The box evalFormula() is judging; Eval reads variable ranges from it.
  const Box *Judged = nullptr;
  analysis::BoxEvaluator Eval;

  analysis::Tri evalFormula(const Box &B);

  /// Tests a concrete point against the assertions with the exact
  /// evaluator; fills the model on success.
  bool tryPoint(const std::vector<Rational> &Point, Model &Out) const;

  /// Enumerates integer points of a small box; true if a model was found.
  bool enumerateIntegerBox(const Box &B, uint64_t Limit, Model &Out) const;

  /// Samples a few rational points of a box (midpoint, corners).
  bool sampleBox(const Box &B, Model &Out) const;
};

} // namespace staub

#endif // STAUB_SOLVER_ICP_H
