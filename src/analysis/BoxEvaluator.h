//===- analysis/BoxEvaluator.h - Forward evaluation over a box --*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forward interval evaluator over the exact unbounded semantics,
/// shared by the presolver (analysis/Presolve.cpp) and MiniSMT's ICP
/// search (solver/Icp.cpp). A box is given by two caller lookups: an
/// interval per Int/Real variable and a Kleene truth value per Bool
/// variable. Over it the evaluator encloses every numeric term and gives
/// every formula a tri-state truth value, using the full-precision kernels
/// of analysis/Contract.h. Division and remainder by a divisor that may be
/// zero are unconstrained (top), as SMT-LIB leaves them.
///
/// The split follows dReal's ICP: the searches (presolve's HC4 descent,
/// ICP's bisection) shrink boxes, and this evaluator judges each one.
/// Numeric enclosures are memoized per term; callers clear() the memo
/// whenever a lookup's answer changes.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_BOXEVALUATOR_H
#define STAUB_ANALYSIS_BOXEVALUATOR_H

#include "analysis/Interval.h"
#include "smtlib/Term.h"

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

namespace staub::analysis {

/// Kleene truth value over a box: True means true at every point of it,
/// False at none.
enum class Tri : uint8_t { False, True, Unknown };

/// The distinct factors of the product \p Mul as (term id, multiplicity),
/// in first-occurrence order: x*y*x is {(x, 2), (y, 1)}.
std::vector<std::pair<uint32_t, unsigned>> factorGroups(const TermManager &M,
                                                        Term Mul);

class BoxEvaluator {
public:
  /// Range of an Int/Real variable in the current box.
  using RangeLookup = std::function<Interval(Term)>;
  /// Truth value of a Bool variable in the current box.
  using BoolLookup = std::function<Tri(Term)>;

  BoxEvaluator(const TermManager &Manager, RangeLookup Range,
               BoolLookup Bool)
      : M(Manager), Range(std::move(Range)), Bool(std::move(Bool)) {}

  /// Enclosure of the numeric term \p T; Int-sorted terms get integral
  /// endpoints (and may come out Empty).
  Interval iv(Term T);
  /// Truth value of the formula \p T.
  Tri tri(Term T);
  /// Forgets every memoized enclosure.
  void clear() { Memo.clear(); }

private:
  const TermManager &M;
  RangeLookup Range;
  BoolLookup Bool;
  std::unordered_map<uint32_t, Interval> Memo;
};

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_BOXEVALUATOR_H
