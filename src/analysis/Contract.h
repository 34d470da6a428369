//===- analysis/Contract.h - Shared interval contraction kernels -*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact interval kernels over the unbounded semantics. Two groups:
///
///  * Full-precision *forward* kernels over analysis::Interval that track
///    unbounded endpoints exactly (unlike the deliberately coarse parity
///    kernels in Interval.h, which collapse infinity-touching products to
///    top because elision/lint clamp with the width range anyway):
///    multiplication with IEEE-like endpoint-infinity rules, exact
///    division via the reciprocal interval, dependency-aware powers, and
///    integral endpoint tightening. BoxEvaluator (analysis/BoxEvaluator.h)
///    is built on them; it judges boxes for both the presolver and the
///    ICP search (solver/Icp.cpp).
///
///  * HC4-revise-style *backward* transfer functions: given the interval
///    a result is known to lie in, narrow an operand. The presolver
///    alternates these with forward evaluation to a capped fixpoint
///    (docs/ANALYSIS.md "The presolver").
///
/// Everything is sound over the exact unbounded semantics: a derived
/// empty interval proves the narrowed constraint has no model.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_CONTRACT_H
#define STAUB_ANALYSIS_CONTRACT_H

#include "analysis/Interval.h"

namespace staub::analysis {

//===----------------------------------------------------------------------===//
// Forward kernels (full precision).
//===----------------------------------------------------------------------===//

/// Interval product handling unbounded operands: endpoint candidates are
/// multiplied with IEEE-like infinity rules (0 * oo resolves to 0, valid
/// for endpoint hulls when the zero side is an exact endpoint).
Interval mulFullI(const Interval &A, const Interval &B);

/// Hull of the exact quotient A / B via the reciprocal interval. Returns
/// top when B may be zero (sound: SMT-LIB division by zero is
/// unconstrained).
Interval divFullI(const Interval &A, const Interval &B);

/// A^N with dependency awareness: even powers are non-negative, odd
/// powers are monotone. powFullI(A, 0) is the point [1, 1].
Interval powFullI(const Interval &A, unsigned N);

/// Tightens to integral endpoints [ceil(lo), floor(hi)]; may become
/// empty (e.g. [1/3, 2/3] holds no integer).
Interval roundToIntI(const Interval &A);

//===----------------------------------------------------------------------===//
// Backward (HC4-revise) transfer functions.
//===----------------------------------------------------------------------===//

/// X + Other = Result  =>  X in Result - Other.
Interval backAddOperand(const Interval &Result, const Interval &Other);

/// Left - Right = Result  =>  Left in Result + Right.
Interval backSubLeft(const Interval &Result, const Interval &Right);

/// Left - Right = Result  =>  Right in Left - Result.
Interval backSubRight(const Interval &Result, const Interval &Left);

/// -X = Result  =>  X in -Result.
Interval backNeg(const Interval &Result);

/// X * Other = Result  =>  X in Result / Other when Other provably
/// excludes zero; top otherwise (zero kills invertibility).
Interval backMulOperand(const Interval &Result, const Interval &Other);

/// |X| = Result  =>  X in [-hi(Result), hi(Result)] (top when Result is
/// unbounded above; empty when Result is entirely negative).
Interval backAbs(const Interval &Result);

/// (div A B) = Result  =>  A in Result * B + [-s, s] where s bounds |B|.
/// Sound for both Euclidean and truncated semantics (|remainder| < |B|);
/// top when the divisor magnitude is unbounded or may be zero.
Interval backIntDivDividend(const Interval &Result, const Interval &Divisor);

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_CONTRACT_H
