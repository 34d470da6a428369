//===- analysis/BoxEvaluator.cpp - Forward evaluation over a box ----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/BoxEvaluator.h"

#include "analysis/Contract.h"

#include <algorithm>

using namespace staub;
using namespace staub::analysis;

namespace {

Tri triOf(bool B) { return B ? Tri::True : Tri::False; }

/// a <= b from operand intervals. Empty operands yield Unknown: the
/// presolver's contraction entry check reports the contradiction with
/// better provenance.
Tri cmpLe(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Tri::Unknown;
  if (A.Hi && B.Lo && *A.Hi <= *B.Lo)
    return Tri::True;
  if (A.Lo && B.Hi && *B.Hi < *A.Lo)
    return Tri::False;
  return Tri::Unknown;
}

Tri cmpLt(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Tri::Unknown;
  if (A.Hi && B.Lo && *A.Hi < *B.Lo)
    return Tri::True;
  if (A.Lo && B.Hi && *B.Hi <= *A.Lo)
    return Tri::False;
  return Tri::Unknown;
}

bool isPoint(const Interval &A) { return A.isFinite() && *A.Lo == *A.Hi; }

} // namespace

std::vector<std::pair<uint32_t, unsigned>>
analysis::factorGroups(const TermManager &M, Term Mul) {
  std::vector<std::pair<uint32_t, unsigned>> Groups;
  for (Term Child : M.children(Mul)) {
    auto Seen = std::find_if(Groups.begin(), Groups.end(), [&](auto &G) {
      return G.first == Child.id();
    });
    if (Seen != Groups.end())
      ++Seen->second;
    else
      Groups.emplace_back(Child.id(), 1);
  }
  return Groups;
}

Interval BoxEvaluator::iv(Term T) {
  auto Found = Memo.find(T.id());
  if (Found != Memo.end())
    return Found->second;

  Interval R = Interval::top();
  switch (M.kind(T)) {
  case Kind::ConstInt:
    R = Interval::point(Rational(M.intValue(T)));
    break;
  case Kind::ConstReal:
    R = Interval::point(M.realValue(T));
    break;
  case Kind::Variable:
    R = Range(T);
    break;
  case Kind::Neg:
    R = negI(iv(M.child(T, 0)));
    break;
  case Kind::IntAbs:
    R = absI(iv(M.child(T, 0)));
    break;
  case Kind::Add: {
    R = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I)
      R = addI(R, iv(M.child(T, I)));
    break;
  }
  case Kind::Sub: {
    R = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I)
      R = subI(R, iv(M.child(T, I)));
    break;
  }
  case Kind::Mul: {
    // Identical factors become powers so even powers are known
    // non-negative (plain interval products lose the x*x dependency).
    bool First = true;
    for (const auto &[Id, Count] : factorGroups(M, T)) {
      Interval Factor = powFullI(iv(Term(Id)), Count);
      R = First ? Factor : mulFullI(R, Factor);
      First = false;
    }
    break;
  }
  case Kind::RealDiv:
    // divFullI is top when the divisor may be zero: solvers treat
    // division by zero as unconstrained, so no narrowing is sound.
    R = divFullI(iv(M.child(T, 0)), iv(M.child(T, 1)));
    break;
  case Kind::IntDiv: {
    Interval Q = divFullI(iv(M.child(T, 0)), iv(M.child(T, 1)));
    // Euclidean division: real-division hull +-1.
    if (!Q.Empty) {
      if (Q.Lo)
        Q.Lo = *Q.Lo - Rational(1);
      if (Q.Hi)
        Q.Hi = *Q.Hi + Rational(1);
    }
    R = Q;
    break;
  }
  case Kind::IntMod: {
    Interval Divisor = iv(M.child(T, 1));
    if (!Divisor.Empty && !Divisor.contains(Rational(0))) {
      // Euclidean remainder: 0 <= mod < |divisor|.
      Interval AbsDiv = absI(Divisor);
      R.Lo = Rational(0);
      if (AbsDiv.Hi)
        R.Hi = *AbsDiv.Hi - Rational(1);
    }
    break;
  }
  case Kind::Ite: {
    Tri Cond = tri(M.child(T, 0));
    if (Cond == Tri::True)
      R = iv(M.child(T, 1));
    else if (Cond == Tri::False)
      R = iv(M.child(T, 2));
    else
      R = hull(iv(M.child(T, 1)), iv(M.child(T, 2)));
    break;
  }
  default:
    break;
  }
  if (M.sort(T).isInt())
    R = roundToIntI(R);
  Memo.emplace(T.id(), R);
  return R;
}

Tri BoxEvaluator::tri(Term T) {
  switch (M.kind(T)) {
  case Kind::ConstBool:
    return triOf(M.boolValue(T));
  case Kind::Variable:
    return Bool(T);
  case Kind::Not: {
    Tri Inner = tri(M.child(T, 0));
    if (Inner == Tri::Unknown)
      return Tri::Unknown;
    return Inner == Tri::True ? Tri::False : Tri::True;
  }
  case Kind::And: {
    bool AnyUnknown = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::False)
        return Tri::False;
      if (V == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::True;
  }
  case Kind::Or: {
    bool AnyUnknown = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::True)
        return Tri::True;
      if (V == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::False;
  }
  case Kind::Implies: {
    Tri A = tri(M.child(T, 0)), B = tri(M.child(T, 1));
    if (A == Tri::False || B == Tri::True)
      return Tri::True;
    if (A == Tri::True && B == Tri::False)
      return Tri::False;
    return Tri::Unknown;
  }
  case Kind::Xor: {
    bool Acc = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::Unknown)
        return Tri::Unknown;
      Acc = Acc != (V == Tri::True);
    }
    return triOf(Acc);
  }
  case Kind::Eq: {
    if (M.sort(M.child(T, 0)).isBool()) {
      Tri First = tri(M.child(T, 0));
      bool AllKnown = First != Tri::Unknown;
      for (unsigned I = 1; I < M.numChildren(T); ++I) {
        Tri V = tri(M.child(T, I));
        if (V == Tri::Unknown)
          AllKnown = false;
        else if (First != Tri::Unknown && V != First)
          return Tri::False;
      }
      return AllKnown ? Tri::True : Tri::Unknown;
    }
    if (!M.sort(M.child(T, 0)).isUnbounded())
      return Tri::Unknown;
    bool AllEqualPoints = true;
    Interval First = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I) {
      Interval V = iv(M.child(T, I));
      if (meet(First, V).Empty)
        return Tri::False;
      if (!(isPoint(First) && isPoint(V) && *First.Lo == *V.Lo))
        AllEqualPoints = false;
    }
    return AllEqualPoints ? Tri::True : Tri::Unknown;
  }
  case Kind::Distinct: {
    if (!M.sort(M.child(T, 0)).isUnbounded())
      return Tri::Unknown;
    bool AllDisjoint = true;
    for (unsigned I = 0; I < M.numChildren(T); ++I)
      for (unsigned J = I + 1; J < M.numChildren(T); ++J) {
        Interval A = iv(M.child(T, I)), B = iv(M.child(T, J));
        if (A.Empty || B.Empty)
          return Tri::Unknown;
        if (isPoint(A) && isPoint(B) && *A.Lo == *B.Lo)
          return Tri::False;
        if (!meet(A, B).Empty)
          AllDisjoint = false;
      }
    return AllDisjoint ? Tri::True : Tri::Unknown;
  }
  case Kind::Le:
    return cmpLe(iv(M.child(T, 0)), iv(M.child(T, 1)));
  case Kind::Lt:
    return cmpLt(iv(M.child(T, 0)), iv(M.child(T, 1)));
  case Kind::Ge:
    return cmpLe(iv(M.child(T, 1)), iv(M.child(T, 0)));
  case Kind::Gt:
    return cmpLt(iv(M.child(T, 1)), iv(M.child(T, 0)));
  case Kind::Ite: {
    Tri Cond = tri(M.child(T, 0));
    if (Cond == Tri::True)
      return tri(M.child(T, 1));
    if (Cond == Tri::False)
      return tri(M.child(T, 2));
    Tri Then = tri(M.child(T, 1)), Else = tri(M.child(T, 2));
    return Then == Else ? Then : Tri::Unknown;
  }
  default:
    return Tri::Unknown;
  }
}
