//===- solver/CrossCache.cpp - Sharded cross-query solver caches ----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/CrossCache.h"

using namespace staub;

size_t BlastTemplate::bytes() const {
  size_t Total = sizeof(*this) + Clauses.bytes();
  Total += Vars.capacity() * sizeof(TemplateVarBinding);
  for (const TemplateVarBinding &B : Vars)
    Total += B.Name.capacity() + B.Bits.capacity() * sizeof(Lit);
  return Total;
}

size_t ClauseTemplate::bytes() const { return sizeof(*this) + Clauses.bytes(); }

Term staub::rangeAtomVariable(const TermManager &Manager, Term T) {
  switch (Manager.kind(T)) {
  case Kind::BvUle:
  case Kind::BvUlt:
  case Kind::BvUge:
  case Kind::BvUgt:
  case Kind::BvSle:
  case Kind::BvSlt:
  case Kind::BvSge:
  case Kind::BvSgt:
    break;
  default:
    return Term();
  }
  Term A = Manager.child(T, 0), B = Manager.child(T, 1);
  if (Manager.kind(A) == Kind::Variable && Manager.kind(B) == Kind::ConstBitVec)
    return A;
  if (Manager.kind(B) == Kind::Variable && Manager.kind(A) == Kind::ConstBitVec)
    return B;
  return Term();
}

std::vector<Term>
staub::groupForCrossCache(TermManager &Manager,
                          const std::vector<Term> &Assertions,
                          size_t TranslatedCount,
                          const std::vector<uint32_t> &GuardOwner) {
  // Conjoin each translated assertion with the guards its translation
  // emitted, so one (digest, width) cache entry carries a guarded
  // operation's whole cone. Left separate, a guard's template would
  // re-blast the multiplier/adder circuit it shares with its owner
  // (self-contained templates cannot share subcircuits across entries),
  // doubling both the cached bytes and the clauses spliced per query.
  std::vector<std::vector<Term>> Groups(TranslatedCount);
  for (size_t I = 0; I < TranslatedCount; ++I)
    Groups[I].push_back(Assertions[I]);
  for (size_t J = 0; J < GuardOwner.size(); ++J)
    Groups[GuardOwner[J]].push_back(Assertions[TranslatedCount + J]);

  // Copy range atoms into every other group mentioning their variable.
  // Direct blasting asserts the bounds before encoding later assertions,
  // so level-0 propagation pins the high bits of every bounded variable
  // and discharges most of a wide multiplier's clauses at add time. A
  // self-contained template cannot see a bound asserted elsewhere;
  // conjoining the atom lets the scratch solver perform the same
  // discharge, and the duplicated comparator circuit is tiny next to the
  // clauses it removes. Each range atom keeps its own group, so the
  // conjunction over all groups is unchanged.
  std::vector<std::pair<Term, Term>> RangeAtoms; // (variable, atom)
  for (size_t I = 0; I < TranslatedCount; ++I)
    if (Groups[I].size() == 1)
      if (Term Var = rangeAtomVariable(Manager, Groups[I][0]); Var.isValid())
        RangeAtoms.push_back({Var, Groups[I][0]});
  if (!RangeAtoms.empty()) {
    // One DAG walk per group over a shared stamp array: Stamp[id] == the
    // group's number marks the terms (and so the variables) it reaches.
    std::vector<uint32_t> Stamp(Manager.numTerms(), 0);
    std::vector<Term> Stack;
    uint32_t GroupNumber = 0;
    for (std::vector<Term> &Group : Groups) {
      ++GroupNumber;
      if (Group.size() == 1 && rangeAtomVariable(Manager, Group[0]).isValid())
        continue; // The atom's own group stays a bare atom.
      Stack.assign(Group.begin(), Group.end());
      while (!Stack.empty()) {
        Term T = Stack.back();
        Stack.pop_back();
        if (Stamp[T.id()] == GroupNumber)
          continue;
        Stamp[T.id()] = GroupNumber;
        for (Term Child : Manager.children(T))
          Stack.push_back(Child);
      }
      for (const auto &[Var, Atom] : RangeAtoms)
        if (Stamp[Var.id()] == GroupNumber)
          Group.push_back(Atom);
    }
  }

  std::vector<Term> Result;
  Result.reserve(Groups.size());
  for (const std::vector<Term> &Group : Groups)
    Result.push_back(Group.size() == 1 ? Group[0] : Manager.mkAnd(Group));
  return Result;
}
