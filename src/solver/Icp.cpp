//===- solver/Icp.cpp - Interval constraint propagation -------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Icp.h"

#include "support/Timer.h"

#include <deque>

using namespace staub;
using namespace staub::analysis;

IcpSolver::IcpSolver(TermManager &Manager, std::vector<Term> Asserts)
    : Manager(Manager), Assertions(std::move(Asserts)),
      Eval(
          Manager,
          [this](Term Var) {
            auto It = Dimension.find(Var.id());
            return It == Dimension.end() ? Interval::top()
                                         : (*Judged)[It->second];
          },
          [](Term) { return Tri::Unknown; }) {
  Conjunction = Manager.mkAnd(Assertions);
  for (Term Var : Manager.collectVariables(Conjunction)) {
    if (!Manager.sort(Var).isUnbounded())
      continue;
    Dimension.emplace(Var.id(), Variables.size());
    Variables.push_back(Var);
    if (Manager.sort(Var).isInt())
      IntegerMode = true;
  }
}

Tri IcpSolver::evalFormula(const Box &B) {
  Judged = &B;
  Eval.clear();
  return Eval.tri(Conjunction);
}

bool IcpSolver::tryPoint(const std::vector<Rational> &Point,
                         Model &Out) const {
  Model Candidate;
  for (size_t I = 0; I < Variables.size(); ++I) {
    if (Manager.sort(Variables[I]).isInt()) {
      if (!Point[I].isInteger())
        return false;
      Candidate.set(Variables[I], Value(Point[I].numerator()));
    } else {
      Candidate.set(Variables[I], Value(Point[I]));
    }
  }
  if (!evaluatesToTrue(Manager, Conjunction, Candidate))
    return false;
  Out = std::move(Candidate);
  return true;
}

bool IcpSolver::enumerateIntegerBox(const Box &B, uint64_t Limit,
                                    Model &Out) const {
  // Compute the integer point count; bail out if over the limit.
  uint64_t Count = 1;
  std::vector<BigInt> Los;
  std::vector<uint64_t> Sizes;
  for (const Interval &I : B) {
    if (!I.Lo || !I.Hi)
      return false;
    BigInt Lo = I.Lo->ceil();
    BigInt Hi = I.Hi->floor();
    if (Hi < Lo)
      return false;
    BigInt SizeBig = Hi - Lo + BigInt(1);
    auto Size = SizeBig.toInt64();
    if (!Size || Count > Limit / static_cast<uint64_t>(*Size) + 1)
      return false;
    Count *= static_cast<uint64_t>(*Size);
    if (Count > Limit)
      return false;
    Los.push_back(Lo);
    Sizes.push_back(static_cast<uint64_t>(*Size));
  }
  // Odometer enumeration.
  std::vector<uint64_t> Digits(B.size(), 0);
  for (uint64_t N = 0; N < Count; ++N) {
    if ((N & 63) == 0 && stopRequested(Cancel))
      return false;
    std::vector<Rational> Point;
    Point.reserve(B.size());
    for (size_t I = 0; I < B.size(); ++I)
      Point.push_back(
          Rational(Los[I] + BigInt(static_cast<int64_t>(Digits[I]))));
    if (tryPoint(Point, Out))
      return true;
    for (size_t I = 0; I < Digits.size(); ++I) {
      if (++Digits[I] < Sizes[I])
        break;
      Digits[I] = 0;
    }
  }
  return false;
}

bool IcpSolver::sampleBox(const Box &B, Model &Out) const {
  // Midpoint, then low/high corners where available.
  auto MidOf = [](const Interval &I) -> Rational {
    if (I.Lo && I.Hi)
      return (*I.Lo + *I.Hi) * Rational(BigInt(1), BigInt(2));
    if (I.Lo)
      return *I.Lo;
    if (I.Hi)
      return *I.Hi;
    return Rational(0);
  };
  std::vector<Rational> Mid;
  for (const Interval &I : B)
    Mid.push_back(MidOf(I));
  if (tryPoint(Mid, Out))
    return true;
  if (IntegerMode) {
    // Rounded midpoint.
    std::vector<Rational> Rounded;
    for (size_t I = 0; I < Mid.size(); ++I) {
      Rational Candidate(Mid[I].floor());
      if (!B[I].contains(Candidate))
        Candidate = Rational(Mid[I].ceil());
      Rounded.push_back(Candidate);
    }
    if (tryPoint(Rounded, Out))
      return true;
  }
  std::vector<Rational> Corner;
  for (const Interval &I : B)
    Corner.push_back(I.Lo ? *I.Lo : MidOf(I));
  if (tryPoint(Corner, Out))
    return true;
  Corner.clear();
  for (const Interval &I : B)
    Corner.push_back(I.Hi ? *I.Hi : MidOf(I));
  return tryPoint(Corner, Out);
}

SolveResult IcpSolver::solve(const IcpOptions &Options) {
  WallTimer Timer;
  SolveResult Result;
  Cancel = Options.Cancel;

  // Global check over the unbounded box: the only way ICP proves unsat.
  Box Unbounded(Variables.size(), Interval::top());
  Tri Global = evalFormula(Unbounded);
  if (Global == Tri::False) {
    Result.Status = SolveStatus::Unsat;
    Result.TimeSeconds = Timer.elapsedSeconds();
    return Result;
  }
  if (Global == Tri::True && sampleBox(Unbounded, Result.TheModel)) {
    Result.Status = SolveStatus::Sat;
    Result.TimeSeconds = Timer.elapsedSeconds();
    return Result;
  }

  // Iterative deepening over the initial box size.
  uint64_t Nodes = 0;
  for (unsigned BoundLog = Options.InitialBoundLog;
       BoundLog <= Options.MaxBoundLog; BoundLog += 4) {
    Rational Bound(BigInt::pow2(BoundLog));
    Box Root(Variables.size(),
             Interval::range(Bound.negated(), Bound));

    std::deque<Box> Work;
    Work.push_back(Root);
    while (!Work.empty()) {
      if (++Nodes > Options.MaxNodes ||
          Timer.elapsedSeconds() > Options.TimeoutSeconds ||
          stopRequested(Cancel)) {
        Result.Status = SolveStatus::Unknown;
        Result.TimeSeconds = Timer.elapsedSeconds();
        return Result;
      }
      Box Current = std::move(Work.front());
      Work.pop_front();

      Tri V = evalFormula(Current);
      if (V == Tri::False)
        continue;
      if (V == Tri::True) {
        if (IntegerMode) {
          if (enumerateIntegerBox(Current, 4, Result.TheModel) ||
              sampleBox(Current, Result.TheModel)) {
            Result.Status = SolveStatus::Sat;
            Result.TimeSeconds = Timer.elapsedSeconds();
            return Result;
          }
          // True box without a reachable integer point: keep searching.
        } else if (sampleBox(Current, Result.TheModel)) {
          Result.Status = SolveStatus::Sat;
          Result.TimeSeconds = Timer.elapsedSeconds();
          return Result;
        }
      }

      // Try cheap witnesses before splitting.
      if (IntegerMode &&
          enumerateIntegerBox(Current, Options.EnumerationLimit,
                              Result.TheModel)) {
        Result.Status = SolveStatus::Sat;
        Result.TimeSeconds = Timer.elapsedSeconds();
        return Result;
      }
      if (sampleBox(Current, Result.TheModel)) {
        Result.Status = SolveStatus::Sat;
        Result.TimeSeconds = Timer.elapsedSeconds();
        return Result;
      }

      // Branch on the widest variable.
      size_t WidestVar = 0;
      Rational WidestWidth(-1);
      for (size_t I = 0; I < Current.size(); ++I) {
        const Interval &IV = Current[I];
        Rational Width = *IV.Hi - *IV.Lo; // Root boxes are bounded.
        if (WidestWidth < Width) {
          WidestWidth = Width;
          WidestVar = I;
        }
      }
      // Stop refining boxes that are already tiny (reals) or single
      // points (integers).
      Rational MinWidth = IntegerMode
                              ? Rational(1)
                              : Rational(BigInt(1), BigInt::pow2(24));
      if (WidestWidth <= MinWidth)
        continue; // Give up on this box; result stays Unknown overall.

      const Interval &Split = Current[WidestVar];
      Rational Mid = (*Split.Lo + *Split.Hi) * Rational(BigInt(1), BigInt(2));
      if (IntegerMode)
        Mid = Rational(Mid.floor());
      // Endpoints stay integral in integer mode, so with a width of at
      // least 2 both halves are non-empty.
      Box Left = Current, Right = Current;
      Left[WidestVar].Hi = Mid;
      Right[WidestVar].Lo = IntegerMode ? Mid + Rational(1) : Mid;
      Work.push_back(std::move(Left));
      Work.push_back(std::move(Right));
    }
    // Box exhausted without a model; a larger box may still contain one.
  }

  Result.Status = SolveStatus::Unknown;
  Result.TimeSeconds = Timer.elapsedSeconds();
  return Result;
}
