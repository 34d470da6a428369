//===- solver/BitBlaster.cpp - QF_BV to CNF encoding ----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/BitBlaster.h"

#include "smtlib/Digest.h"
#include "solver/CrossCache.h"

#include <algorithm>
#include <cassert>

using namespace staub;

BitBlaster::BitBlaster(const TermManager &Manager, SatSolver &Solver)
    : Manager(Manager), Solver(Solver) {
  TrueLit = Lit(Solver.newVar(), false);
  Solver.addUnit(TrueLit);
}

BitBlaster::~BitBlaster() = default;

Lit BitBlaster::fresh() { return Lit(Solver.newVar(), false); }

Lit BitBlaster::mkAnd(Lit A, Lit B) {
  if (A == falseLit() || B == falseLit())
    return falseLit();
  if (A == TrueLit)
    return B;
  if (B == TrueLit)
    return A;
  if (A == B)
    return A;
  if (A == ~B)
    return falseLit();
  Lit Out = fresh();
  Solver.addBinary(~Out, A);
  Solver.addBinary(~Out, B);
  Solver.addTernary(Out, ~A, ~B);
  return Out;
}

Lit BitBlaster::mkOr(Lit A, Lit B) { return ~mkAnd(~A, ~B); }

Lit BitBlaster::mkXor(Lit A, Lit B) {
  if (A == falseLit())
    return B;
  if (B == falseLit())
    return A;
  if (A == TrueLit)
    return ~B;
  if (B == TrueLit)
    return ~A;
  if (A == B)
    return falseLit();
  if (A == ~B)
    return TrueLit;
  Lit Out = fresh();
  Solver.addTernary(~Out, A, B);
  Solver.addTernary(~Out, ~A, ~B);
  Solver.addTernary(Out, ~A, B);
  Solver.addTernary(Out, A, ~B);
  return Out;
}

Lit BitBlaster::mkIte(Lit Cond, Lit Then, Lit Else) {
  if (Cond == TrueLit)
    return Then;
  if (Cond == falseLit())
    return Else;
  if (Then == Else)
    return Then;
  Lit Out = fresh();
  Solver.addTernary(~Cond, ~Then, Out);
  Solver.addTernary(~Cond, Then, ~Out);
  Solver.addTernary(Cond, ~Else, Out);
  Solver.addTernary(Cond, Else, ~Out);
  return Out;
}

Lit BitBlaster::mkAndMany(const std::vector<Lit> &Inputs) {
  std::vector<Lit> Useful;
  for (Lit L : Inputs) {
    if (L == falseLit())
      return falseLit();
    if (L == TrueLit)
      continue;
    Useful.push_back(L);
  }
  if (Useful.empty())
    return TrueLit;
  if (Useful.size() == 1)
    return Useful[0];
  Lit Out = fresh();
  std::vector<Lit> LongClause = {Out};
  for (Lit L : Useful) {
    Solver.addBinary(~Out, L);
    LongClause.push_back(~L);
  }
  Solver.addClause(LongClause);
  return Out;
}

Lit BitBlaster::mkOrMany(const std::vector<Lit> &Inputs) {
  std::vector<Lit> Negated;
  Negated.reserve(Inputs.size());
  for (Lit L : Inputs)
    Negated.push_back(~L);
  return ~mkAndMany(Negated);
}

//===--------------------------------------------------------------------===//
// Word-level circuits.
//===--------------------------------------------------------------------===//

BitBlaster::Word BitBlaster::addWords(const Word &A, const Word &B, Lit CarryIn,
                                      Lit *CarryOut) {
  assert(A.size() == B.size() && "adder width mismatch");
  Word Sum(A.size(), falseLit());
  Lit Carry = CarryIn;
  for (size_t I = 0; I < A.size(); ++I) {
    Lit AxB = mkXor(A[I], B[I]);
    Sum[I] = mkXor(AxB, Carry);
    Carry = mkOr(mkAnd(A[I], B[I]), mkAnd(Carry, AxB));
  }
  if (CarryOut)
    *CarryOut = Carry;
  return Sum;
}

BitBlaster::Word BitBlaster::negWord(const Word &A) {
  Word Flipped(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    Flipped[I] = ~A[I];
  Word Zero(A.size(), falseLit());
  return addWords(Flipped, Zero, TrueLit, nullptr);
}

BitBlaster::Word BitBlaster::mulWords(const Word &A, const Word &B) {
  assert(A.size() == B.size() && "multiplier width mismatch");
  size_t Width = A.size();
  Word Acc(Width, falseLit());
  for (size_t I = 0; I < Width; ++I) {
    // Partial product: (B << I) masked by A[I], truncated to Width.
    Word Partial(Width, falseLit());
    for (size_t J = I; J < Width; ++J)
      Partial[J] = mkAnd(A[I], B[J - I]);
    Acc = addWords(Acc, Partial, falseLit(), nullptr);
  }
  return Acc;
}

Lit BitBlaster::equalWords(const Word &A, const Word &B) {
  assert(A.size() == B.size() && "equality width mismatch");
  std::vector<Lit> Bits;
  Bits.reserve(A.size());
  for (size_t I = 0; I < A.size(); ++I)
    Bits.push_back(~mkXor(A[I], B[I]));
  return mkAndMany(Bits);
}

Lit BitBlaster::ultWords(const Word &A, const Word &B) {
  // A < B iff the subtraction A - B borrows, i.e. A + ~B + 1 has no carry.
  Word Flipped(B.size());
  for (size_t I = 0; I < B.size(); ++I)
    Flipped[I] = ~B[I];
  Lit Carry = falseLit();
  addWords(A, Flipped, TrueLit, &Carry);
  return ~Carry;
}

Lit BitBlaster::sltWords(const Word &A, const Word &B) {
  Lit SignA = A.back(), SignB = B.back();
  Lit Unsigned = ultWords(A, B);
  // Same sign: unsigned comparison is correct. Different sign: A < B iff
  // A is negative.
  Lit SameSign = ~mkXor(SignA, SignB);
  return mkIte(SameSign, Unsigned, SignA);
}

Lit BitBlaster::isZero(const Word &A) {
  std::vector<Lit> Bits;
  Bits.reserve(A.size());
  for (Lit L : A)
    Bits.push_back(~L);
  return mkAndMany(Bits);
}

BitBlaster::Word BitBlaster::muxWord(Lit Cond, const Word &Then,
                                     const Word &Else) {
  assert(Then.size() == Else.size() && "mux width mismatch");
  Word Out(Then.size());
  for (size_t I = 0; I < Then.size(); ++I)
    Out[I] = mkIte(Cond, Then[I], Else[I]);
  return Out;
}

BitBlaster::Word BitBlaster::udivWords(const Word &A, const Word &B,
                                       Word *RemainderOut) {
  // Restoring division, MSB first. Division by zero handled by callers.
  size_t Width = A.size();
  Word Remainder(Width, falseLit());
  Word Quotient(Width, falseLit());
  for (size_t I = Width; I-- > 0;) {
    // Remainder = (Remainder << 1) | A[I].
    Word Shifted(Width, falseLit());
    for (size_t J = Width; J-- > 1;)
      Shifted[J] = Remainder[J - 1];
    Shifted[0] = A[I];
    Lit GreaterEq = ~ultWords(Shifted, B);
    Word Flipped(Width);
    for (size_t J = 0; J < Width; ++J)
      Flipped[J] = ~B[J];
    Word Subtracted = addWords(Shifted, Flipped, TrueLit, nullptr);
    Remainder = muxWord(GreaterEq, Subtracted, Shifted);
    Quotient[I] = GreaterEq;
  }
  if (RemainderOut)
    *RemainderOut = Remainder;
  return Quotient;
}

BitBlaster::Word BitBlaster::shiftWord(const Word &A, const Word &Amount,
                                       Kind ShiftKind) {
  size_t Width = A.size();
  Lit Fill = ShiftKind == Kind::BvAshr ? A.back() : falseLit();
  Word Current = A;
  // Barrel shifter over the bits of Amount that can matter.
  for (size_t Stage = 0; Stage < Amount.size() && (size_t(1) << Stage) < Width;
       ++Stage) {
    size_t Shift = size_t(1) << Stage;
    Word Shifted(Width, Fill);
    for (size_t I = 0; I < Width; ++I) {
      if (ShiftKind == Kind::BvShl) {
        if (I >= Shift)
          Shifted[I] = Current[I - Shift];
        else
          Shifted[I] = falseLit();
      } else {
        if (I + Shift < Width)
          Shifted[I] = Current[I + Shift];
        else
          Shifted[I] = Fill;
      }
    }
    Current = muxWord(Amount[Stage], Shifted, Current);
  }
  // If any high bit of Amount (>= log2 covering width) is set, the result
  // saturates to the fill value.
  std::vector<Lit> HighBits;
  for (size_t Stage = 0; Stage < Amount.size(); ++Stage)
    if ((size_t(1) << Stage) >= Width || Stage >= 63)
      HighBits.push_back(Amount[Stage]);
  if (!HighBits.empty()) {
    Lit Oversize = mkOrMany(HighBits);
    Word Saturated(Width, Fill);
    Current = muxWord(Oversize, Saturated, Current);
  }
  return Current;
}

BitBlaster::Word BitBlaster::sextWord(const Word &A, unsigned NewWidth) {
  Word Out = A;
  while (Out.size() < NewWidth)
    Out.push_back(A.back());
  return Out;
}

BitBlaster::Word BitBlaster::zextWord(const Word &A, unsigned NewWidth) {
  Word Out = A;
  while (Out.size() < NewWidth)
    Out.push_back(falseLit());
  return Out;
}

//===--------------------------------------------------------------------===//
// Term encoding.
//===--------------------------------------------------------------------===//

BitBlaster::Word BitBlaster::encodeBv(Term T) {
  auto Found = BvCache.find(T.id());
  if (Found != BvCache.end()) {
    ++CacheHits;
    return Found->second;
  }

  Kind K = Manager.kind(T);
  unsigned Width = Manager.sort(T).bitVecWidth();
  Word Result;

  switch (K) {
  case Kind::ConstBitVec: {
    const BitVecValue &Value = Manager.bitVecValue(T);
    Result.resize(Width);
    for (unsigned I = 0; I < Width; ++I)
      Result[I] = constant(Value.testBit(I));
    break;
  }
  case Kind::Variable: {
    Result.resize(Width);
    for (unsigned I = 0; I < Width; ++I)
      Result[I] = fresh();
    break;
  }
  case Kind::BvNot: {
    Word A = encodeBv(Manager.child(T, 0));
    Result.resize(Width);
    for (unsigned I = 0; I < Width; ++I)
      Result[I] = ~A[I];
    break;
  }
  case Kind::BvNeg:
    Result = negWord(encodeBv(Manager.child(T, 0)));
    break;
  case Kind::BvAnd:
  case Kind::BvOr:
  case Kind::BvXor: {
    Result = encodeBv(Manager.child(T, 0));
    for (unsigned C = 1; C < Manager.numChildren(T); ++C) {
      Word B = encodeBv(Manager.child(T, C));
      for (unsigned I = 0; I < Width; ++I)
        Result[I] = K == Kind::BvAnd   ? mkAnd(Result[I], B[I])
                    : K == Kind::BvOr  ? mkOr(Result[I], B[I])
                                       : mkXor(Result[I], B[I]);
    }
    break;
  }
  case Kind::BvAdd: {
    Result = encodeBv(Manager.child(T, 0));
    for (unsigned C = 1; C < Manager.numChildren(T); ++C)
      Result = addWords(Result, encodeBv(Manager.child(T, C)), falseLit(),
                        nullptr);
    break;
  }
  case Kind::BvSub: {
    Result = encodeBv(Manager.child(T, 0));
    for (unsigned C = 1; C < Manager.numChildren(T); ++C) {
      Word B = encodeBv(Manager.child(T, C));
      Word Flipped(B.size());
      for (size_t I = 0; I < B.size(); ++I)
        Flipped[I] = ~B[I];
      Result = addWords(Result, Flipped, TrueLit, nullptr);
    }
    break;
  }
  case Kind::BvMul: {
    Result = encodeBv(Manager.child(T, 0));
    for (unsigned C = 1; C < Manager.numChildren(T); ++C)
      Result = mulWords(Result, encodeBv(Manager.child(T, C)));
    break;
  }
  case Kind::BvUDiv:
  case Kind::BvURem: {
    Word A = encodeBv(Manager.child(T, 0));
    Word B = encodeBv(Manager.child(T, 1));
    Word Remainder;
    Word Quotient = udivWords(A, B, &Remainder);
    Lit DivZero = isZero(B);
    if (K == Kind::BvUDiv) {
      Word AllOnes(Width, TrueLit);
      Result = muxWord(DivZero, AllOnes, Quotient);
    } else {
      Result = muxWord(DivZero, A, Remainder);
    }
    break;
  }
  case Kind::BvSDiv:
  case Kind::BvSRem: {
    Word A = encodeBv(Manager.child(T, 0));
    Word B = encodeBv(Manager.child(T, 1));
    Lit SignA = A.back(), SignB = B.back();
    Word AbsA = muxWord(SignA, negWord(A), A);
    Word AbsB = muxWord(SignB, negWord(B), B);
    Word Remainder;
    Word Quotient = udivWords(AbsA, AbsB, &Remainder);
    Lit DivZero = isZero(B);
    if (K == Kind::BvSDiv) {
      Lit NegResult = mkXor(SignA, SignB);
      Word Signed = muxWord(NegResult, negWord(Quotient), Quotient);
      // SMT-LIB: bvsdiv x 0 = all-ones if x >= 0 else 1.
      Word AllOnes(Width, TrueLit);
      Word One(Width, falseLit());
      One[0] = TrueLit;
      Word ZeroCase = muxWord(SignA, One, AllOnes);
      Result = muxWord(DivZero, ZeroCase, Signed);
    } else {
      // Remainder takes the dividend's sign; bvsrem x 0 = x.
      Word Signed = muxWord(SignA, negWord(Remainder), Remainder);
      Result = muxWord(DivZero, A, Signed);
    }
    break;
  }
  case Kind::BvShl:
  case Kind::BvLshr:
  case Kind::BvAshr:
    Result = shiftWord(encodeBv(Manager.child(T, 0)),
                       encodeBv(Manager.child(T, 1)), K);
    break;
  case Kind::BvConcat: {
    Word High = encodeBv(Manager.child(T, 0));
    Word Low = encodeBv(Manager.child(T, 1));
    Result = Low;
    Result.insert(Result.end(), High.begin(), High.end());
    break;
  }
  case Kind::BvExtract: {
    Word A = encodeBv(Manager.child(T, 0));
    unsigned High = Manager.paramA(T), Low = Manager.paramB(T);
    Result.assign(A.begin() + Low, A.begin() + High + 1);
    break;
  }
  case Kind::BvZeroExtend:
    Result = zextWord(encodeBv(Manager.child(T, 0)), Width);
    break;
  case Kind::BvSignExtend:
    Result = sextWord(encodeBv(Manager.child(T, 0)), Width);
    break;
  case Kind::Ite: {
    Lit Cond = encodeBool(Manager.child(T, 0));
    Result = muxWord(Cond, encodeBv(Manager.child(T, 1)),
                     encodeBv(Manager.child(T, 2)));
    break;
  }
  default:
    assert(false && "unsupported bitvector term in bit-blaster");
    Result.assign(Width, falseLit());
    break;
  }

  assert(Result.size() == Width && "encoded width mismatch");
  BvCache.emplace(T.id(), Result);
  return Result;
}

Lit BitBlaster::encodeBool(Term T) {
  auto Found = BoolCache.find(T.id());
  if (Found != BoolCache.end()) {
    ++CacheHits;
    return Found->second;
  }

  Kind K = Manager.kind(T);
  Lit Result;
  switch (K) {
  case Kind::ConstBool:
    Result = constant(Manager.boolValue(T));
    break;
  case Kind::Variable:
    assert(Manager.sort(T).isBool() && "non-boolean variable in skeleton");
    Result = fresh();
    break;
  case Kind::Not:
    Result = ~encodeBool(Manager.child(T, 0));
    break;
  case Kind::And: {
    std::vector<Lit> Inputs;
    for (Term Child : Manager.children(T))
      Inputs.push_back(encodeBool(Child));
    Result = mkAndMany(Inputs);
    break;
  }
  case Kind::Or: {
    std::vector<Lit> Inputs;
    for (Term Child : Manager.children(T))
      Inputs.push_back(encodeBool(Child));
    Result = mkOrMany(Inputs);
    break;
  }
  case Kind::Xor:
    Result = mkXor(encodeBool(Manager.child(T, 0)),
                   encodeBool(Manager.child(T, 1)));
    break;
  case Kind::Implies:
    Result = mkOr(~encodeBool(Manager.child(T, 0)),
                  encodeBool(Manager.child(T, 1)));
    break;
  case Kind::Ite:
    Result = mkIte(encodeBool(Manager.child(T, 0)),
                   encodeBool(Manager.child(T, 1)),
                   encodeBool(Manager.child(T, 2)));
    break;
  case Kind::Eq: {
    Term A = Manager.child(T, 0), B = Manager.child(T, 1);
    if (Manager.sort(A).isBool())
      Result = ~mkXor(encodeBool(A), encodeBool(B));
    else
      Result = equalWords(encodeBv(A), encodeBv(B));
    break;
  }
  case Kind::Distinct: {
    auto Children = Manager.children(T);
    std::vector<Lit> Pairwise;
    for (size_t I = 0; I < Children.size(); ++I)
      for (size_t J = I + 1; J < Children.size(); ++J) {
        if (Manager.sort(Children[I]).isBool())
          Pairwise.push_back(mkXor(encodeBool(Children[I]),
                                   encodeBool(Children[J])));
        else
          Pairwise.push_back(
              ~equalWords(encodeBv(Children[I]), encodeBv(Children[J])));
      }
    Result = mkAndMany(Pairwise);
    break;
  }
  case Kind::BvUle:
    Result = ~ultWords(encodeBv(Manager.child(T, 1)),
                       encodeBv(Manager.child(T, 0)));
    break;
  case Kind::BvUlt:
    Result = ultWords(encodeBv(Manager.child(T, 0)),
                      encodeBv(Manager.child(T, 1)));
    break;
  case Kind::BvUge:
    Result = ~ultWords(encodeBv(Manager.child(T, 0)),
                       encodeBv(Manager.child(T, 1)));
    break;
  case Kind::BvUgt:
    Result = ultWords(encodeBv(Manager.child(T, 1)),
                      encodeBv(Manager.child(T, 0)));
    break;
  case Kind::BvSle:
    Result = ~sltWords(encodeBv(Manager.child(T, 1)),
                       encodeBv(Manager.child(T, 0)));
    break;
  case Kind::BvSlt:
    Result = sltWords(encodeBv(Manager.child(T, 0)),
                      encodeBv(Manager.child(T, 1)));
    break;
  case Kind::BvSge:
    Result = ~sltWords(encodeBv(Manager.child(T, 0)),
                       encodeBv(Manager.child(T, 1)));
    break;
  case Kind::BvSgt:
    Result = sltWords(encodeBv(Manager.child(T, 1)),
                      encodeBv(Manager.child(T, 0)));
    break;
  case Kind::BvNegO: {
    // Overflows only for INT_MIN: sign bit set, all others clear.
    Word A = encodeBv(Manager.child(T, 0));
    std::vector<Lit> Pattern;
    for (size_t I = 0; I + 1 < A.size(); ++I)
      Pattern.push_back(~A[I]);
    Pattern.push_back(A.back());
    Result = mkAndMany(Pattern);
    break;
  }
  case Kind::BvSAddO:
  case Kind::BvSSubO: {
    Word A = encodeBv(Manager.child(T, 0));
    Word B = encodeBv(Manager.child(T, 1));
    unsigned Wide = static_cast<unsigned>(A.size()) + 1;
    Word ExtA = sextWord(A, Wide);
    Word ExtB = sextWord(B, Wide);
    Word Sum;
    if (K == Kind::BvSAddO) {
      Sum = addWords(ExtA, ExtB, falseLit(), nullptr);
    } else {
      Word Flipped(ExtB.size());
      for (size_t I = 0; I < ExtB.size(); ++I)
        Flipped[I] = ~ExtB[I];
      Sum = addWords(ExtA, Flipped, TrueLit, nullptr);
    }
    // Overflow iff the top two bits of the widened result disagree.
    Result = mkXor(Sum[Wide - 1], Sum[Wide - 2]);
    break;
  }
  case Kind::BvSMulO: {
    Word A = encodeBv(Manager.child(T, 0));
    Word B = encodeBv(Manager.child(T, 1));
    unsigned Width = static_cast<unsigned>(A.size());
    unsigned Wide = 2 * Width;
    Word Product = mulWords(sextWord(A, Wide), sextWord(B, Wide));
    // Fits iff bits [Width-1 .. 2*Width-1] are all equal (sign extension).
    std::vector<Lit> SameAsSign;
    Lit Sign = Product[Width - 1];
    for (unsigned I = Width; I < Wide; ++I)
      SameAsSign.push_back(~mkXor(Product[I], Sign));
    Result = ~mkAndMany(SameAsSign);
    break;
  }
  case Kind::BvSDivO: {
    // Overflows only for INT_MIN / -1.
    Word A = encodeBv(Manager.child(T, 0));
    Word B = encodeBv(Manager.child(T, 1));
    std::vector<Lit> MinPattern;
    for (size_t I = 0; I + 1 < A.size(); ++I)
      MinPattern.push_back(~A[I]);
    MinPattern.push_back(A.back());
    Lit IsMin = mkAndMany(MinPattern);
    std::vector<Lit> OnesPattern;
    for (Lit L : B)
      OnesPattern.push_back(L);
    Lit IsMinusOne = mkAndMany(OnesPattern);
    Result = mkAnd(IsMin, IsMinusOne);
    break;
  }
  default:
    assert(false && "unsupported boolean term in bit-blaster");
    Result = falseLit();
    break;
  }

  BoolCache.emplace(T.id(), Result);
  return Result;
}

void BitBlaster::assertTrue(Term T) { Solver.addUnit(encodeBool(T)); }

//===--------------------------------------------------------------------===//
// Cross-query shared-cache path (solver/CrossCache.h).
//===--------------------------------------------------------------------===//

void BitBlaster::assertTrueShared(Term T, SharedSolveCaches &Caches) {
  if (!Digests)
    Digests = std::make_unique<DigestComputer>(
        Manager, Caches.InjectBadDigest
                     ? DigestComputer::Mode::IgnoreConstants
                     : DigestComputer::Mode::Exact);
  TermDigest D = Digests->digest(T);
  BlastKey Key{D.Hash, D.MaxBitVecWidth};

  std::shared_ptr<const ClauseTemplate> Learnts;
  std::shared_ptr<const BlastTemplate> Template = Caches.Blast.lookup(Key);
  if (Template) {
    ++CrossHits;
    Learnts = Caches.Clauses.lookup(Key);
  } else {
    ++CrossMisses;
    Template = buildTemplate(T, Caches, Key);
    if (!Template) {
      assertTrue(T); // Unsupported shape; direct path is always correct.
      return;
    }
  }
  spliceTemplate(*Template, Learnts ? &Learnts->Clauses : nullptr);
}

std::shared_ptr<const BlastTemplate>
BitBlaster::buildTemplate(Term T, SharedSolveCaches &Caches,
                          const BlastKey &Key) {
  std::vector<Term> Variables = Manager.collectVariables(T);
  for (Term Var : Variables)
    if (!Manager.sort(Var).isBool() && !Manager.sort(Var).isBitVec())
      return nullptr; // Unbounded-sort variable: not a blastable assertion.

  // Blast the group alone into a scratch solver the way direct blasting
  // would: conjunct by conjunct, range atoms first, each asserted as soon
  // as it is encoded. Level-0 propagation then pins the bounded bits and
  // discharges most of the later circuits' clauses at add time.
  std::vector<Term> Conjuncts = {T};
  if (Manager.kind(T) == Kind::And)
    Conjuncts = Manager.childrenCopy(T);
  std::stable_partition(Conjuncts.begin(), Conjuncts.end(), [&](Term C) {
    return rangeAtomVariable(Manager, C).isValid();
  });
  SatSolver Scratch;
  BitBlaster ScratchBlaster(Manager, Scratch);
  bool Consistent = true;
  for (Term C : Conjuncts)
    if (!Scratch.addUnit(ScratchBlaster.encodeBool(C))) {
      Consistent = false;
      break;
    }

  auto Built = std::make_shared<BlastTemplate>();
  Built->NumVars = BlastTemplate::ConstantVar;
  if (!Consistent) {
    // The group is unsatisfiable on its own; an empty clause is the
    // smallest template that reproduces that in any host.
    Built->Clauses.add({});
    Caches.Blast.insert(Key, Built);
    return Built;
  }

  std::vector<TemplateVarBinding> Bindings;
  for (Term Var : Variables) {
    TemplateVarBinding Binding;
    Binding.Name = Manager.variableName(Var);
    if (Manager.sort(Var).isBool()) {
      Binding.Bits = {ScratchBlaster.encodeBool(Var)};
    } else {
      Binding.Width = Manager.sort(Var).bitVecWidth();
      Binding.Bits = ScratchBlaster.encodeBv(Var);
    }
    Bindings.push_back(std::move(Binding));
  }

  // Renumber: every level-0 fixed variable folds into the constant, and
  // the free variables a clause or binding uses become 2..NumVars in
  // scratch order, which keeps circuit inputs ahead of gate outputs.
  std::vector<std::vector<Lit>> Clauses = Scratch.copySimplifiedClauses();
  std::vector<bool> Used(Scratch.numVars() + 1, false);
  for (const std::vector<Lit> &Clause : Clauses)
    for (Lit L : Clause)
      Used[L.var()] = true;
  for (const TemplateVarBinding &Binding : Bindings)
    for (Lit L : Binding.Bits)
      Used[L.var()] = true;
  const Lit Constant(BlastTemplate::ConstantVar, false);
  std::vector<Lit> Local(Scratch.numVars() + 1); // Lit(): not numbered.
  for (unsigned Var = 1; Var <= Scratch.numVars(); ++Var) {
    LBool Fixed = Scratch.value(Lit(Var, false));
    if (Fixed != LBool::Undef)
      Local[Var] = Fixed == LBool::True ? Constant : ~Constant;
    else if (Used[Var])
      Local[Var] = Lit(++Built->NumVars, false);
  }
  auto ToLocal = [&](Lit L) {
    Lit Mapped = Local[L.var()];
    return L.negated() ? ~Mapped : Mapped;
  };

  size_t TotalLits = 0;
  for (const std::vector<Lit> &Clause : Clauses)
    TotalLits += Clause.size() + 1;
  Built->Clauses.Lits.reserve(TotalLits);
  std::vector<Lit> Mapped;
  for (const std::vector<Lit> &Clause : Clauses) {
    Mapped.clear();
    for (Lit L : Clause)
      Mapped.push_back(ToLocal(L));
    Built->Clauses.add(Mapped);
  }
  for (TemplateVarBinding &Binding : Bindings)
    for (Lit &L : Binding.Bits)
      L = ToLocal(L);
  Built->Vars = std::move(Bindings);

  // Probe: a bounded solve of this one group whose learnt clauses are
  // implied by the group ALONE — unlike learnts from a full query solve,
  // these are sound in any query containing the group, which is what
  // makes a cross-query clause store possible. A learnt that mentions a
  // variable the template dropped or folded is left out.
  if (Caches.ProbeConflicts > 0) {
    SatBudget Probe;
    Probe.MaxConflicts = Caches.ProbeConflicts;
    Scratch.solve(Probe);
    auto Stored = std::make_shared<ClauseTemplate>();
    for (const std::vector<Lit> &Learnt : Scratch.copyLearnts(
             Caches.MaxStoredClauses, Caches.MaxStoredClauseLits)) {
      Mapped.clear();
      for (Lit L : Learnt) {
        Lit M = ToLocal(L);
        if (M.var() <= BlastTemplate::ConstantVar)
          break;
        Mapped.push_back(M);
      }
      if (Mapped.size() == Learnt.size())
        Stored->Clauses.add(Mapped);
    }
    if (Stored->Clauses.Count > 0)
      Caches.Clauses.insert(Key, std::move(Stored));
  }

  Caches.Blast.insert(Key, Built);
  return Built;
}

void BitBlaster::spliceTemplate(const BlastTemplate &Template,
                                const ClauseList *Learnts) {
  // Substitute: Map[v] is the host literal local variable v stands for
  // (Lit() until bound). The constant is the host's true literal; a
  // variable's bits bind to the host's encoding when it has one.
  std::vector<Lit> Map(Template.NumVars + 1);
  Map[BlastTemplate::ConstantVar] = TrueLit;
  auto Bind = [&](Lit LocalLit, Lit Host) {
    Lit &Slot = Map[LocalLit.var()];
    Lit Want = LocalLit.negated() ? ~Host : Host;
    if (!Slot.var()) {
      Slot = Want;
    } else if (Slot != Want) {
      // One local variable bound twice (e.g. a bit this group fixes that
      // the host encodes as a free variable): bridge the two.
      Solver.addBinary(~Slot, Want);
      Solver.addBinary(Slot, ~Want);
    }
  };

  // Variables the host does not encode yet adopt the template's bits,
  // once every local variable has a host literal.
  std::vector<std::pair<Term, const TemplateVarBinding *>> Adopt;
  for (const TemplateVarBinding &Binding : Template.Vars) {
    Term Var = Manager.lookupVariable(Binding.Name);
    if (!Var.isValid())
      continue; // Possible only under digest fault injection.
    Sort S = Manager.sort(Var);
    if (Binding.Width == 0 && S.isBool()) {
      auto Found = BoolCache.find(Var.id());
      if (Found == BoolCache.end())
        Adopt.push_back({Var, &Binding});
      else
        Bind(Binding.Bits[0], Found->second);
    } else if (S.isBitVec() && S.bitVecWidth() == Binding.Width) {
      auto Found = BvCache.find(Var.id());
      if (Found == BvCache.end())
        Adopt.push_back({Var, &Binding});
      else
        for (size_t I = 0; I < Binding.Bits.size(); ++I)
          Bind(Binding.Bits[I], Found->second[I]);
    }
    // Width mismatch: leave unbound (digest fault injection territory).
  }
  for (unsigned Var = BlastTemplate::ConstantVar + 1; Var <= Template.NumVars;
       ++Var)
    if (!Map[Var].var())
      Map[Var] = fresh();
  auto ToHost = [&Map](Lit L) {
    Lit Host = Map[L.var()];
    return L.negated() ? ~Host : Host;
  };
  for (const auto &[Var, Binding] : Adopt) {
    Word Bits;
    Bits.reserve(Binding->Bits.size());
    for (Lit L : Binding->Bits)
      Bits.push_back(ToHost(L));
    if (Binding->Width == 0)
      BoolCache.emplace(Var.id(), Bits[0]);
    else
      BvCache.emplace(Var.id(), std::move(Bits));
  }

  auto AddMapped = [&](const Lit *Begin, const Lit *End) {
    std::vector<Lit> Clause;
    Clause.reserve(static_cast<size_t>(End - Begin));
    for (const Lit *L = Begin; L != End; ++L)
      Clause.push_back(ToHost(*L));
    Solver.addClause(std::move(Clause));
  };
  Template.Clauses.forEach(AddMapped);
  if (Learnts) {
    Learnts->forEach(AddMapped);
    CrossClausesReused += Learnts->Count;
  }
}

Model BitBlaster::extractModel(const std::vector<Term> &Variables) const {
  Model Result;
  for (Term Var : Variables) {
    Sort S = Manager.sort(Var);
    if (S.isBool()) {
      auto Found = BoolCache.find(Var.id());
      if (Found == BoolCache.end()) {
        Result.set(Var, Value(false)); // Unconstrained: any value works.
        continue;
      }
      Lit L = Found->second;
      bool Val = Solver.modelValue(L.var()) != L.negated();
      Result.set(Var, Value(Val));
      continue;
    }
    assert(S.isBitVec() && "model extraction for unsupported sort");
    auto Found = BvCache.find(Var.id());
    if (Found == BvCache.end()) {
      Result.set(Var, Value(BitVecValue(S.bitVecWidth())));
      continue;
    }
    BigInt Bits;
    for (size_t I = 0; I < Found->second.size(); ++I) {
      Lit L = Found->second[I];
      bool BitVal;
      if (L.var() == 0)
        BitVal = false;
      else
        BitVal = Solver.modelValue(L.var()) != L.negated();
      if (BitVal)
        Bits += BigInt::pow2(static_cast<unsigned>(I));
    }
    Result.set(Var, Value(BitVecValue(S.bitVecWidth(), Bits)));
  }
  return Result;
}
