//===- theory/Evaluator.cpp - Exact term evaluation -----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "theory/Evaluator.h"

#include <cassert>

using namespace staub;

namespace {

/// Evaluation engine with DAG memoization. "Undefined" results (division
/// by zero, unbound variables) poison everything above them.
class Evaluator {
public:
  Evaluator(const TermManager &Manager, const Model &M)
      : Manager(Manager), M(M) {}

  std::optional<Value> eval(Term T);

private:
  const TermManager &Manager;
  const Model &M;
  std::unordered_map<uint32_t, std::optional<Value>> Memo;

  std::optional<Value> evalNode(Term T);
  std::optional<Value> evalLeaf(Term T);
  std::optional<Value> evalNumeric(Kind K, Term T);
  std::optional<Value> evalBitVec(Kind K, Term T);
  std::optional<Value> evalFp(Kind K, Term T);
};

std::optional<Value> Evaluator::eval(Term T) {
  auto Found = Memo.find(T.id());
  if (Found != Memo.end())
    return Found->second;
  std::optional<Value> Result = evalNode(T);
  Memo.emplace(T.id(), Result);
  return Result;
}

std::optional<Value> Evaluator::evalLeaf(Term T) {
  switch (Manager.kind(T)) {
  case Kind::ConstBool:
    return Value(Manager.boolValue(T));
  case Kind::ConstInt:
    return Value(Manager.intValue(T));
  case Kind::ConstReal:
    return Value(Manager.realValue(T));
  case Kind::ConstBitVec:
    return Value(Manager.bitVecValue(T));
  case Kind::ConstFp:
    return Value(Manager.fpValue(T));
  case Kind::Variable: {
    const Value *Bound = M.get(T);
    if (!Bound)
      return std::nullopt;
    return *Bound;
  }
  default:
    assert(false && "not a leaf");
    return std::nullopt;
  }
}

std::optional<Value> Evaluator::evalNumeric(Kind K, Term T) {
  auto Children = Manager.children(T);
  bool IsInt = Manager.sort(Children[0]).isInt();

  // Gather evaluated operands.
  std::vector<Value> Args;
  Args.reserve(Children.size());
  for (Term Child : Children) {
    auto V = eval(Child);
    if (!V)
      return std::nullopt;
    Args.push_back(std::move(*V));
  }

  auto CmpInt = [&](const BigInt &A, const BigInt &B) -> bool {
    switch (K) {
    case Kind::Le:
      return A <= B;
    case Kind::Lt:
      return A < B;
    case Kind::Ge:
      return A >= B;
    case Kind::Gt:
      return A > B;
    default:
      assert(false && "not a comparison");
      return false;
    }
  };
  auto CmpReal = [&](const Rational &A, const Rational &B) -> bool {
    switch (K) {
    case Kind::Le:
      return A <= B;
    case Kind::Lt:
      return A < B;
    case Kind::Ge:
      return A >= B;
    case Kind::Gt:
      return A > B;
    default:
      assert(false && "not a comparison");
      return false;
    }
  };

  switch (K) {
  case Kind::Neg:
    if (IsInt)
      return Value(Args[0].asInt().negated());
    return Value(Args[0].asReal().negated());
  case Kind::IntAbs:
    return Value(Args[0].asInt().abs());
  case Kind::Add: {
    if (IsInt) {
      BigInt Sum;
      for (const Value &Arg : Args)
        Sum += Arg.asInt();
      return Value(Sum);
    }
    Rational Sum;
    for (const Value &Arg : Args)
      Sum += Arg.asReal();
    return Value(Sum);
  }
  case Kind::Sub: {
    if (IsInt) {
      BigInt Acc = Args[0].asInt();
      for (size_t I = 1; I < Args.size(); ++I)
        Acc -= Args[I].asInt();
      return Value(Acc);
    }
    Rational Acc = Args[0].asReal();
    for (size_t I = 1; I < Args.size(); ++I)
      Acc -= Args[I].asReal();
    return Value(Acc);
  }
  case Kind::Mul: {
    if (IsInt) {
      BigInt Product(1);
      for (const Value &Arg : Args)
        Product *= Arg.asInt();
      return Value(Product);
    }
    Rational Product(1);
    for (const Value &Arg : Args)
      Product *= Arg.asReal();
    return Value(Product);
  }
  case Kind::IntDiv:
    if (Args[1].asInt().isZero())
      return std::nullopt; // Underspecified in SMT-LIB.
    return Value(Args[0].asInt().divEuclid(Args[1].asInt()));
  case Kind::IntMod:
    if (Args[1].asInt().isZero())
      return std::nullopt;
    return Value(Args[0].asInt().modEuclid(Args[1].asInt()));
  case Kind::RealDiv:
    if (Args[1].asReal().isZero())
      return std::nullopt;
    return Value(Args[0].asReal() / Args[1].asReal());
  case Kind::Le:
  case Kind::Lt:
  case Kind::Ge:
  case Kind::Gt:
    if (IsInt)
      return Value(CmpInt(Args[0].asInt(), Args[1].asInt()));
    return Value(CmpReal(Args[0].asReal(), Args[1].asReal()));
  default:
    assert(false && "not an arithmetic kind");
    return std::nullopt;
  }
}

std::optional<Value> Evaluator::evalBitVec(Kind K, Term T) {
  auto Children = Manager.children(T);
  std::vector<BitVecValue> Args;
  Args.reserve(Children.size());
  for (Term Child : Children) {
    auto V = eval(Child);
    if (!V)
      return std::nullopt;
    Args.push_back(V->asBitVec());
  }

  switch (K) {
  case Kind::BvNeg:
    return Value(Args[0].neg());
  case Kind::BvNot:
    return Value(Args[0].bvnot());
  case Kind::BvAdd:
  case Kind::BvSub:
  case Kind::BvMul:
  case Kind::BvAnd:
  case Kind::BvOr:
  case Kind::BvXor: {
    BitVecValue Acc = Args[0];
    for (size_t I = 1; I < Args.size(); ++I) {
      switch (K) {
      case Kind::BvAdd:
        Acc = Acc.add(Args[I]);
        break;
      case Kind::BvSub:
        Acc = Acc.sub(Args[I]);
        break;
      case Kind::BvMul:
        Acc = Acc.mul(Args[I]);
        break;
      case Kind::BvAnd:
        Acc = Acc.bvand(Args[I]);
        break;
      case Kind::BvOr:
        Acc = Acc.bvor(Args[I]);
        break;
      default:
        Acc = Acc.bvxor(Args[I]);
        break;
      }
    }
    return Value(Acc);
  }
  case Kind::BvSDiv:
    return Value(Args[0].sdiv(Args[1]));
  case Kind::BvSRem:
    return Value(Args[0].srem(Args[1]));
  case Kind::BvUDiv:
    return Value(Args[0].udiv(Args[1]));
  case Kind::BvURem:
    return Value(Args[0].urem(Args[1]));
  case Kind::BvShl:
    return Value(Args[0].shl(Args[1]));
  case Kind::BvLshr:
    return Value(Args[0].lshr(Args[1]));
  case Kind::BvAshr:
    return Value(Args[0].ashr(Args[1]));
  case Kind::BvUle:
    return Value(Args[0].ule(Args[1]));
  case Kind::BvUlt:
    return Value(Args[0].ult(Args[1]));
  case Kind::BvUge:
    return Value(Args[1].ule(Args[0]));
  case Kind::BvUgt:
    return Value(Args[1].ult(Args[0]));
  case Kind::BvSle:
    return Value(Args[0].sle(Args[1]));
  case Kind::BvSlt:
    return Value(Args[0].slt(Args[1]));
  case Kind::BvSge:
    return Value(Args[1].sle(Args[0]));
  case Kind::BvSgt:
    return Value(Args[1].slt(Args[0]));
  case Kind::BvConcat:
    return Value(Args[0].concat(Args[1]));
  case Kind::BvExtract:
    return Value(Args[0].extract(Manager.paramA(T), Manager.paramB(T)));
  case Kind::BvZeroExtend:
    return Value(Args[0].zext(Args[0].width() + Manager.paramA(T)));
  case Kind::BvSignExtend:
    return Value(Args[0].sext(Args[0].width() + Manager.paramA(T)));
  case Kind::BvNegO: {
    // Negation overflows exactly for INT_MIN.
    BigInt Min = BigInt::pow2(Args[0].width() - 1).negated();
    return Value(Args[0].toSigned() == Min);
  }
  case Kind::BvSAddO:
    return Value(Args[0].saddOverflow(Args[1]));
  case Kind::BvSSubO:
    return Value(Args[0].ssubOverflow(Args[1]));
  case Kind::BvSMulO:
    return Value(Args[0].smulOverflow(Args[1]));
  case Kind::BvSDivO:
    return Value(Args[0].sdivOverflow(Args[1]));
  default:
    assert(false && "not a bitvector kind");
    return std::nullopt;
  }
}

std::optional<Value> Evaluator::evalFp(Kind K, Term T) {
  auto Children = Manager.children(T);
  std::vector<SoftFloat> Args;
  Args.reserve(Children.size());
  for (Term Child : Children) {
    auto V = eval(Child);
    if (!V)
      return std::nullopt;
    Args.push_back(V->asFp());
  }

  switch (K) {
  case Kind::FpNeg:
    return Value(Args[0].neg());
  case Kind::FpAbs:
    return Value(Args[0].abs());
  case Kind::FpAdd:
    return Value(Args[0].add(Args[1]));
  case Kind::FpSub:
    return Value(Args[0].sub(Args[1]));
  case Kind::FpMul:
    return Value(Args[0].mul(Args[1]));
  case Kind::FpDiv:
    return Value(Args[0].div(Args[1]));
  case Kind::FpLeq:
    return Value(Args[0].lessOrEqual(Args[1]));
  case Kind::FpLt:
    return Value(Args[0].lessThan(Args[1]));
  case Kind::FpGeq:
    return Value(Args[1].lessOrEqual(Args[0]));
  case Kind::FpGt:
    return Value(Args[1].lessThan(Args[0]));
  case Kind::FpEq:
    return Value(Args[0].ieeeEquals(Args[1]));
  case Kind::FpIsNaN:
    return Value(Args[0].isNaN());
  case Kind::FpIsInf:
    return Value(Args[0].isInfinity());
  case Kind::FpIsZero:
    return Value(Args[0].isZero());
  default:
    assert(false && "not a floating-point kind");
    return std::nullopt;
  }
}

std::optional<Value> Evaluator::evalNode(Term T) {
  Kind K = Manager.kind(T);
  switch (K) {
  case Kind::ConstBool:
  case Kind::ConstInt:
  case Kind::ConstReal:
  case Kind::ConstBitVec:
  case Kind::ConstFp:
  case Kind::Variable:
    return evalLeaf(T);

  case Kind::Not: {
    auto V = eval(Manager.child(T, 0));
    if (!V)
      return std::nullopt;
    return Value(!V->asBool());
  }
  case Kind::And: {
    bool SawUndefined = false;
    for (Term Child : Manager.children(T)) {
      auto V = eval(Child);
      if (!V) {
        SawUndefined = true;
        continue;
      }
      if (!V->asBool())
        return Value(false); // Short circuit dominates undefined.
    }
    if (SawUndefined)
      return std::nullopt;
    return Value(true);
  }
  case Kind::Or: {
    bool SawUndefined = false;
    for (Term Child : Manager.children(T)) {
      auto V = eval(Child);
      if (!V) {
        SawUndefined = true;
        continue;
      }
      if (V->asBool())
        return Value(true);
    }
    if (SawUndefined)
      return std::nullopt;
    return Value(false);
  }
  case Kind::Xor: {
    auto A = eval(Manager.child(T, 0));
    auto B = eval(Manager.child(T, 1));
    if (!A || !B)
      return std::nullopt;
    return Value(A->asBool() != B->asBool());
  }
  case Kind::Implies: {
    auto A = eval(Manager.child(T, 0));
    if (A && !A->asBool())
      return Value(true);
    auto B = eval(Manager.child(T, 1));
    if (!A || !B)
      return std::nullopt;
    return Value(B->asBool());
  }
  case Kind::Ite: {
    auto Cond = eval(Manager.child(T, 0));
    if (!Cond)
      return std::nullopt;
    return eval(Manager.child(T, Cond->asBool() ? 1 : 2));
  }
  case Kind::Eq: {
    auto A = eval(Manager.child(T, 0));
    auto B = eval(Manager.child(T, 1));
    if (!A || !B)
      return std::nullopt;
    return Value(A->smtEquals(*B));
  }
  case Kind::Distinct: {
    auto Children = Manager.children(T);
    std::vector<Value> Args;
    for (Term Child : Children) {
      auto V = eval(Child);
      if (!V)
        return std::nullopt;
      Args.push_back(std::move(*V));
    }
    for (size_t I = 0; I < Args.size(); ++I)
      for (size_t J = I + 1; J < Args.size(); ++J)
        if (Args[I].smtEquals(Args[J]))
          return Value(false);
    return Value(true);
  }

  case Kind::Neg:
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::IntDiv:
  case Kind::IntMod:
  case Kind::IntAbs:
  case Kind::RealDiv:
  case Kind::Le:
  case Kind::Lt:
  case Kind::Ge:
  case Kind::Gt:
    return evalNumeric(K, T);

  default:
    if (K >= Kind::BvNeg && K <= Kind::BvSDivO)
      return evalBitVec(K, T);
    return evalFp(K, T);
  }
}

} // namespace

std::optional<Value> staub::evaluate(const TermManager &Manager, Term T,
                                     const Model &M) {
  return Evaluator(Manager, M).eval(T);
}

bool staub::evaluatesToTrue(const TermManager &Manager, Term T,
                            const Model &M) {
  auto V = evaluate(Manager, T, M);
  return V && V->isBool() && V->asBool();
}
