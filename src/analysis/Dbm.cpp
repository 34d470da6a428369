//===- analysis/Dbm.cpp - Difference-bound matrix core --------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dbm.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <type_traits>

using namespace staub;
using namespace staub::analysis;

namespace {

constexpr int64_t Absent = INT64_MAX;

/// The int64 scale is always a multiple of this: strong closure halves
/// sums twice, and a factor 4 keeps both halvings exact.
constexpr int64_t ScaleUnit = 4;

// Weight-type primitives. Each closure step below is written once over
// these: a cell is an int64_t scaled weight (absent = INT64_MAX) or an
// optional Rational. The int64 overloads return false where a result
// would not fit; the Rational ones never fail.

bool present(int64_t W) { return W != Absent; }
bool present(const std::optional<Rational> &W) { return W.has_value(); }

int64_t value(int64_t W) { return W; }
const Rational &value(const std::optional<Rational> &W) { return *W; }

template <typename Cell>
using WeightOf =
    std::remove_cvref_t<decltype(value(std::declval<const Cell &>()))>;

bool add(int64_t A, int64_t B, int64_t &Out) {
  return !__builtin_add_overflow(A, B, &Out) && Out != Absent;
}
bool add(const Rational &A, const Rational &B, Rational &Out) {
  Out = A + B;
  return true;
}

/// True when \p V is a strictly tighter bound than cell \p W.
bool improves(int64_t V, int64_t W) { return V < W; }
bool improves(const Rational &V, const std::optional<Rational> &W) {
  return !W || V < *W;
}

bool halve(int64_t Sum, int64_t &Out) {
  if (Sum % 2 != 0)
    return false;
  Out = Sum / 2;
  return true;
}
bool halve(const Rational &Sum, Rational &Out) {
  Out = Sum / Rational(2);
  return true;
}

/// floor(w / 2) * 2 for the bound w the weight stands for.
bool evenFloor(int64_t V, int64_t Scale, int64_t &Out) {
  int64_t Unit = 2 * Scale;
  int64_t Quot = V / Unit;
  if (V % Unit != 0 && V < 0)
    --Quot;
  return !__builtin_mul_overflow(Quot, Unit, &Out);
}
bool evenFloor(const Rational &V, int64_t /*Scale*/, Rational &Out) {
  Out = Rational((V / Rational(2)).floor()) * Rational(2);
  return true;
}

bool negative(int64_t V) { return V < 0; }
bool negative(const Rational &V) { return V.isNegative(); }

/// A + B < W, exactly (W absent = +infinity).
bool sumBelow(int64_t A, int64_t B, int64_t W) {
  return !present(W) || static_cast<__int128>(A) + B < W;
}
bool sumBelow(const Rational &A, const Rational &B,
              const std::optional<Rational> &W) {
  return !W || A + B < *W;
}

/// Floyd-Warshall in place. Every operand is read from the matrix at its
/// use, so entries updated under the current pivot feed the later
/// relaxations exactly as in the textbook loop. On every strict
/// improvement the edge's provenance (\p Words bitset words per edge,
/// none when untracked) becomes the union of both legs'.
template <typename Cell>
bool relax(std::vector<Cell> &W, unsigned N, std::vector<uint64_t> &Sources,
           unsigned Words, bool SkipLastPivot) {
  WeightOf<Cell> Via{};
  for (unsigned K = 0; K < N; ++K) {
    if (SkipLastPivot && K + 1 == N)
      continue;
    for (unsigned I = 0; I < N; ++I) {
      size_t IK = size_t(I) * N + K;
      if (!present(W[IK]))
        continue;
      for (unsigned J = 0; J < N; ++J) {
        size_t KJ = size_t(K) * N + J;
        if (!present(W[KJ]))
          continue;
        if (!add(value(W[IK]), value(W[KJ]), Via))
          return false;
        size_t IJ = size_t(I) * N + J;
        if (!improves(Via, W[IJ]))
          continue;
        W[IJ] = Via;
        for (unsigned Wd = 0; Wd < Words; ++Wd)
          Sources[IJ * Words + Wd] =
              Sources[IK * Words + Wd] | Sources[KJ * Words + Wd];
      }
    }
  }
  return true;
}

/// The octagonal strengthening step D(i,j) <= (D(i,bar i) + D(bar j,j))/2.
template <typename Cell> bool strengthen(std::vector<Cell> &W, unsigned N) {
  WeightOf<Cell> Sum{}, Half{};
  for (unsigned I = 0; I < N; ++I) {
    size_t II = size_t(I) * N + (I ^ 1u);
    if (!present(W[II]))
      continue;
    for (unsigned J = 0; J < N; ++J) {
      if (J == I)
        continue;
      size_t JJ = size_t(J ^ 1u) * N + J;
      if (!present(W[JJ]))
        continue;
      if (!add(value(W[II]), value(W[JJ]), Sum) || !halve(Sum, Half))
        return false;
      size_t IJ = size_t(I) * N + J;
      if (improves(Half, W[IJ]))
        W[IJ] = Half;
    }
  }
  return true;
}

/// D(+x, -x) = 2*sup(x) must be an even integer for integral x.
template <typename Cell>
bool tightenEven(std::vector<Cell> &W, unsigned N,
                 const std::vector<bool> &IntPairs, int64_t Scale) {
  WeightOf<Cell> Even{};
  for (unsigned K = 0; K < IntPairs.size(); ++K) {
    if (!IntPairs[K])
      continue;
    for (unsigned Node : {K * 2, K * 2 + 1}) {
      size_t Idx = size_t(Node) * N + (Node ^ 1u);
      if (!present(W[Idx]))
        continue;
      if (!evenFloor(value(W[Idx]), Scale, Even))
        return false;
      if (improves(Even, W[Idx]))
        W[Idx] = Even;
    }
  }
  return true;
}

template <typename Cell>
bool negativeDiagonal(const std::vector<Cell> &W, unsigned N) {
  for (unsigned I = 0; I < N; ++I) {
    const Cell &D = W[size_t(I) * N + I];
    if (present(D) && negative(value(D)))
      return true;
  }
  return false;
}

template <typename Cell>
bool triangleHolds(const std::vector<Cell> &W, unsigned N) {
  for (unsigned K = 0; K < N; ++K)
    for (unsigned I = 0; I < N; ++I) {
      const Cell &WIK = W[size_t(I) * N + K];
      if (!present(WIK))
        continue;
      for (unsigned J = 0; J < N; ++J) {
        const Cell &WKJ = W[size_t(K) * N + J];
        if (present(WKJ) &&
            sumBelow(value(WIK), value(WKJ), W[size_t(I) * N + J]))
          return false;
      }
    }
  return true;
}

} // namespace

Dbm::Dbm(unsigned NumNodes, bool ExactWeights)
    : N(NumNodes), Exact(ExactWeights), Scale(ScaleUnit),
      // No sum of 2N edges of magnitude <= Limit overflows, which covers
      // every relaxation of a consistent closure (two shortest paths).
      Limit((INT64_MAX - 1) / (2 * int64_t(std::max(NumNodes, 1u)))) {
  size_t Cells = size_t(N) * N;
  if (Exact) {
    Weights.resize(Cells);
    for (unsigned I = 0; I < N; ++I)
      Weights[size_t(I) * N + I] = Rational(0);
  } else {
    Scaled.assign(Cells, Absent);
    for (unsigned I = 0; I < N; ++I)
      Scaled[size_t(I) * N + I] = 0;
  }
}

unsigned Dbm::sourceBit(unsigned Root) {
  auto [It, Inserted] = RootBit.try_emplace(Root, unsigned(Roots.size()));
  if (!Inserted)
    return It->second;
  unsigned Bit = It->second;
  Roots.push_back(Root);
  if (Bit / 64 >= SourceWords) {
    // Re-lay every edge's bitset out one word wider.
    unsigned Wider = SourceWords + 1;
    std::vector<uint64_t> Grown(size_t(N) * N * Wider, 0);
    for (size_t Idx = 0; Idx < size_t(N) * N; ++Idx)
      std::copy_n(Sources.begin() + Idx * SourceWords, SourceWords,
                  Grown.begin() + Idx * Wider);
    Sources = std::move(Grown);
    SourceWords = Wider;
  }
  return Bit;
}

void Dbm::addSources(size_t Idx, const std::set<unsigned> &Srcs) {
  for (unsigned Root : Srcs) {
    unsigned Bit = sourceBit(Root);
    Sources[Idx * SourceWords + Bit / 64] |= uint64_t(1) << (Bit % 64);
  }
}

void Dbm::decodeSources(size_t Off, std::set<unsigned> &Out) const {
  for (unsigned Wd = 0; Wd < SourceWords; ++Wd)
    for (uint64_t Bits = Sources[Off + Wd]; Bits; Bits &= Bits - 1)
      Out.insert(Roots[Wd * 64 + unsigned(__builtin_ctzll(Bits))]);
}

Rational Dbm::unscale(int64_t W) const {
  return Rational(BigInt(W), BigInt(Scale));
}

std::optional<int64_t> Dbm::scaled(const Rational &C) {
  std::optional<int64_t> Num = C.numerator().toInt64();
  std::optional<int64_t> Den = C.denominator().toInt64();
  if (!Num || !Den)
    return std::nullopt;
  // Scale = ScaleUnit * lcm(denominators seen); a new denominator grows
  // it and rescales every stored weight by the same factor.
  int64_t Lcm = Scale / ScaleUnit;
  if (Lcm % *Den != 0) {
    int64_t Factor = *Den / std::gcd(Lcm, *Den);
    int64_t NewScale;
    if (__builtin_mul_overflow(Scale, Factor, &NewScale) || NewScale > Limit)
      return std::nullopt;
    int64_t Room = Limit / Factor;
    for (int64_t W : Scaled)
      if (present(W) && (W > Room || W < -Room))
        return std::nullopt;
    for (int64_t &W : Scaled)
      if (present(W))
        W *= Factor;
    Scale = NewScale;
  }
  int64_t Out;
  if (__builtin_mul_overflow(*Num, Scale / *Den, &Out) || Out > Limit ||
      Out < -Limit)
    return std::nullopt;
  return Out;
}

void Dbm::toExact() {
  Weights.assign(Scaled.size(), std::nullopt);
  for (size_t Idx = 0; Idx < Scaled.size(); ++Idx)
    if (present(Scaled[Idx]))
      Weights[Idx] = unscale(Scaled[Idx]);
  Scaled.clear();
  Exact = true;
}

template <typename BodyT> void Dbm::runExact(BodyT Body) {
  if (!Exact) {
    std::vector<int64_t> Start = Scaled;
    std::vector<uint64_t> StartSources = Sources;
    if (Body(Scaled))
      return;
    Scaled = std::move(Start);
    Sources = std::move(StartSources);
    toExact();
  }
  [[maybe_unused]] bool Done = Body(Weights);
  assert(Done && "Rational closure cannot overflow");
}

void Dbm::tighten(unsigned I, unsigned J, const Rational &C,
                  const std::set<unsigned> &Srcs) {
  size_t Idx = size_t(I) * N + J;
  std::optional<int64_t> S;
  if (!Exact) {
    S = scaled(C);
    if (!S)
      toExact();
  }
  bool Tighter, Equal;
  if (Exact) {
    std::optional<Rational> &W = Weights[Idx];
    Tighter = !W || C < *W;
    Equal = !Tighter && C == *W;
    if (Tighter)
      W = C;
  } else {
    int64_t &W = Scaled[Idx];
    Tighter = *S < W;
    Equal = *S == W;
    if (Tighter)
      W = *S;
  }
  if (Tighter || Equal) {
    if (Tighter)
      std::fill_n(Sources.begin() + Idx * SourceWords, SourceWords, 0);
    addSources(Idx, Srcs);
  }
  if (I == J && C.isNegative())
    Consistent = false;
}

std::optional<Rational> Dbm::at(unsigned I, unsigned J) const {
  size_t Idx = size_t(I) * N + J;
  if (Exact)
    return Weights[Idx];
  if (!present(Scaled[Idx]))
    return std::nullopt;
  return unscale(Scaled[Idx]);
}

Rational Dbm::minOutgoing(unsigned I) const {
  if (Exact) {
    Rational D(0);
    for (unsigned K = 0; K < N; ++K)
      if (const std::optional<Rational> &W = Weights[size_t(I) * N + K];
          W && *W < D)
        D = *W;
    return D;
  }
  int64_t D = 0;
  for (unsigned K = 0; K < N; ++K)
    D = std::min(D, Scaled[size_t(I) * N + K]);
  return unscale(D);
}

std::set<unsigned> Dbm::sourcesAt(unsigned I, unsigned J) const {
  std::set<unsigned> Out;
  decodeSources((size_t(I) * N + J) * SourceWords, Out);
  return Out;
}

bool Dbm::close(bool InjectSkipLastPivot) {
  bool NegativeCycle = false;
  runExact([&](auto &W) {
    if (!relax(W, N, Sources, SourceWords, InjectSkipLastPivot))
      return false;
    NegativeCycle = negativeDiagonal(W, N);
    return true;
  });
  if (NegativeCycle)
    Consistent = false;
  return Consistent;
}

bool Dbm::strongClose(const std::vector<bool> &IntPairs) {
  assert(SourceWords == 0 && "strong closure keeps no provenance");
  // Two strengthening rounds lose only precision, never soundness; the
  // trailing Floyd-Warshall pass restores triangle consistency.
  bool NegativeCycle = false;
  runExact([&](auto &W) {
    NegativeCycle = false;
    for (unsigned Round = 0; Round < 3; ++Round) {
      if (Round > 0 &&
          (!strengthen(W, N) || !tightenEven(W, N, IntPairs, Scale)))
        return false;
      if (!relax(W, N, Sources, SourceWords, /*SkipLastPivot=*/false))
        return false;
      NegativeCycle = negativeDiagonal(W, N);
      if (NegativeCycle || !Consistent)
        return true;
    }
    return true;
  });
  if (NegativeCycle)
    Consistent = false;
  return Consistent;
}

bool Dbm::negativeAt(size_t Idx) const {
  if (Exact)
    return Weights[Idx] && Weights[Idx]->isNegative();
  return Scaled[Idx] < 0;
}

std::set<unsigned> Dbm::negativeCycleSources() const {
  std::set<unsigned> Out;
  for (unsigned I = 0; I < N; ++I) {
    size_t Idx = size_t(I) * N + I;
    if (negativeAt(Idx))
      decodeSources(Idx * SourceWords, Out);
  }
  return Out;
}

bool Dbm::triangleConsistent() const {
  return Exact ? triangleHolds(Weights, N) : triangleHolds(Scaled, N);
}

Dbm Dbm::widen(const Dbm &A, const Dbm &B) {
  Dbm Out = A;
  Out.Consistent = true;
  for (unsigned I = 0; I < A.N; ++I)
    for (unsigned J = 0; J < A.N; ++J) {
      std::optional<Rational> WA = A.at(I, J);
      std::optional<Rational> WB = B.at(I, J);
      if (WA && WB && *WB <= *WA)
        continue; // Keeps A's bound and provenance.
      size_t Idx = size_t(I) * A.N + J;
      if (Out.Exact)
        Out.Weights[Idx] =
            I == J ? std::optional<Rational>(Rational(0)) : std::nullopt;
      else
        Out.Scaled[Idx] = I == J ? 0 : Absent;
      std::fill_n(Out.Sources.begin() + Idx * Out.SourceWords,
                  Out.SourceWords, 0);
    }
  return Out;
}
