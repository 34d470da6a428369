//===- analysis/Dbm.h - Difference-bound matrix core ------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared difference-bound-matrix core under the relational domains
/// (analysis/Zone.h, analysis/Octagon.h). A DBM over N nodes stores, for
/// every ordered pair (i, j), an upper bound on v_i - v_j (absent =
/// unbounded). Floyd-Warshall closure computes the tightest entailed
/// bounds; a negative diagonal entry after closure is a negative cycle,
/// i.e. the conjunction of the recorded constraints is unsatisfiable.
///
/// Weights are exact. While every bound is a multiple of 1/Scale whose
/// scaled magnitude stays under a limit at which no sum of 2N edges can
/// overflow, they are stored as int64_t numerators over one common
/// Scale; otherwise (or when a closure step would overflow) the matrix
/// falls back to Rational weights. One closure loop, templated on the
/// weight type, serves both, so the two give identical bounds.
///
/// A DBM carries provenance when its constraints come with sources: the
/// set of original assertion indices that contributed to each edge's
/// bound, unioned along relaxations, so a negative cycle names the exact
/// assertions of the unsat certificate and a projected interval names
/// the assertions that narrowed a variable. The sets are stored as one
/// bitset per edge over the distinct indices seen, so a union is a
/// word-wise OR.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_DBM_H
#define STAUB_ANALYSIS_DBM_H

#include "support/Rational.h"

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

namespace staub::analysis {

/// A difference-bound matrix with per-edge provenance. Closure is
/// explicit (close() / strongClose()); queries on an unclosed matrix see
/// the raw constraints only.
class Dbm {
public:
  /// \p ExactWeights runs on Rational weights throughout: the reference
  /// the int64 kernel must match.
  explicit Dbm(unsigned NumNodes, bool ExactWeights = false);

  unsigned size() const { return N; }

  /// Records v_I - v_J <= C, keeping the tighter of the old and new
  /// bound. \p Sources are the assertion indices justifying the bound;
  /// an equally-tight re-record still unions provenance.
  void tighten(unsigned I, unsigned J, const Rational &C,
               const std::set<unsigned> &Sources = {});

  /// The current bound on v_I - v_J (absent = unbounded).
  std::optional<Rational> at(unsigned I, unsigned J) const;

  /// min(0, min_K at(I, K)): node I's shortest outgoing distance, the
  /// basis of shortest-path potentials.
  Rational minOutgoing(unsigned I) const;

  /// Provenance of at(I, J).
  std::set<unsigned> sourcesAt(unsigned I, unsigned J) const;

  /// Floyd-Warshall closure. Returns false (and marks the matrix
  /// inconsistent) when a negative cycle exists. \p InjectSkipLastPivot
  /// deliberately drops every relaxation through the last pivot node —
  /// the --inject=bad-closure mutant. Under-closure is sound (bounds only
  /// get weaker), so only the triangleConsistent() self-check can expose
  /// it.
  bool close(bool InjectSkipLastPivot = false);

  /// Octagonal strong closure over signed node pairs (2k, 2k+1):
  /// Floyd-Warshall, then twice the strengthening step
  /// D(i,j) <= (D(i, bar i) + D(bar j, j))/2 plus, for each pair k with
  /// \p IntPairs[k], even-tightening of the doubled unary bounds, each
  /// followed by Floyd-Warshall so the result is triangle-consistent.
  /// Stops at the first inconsistency. Does not maintain provenance, so
  /// it is for matrices whose constraints carry no sources.
  bool strongClose(const std::vector<bool> &IntPairs);

  /// False once closure found a negative cycle.
  bool consistent() const { return Consistent; }

  /// True while the weights are scaled int64 (false after a fallback to
  /// Rational, or with ExactWeights).
  bool machineWeights() const { return !Exact; }

  /// Assertion indices on some negative cycle (empty when consistent).
  std::set<unsigned> negativeCycleSources() const;

  /// True when every triangle inequality D(i,j) <= D(i,k) + D(k,j)
  /// holds — the defining property of an honestly closed consistent DBM.
  bool triangleConsistent() const;

  /// Standard DBM widening: keeps A's bound where B's still satisfies
  /// it and drops to unbounded where B exceeds it. Iterating
  /// widen(A, join-with-new-state) terminates because bounds can only be
  /// dropped, never tightened.
  static Dbm widen(const Dbm &A, const Dbm &B);

private:
  /// Stores \p C as a scaled int64 if it (and any rescaling of the
  /// stored weights it needs) stays under Limit.
  std::optional<int64_t> scaled(const Rational &C);
  /// The bound a present scaled weight stands for.
  Rational unscale(int64_t W) const;
  /// Converts the scaled weights to Rational for good.
  void toExact();
  /// Runs \p Body on the current weights; when it reports an int64
  /// overflow, restores the weights (and sources) it started from,
  /// switches to Rational and runs it again.
  template <typename BodyT> void runExact(BodyT Body);
  bool negativeAt(size_t Idx) const;
  /// The provenance bit of assertion index \p Root, adding one (and
  /// widening every edge's bitset) on first sight.
  unsigned sourceBit(unsigned Root);
  /// Adds \p Srcs to edge \p Idx's provenance.
  void addSources(size_t Idx, const std::set<unsigned> &Srcs);
  /// Decodes the bitset at word offset \p Off into \p Out.
  void decodeSources(size_t Off, std::set<unsigned> &Out) const;

  unsigned N;
  bool Exact;
  /// Scaled weights (while !Exact): bound = Scaled[i] / Scale, absent =
  /// INT64_MAX. Every present magnitude starts at most Limit.
  std::vector<int64_t> Scaled;
  int64_t Scale;
  int64_t Limit;
  /// Rational weights (once Exact); absent = +infinity.
  std::vector<std::optional<Rational>> Weights;
  /// Row-major N x N provenance bitsets, SourceWords words per edge;
  /// bit b stands for assertion index Roots[b]. Empty until some
  /// constraint comes with sources.
  std::vector<uint64_t> Sources;
  unsigned SourceWords = 0;
  std::vector<unsigned> Roots;
  std::unordered_map<unsigned, unsigned> RootBit;
  bool Consistent = true;
};

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_DBM_H
