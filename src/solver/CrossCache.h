//===- solver/CrossCache.h - Sharded cross-query solver caches --*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded cross-query caches behind staubd (ROADMAP item 1): a
/// (digest, width)-keyed blast cache of compact CNF templates and a
/// matching learnt-clause store, plus the grouping that decides what one
/// cache entry covers. Keys are canonical structural digests
/// (smtlib/Digest.h), so per-worker TermManager instances share entries
/// without a global interning lock — each worker blasts against its own
/// manager and only the CNF (pure literal vectors) crosses threads.
///
/// A BlastTemplate is the level-0 simplified CNF of ONE assertion group,
/// blasted in a private scratch solver the way direct blasting would
/// blast it: conjunct by conjunct, range atoms first, each asserted as
/// soon as it is encoded. Every variable the scratch solver fixed at
/// level 0 is folded into local variable 1, the constant true, so the
/// template carries no unit clauses and none of those variables; the
/// remaining free variables are renumbered 2..NumVars in blasting order.
/// The template remembers each SMT variable's local literals. To apply
/// it, BitBlaster::assertTrueShared() substitutes: every local variable
/// maps through a table onto the host's existing literal (a variable the
/// host already encodes, or the host's constant) or onto a fresh host
/// variable, and the clauses are re-added under that map. A bridge
/// clause pair is only needed when one local variable is bound to two
/// different host literals (e.g. a bit the template fixed that the host
/// encodes as a free variable). The same splice runs on a cold miss
/// (right after recording), so hits and misses produce identical CNF.
///
/// The ClauseStore holds clauses learnt by a bounded "probe" solve run on
/// the scratch solver of a single group. Because the probe sees only that
/// group's CNF, every learnt clause is implied by the group alone and is
/// therefore sound to splice into ANY query that contains it — unlike
/// learnts from a full query solve, which are only implied by the whole
/// conjunction. Probe learnts are stored in the template's local space.
///
/// Both caches use the same sharded 2Q replacement: a probationary FIFO
/// (A1) and a protected LRU (Am); entries promote to Am on their first
/// hit. A1 keeps a fixed share of each shard (A1QuotaPercent): eviction
/// takes A1's oldest entry only while A1 is over that quota, and Am's
/// least recent entry otherwise, so one-shot queries cannot flush the hot
/// working set and a full Am cannot starve new entries of a first hit.
/// The newest entry is evicted only when nothing else is left. Memory is
/// bounded in bytes per shard; hit/miss/insert/evict counters are
/// process-wide atomics surfaced through StaubOutcome, the server's
/// `stats` verb, and `staubd --stats`.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_CROSSCACHE_H
#define STAUB_SOLVER_CROSSCACHE_H

#include "smtlib/Term.h"
#include "solver/Sat.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace staub {

/// Cache key: canonical digest of the assertion plus the widest bitvector
/// width occurring in it (so re-translations of the same Int constraint
/// at different widths never collide).
struct BlastKey {
  uint64_t Digest = 0;
  unsigned Width = 0;
  bool operator==(const BlastKey &RHS) const = default;
};

struct BlastKeyHash {
  size_t operator()(const BlastKey &K) const {
    uint64_t X = K.Digest ^ (static_cast<uint64_t>(K.Width) * 0x9e3779b97f4a7c15ULL);
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(X ^ (X >> 29));
  }
};

/// A clause list stored flat in DIMACS order: each clause's literals
/// followed by a Lit() (variable 0) terminator. One allocation per list
/// instead of one per clause keeps cached templates small.
struct ClauseList {
  std::vector<Lit> Lits;
  size_t Count = 0;

  void add(const std::vector<Lit> &Clause) {
    Lits.insert(Lits.end(), Clause.begin(), Clause.end());
    Lits.push_back(Lit());
    ++Count;
  }
  /// Calls \p Fn(const Lit *Begin, const Lit *End) once per clause.
  template <typename FnT> void forEach(FnT &&Fn) const {
    const Lit *Begin = Lits.data();
    for (const Lit &L : Lits)
      if (L.var() == 0) {
        Fn(Begin, &L);
        Begin = &L + 1;
      }
  }
  size_t bytes() const { return Lits.capacity() * sizeof(Lit); }
};

/// One SMT variable's literals inside a template's local literal space.
/// Width 0 means a Bool variable with a single literal.
struct TemplateVarBinding {
  std::string Name;
  unsigned Width = 0;
  std::vector<Lit> Bits;
};

/// Compact CNF of one blasted assertion group. Local variable
/// ConstantVar is the constant true; 2..NumVars are the variables the
/// scratch solver left free at level 0, and only those occur in Clauses.
/// Bindings may use the constant (bits the group fixes).
struct BlastTemplate {
  static constexpr unsigned ConstantVar = 1;
  unsigned NumVars = 0;
  ClauseList Clauses;
  std::vector<TemplateVarBinding> Vars;
  size_t bytes() const;
};

/// Probe-solve learnt clauses in the SAME local literal space as the
/// blast template they were learnt from.
struct ClauseTemplate {
  ClauseList Clauses;
  size_t bytes() const;
};

/// Counter snapshot for one cache.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
  uint64_t CapacityBytes = 0;
};

/// Sharded (digest, width) -> shared_ptr<const Entry> cache with 2Q
/// replacement. Thread-safe; lookups return shared ownership so an entry
/// stays alive while a worker splices it even if it is evicted meanwhile.
template <typename EntryT> class ShardedTemplateCache {
public:
  static constexpr size_t NumShards = 16;
  /// Share of a shard's bytes the probationary FIFO may hold before its
  /// oldest entries become the eviction victims (2Q's Kin).
  static constexpr size_t A1QuotaPercent = 25;

  explicit ShardedTemplateCache(size_t CapacityBytes)
      : Capacity(CapacityBytes) {}

  std::shared_ptr<const EntryT> lookup(const BlastKey &Key) {
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto Found = S.Map.find(Key);
    if (Found == S.Map.end()) {
      Misses.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    Node &N = Found->second;
    if (N.Protected) {
      S.Am.splice(S.Am.begin(), S.Am, N.Where);
    } else {
      // First hit: promote from probation to the protected LRU.
      S.Am.splice(S.Am.begin(), S.A1, N.Where);
      S.A1Bytes -= N.Bytes;
      N.Protected = true;
    }
    Hits.fetch_add(1, std::memory_order_relaxed);
    return N.Entry;
  }

  void insert(const BlastKey &Key, std::shared_ptr<const EntryT> Entry) {
    size_t EntryBytes = sizeof(Node) + (Entry ? Entry->bytes() : 0);
    Shard &S = shardFor(Key);
    std::lock_guard<std::mutex> Lock(S.Mutex);
    auto Found = S.Map.find(Key);
    if (Found != S.Map.end()) {
      // Concurrent worker won the race; keep the incumbent (readers may
      // already hold it) and drop ours.
      return;
    }
    S.A1.push_front(Key);
    Node N;
    N.Entry = std::move(Entry);
    N.Bytes = EntryBytes;
    N.Protected = false;
    N.Where = S.A1.begin();
    S.Map.emplace(Key, std::move(N));
    S.Bytes += EntryBytes;
    S.A1Bytes += EntryBytes;
    Insertions.fetch_add(1, std::memory_order_relaxed);
    evictLocked(S);
  }

  CacheStats stats() const {
    CacheStats Result;
    Result.Hits = Hits.load(std::memory_order_relaxed);
    Result.Misses = Misses.load(std::memory_order_relaxed);
    Result.Insertions = Insertions.load(std::memory_order_relaxed);
    Result.Evictions = Evictions.load(std::memory_order_relaxed);
    Result.CapacityBytes = Capacity;
    for (const Shard &S : Shards) {
      std::lock_guard<std::mutex> Lock(S.Mutex);
      Result.Entries += S.Map.size();
      Result.Bytes += S.Bytes;
    }
    return Result;
  }

private:
  struct Node {
    std::shared_ptr<const EntryT> Entry;
    size_t Bytes = 0;
    bool Protected = false;
    std::list<BlastKey>::iterator Where;
  };

  struct Shard {
    mutable std::mutex Mutex;
    std::unordered_map<BlastKey, Node, BlastKeyHash> Map;
    std::list<BlastKey> A1; ///< Probationary FIFO (front = newest).
    std::list<BlastKey> Am; ///< Protected LRU (front = most recent).
    size_t Bytes = 0;
    size_t A1Bytes = 0;
  };

  Shard &shardFor(const BlastKey &Key) {
    return Shards[BlastKeyHash{}(Key) % NumShards];
  }

  void evictLocked(Shard &S) {
    const size_t PerShard = Capacity / NumShards;
    const size_t A1Quota = PerShard * A1QuotaPercent / 100;
    while (S.Bytes > PerShard && !(S.A1.empty() && S.Am.empty())) {
      // A1's oldest entry goes while A1 is over its quota; otherwise Am's
      // least recent. The newest entry (A1's front) goes only when
      // nothing else is left, so every insert gets its chance at a hit.
      bool FromA1 =
          S.Am.empty() || (S.A1Bytes > A1Quota && S.A1.size() > 1);
      std::list<BlastKey> &Victims = FromA1 ? S.A1 : S.Am;
      BlastKey Victim = Victims.back();
      Victims.pop_back();
      auto Found = S.Map.find(Victim);
      S.Bytes -= Found->second.Bytes;
      if (FromA1)
        S.A1Bytes -= Found->second.Bytes;
      S.Map.erase(Found);
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }

  size_t Capacity;
  Shard Shards[NumShards];
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Insertions{0};
  std::atomic<uint64_t> Evictions{0};
};

using BlastCache = ShardedTemplateCache<BlastTemplate>;
using ClauseStore = ShardedTemplateCache<ClauseTemplate>;

/// Everything a worker needs to participate in cross-query reuse. One
/// instance lives in the server (or bench driver) and outlives all solve
/// calls that reference it through SolverOptions::Shared.
struct SharedSolveCaches {
  static constexpr size_t DefaultBlastBytes = 64u << 20;
  static constexpr size_t DefaultClauseBytes = 16u << 20;

  explicit SharedSolveCaches(size_t BlastBytes = DefaultBlastBytes,
                             size_t ClauseBytes = DefaultClauseBytes)
      : Blast(BlastBytes), Clauses(ClauseBytes) {}

  BlastCache Blast;
  ClauseStore Clauses;

  /// Conflict budget for the probe solve that seeds the clause store on a
  /// cold blast (0 disables probing).
  uint64_t ProbeConflicts = 200;
  /// Learnt-clause export caps for one probe.
  size_t MaxStoredClauses = 256;
  size_t MaxStoredClauseLits = 8;

  /// Fault injection (--inject=bad-digest): digest constants by sort
  /// only, so near-duplicate assertions collide and the caches serve the
  /// wrong CNF. The cache-consistency fuzz oracle must catch this.
  bool InjectBadDigest = false;
};

/// The variable of a range atom, or an invalid term. A range atom is a
/// bitvector comparison between a variable and a constant, e.g. a
/// translated box bound. Grouping copies range atoms into the groups that
/// mention their variable, and template building asserts them first.
Term rangeAtomVariable(const TermManager &Manager, Term T);

/// Groups a translated query into cache entries, one conjunction per
/// translated assertion: the assertion, the guards its translation
/// emitted (\p GuardOwner[j] owns Assertions[TranslatedCount + j]), and
/// every bare range atom over a variable the group mentions. The
/// conjunction over all groups equals the conjunction of \p Assertions.
std::vector<Term> groupForCrossCache(TermManager &Manager,
                                     const std::vector<Term> &Assertions,
                                     size_t TranslatedCount,
                                     const std::vector<uint32_t> &GuardOwner);

} // namespace staub

#endif // STAUB_SOLVER_CROSSCACHE_H
