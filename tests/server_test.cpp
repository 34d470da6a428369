//===- tests/server_test.cpp - staubd protocol/server/cache tests ---------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the staubd stack bottom-up: digest stability across
/// TermManager instances, protocol framing edge cases over socketpairs,
/// the blast-cache template format and its substitution splice, 2Q
/// replacement, evaluateQuery cache semantics (warm agreement, eviction
/// under pressure), live-server round trips over TCP, graceful-shutdown
/// draining, and — under the tsan preset's "Parallel" filter — many
/// concurrent clients hammering the shared cache shards.
///
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"
#include "server/Server.h"
#include "smtlib/Digest.h"
#include "smtlib/Parser.h"
#include "solver/BitBlaster.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace staub;
using namespace staub::server;

namespace {

/// A satisfiable nonlinear query that survives the presolver (the
/// anchor sum defeats the all-zero witness) and therefore reaches the
/// bit-blaster, which is what the cross-query cache tests need.
const char *SatQuery = "(set-logic QF_NIA)\n"
                       "(declare-const x Int)\n"
                       "(declare-const y Int)\n"
                       "(declare-const z Int)\n"
                       "(assert (>= x 0)) (assert (<= x 20))\n"
                       "(assert (>= y 0)) (assert (<= y 20))\n"
                       "(assert (>= z 0)) (assert (<= z 20))\n"
                       "(assert (>= (+ x y) 5))\n"
                       "(assert (<= (+ (* x y) z) 380))\n"
                       "(check-sat)\n";

const char *UnsatQuery = "(set-logic QF_LIA)\n"
                         "(declare-const x Int)\n"
                         "(assert (>= x 10))\n"
                         "(assert (<= x 3))\n"
                         "(check-sat)\n";

/// Variant of SatQuery differing in one conjunct's constant, like the
/// near-duplicate VC streams bench_server replays.
std::string satQueryVariant(int Floor) {
  std::string Text = SatQuery;
  std::string From = "(>= (+ x y) 5)";
  std::string To = "(>= (+ x y) " + std::to_string(Floor) + ")";
  return Text.replace(Text.find(From), From.size(), To);
}

TermDigest digestOf(const std::string &Text) {
  TermManager Manager;
  ParseResult R = parseSmtLib(Manager, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  DigestComputer Digests(Manager);
  return Digests.digest(Manager.mkAnd(R.Parsed.Assertions));
}

//===--------------------------------------------------------------------===//
// Digest stability.
//===--------------------------------------------------------------------===//

TEST(DigestTest, SameTextInTwoManagersAgrees) {
  TermDigest A = digestOf(SatQuery);
  TermDigest B = digestOf(SatQuery);
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_EQ(A.MaxBitVecWidth, B.MaxBitVecWidth);
}

TEST(DigestTest, ConstantChangesTheDigest) {
  EXPECT_NE(digestOf(SatQuery).Hash, digestOf(satQueryVariant(6)).Hash);
}

TEST(DigestTest, VariableNameChangesTheDigest) {
  std::string Renamed = SatQuery;
  size_t Pos;
  while ((Pos = Renamed.find(" z")) != std::string::npos)
    Renamed.replace(Pos, 2, " w");
  EXPECT_NE(digestOf(SatQuery).Hash, digestOf(Renamed).Hash);
}

TEST(DigestTest, IgnoreConstantsModeCollidesNearDuplicates) {
  // The --inject=bad-digest fault: two queries differing only in one
  // constant must collide, which is what the cache-consistency fuzz
  // oracle is built to catch downstream.
  TermManager ManagerA, ManagerB;
  ParseResult A = parseSmtLib(ManagerA, SatQuery);
  ParseResult B = parseSmtLib(ManagerB, satQueryVariant(6));
  ASSERT_TRUE(A.Ok && B.Ok) << A.Error << B.Error;
  DigestComputer BadA(ManagerA, DigestComputer::Mode::IgnoreConstants);
  DigestComputer BadB(ManagerB, DigestComputer::Mode::IgnoreConstants);
  EXPECT_EQ(BadA.digest(ManagerA.mkAnd(A.Parsed.Assertions)).Hash,
            BadB.digest(ManagerB.mkAnd(B.Parsed.Assertions)).Hash);
}

TEST(DigestTest, MaxBitVecWidthRidesAlong) {
  TermManager Manager;
  Term X = Manager.mkVariable("x", Sort::bitVec(13));
  Term C = Manager.mkBitVecConst(BitVecValue(13, BigInt(5)));
  std::vector<Term> Operands = {X, C};
  DigestComputer Digests(Manager);
  EXPECT_EQ(Digests.digest(Manager.mkApp(Kind::BvUle, Operands))
                .MaxBitVecWidth,
            13u);
}

//===--------------------------------------------------------------------===//
// Protocol framing over socketpairs (no live server needed).
//===--------------------------------------------------------------------===//

struct Pipe {
  int Read = -1, Write = -1;
  Pipe() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0)
        << std::strerror(errno);
    Read = Fds[0];
    Write = Fds[1];
  }
  ~Pipe() {
    if (Read >= 0)
      ::close(Read);
    closeWrite();
  }
  void closeWrite() {
    if (Write >= 0)
      ::close(Write);
    Write = -1;
  }
  void send(const std::string &Data) { ASSERT_TRUE(writeAll(Write, Data)); }
};

TEST(FramingTest, QueryFrameRoundTrips) {
  Pipe P;
  P.send(formatQuery("q7", SatQuery, 2.5));
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok) << Error;
  EXPECT_EQ(F.Verb, "query");
  ASSERT_GE(F.Args.size(), 3u);
  EXPECT_EQ(F.Args[0], "q7");
  EXPECT_EQ(F.Args[1], std::to_string(std::strlen(SatQuery)));
  EXPECT_EQ(F.Args[2].substr(0, 8), "timeout=");
  EXPECT_EQ(F.Payload, SatQuery);
}

TEST(FramingTest, GarbageHeaderResyncsToNextFrame) {
  Pipe P;
  P.send("!!! not a verb we know\nping\n");
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  // Unknown verbs parse as Ok frames (the server answers `error` for
  // them); a query header with a malformed byte count is the BadHeader
  // case that must consume exactly one line.
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "!!!");
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "ping");
}

TEST(FramingTest, MalformedByteCountIsBadHeaderAndResyncs) {
  Pipe P;
  P.send("query q1 notanumber\nping\n");
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::BadHeader);
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "ping");
}

TEST(FramingTest, OversizedPayloadIsRejectedUnread) {
  Pipe P;
  P.send("query q1 5000000\n");
  FrameReader Reader(P.Read, /*MaxFrameBytes=*/4u << 20);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Oversized);
}

TEST(FramingTest, OversizedHeaderLineIsRejected) {
  Pipe P;
  std::string Junk(300, 'x');
  Junk += ' '; // Keep tokens bounded; no newline ever arrives.
  FrameReader Reader(P.Read, /*MaxFrameBytes=*/256);
  std::thread Feeder([&] {
    for (int I = 0; I < 8; ++I)
      writeAll(P.Write, Junk);
    P.closeWrite();
  });
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Oversized);
  Feeder.join();
}

TEST(FramingTest, TruncatedPayloadClosesTheStream) {
  Pipe P;
  P.send("query q1 100\nonly a few bytes");
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Truncated);
}

TEST(FramingTest, PayloadWithoutTerminatingNewlineIsTruncated) {
  Pipe P;
  P.send("query q1 2\nok"); // Missing the trailing '\n'.
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Truncated);
}

TEST(FramingTest, CleanCloseBetweenFramesIsEof) {
  Pipe P;
  P.send("ping\n");
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Eof);
}

//===--------------------------------------------------------------------===//
// 2Q replacement.
//===--------------------------------------------------------------------===//

/// \p Count keys that land in the same shard as Digest 1.
std::vector<BlastKey> keysInOneShard(size_t Count) {
  constexpr size_t Shards = ClauseStore::NumShards;
  size_t Target = BlastKeyHash{}(BlastKey{1, 8}) % Shards;
  std::vector<BlastKey> Keys;
  for (uint64_t Digest = 1; Keys.size() < Count; ++Digest)
    if (BlastKeyHash{}(BlastKey{Digest, 8}) % Shards == Target)
      Keys.push_back(BlastKey{Digest, 8});
  return Keys;
}

std::shared_ptr<const ClauseTemplate> entryOfOneClause() {
  auto Entry = std::make_shared<ClauseTemplate>();
  Entry->Clauses.add({Lit(2, false), Lit(3, true)});
  return Entry;
}

TEST(CrossCacheTest, TwoQAdmitsNewEntriesAndEvictsFromAm) {
  // Measure one entry's charge, then size a shard for four and a half
  // entries: A1's quota (a quarter) holds one entry.
  size_t EntryBytes;
  {
    ClauseStore Probe(1u << 20);
    Probe.insert(BlastKey{1, 8}, entryOfOneClause());
    EntryBytes = Probe.stats().Bytes;
  }
  ClauseStore Cache(ClauseStore::NumShards * (4 * EntryBytes + EntryBytes / 2));
  std::vector<BlastKey> Keys = keysInOneShard(7);

  // Fill the shard's protected LRU: four entries, each hit once.
  for (size_t I = 0; I < 4; ++I) {
    Cache.insert(Keys[I], entryOfOneClause());
    ASSERT_TRUE(Cache.lookup(Keys[I]));
  }
  EXPECT_EQ(Cache.stats().Evictions, 0u);

  // A new key must survive its own insert: A1 is within its quota, so
  // the victim is Am's least recent entry (Keys[0]).
  Cache.insert(Keys[4], entryOfOneClause());
  EXPECT_EQ(Cache.stats().Evictions, 1u);
  EXPECT_TRUE(Cache.lookup(Keys[4]));
  EXPECT_FALSE(Cache.lookup(Keys[0]));

  // One-shot keys beyond A1's quota recycle A1 among themselves: the
  // second one evicts the first, not the hot set.
  Cache.insert(Keys[5], entryOfOneClause()); // A1 at quota: Am loses Keys[1].
  Cache.insert(Keys[6], entryOfOneClause()); // A1 over quota: Keys[5] goes.
  EXPECT_FALSE(Cache.lookup(Keys[5]));
  EXPECT_TRUE(Cache.lookup(Keys[6]));
  for (size_t I : {2, 3, 4})
    EXPECT_TRUE(Cache.lookup(Keys[I])) << "key " << I;
  EXPECT_FALSE(Cache.lookup(Keys[1]));
}

//===--------------------------------------------------------------------===//
// evaluateQuery cache semantics.
//===--------------------------------------------------------------------===//

/// A bounded QF_BV group in the shape grouping produces: range atoms
/// conjoined with a multiplier row over the same variables.
const char *BvGroupQuery =
    "(declare-const x (_ BitVec 16))\n"
    "(declare-const y (_ BitVec 16))\n"
    "(assert (and (bvule x #x0014) (bvuge (bvmul x y) #x001e)))\n";

/// Literals of each clause of \p Clauses, one vector per clause.
std::vector<std::vector<Lit>> clausesOf(const ClauseList &Clauses) {
  std::vector<std::vector<Lit>> Result;
  Clauses.forEach([&](const Lit *Begin, const Lit *End) {
    Result.emplace_back(Begin, End);
  });
  return Result;
}

BlastKey keyOf(const TermManager &Manager, Term T) {
  DigestComputer Digests(Manager);
  TermDigest D = Digests.digest(T);
  return BlastKey{D.Hash, D.MaxBitVecWidth};
}

TEST(EvaluateQueryTest, ColdAndWarmAgreeAndWarmHits) {
  SharedSolveCaches Caches;
  QueryResult Cold = evaluateQuery(SatQuery, &Caches, 10.0);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(Cold.Status, SolveStatus::Sat);
  EXPECT_GT(Cold.CrossBlastMisses, 0u);

  QueryResult Warm = evaluateQuery(SatQuery, &Caches, 10.0);
  ASSERT_TRUE(Warm.Ok);
  EXPECT_EQ(Warm.Status, SolveStatus::Sat);
  EXPECT_GT(Warm.CrossBlastHits, 0u);
  EXPECT_EQ(Warm.CrossBlastMisses, 0u);

  // The template of a miss: level-0 fixed variables fold into the
  // constant, so no unit clause survives and NumVars counts only the free
  // variables plus the constant.
  TermManager Manager;
  ParseResult Parsed = parseSmtLib(Manager, BvGroupQuery);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error;
  Term Group = Parsed.Parsed.Assertions[0];
  Term X = Manager.lookupVariable("x"), Y = Manager.lookupVariable("y");
  SharedSolveCaches Shared;
  {
    SatSolver Host;
    BitBlaster Blaster(Manager, Host);
    Blaster.assertTrueShared(Group, Shared);
    EXPECT_EQ(Blaster.crossMisses(), 1u);
    ASSERT_EQ(Host.solve(), SatStatus::Sat);
    Model M = Blaster.extractModel({X, Y});
    EXPECT_TRUE(evaluatesToTrue(Manager, Group, M));
  }
  std::shared_ptr<const BlastTemplate> Template =
      Shared.Blast.lookup(keyOf(Manager, Group));
  ASSERT_TRUE(Template);
  std::vector<bool> Free(Template->NumVars + 1, false);
  for (const std::vector<Lit> &Clause : clausesOf(Template->Clauses)) {
    EXPECT_GE(Clause.size(), 2u) << "level-0 unit clause in a template";
    for (Lit L : Clause) {
      ASSERT_LE(L.var(), Template->NumVars);
      EXPECT_NE(L.var(), BlastTemplate::ConstantVar);
      Free[L.var()] = true;
    }
  }
  ASSERT_EQ(Template->Vars.size(), 2u);
  const TemplateVarBinding &XBits = Template->Vars[0].Name == "x"
                                        ? Template->Vars[0]
                                        : Template->Vars[1];
  const TemplateVarBinding &YBits = Template->Vars[0].Name == "y"
                                        ? Template->Vars[0]
                                        : Template->Vars[1];
  // x <= 20 pins x's bits 5..15 to zero at level 0; y stays free.
  for (unsigned Bit = 5; Bit < 16; ++Bit)
    EXPECT_EQ(XBits.Bits[Bit], Lit(BlastTemplate::ConstantVar, true))
        << "x bit " << Bit;
  for (const TemplateVarBinding &Binding : Template->Vars)
    for (Lit L : Binding.Bits)
      if (L.var() != BlastTemplate::ConstantVar)
        Free[L.var()] = true;
  for (Lit L : YBits.Bits)
    ASSERT_NE(L.var(), BlastTemplate::ConstantVar);
  unsigned Used = 0;
  for (unsigned V = BlastTemplate::ConstantVar + 1; V <= Template->NumVars;
       ++V)
    Used += Free[V];
  EXPECT_EQ(Template->NumVars, Used + 1);

  // A warm splice into a host that already encodes y maps y's bits
  // straight onto the host's literals: the host grows by the template's
  // other variables and its clauses only — no host variables and no
  // bridge clauses for y's bits.
  {
    SatSolver Host;
    BitBlaster Blaster(Manager, Host);
    Blaster.encodeBool(Manager.mkEq(Y, Manager.mkBitVecConst(
                                           BitVecValue(16, BigInt(3)))));
    unsigned VarsBefore = Host.numVars();
    size_t ClausesBefore = Host.copySimplifiedCnf().size();
    Blaster.assertTrueShared(Group, Shared);
    EXPECT_EQ(Blaster.crossHits(), 1u);
    EXPECT_EQ(Host.numVars() - VarsBefore,
              Template->NumVars - 1 - YBits.Bits.size());
    EXPECT_EQ(Host.copySimplifiedCnf().size() - ClausesBefore,
              Template->Clauses.Count);
    ASSERT_EQ(Host.solve(), SatStatus::Sat);
    Model M = Blaster.extractModel({X, Y});
    EXPECT_TRUE(evaluatesToTrue(Manager, Group, M));
  }

  // Spliced and direct runs agree on verdict and verified model over a
  // seeded VC-stream sample, with cold caches and then warm ones.
  TermManager StreamManager;
  BenchConfig Config;
  Config.Seed = 7;
  std::vector<GeneratedConstraint> Stream =
      generateVcStreamSuite(StreamManager, Config, /*Bases=*/3,
                            /*Variants=*/2);
  std::unique_ptr<SolverBackend> Backend = createMiniSmtSolver();
  StaubOptions Direct;
  Direct.Solve.TimeoutSeconds = 10.0;
  StaubOptions Spliced = Direct;
  SharedSolveCaches StreamCaches;
  Spliced.Solve.Shared = &StreamCaches;
  for (const char *Pass : {"cold", "warm"}) {
    uint64_t Misses = 0;
    for (const GeneratedConstraint &G : Stream) {
      StaubOutcome D = runStaub(StreamManager, G.Assertions, *Backend, Direct);
      StaubOutcome S =
          runStaub(StreamManager, G.Assertions, *Backend, Spliced);
      Misses += S.CrossBlastCacheMisses;
      EXPECT_EQ(S.Path, D.Path) << Pass << " " << G.Name;
      if (S.Path == StaubPath::VerifiedSat) {
        EXPECT_TRUE(evaluatesToTrue(StreamManager,
                                    StreamManager.mkAnd(G.Assertions),
                                    S.VerifiedModel))
            << Pass << " " << G.Name;
      }
    }
    if (std::string(Pass) == "warm") {
      EXPECT_EQ(Misses, 0u);
    }
  }
}

TEST(EvaluateQueryTest, NearDuplicateVariantSharesEntries) {
  SharedSolveCaches Caches;
  QueryResult Cold = evaluateQuery(SatQuery, &Caches, 10.0);
  ASSERT_TRUE(Cold.Ok);
  // One conjunct changed: the other conjuncts' templates must hit.
  QueryResult Variant = evaluateQuery(satQueryVariant(6), &Caches, 10.0);
  ASSERT_TRUE(Variant.Ok);
  EXPECT_EQ(Variant.Status, SolveStatus::Sat);
  EXPECT_GT(Variant.CrossBlastHits, 0u);
  EXPECT_LT(Variant.CrossBlastMisses, Cold.CrossBlastMisses);
}

TEST(EvaluateQueryTest, ParseErrorIsReportedNotFatal) {
  SharedSolveCaches Caches;
  QueryResult R = evaluateQuery("(assert (this is not smtlib", &Caches, 5.0);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(EvaluateQueryTest, NullCachesSolvesWithoutSharing) {
  QueryResult R = evaluateQuery(UnsatQuery, nullptr, 5.0);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
  EXPECT_EQ(R.CrossBlastHits + R.CrossBlastMisses, 0u);
}

TEST(EvaluateQueryTest, BoolVariableBesideNonlinearIntIsNotFatal) {
  // The fallback reaches MiniSMT's interval search with a Bool variable
  // in scope; x*x = 2 has no integer root, which that search cannot
  // prove, so the answer is anything but sat.
  QueryResult R = evaluateQuery("(declare-fun p () Bool)\n"
                                "(declare-fun x () Int)\n"
                                "(assert p)\n"
                                "(assert (= (* x x) 2))\n"
                                "(check-sat)\n",
                                nullptr, 2.0);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Status, SolveStatus::Sat);
}

TEST(EvaluateQueryTest, EvictionUnderPressureKeepsAnswersCorrect) {
  // A cache far too small for even one query's working set: every
  // insertion evicts, and hits are rare-to-none. Verdicts must not
  // change — the cache is a pure performance layer.
  SharedSolveCaches Tiny(/*BlastBytes=*/1u << 12, /*ClauseBytes=*/1u << 10);
  for (int Round = 0; Round < 2; ++Round)
    for (int Floor : {5, 6, 7, 8}) {
      QueryResult R = evaluateQuery(satQueryVariant(Floor), &Tiny, 10.0);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_EQ(R.Status, SolveStatus::Sat) << "Floor=" << Floor;
    }
  EXPECT_GT(Tiny.Blast.stats().Evictions, 0u);
}

//===--------------------------------------------------------------------===//
// Live server over loopback TCP.
//===--------------------------------------------------------------------===//

/// Reads one '\n'-terminated line off \p Fd (client side of the tests).
bool readResponseLine(int Fd, std::string &Buffer, std::string &Line) {
  for (;;) {
    size_t Pos = Buffer.find('\n');
    if (Pos != std::string::npos) {
      Line.assign(Buffer, 0, Pos);
      Buffer.erase(0, Pos + 1);
      return true;
    }
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

struct LiveServer {
  StaubServer Server;
  explicit LiveServer(ServerOptions Options = testOptions())
      : Server(Options) {
    std::string Error;
    EXPECT_TRUE(Server.start(&Error)) << Error;
  }
  static ServerOptions testOptions() {
    ServerOptions Options;
    Options.TcpPort = 0; // Ephemeral.
    Options.Workers = 4;
    return Options;
  }
  int connect() {
    std::string Error;
    int Fd = connectTcp(Server.tcpPort(), &Error);
    EXPECT_GE(Fd, 0) << Error;
    return Fd;
  }
};

TEST(ServerEndToEndTest, QueryRoundTripOverTcp) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, formatQuery("q1", SatQuery)));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 13), "result q1 sat") << Line;
  EXPECT_NE(Line.find("width="), std::string::npos);
  EXPECT_NE(Line.find("cross_hits="), std::string::npos);
  ::close(Fd);
}

TEST(ServerEndToEndTest, GarbageLineGetsErrorAndConnectionSurvives) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "make me a sandwich\nping\n"));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 6), "error ") << Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line, "pong");
  ::close(Fd);
}

TEST(ServerEndToEndTest, OversizedQueryClosesConnectionButServerLives) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "query big 99999999\n"));
  std::string Buffer, Line;
  // The server answers error then closes; reading eventually hits EOF.
  while (readResponseLine(Fd, Buffer, Line))
    EXPECT_EQ(Line.substr(0, 6), "error ");
  ::close(Fd);
  // A fresh connection still works.
  int Fd2 = Live.connect();
  ASSERT_TRUE(writeAll(Fd2, "ping\n"));
  Buffer.clear();
  ASSERT_TRUE(readResponseLine(Fd2, Buffer, Line));
  EXPECT_EQ(Line, "pong");
  ::close(Fd2);
}

TEST(ServerEndToEndTest, OverlongIndexIsAParseErrorAndServerLives) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(
      Fd, formatQuery("q1", "(declare-fun x () (_ BitVec "
                            "99999999999999999999999))(check-sat)\n")));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 15), "error q1 parse ") << Line;
  ASSERT_TRUE(writeAll(Fd, "ping\n"));
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line, "pong");
  ::close(Fd);
}

TEST(ServerEndToEndTest, StatsVerbReportsCounters) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, formatQuery("q1", UnsatQuery)));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line)); // result q1 unsat ...
  ASSERT_TRUE(writeAll(Fd, "stats\n"));
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 6), "stats ");
  EXPECT_NE(Line.find("queries=1"), std::string::npos) << Line;
  EXPECT_NE(Line.find("blast_hits="), std::string::npos) << Line;
  ::close(Fd);
}

TEST(ServerEndToEndTest, GracefulShutdownDrainsInFlightQueries) {
  LiveServer Live;
  int Fd = Live.connect();
  // Pipeline a batch, then shut the server down after the first answer:
  // every already-submitted query must still get exactly one response
  // line (a result once enqueued, or a shutting-down error if the
  // reader had not yet queued it) before the connection closes.
  const int Batch = 4;
  std::string Writes;
  for (int I = 0; I < Batch; ++I)
    Writes += formatQuery("q" + std::to_string(I), satQueryVariant(5 + I));
  ASSERT_TRUE(writeAll(Fd, Writes));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 7), "result ") << Line;
  Live.Server.requestShutdown();
  // Connections are only torn down once the queue has drained, so run
  // the blocking wait concurrently and read to EOF: every submitted
  // query must be answered before the FIN arrives.
  std::thread Stopper([&] { Live.Server.awaitShutdown(); });
  int Answered = 1;
  while (readResponseLine(Fd, Buffer, Line)) {
    EXPECT_TRUE(Line.substr(0, 7) == "result " ||
                Line.find("shutting-down") != std::string::npos)
        << Line;
    ++Answered;
  }
  EXPECT_EQ(Answered, Batch);
  ::close(Fd);
  Stopper.join();
}

TEST(ServerEndToEndTest, ShutdownVerbAnswersByeAndStopsAccepting) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "shutdown\n"));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line, "bye");
  ::close(Fd);
  Live.Server.awaitShutdown();
  std::string Error;
  EXPECT_LT(connectTcp(Live.Server.tcpPort(), &Error), 0);
}

//===--------------------------------------------------------------------===//
// Concurrency (runs under the tsan preset's Parallel filter).
//===--------------------------------------------------------------------===//

TEST(ServerParallelTest, ConcurrentClientsHammerSharedShards) {
  LiveServer Live;
  const int Clients = 6;
  const int PerClient = 6;
  std::atomic<int> Correct{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      int Fd = Live.connect();
      if (Fd < 0)
        return;
      std::string Writes;
      for (int I = 0; I < PerClient; ++I) {
        // Every client walks the same 4 near-duplicate variants plus an
        // unsat query, so the shards see constant cross-thread traffic
        // on the same keys.
        bool Unsat = I % 5 == 4;
        std::string Id = "c" + std::to_string(C) + "q" + std::to_string(I);
        Writes += formatQuery(Id, Unsat ? std::string(UnsatQuery)
                                        : satQueryVariant(5 + (C + I) % 4));
      }
      if (!writeAll(Fd, Writes)) {
        ::close(Fd);
        return;
      }
      // Workers answer in completion order, not submission order; match
      // responses to queries by id.
      std::string Buffer, Line;
      for (int I = 0; I < PerClient; ++I) {
        if (!readResponseLine(Fd, Buffer, Line))
          break;
        std::vector<std::string> Tokens = splitTokens(Line);
        if (Tokens.size() < 3 || Tokens[0] != "result") {
          ADD_FAILURE() << "client " << C << " got: " << Line;
          continue;
        }
        size_t Q = Tokens[1].find('q');
        int Index = std::stoi(Tokens[1].substr(Q + 1));
        std::string Expect = Index % 5 == 4 ? "unsat" : "sat";
        if (Tokens[2] == Expect)
          Correct.fetch_add(1);
        else
          ADD_FAILURE() << "client " << C << " got: " << Line;
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), Clients * PerClient);
  ServerStats Stats = Live.Server.stats();
  EXPECT_EQ(Stats.QueriesServed, uint64_t(Clients * PerClient));
  EXPECT_GT(Stats.Blast.Hits, 0u);
}

TEST(ServerParallelTest, ConcurrentEvictionStaysConsistent) {
  // Same shard-hammering, but with a cache so small that insertions and
  // evictions race with lookups on every query; verdicts must hold and
  // the entry shared_ptrs must keep spliced templates alive (tsan and
  // asan both watch this one).
  ServerOptions Options = LiveServer::testOptions();
  Options.BlastCacheBytes = 1u << 12;
  Options.ClauseStoreBytes = 1u << 10;
  LiveServer Live(Options);
  const int Clients = 4;
  const int PerClient = 4;
  std::atomic<int> Correct{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      int Fd = Live.connect();
      if (Fd < 0)
        return;
      std::string Buffer, Line;
      for (int I = 0; I < PerClient; ++I) {
        std::string Id = "c" + std::to_string(C) + "q" + std::to_string(I);
        if (!writeAll(Fd, formatQuery(Id, satQueryVariant(5 + (C + I) % 4))))
          break;
        if (!readResponseLine(Fd, Buffer, Line))
          break;
        if (Line.find(" sat") != std::string::npos)
          Correct.fetch_add(1);
        else
          ADD_FAILURE() << "client " << C << " got: " << Line;
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), Clients * PerClient);
  EXPECT_GT(Live.Server.caches().Blast.stats().Evictions, 0u);
}

} // namespace
