//===- tests/ServeTest.cpp - Resident solver service tests -------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// In-process coverage of the postr-serve stack: wire protocol round
// trips and framing hardening, the result cache (LRU/eviction, validated
// insertion), the server's containment ladder (simulated crash →
// quarantine → one retry), the poisoned-entry gate (a
// self-check-failing result must never be served from the cache), and a
// randomized concurrent soak mixing sat/unsat/malformed/timeout traffic
// whose served verdicts are checked against one-shot solves. Everything
// runs in-process so the sanitizer jobs see every allocation.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzz.h"
#include "serve/Cache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Worker.h"
#include "smtlib/Printer.h"
#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <unistd.h>

using namespace postr;
using serve::Request;
using serve::Response;

namespace {

//===----------------------------------------------------------------------===//
// Protocol
//===----------------------------------------------------------------------===//

TEST(ServeProtocolTest, RequestRoundTrip) {
  Request R;
  R.K = Request::Solve;
  R.Id = "query-17";
  R.TimeoutMs = 1234;
  R.NoCache = true;
  R.TestAbort = true;
  R.Smt2 = "(declare-fun x () String)\n(check-sat)\n";
  Result<Request> D = serve::decodeRequest(serve::encodeRequest(R));
  ASSERT_TRUE(static_cast<bool>(D)) << D.error();
  EXPECT_EQ(D->K, Request::Solve);
  EXPECT_EQ(D->Id, "query-17");
  EXPECT_EQ(D->TimeoutMs, 1234u);
  EXPECT_TRUE(D->NoCache);
  EXPECT_TRUE(D->TestAbort);
  EXPECT_EQ(D->Smt2, R.Smt2);

  // Header values are sanitized: an id cannot desynchronize the header
  // block.
  Request Evil;
  Evil.Id = "a\nverdict: sat";
  Result<Request> E = serve::decodeRequest(serve::encodeRequest(Evil));
  ASSERT_TRUE(static_cast<bool>(E)) << E.error();
  EXPECT_EQ(E->Id.find('\n'), std::string::npos);
}

TEST(ServeProtocolTest, ResponseRoundTrip) {
  Response R;
  R.S = Response::Ok;
  R.Id = "q";
  R.Verdict = "unknown";
  R.Reason = "timeout";
  R.ExitCode = 3;
  R.Cache = "miss";
  R.RetryAfterMs = 250;
  R.Body = "; x has length 4\n";
  R.Publishable = true;
  R.SelfCheckFailed = true;
  R.FaultFired = true;
  Result<Response> D = serve::decodeResponse(serve::encodeResponse(R));
  ASSERT_TRUE(static_cast<bool>(D)) << D.error();
  EXPECT_EQ(D->S, Response::Ok);
  EXPECT_EQ(D->Verdict, "unknown");
  EXPECT_EQ(D->Reason, "timeout");
  EXPECT_EQ(D->ExitCode, 3);
  EXPECT_EQ(D->Cache, "miss");
  EXPECT_EQ(D->RetryAfterMs, 250u);
  EXPECT_EQ(D->Body, R.Body);
  EXPECT_TRUE(D->Publishable);
  EXPECT_TRUE(D->SelfCheckFailed);
  EXPECT_TRUE(D->FaultFired);
}

TEST(ServeProtocolTest, MalformedPayloadsAreStructuredErrors) {
  const char *Bad[] = {
      "",                             // no header line
      "junk\nx",                      // bad magic
      "postr-serve/1\n",              // missing command
      "postr-serve/1 frobnicate\n",   // unknown command
      "postr-serve/1 solve\nbad\n\n", // malformed header line
      "postr-serve/1 solve\n: v\n\n", // empty key
  };
  for (const char *P : Bad)
    EXPECT_FALSE(static_cast<bool>(serve::decodeRequest(P))) << P;
  // Hostile numerals must not wrap.
  EXPECT_FALSE(static_cast<bool>(serve::decodeRequest(
      "postr-serve/1 solve\ntimeout-ms: 99999999999999999999999\n\n")));
  // Unknown headers are skipped so the protocol can grow.
  EXPECT_TRUE(static_cast<bool>(
      serve::decodeRequest("postr-serve/1 solve\nx-future: 1\n\n(a)")));
}

TEST(ServeProtocolTest, FramingOverPipe) {
  int Fds[2];
  ASSERT_EQ(::pipe(Fds), 0);
  ASSERT_TRUE(serve::writeFrame(Fds[1], "hello frame"));
  Result<std::string> R = serve::readFrame(Fds[0], 1024);
  ASSERT_TRUE(static_cast<bool>(R)) << R.error();
  EXPECT_EQ(*R, "hello frame");

  // A hostile length prefix is rejected without allocating.
  ASSERT_TRUE(serve::writeFrame(Fds[1], std::string(64, 'x')));
  Result<std::string> Big = serve::readFrame(Fds[0], 16);
  ASSERT_FALSE(static_cast<bool>(Big));
  EXPECT_NE(Big.error().find("cap"), std::string::npos);

  // Deadline: nothing to read within 50ms fails with "timeout".
  int Empty[2];
  ASSERT_EQ(::pipe(Empty), 0);
  Result<std::string> T = serve::readFrame(Empty[0], 1024, 50);
  ASSERT_FALSE(static_cast<bool>(T));
  EXPECT_EQ(T.error(), "timeout");

  // A truncated frame is "unexpected eof", a clean close is "eof".
  unsigned char Prefix[4] = {0, 0, 0, 10};
  ASSERT_EQ(::write(Empty[1], Prefix, 4), 4);
  ASSERT_EQ(::write(Empty[1], "abc", 3), 3);
  ::close(Empty[1]);
  Result<std::string> Trunc = serve::readFrame(Empty[0], 1024);
  ASSERT_FALSE(static_cast<bool>(Trunc));
  EXPECT_NE(Trunc.error().find("unexpected eof"), std::string::npos);
  ::close(Empty[0]);

  ::close(Fds[1]);
  // Drain the leftover rejected-frame bytes (each read consumes a bogus
  // prefix and fails on the cap) until the clean EOF surfaces.
  bool SawEof = false;
  for (int I = 0; I < 100 && !SawEof; ++I) {
    Result<std::string> Left = serve::readFrame(Fds[0], 1024);
    SawEof = !Left && Left.error() == "eof";
  }
  EXPECT_TRUE(SawEof);
  ::close(Fds[0]);
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, LruEvictionByBytes) {
  serve::ResultCache C(700);
  auto Reply = [](const char *V) {
    serve::CachedReply R;
    R.Verdict = V;
    return R;
  };
  // Each entry is ~key + verdict + 128 bytes; a 700-byte cap holds ~4.
  for (int I = 0; I < 8; ++I)
    C.publish("key-" + std::to_string(I) + std::string(30, 'k'), Reply("sat"));
  serve::ResultCacheStats St = C.stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.Bytes, 700u);
  EXPECT_LT(St.Entries, 8u);
  // The oldest key is gone, the newest is resident.
  EXPECT_FALSE(
      C.lookup("key-0" + std::string(30, 'k')).has_value());
  EXPECT_TRUE(C.lookup("key-7" + std::string(30, 'k')).has_value());
  // LRU recency: touching an old entry protects it from the next
  // eviction round.
  ASSERT_TRUE(C.lookup("key-5" + std::string(30, 'k')).has_value());
  for (int I = 8; I < 11; ++I)
    C.publish("key-" + std::to_string(I) + std::string(30, 'k'), Reply("sat"));
  EXPECT_TRUE(C.lookup("key-5" + std::string(30, 'k')).has_value());

  // An entry bigger than the whole cache is refused outright.
  serve::CachedReply Huge;
  Huge.Verdict = "sat";
  Huge.Body = std::string(4096, 'b');
  C.publish("huge", Huge);
  EXPECT_FALSE(C.lookup("huge").has_value());

  C.rejectPoisoned();
  C.erase("key-5" + std::string(30, 'k')); // still resident (kept by LRU)
  St = C.stats();
  EXPECT_EQ(St.PoisonedRejects, 1u);
  EXPECT_EQ(St.ParanoidMismatches, 1u);
  EXPECT_FALSE(C.lookup("key-5" + std::string(30, 'k')).has_value());
}

//===----------------------------------------------------------------------===//
// Server: deadlines
//===----------------------------------------------------------------------===//

TEST(ServeWorkerTest, EffectiveTimeoutIsTightestBound) {
  serve::ServeOptions O;
  O.MaxTimeoutMs = 60000;
  EXPECT_EQ(serve::effectiveTimeoutMs(0, 0, O), 60000u);
  EXPECT_EQ(serve::effectiveTimeoutMs(500, 0, O), 500u);
  EXPECT_EQ(serve::effectiveTimeoutMs(0, 700, O), 700u);
  EXPECT_EQ(serve::effectiveTimeoutMs(500, 700, O), 500u);
  EXPECT_EQ(serve::effectiveTimeoutMs(900, 700, O), 700u);
  O.MaxTimeoutMs = 100;
  EXPECT_EQ(serve::effectiveTimeoutMs(500, 700, O), 100u);
  O.MaxTimeoutMs = 0; // falls back to the smtlib_cli default cap
  EXPECT_EQ(serve::effectiveTimeoutMs(0, 0, O), 60000u);
}

//===----------------------------------------------------------------------===//
// Server: cold/warm equality and verdict fidelity
//===----------------------------------------------------------------------===//

struct CorpusItem {
  std::string Text;
  Verdict Expected;
};

/// Fuzz seeds filtered to instances the pipeline settles quickly (tight
/// step/memory probe, determinate verdict). The solver is deterministic,
/// so a served solve of the same script follows the same fast search —
/// this keeps the suite bounded without capping the server itself.
std::vector<CorpusItem> quickCorpus(uint64_t FirstSeed, size_t Want) {
  std::vector<CorpusItem> Out;
  for (uint64_t Seed = FirstSeed; Out.size() < Want && Seed < FirstSeed + 300;
       ++Seed) {
    strings::Problem P = fuzz::generate(Seed);
    solver::SolveOptions Probe;
    Probe.TimeoutMs = 10000;
    Probe.MemLimitBytes = 64ull << 20;
    Probe.StepLimit = 20000;
    solver::SolveResult R = solver::solveProblem(P, Probe);
    if (R.V == Verdict::Unknown)
      continue;
    Out.push_back({smtlib::printProblem(P), R.V});
  }
  return Out;
}

TEST(ServeServerTest, ColdAndWarmRepliesAreBitEqualAndMatchOneShot) {
  std::vector<CorpusItem> Corpus = quickCorpus(1, 10);
  ASSERT_GE(Corpus.size(), 4u);
  serve::ServeOptions O;
  O.Workers = 2;
  O.MaxTimeoutMs = 20000;
  serve::Server S(O);
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Request Q;
    Q.K = Request::Solve;
    Q.Id = "corpus-" + std::to_string(I);
    Q.Smt2 = Corpus[I].Text;
    Response Cold = S.submit(Q);
    ASSERT_EQ(Cold.S, Response::Ok) << Cold.Message;
    EXPECT_EQ(Cold.Verdict, verdictName(Corpus[I].Expected)) << "item " << I;
    EXPECT_EQ(Cold.Cache, "miss") << "item " << I;
    Response Warm = S.submit(Q);
    ASSERT_EQ(Warm.S, Response::Ok);
    EXPECT_EQ(Warm.Cache, "hit") << "item " << I;
    // Warm replies replay the cold bytes exactly.
    EXPECT_EQ(Warm.Verdict, Cold.Verdict);
    EXPECT_EQ(Warm.Reason, Cold.Reason);
    EXPECT_EQ(Warm.ExitCode, Cold.ExitCode);
    EXPECT_EQ(Warm.Body, Cold.Body);
  }
  serve::ResultCacheStats CS = S.cacheStats();
  EXPECT_GT(CS.Hits, 0u);
  EXPECT_GT(CS.Misses, 0u);
}

TEST(ServeServerTest, NoCacheBypassesLookupAndPublish) {
  serve::ServeOptions O;
  O.Workers = 1;
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.NoCache = true;
  Q.Smt2 = "(declare-fun x () String)(assert (= x \"ab\"))(check-sat)";
  Response A = S.submit(Q);
  ASSERT_EQ(A.S, Response::Ok);
  EXPECT_EQ(A.Verdict, "sat");
  EXPECT_EQ(A.Cache, "bypass");
  Response B = S.submit(Q);
  EXPECT_EQ(B.Cache, "bypass");
  serve::ResultCacheStats CS = S.cacheStats();
  EXPECT_EQ(CS.Hits + CS.Misses, 0u);
  EXPECT_EQ(CS.Entries, 0u);
}

TEST(ServeServerTest, MalformedScriptsNeverReachAWorker) {
  serve::ServeOptions O;
  O.Workers = 1;
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.Smt2 = "(assert (= x";
  Response R = S.submit(Q);
  EXPECT_EQ(R.S, Response::Error);
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Message.find("parse error"), std::string::npos);
  EXPECT_EQ(S.stats().ParseErrors, 1u);
  EXPECT_EQ(S.stats().Solved, 0u);
}

//===----------------------------------------------------------------------===//
// Server: containment ladder
//===----------------------------------------------------------------------===//

TEST(ServeServerTest, SimulatedCrashQuarantinesRebuildsAndRetries) {
  serve::ServeOptions O;
  O.Workers = 1;
  O.AllowTestAbort = true;
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.TestAbort = true;
  Q.Smt2 = "(declare-fun x () String)(assert (= x \"ab\"))(check-sat)";
  Response R = S.submit(Q);
  // The crash is contained: the retry still produces the right verdict.
  ASSERT_EQ(R.S, Response::Ok) << R.Message;
  EXPECT_EQ(R.Verdict, "sat");
  serve::ServerStats St = S.stats();
  EXPECT_EQ(St.Quarantines, 1u);
  EXPECT_EQ(St.WorkerCrashes, 1u);
  EXPECT_EQ(St.Retries, 1u);
  EXPECT_EQ(St.Exhausted, 0u);

  // Without AllowTestAbort the flag is inert (a hostile client cannot
  // crash workers).
  serve::ServeOptions O2;
  O2.Workers = 1;
  serve::Server S2(O2);
  Response R2 = S2.submit(Q);
  ASSERT_EQ(R2.S, Response::Ok);
  EXPECT_EQ(R2.Verdict, "sat");
  EXPECT_EQ(S2.stats().WorkerCrashes, 0u);
}

TEST(ServeServerTest, ClientDegradedHeaderCannotDisableTheCrashRetry) {
  // The degraded-retry header, once sent by a client, switched the first
  // attempt to the degraded profile and so skipped the crash retry. The
  // key is now unknown and ignored, and the crash is retried as any
  // other.
  Result<Request> Q = serve::decodeRequest(
      "postr-serve/1 solve\nid: d\nx-degraded: 1\nx-test-abort: 1\n\n"
      "(declare-fun x () String)(assert (= x \"ab\"))(check-sat)");
  ASSERT_TRUE(static_cast<bool>(Q)) << Q.error();
  serve::ServeOptions O;
  O.Workers = 1;
  O.AllowTestAbort = true;
  serve::Server S(O);
  Response R = S.submit(*Q);
  ASSERT_EQ(R.S, Response::Ok) << R.Message;
  EXPECT_EQ(R.Verdict, "sat") << R.Reason;
  EXPECT_EQ(S.stats().WorkerCrashes, 1u);
  EXPECT_EQ(S.stats().Retries, 1u);
}

TEST(ServeServerTest, ResourceTripIsAnsweredWithoutQuarantineOrRetry) {
  // Establish the assumption: under a 1-step budget this problem trips
  // one-shot (so the serve-path behavior below is deterministic).
  const char *Text = "(declare-fun x () String)"
                     "(declare-fun y () String)"
                     "(assert (str.in_re x (re.* (str.to_re \"ab\"))))"
                     "(assert (str.in_re y (re.* (str.to_re \"ab\"))))"
                     "(assert (not (= (str.++ x y) (str.++ y x))))"
                     "(check-sat)";
  Result<strings::Problem> P = smtlib::parseString(Text);
  ASSERT_TRUE(static_cast<bool>(P));
  solver::SolveOptions OneShot;
  OneShot.TimeoutMs = 20000;
  OneShot.StepLimit = 1;
  solver::SolveResult OS = solver::solveProblem(*P, OneShot);
  ASSERT_EQ(OS.V, Verdict::Unknown);
  ASSERT_EQ(OS.Stop, StopReason::StepBudget);

  // The hook swaps the serve-wired budget for a 1-step one, so the worker
  // stops on StepBudget as it would on a real memory blow-up (MemOut),
  // deterministically.
  serve::ServeOptions O;
  O.Workers = 1;
  O.MutateSolveOptions = [](solver::SolveOptions &SO) {
    SO.Budget = nullptr;
    SO.TimeoutMs = 20000;
    SO.StepLimit = 1;
  };
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.Smt2 = Text;
  Response R = S.submit(Q);
  ASSERT_EQ(R.S, Response::Ok);
  EXPECT_EQ(R.Verdict, "unknown");
  EXPECT_EQ(R.Reason, "stepbudget");
  EXPECT_EQ(R.ExitCode, 6);
  serve::ServerStats St = S.stats();
  // The budget unwound cleanly and a rerun would trip the same way: the
  // stop is the answer, with no quarantine and no retry.
  EXPECT_EQ(St.Quarantines, 0u);
  EXPECT_EQ(St.Retries, 0u);
  EXPECT_EQ(St.Exhausted, 0u);
  // Resource-tripped results are never published.
  EXPECT_EQ(S.cacheStats().Entries, 0u);
}

TEST(ServeServerTest, PoisonedEntriesAreNeverServed) {
  std::atomic<bool> Tamper{true};
  serve::ServeOptions O;
  O.Workers = 1;
  O.MutateSolveOptions = [&Tamper](solver::SolveOptions &SO) {
    if (!Tamper.load())
      return;
    SO.TamperModel = [](std::map<VarId, Word> &Words,
                        std::map<strings::IntVarId, int64_t> &) {
      for (auto &[X, W] : Words) {
        (void)X;
        W.assign(7, 0); // falsifies (= x "ab") while staying in-alphabet
      }
    };
  };
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.Smt2 = "(declare-fun x () String)(assert (= x \"ab\"))(check-sat)";

  // The self-check rejects the tampered model on both the first attempt
  // and the retry: structured unknown, exit code 7, and —
  // critically — nothing published to the cache.
  Response R = S.submit(Q);
  ASSERT_EQ(R.S, Response::Ok);
  EXPECT_EQ(R.Verdict, "unknown");
  EXPECT_EQ(R.Reason, "self-check failed");
  EXPECT_EQ(R.ExitCode, 7);
  serve::ServerStats St = S.stats();
  EXPECT_EQ(St.Quarantines, 2u);
  EXPECT_EQ(St.Retries, 1u);
  EXPECT_EQ(St.Exhausted, 1u);
  EXPECT_EQ(S.cacheStats().Entries, 0u);

  // Heal the worker: the same query must now MISS (the poisoned result
  // was never served from the cache) and return the true verdict...
  Tamper.store(false);
  Response Fresh = S.submit(Q);
  ASSERT_EQ(Fresh.S, Response::Ok);
  EXPECT_EQ(Fresh.Verdict, "sat");
  EXPECT_EQ(Fresh.Cache, "miss");
  // ...and only now is it cached.
  Response Warm = S.submit(Q);
  EXPECT_EQ(Warm.Cache, "hit");
  EXPECT_EQ(Warm.Verdict, "sat");
}

TEST(ServeServerTest, AdmissionControlShedsWithRetryAfter) {
  std::atomic<int> SlowSolves{0};
  serve::ServeOptions O;
  O.Workers = 1;
  O.QueueMax = 0; // no waiting room: a busy worker means shed
  O.MutateSolveOptions = [&SlowSolves](solver::SolveOptions &) {
    ++SlowSolves;
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
  };
  serve::Server S(O);
  Request Q;
  Q.K = Request::Solve;
  Q.NoCache = true;
  Q.Smt2 = "(declare-fun x () String)(assert (= x \"ab\"))(check-sat)";

  std::thread T([&] { (void)S.submit(Q); });
  // Wait until the slow solve holds the only worker, then submit.
  while (SlowSolves.load() == 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Response Shed = S.submit(Q);
  T.join();
  ASSERT_EQ(Shed.S, Response::Busy);
  EXPECT_GT(Shed.RetryAfterMs, 0u);
  EXPECT_EQ(S.stats().Shed, 1u);
}

//===----------------------------------------------------------------------===//
// Soak: randomized concurrent mix, verdicts vs one-shot
//===----------------------------------------------------------------------===//

TEST(ServeServerTest, ConcurrentSoakMatchesOneShotVerdicts) {
  // Precompute a corpus with one-shot expected verdicts.
  std::vector<CorpusItem> Corpus = quickCorpus(40, 10);
  ASSERT_GE(Corpus.size(), 4u);

  serve::ServeOptions O;
  O.Workers = 3;
  O.QueueMax = 16;
  O.AllowTestAbort = true;
  O.MaxTimeoutMs = 15000;
  serve::Server S(O);

  std::atomic<uint32_t> Mismatches{0}, Served{0}, Busy{0}, Errors{0};
  auto Client = [&](uint32_t Tid) {
    std::mt19937 Rng(1234 + Tid);
    for (int I = 0; I < 25; ++I) {
      uint32_t Dice = Rng() % 100;
      Request Q;
      Q.K = Request::Solve;
      Q.Id = std::to_string(Tid) + "-" + std::to_string(I);
      const CorpusItem *Expect = nullptr;
      if (Dice < 10) {
        Q.Smt2 = "(assert (= x"; // malformed
      } else if (Dice < 20) {
        Q.Smt2 = Corpus[Rng() % Corpus.size()].Text;
        Q.TimeoutMs = 1 + Rng() % 2; // mid-solve cancellation pressure
      } else if (Dice < 25) {
        Q.Smt2 = Corpus[Rng() % Corpus.size()].Text;
        Q.TestAbort = true; // crash-containment pressure
        Q.NoCache = true;   // a cache hit would never reach a worker
      } else {
        const CorpusItem &It = Corpus[Rng() % Corpus.size()];
        Q.Smt2 = It.Text;
        Q.NoCache = Rng() % 4 == 0;
        Expect = &It;
      }
      Response R = S.submit(Q);
      // Every reply is structured; nothing crashes the server.
      if (R.S == Response::Busy) {
        ++Busy;
        continue;
      }
      if (R.S == Response::Error) {
        ++Errors;
        EXPECT_NE(R.Message.find("parse error"), std::string::npos)
            << R.Message;
        continue;
      }
      ++Served;
      if (Expect && Expect->Expected != Verdict::Unknown &&
          R.Verdict != verdictName(Expect->Expected))
        ++Mismatches;
    }
  };
  std::vector<std::thread> Threads;
  for (uint32_t T = 0; T < 4; ++T)
    Threads.emplace_back(Client, T);
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Mismatches.load(), 0u);
  EXPECT_GT(Served.load(), 0u);
  serve::ServerStats St = S.stats();
  EXPECT_EQ(St.Requests, 100u);
  EXPECT_GT(St.Quarantines, 0u); // the TestAbort traffic exercised it
  EXPECT_EQ(St.ParseErrors, Errors.load());
}

} // namespace
