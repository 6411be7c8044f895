//===- serve/Server.cpp - The resident solver service -----------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Worker.h"
#include "smtlib/Printer.h"
#include "smtlib/Reader.h"

#include <algorithm>
#include <cstdlib>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

namespace postr {
namespace serve {

//===----------------------------------------------------------------------===//
// Options from the environment
//===----------------------------------------------------------------------===//

namespace {

uint64_t envU64(const char *Name, uint64_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  char *End = nullptr;
  unsigned long long N = std::strtoull(V, &End, 10);
  return End && *End == '\0' ? N : Default;
}

bool envFlag(const char *Name) {
  const char *V = std::getenv(Name);
  return V && *V && std::string(V) != "0";
}

} // namespace

ServeOptions serveOptionsFromEnv() {
  ServeOptions O;
  O.Workers = static_cast<uint32_t>(
      std::max<uint64_t>(1, envU64("POSTR_SERVE_WORKERS", O.Workers)));
  O.QueueMax =
      static_cast<uint32_t>(envU64("POSTR_SERVE_QUEUE_MAX", O.QueueMax));
  O.MaxTimeoutMs = envU64("POSTR_SERVE_MAX_TIMEOUT_MS", O.MaxTimeoutMs);
  O.MemLimitBytes = envU64("POSTR_SERVE_MEM_LIMIT_BYTES", O.MemLimitBytes);
  O.CacheBytes = envU64("POSTR_SERVE_CACHE_BYTES", O.CacheBytes);
  O.MaxRequestBytes =
      std::max<uint64_t>(4096, envU64("POSTR_SERVE_MAX_REQUEST_BYTES",
                                      O.MaxRequestBytes));
  O.KillGraceMs = envU64("POSTR_SERVE_KILL_GRACE_MS", O.KillGraceMs);
  O.AllowTestAbort = envFlag("POSTR_SERVE_ALLOW_TEST_ABORT");
  if (const char *SC = std::getenv("POSTR_SELFCHECK"))
    O.ParanoidHits = std::string(SC) == "paranoid";
  return O;
}

//===----------------------------------------------------------------------===//
// Worker slots
//===----------------------------------------------------------------------===//

struct Server::WorkerSlot {
  /// Forked mode: child pid and the daemon's pipe ends.
  pid_t Pid = -1;
  int FdIn = -1;  ///< write requests here
  int FdOut = -1; ///< read responses here
  bool Busy = false;
};

Server::Server(const ServeOptions &O) : Opts(O) {
  if (Opts.CacheBytes)
    Cache = std::make_unique<ResultCache>(Opts.CacheBytes);
  for (uint32_t I = 0; I < std::max(1u, Opts.Workers); ++I)
    Slots.push_back(std::make_unique<WorkerSlot>());
  // Forked children are spawned lazily on first use; a dead daemon-side
  // pipe must not kill the daemon.
  if (Opts.ForkWorkers)
    ::signal(SIGPIPE, SIG_IGN);
}

Server::~Server() {
  ShuttingDown.store(true);
  std::unique_lock<std::mutex> L(Mu);
  SlotFree.notify_all();
  // In-flight solves run on caller threads; their budgets observe
  // ShuttingDown (it doubles as the Cancel flag) and return promptly.
  SlotFree.wait(L, [&] {
    for (const auto &S : Slots)
      if (S->Busy)
        return false;
    return true;
  });
  L.unlock();
  for (auto &S : Slots)
    reapWorker(*S, /*Kill=*/false);
}

void Server::spawnWorker(WorkerSlot &S) {
  // Close-on-exec from birth: a sibling worker forked from another
  // thread before these fds were marked would carry our write end across
  // its exec, and closing FdIn would then never deliver EOF.
  int ToChild[2], FromChild[2];
  if (::pipe2(ToChild, O_CLOEXEC) != 0)
    return;
  if (::pipe2(FromChild, O_CLOEXEC) != 0) {
    ::close(ToChild[0]);
    ::close(ToChild[1]);
    return;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    for (int Fd : {ToChild[0], ToChild[1], FromChild[0], FromChild[1]})
      ::close(Fd);
    return;
  }
  if (Pid == 0) {
    // Child: land the pipe ends on fixed fds and re-exec ourselves with
    // the hidden worker flag (the embedding binary routes it to
    // workerChildMain). dup2 clears CLOEXEC; the collision cases keep
    // the fd and just clear the flag.
    ::close(ToChild[1]);
    ::close(FromChild[0]);
    int In = ToChild[0], Out = FromChild[1];
    if (Out == 3)
      Out = ::dup(Out);
    if (In != 3) {
      ::dup2(In, 3);
      ::close(In);
    } else {
      ::fcntl(3, F_SETFD, 0);
    }
    if (Out != 4) {
      ::dup2(Out, 4);
      ::close(Out);
    } else {
      ::fcntl(4, F_SETFD, 0);
    }
    ::execl("/proc/self/exe", "postr-serve-worker", "--worker-child", "3",
            "4", static_cast<char *>(nullptr));
    _exit(127);
  }
  // Parent.
  ::close(ToChild[0]);
  ::close(FromChild[1]);
  S.Pid = Pid;
  S.FdIn = ToChild[1];
  S.FdOut = FromChild[0];
}

void Server::reapWorker(WorkerSlot &S, bool Kill) {
  if (S.FdIn >= 0) {
    ::close(S.FdIn); // EOF: an idle child exits cleanly
    S.FdIn = -1;
  }
  if (S.FdOut >= 0) {
    ::close(S.FdOut);
    S.FdOut = -1;
  }
  if (S.Pid > 0) {
    if (Kill)
      ::kill(S.Pid, SIGKILL);
    int Status = 0;
    ::waitpid(S.Pid, &Status, 0);
    S.Pid = -1;
  }
}

void Server::quarantine(WorkerSlot &S) {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++St.Quarantines;
  }
  // A forked child is respawned lazily on next use. An in-process
  // worker keeps no state between queries, so it has nothing to tear down.
  if (Opts.ForkWorkers)
    reapWorker(S, /*Kill=*/true);
}

Server::WorkerSlot *Server::acquireSlot(uint64_t &RetryAfterMs) {
  std::unique_lock<std::mutex> L(Mu);
  auto FindFree = [&]() -> WorkerSlot * {
    for (auto &S : Slots)
      if (!S->Busy)
        return S.get();
    return nullptr;
  };
  WorkerSlot *S = FindFree();
  if (!S) {
    if (Waiters >= Opts.QueueMax || ShuttingDown.load()) {
      // Shed: hint a backoff proportional to the queue we just refused
      // to join.
      RetryAfterMs = std::min<uint64_t>(1000, 50 * (Waiters + 1));
      return nullptr;
    }
    ++Waiters;
    SlotFree.wait(L, [&] { return FindFree() || ShuttingDown.load(); });
    --Waiters;
    S = FindFree();
    if (!S) {
      RetryAfterMs = 0; // shutting down: no point retrying
      return nullptr;
    }
  }
  S->Busy = true;
  return S;
}

void Server::releaseSlot(WorkerSlot *S) {
  std::lock_guard<std::mutex> L(Mu);
  S->Busy = false;
  SlotFree.notify_all();
}

//===----------------------------------------------------------------------===//
// One attempt on one worker
//===----------------------------------------------------------------------===//

Response Server::runOnWorker(WorkerSlot &Slot, const Request &Req,
                             bool &Crashed, bool &Killed) {
  Crashed = Killed = false;
  if (!Opts.ForkWorkers) {
    if (Req.TestAbort && Opts.AllowTestAbort) {
      // Simulated crash: the containment ladder runs exactly as if the
      // process had died, without taking the test binary with it.
      Crashed = true;
      return Response{};
    }
    return solveRequest(Req, Opts, &ShuttingDown);
  }

  if (Slot.Pid < 0)
    spawnWorker(Slot);
  if (Slot.Pid < 0) {
    Response R;
    R.S = Response::Error;
    R.Id = Req.Id;
    R.Message = "cannot spawn worker";
    R.ExitCode = 2;
    return R;
  }
  if (!writeFrame(Slot.FdIn, encodeRequest(Req))) {
    Crashed = true;
    reapWorker(Slot, /*Kill=*/true);
    return Response{};
  }
  // The child enforces the request deadline itself and replies
  // `unknown (timeout)`; the grace window only catches a *stuck* child
  // (hard-looping outside budget probes, SIGSTOPped, ...).
  uint64_t ReadDeadline = Req.TimeoutMs + Opts.KillGraceMs;
  Result<std::string> Frame =
      readFrame(Slot.FdOut, Opts.MaxRequestBytes, ReadDeadline);
  if (!Frame) {
    if (Frame.error() == "timeout") {
      Killed = true;
      reapWorker(Slot, /*Kill=*/true);
      return Response{};
    }
    Crashed = true; // EOF or broken frame: the child died mid-query
    reapWorker(Slot, /*Kill=*/true);
    return Response{};
  }
  Result<Response> Resp = decodeResponse(*Frame);
  if (!Resp) {
    Crashed = true;
    reapWorker(Slot, /*Kill=*/true);
    return Response{};
  }
  return *Resp;
}

//===----------------------------------------------------------------------===//
// Admission, containment ladder, cache
//===----------------------------------------------------------------------===//

namespace {

/// Structured `unknown (reason)` reply — the containment ladder's
/// terminal answer. Exit codes follow the smtlib_cli taxonomy.
Response unknownReply(const std::string &Id, const std::string &Reason,
                      int ExitCode) {
  Response R;
  R.S = Response::Ok;
  R.Id = Id;
  R.Verdict = "unknown";
  R.Reason = Reason;
  R.ExitCode = ExitCode;
  return R;
}

/// Does this reply end the containment ladder? A determinate validated
/// verdict is always served; everything else on the trigger list gets
/// the one degraded retry.
bool isQuarantineTrigger(const Response &R, std::string &Reason,
                         int &ExitCode) {
  if (R.SelfCheckFailed) {
    Reason = "self-check failed";
    ExitCode = 7;
    return true;
  }
  if (R.FaultFired && R.Verdict != "sat" && R.Verdict != "unsat") {
    Reason = "fault-injected";
    ExitCode = 2;
    return true;
  }
  if (R.Reason == "memout") {
    Reason = "memout";
    ExitCode = 5;
    return true;
  }
  if (R.Reason == "stepbudget") {
    Reason = "stepbudget";
    ExitCode = 6;
    return true;
  }
  return false;
}

} // namespace

Response Server::solveAdmitted(const Request &Req, uint64_t EffTimeoutMs) {
  Request Eff = Req;
  Eff.TimeoutMs = EffTimeoutMs;

  uint64_t RetryAfterMs = 0;
  WorkerSlot *Slot = acquireSlot(RetryAfterMs);
  if (!Slot) {
    std::lock_guard<std::mutex> L(Mu);
    ++St.Shed;
    Response R;
    R.S = Response::Busy;
    R.Id = Req.Id;
    R.RetryAfterMs = RetryAfterMs;
    R.Message = ShuttingDown.load() ? "shutting down" : "server busy";
    return R;
  }

  bool Crashed = false, Killed = false;
  Response R = runOnWorker(*Slot, Eff, Crashed, Killed);

  std::string FailReason;
  int FailCode = 2;
  bool Retry = false;
  if (Killed) {
    // The worker overran deadline + grace and was SIGKILLed: its budget
    // is spent, so this is terminal, not retried.
    std::lock_guard<std::mutex> L(Mu);
    ++St.WorkerKills;
    ++St.Quarantines;
    R = unknownReply(Req.Id, "timeout", 3);
  } else if (Crashed) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++St.WorkerCrashes;
    }
    quarantine(*Slot);
    FailReason = "worker-crash";
    Retry = true;
  } else if (R.S == Response::Ok &&
             isQuarantineTrigger(R, FailReason, FailCode)) {
    quarantine(*Slot);
    Retry = true;
  } else if (R.S == Response::Ok && R.FaultFired) {
    // Determinate, validated verdict despite a fired fault: serve it
    // (it passed the self-check) but still replace the worker.
    quarantine(*Slot);
  }

  if (Retry && !Eff.Degraded) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++St.DegradedRetries;
    }
    Request RetryReq = Eff;
    RetryReq.Degraded = true;
    RetryReq.TestAbort = false; // the simulated crash happened; recover
    bool Crashed2 = false, Killed2 = false;
    Response R2 = runOnWorker(*Slot, RetryReq, Crashed2, Killed2);
    if (Killed2) {
      std::lock_guard<std::mutex> L(Mu);
      ++St.WorkerKills;
      ++St.Quarantines;
      ++St.Exhausted;
      R = unknownReply(Req.Id, "timeout", 3);
    } else if (Crashed2) {
      {
        std::lock_guard<std::mutex> L(Mu);
        ++St.WorkerCrashes;
        ++St.Exhausted;
      }
      quarantine(*Slot);
      R = unknownReply(Req.Id, FailReason, FailCode);
    } else if (R2.S == Response::Ok &&
               isQuarantineTrigger(R2, FailReason, FailCode)) {
      {
        std::lock_guard<std::mutex> L(Mu);
        ++St.Exhausted;
      }
      quarantine(*Slot);
      R = unknownReply(Req.Id, FailReason, FailCode);
    } else {
      R = R2;
    }
  } else if (Retry) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++St.Exhausted;
    }
    R = unknownReply(Req.Id, FailReason, FailCode);
  }

  releaseSlot(Slot);
  return R;
}

//===----------------------------------------------------------------------===//
// Entry point
//===----------------------------------------------------------------------===//

Response Server::submit(const Request &Req) {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++St.Requests;
  }
  Response Out;
  switch (Req.K) {
  case Request::Ping:
    Out.S = Response::Ok;
    Out.Id = Req.Id;
    break;
  case Request::Stats:
    Out.S = Response::Ok;
    Out.Id = Req.Id;
    Out.Body = statsJson();
    break;
  case Request::Shutdown:
    // Acknowledged here; the daemon's accept loop acts on it.
    Out.S = Response::Ok;
    Out.Id = Req.Id;
    break;
  case Request::Solve: {
    // Parse in the dispatcher: admission hygiene (malformed scripts
    // never consume a worker) and the canonical cache key.
    Result<strings::Problem> P = smtlib::parseString(Req.Smt2);
    if (!P) {
      std::lock_guard<std::mutex> L(Mu);
      ++St.ParseErrors;
      Out.S = Response::Error;
      Out.Id = Req.Id;
      Out.Message = "parse error: " + P.error();
      Out.ExitCode = 1;
      break;
    }
    std::string Key = smtlib::printProblem(*P);
    uint64_t EffMs = effectiveTimeoutMs(Req.TimeoutMs, P->timeoutMs(), Opts);
    bool UseCache = Cache != nullptr && !Req.NoCache;

    if (UseCache) {
      if (std::optional<CachedReply> Hit = Cache->lookup(Key)) {
        if (!Opts.ParanoidHits) {
          Out.S = Response::Ok;
          Out.Id = Req.Id;
          Out.Verdict = Hit->Verdict;
          Out.Reason = Hit->Reason;
          Out.ExitCode = Hit->ExitCode;
          Out.Body = Hit->Body;
          Out.Cache = "hit";
          break;
        }
        // Paranoid: re-derive the hit from scratch and only serve it if
        // the fresh solve agrees; a mismatch means a poisoned entry
        // slipped through — drop it and serve (and count) the truth.
        Response Fresh = solveAdmitted(Req, EffMs);
        bool Agrees = Fresh.S == Response::Ok &&
                      Fresh.Verdict == Hit->Verdict &&
                      Fresh.Reason == Hit->Reason &&
                      Fresh.ExitCode == Hit->ExitCode &&
                      Fresh.Body == Hit->Body;
        if (!Agrees)
          Cache->erase(Key);
        if (Agrees)
          Fresh.Cache = "hit";
        else if (Fresh.S == Response::Ok && Fresh.Publishable &&
                 !Fresh.Verdict.empty() && Fresh.Verdict != "unknown")
          Cache->publish(Key, {Fresh.Verdict, Fresh.Reason, Fresh.ExitCode,
                               Fresh.Body});
        Out = std::move(Fresh);
        if (Out.Cache.empty())
          Out.Cache = "miss";
        break;
      }
    }

    Out = solveAdmitted(Req, EffMs);
    if (Out.S == Response::Ok)
      Out.Cache = UseCache ? "miss" : "bypass";
    if (UseCache && Out.S == Response::Ok && !Out.Verdict.empty() &&
        Out.Verdict != "unknown") {
      if (Out.Publishable)
        Cache->publish(Key,
                       {Out.Verdict, Out.Reason, Out.ExitCode, Out.Body});
      else
        Cache->rejectPoisoned();
    } else if (UseCache && Out.S == Response::Ok &&
               (Out.SelfCheckFailed || Out.FaultFired)) {
      Cache->rejectPoisoned();
    }
    break;
  }
  }

  if (Out.S == Response::Ok && !Out.Verdict.empty()) {
    std::lock_guard<std::mutex> L(Mu);
    ++St.Solved;
    if (Out.Verdict == "sat")
      ++St.Sat;
    else if (Out.Verdict == "unsat")
      ++St.Unsat;
    else
      ++St.Unknown;
  }

  // The daemon↔worker-only fields never cross the client boundary.
  Out.Publishable = false;
  Out.SelfCheckFailed = false;
  Out.FaultFired = false;
  Out.BudgetTrips = 0;
  Out.DegradedRetries = 0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return St;
}

ResultCacheStats Server::cacheStats() const {
  return Cache ? Cache->stats() : ResultCacheStats{};
}

std::string Server::statsJson() const {
  ServerStats S = stats();
  ResultCacheStats C = cacheStats();
  std::string J = "{";
  auto Field = [&J](const char *K, uint64_t V, bool Last = false) {
    J += "\"";
    J += K;
    J += "\": ";
    J += std::to_string(V);
    if (!Last)
      J += ", ";
  };
  Field("requests", S.Requests);
  Field("solved", S.Solved);
  Field("parse_errors", S.ParseErrors);
  Field("sat", S.Sat);
  Field("unsat", S.Unsat);
  Field("unknown", S.Unknown);
  Field("shed", S.Shed);
  Field("quarantines", S.Quarantines);
  Field("worker_crashes", S.WorkerCrashes);
  Field("worker_kills", S.WorkerKills);
  Field("degraded_retries", S.DegradedRetries);
  Field("exhausted", S.Exhausted);
  J += "\"cache\": {";
  Field("hits", C.Hits);
  Field("misses", C.Misses);
  Field("evictions", C.Evictions);
  Field("poisoned_rejects", C.PoisonedRejects);
  Field("paranoid_mismatches", C.ParanoidMismatches);
  Field("entries", C.Entries);
  Field("bytes", C.Bytes, /*Last=*/true);
  J += "}}";
  return J;
}

} // namespace serve
} // namespace postr
