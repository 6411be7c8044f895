//===- serve/Server.h - The resident solver service --------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant resident solver behind `postr_serve`: a pool of
/// crash-contained worker sessions, admission control with load
/// shedding, per-request deadlines wired into the cooperative `Budget`,
/// and the validated cross-query result cache of serve/Cache.h.
///
/// One orchestration codepath drives two executor modes:
///
///  - **In-process** (`ForkWorkers = false`): requests solve on the
///    calling thread against a pool-managed per-worker state. Used by
///    the in-process soak tests, where ASan must see
///    every allocation and a "crash" is simulated (`x-test-abort`).
///  - **Forked** (`ForkWorkers = true`): each worker is a child process
///    (`<exe> --worker-child <fdIn> <fdOut>`, frames over pipes), so a
///    real SIGKILL, abort, or memory blow-up is contained: the daemon
///    observes EOF or a deadline overrun, reaps and respawns the child,
///    and answers structurally. Used by the `postr_serve` daemon.
///
/// Containment ladder (both modes): a worker that crashes, fails the
/// solver's self-check, or trips an injected fault is *quarantined* — a
/// forked child is killed and respawned on next use; an in-process
/// worker holds no state across queries, so there it is only counted —
/// and the query is retried once, as sent, on a clean worker. A second
/// failure returns a structured `unknown (reason)`, never a crash and
/// never a wrong verdict. A budget stop (timeout, memout, stepbudget) is
/// an answer, not a failure: it is served as `unknown (reason)` at once.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SERVE_SERVER_H
#define POSTR_SERVE_SERVER_H

#include "serve/Cache.h"
#include "serve/Protocol.h"
#include "solver/PositionSolver.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace postr {
namespace serve {

/// Server configuration. Every field has an environment override (see
/// `serveOptionsFromEnv` and docs/KNOBS.md) so deployments tune the
/// daemon without rebuilds.
struct ServeOptions {
  /// Resident worker sessions (concurrent solves). Env
  /// POSTR_SERVE_WORKERS.
  uint32_t Workers = 2;
  /// Bounded admission queue: at most this many requests wait for a
  /// worker; beyond it requests are shed with `busy` + a retry-after
  /// hint. Env POSTR_SERVE_QUEUE_MAX.
  uint32_t QueueMax = 64;
  /// Server-side per-request wall-clock cap in ms. A client budget
  /// (header or scripted `:timeout`) is intersected with it; absent any
  /// client budget this is the deadline. Env POSTR_SERVE_MAX_TIMEOUT_MS.
  uint64_t MaxTimeoutMs = solver::DefaultTimeoutMs;
  /// Per-request solver memory budget in bytes (0 = none); exceeding it
  /// is a quarantine trigger. Env POSTR_SERVE_MEM_LIMIT_BYTES.
  uint64_t MemLimitBytes = 0;
  /// Whole-query result-cache capacity in bytes (0 disables the tier).
  /// Env POSTR_SERVE_CACHE_BYTES.
  uint64_t CacheBytes = 64ull << 20;
  /// Cap on one request frame's payload. Env
  /// POSTR_SERVE_MAX_REQUEST_BYTES.
  uint64_t MaxRequestBytes = DefaultMaxFrameBytes;
  /// Forked mode: how long past the request deadline a worker may run
  /// before it is SIGKILLed and respawned. Env POSTR_SERVE_KILL_GRACE_MS.
  uint64_t KillGraceMs = 2000;
  /// Re-solve every result-cache hit from scratch and compare before
  /// serving it (POSTR_SELFCHECK=paranoid); a mismatch drops the entry
  /// and serves the fresh result.
  bool ParanoidHits = false;
  /// Honour `x-test-abort` requests (CI/test rigs only): the worker
  /// simulates a crash mid-query so recovery paths can be driven
  /// deterministically. Env POSTR_SERVE_ALLOW_TEST_ABORT.
  bool AllowTestAbort = false;
  /// Executor mode: true forks one child process per worker (real crash
  /// containment); false solves in-process (tests, bench).
  bool ForkWorkers = false;
  /// Test-only: mutate the worker's SolveOptions before each solve
  /// (install the model/cert tamper hooks, force certification) so the
  /// containment and cache-validation paths can be driven
  /// deterministically. In-process mode only; never set in production.
  std::function<void(solver::SolveOptions &)> MutateSolveOptions;
};

/// Reads the POSTR_SERVE_* environment overrides (and
/// POSTR_SELFCHECK=paranoid for ParanoidHits) on top of the defaults.
ServeOptions serveOptionsFromEnv();

/// Monotonic counters, exported as JSON by `statsJson` (the daemon's
/// --stats/health endpoint and the test assertions read that).
struct ServerStats {
  uint64_t Requests = 0;
  uint64_t Solved = 0;
  uint64_t ParseErrors = 0;
  uint64_t Sat = 0;
  uint64_t Unsat = 0;
  uint64_t Unknown = 0;
  /// Requests shed by admission control (busy replies).
  uint64_t Shed = 0;
  /// Quarantines: failed worker sessions (forked children are killed
  /// and respawned).
  uint64_t Quarantines = 0;
  /// Forked workers that died mid-query (EOF / bad frame).
  uint64_t WorkerCrashes = 0;
  /// Forked workers SIGKILLed for overrunning deadline + grace.
  uint64_t WorkerKills = 0;
  /// Queries re-run once on a clean worker after a quarantine.
  uint64_t Retries = 0;
  /// Replies answered `unknown` after the retry also failed.
  uint64_t Exhausted = 0;
};

class Server {
public:
  explicit Server(const ServeOptions &Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Handles one request end to end (admission, cache, dispatch,
  /// containment). Thread-safe; solve requests block until a worker is
  /// free or admission control sheds them. The returned response has
  /// the daemon↔worker-only fields cleared.
  Response submit(const Request &Req);

  /// Counter snapshot as one JSON object (stats requests, --stats).
  std::string statsJson() const;

  ServerStats stats() const;
  ResultCacheStats cacheStats() const;
  const ServeOptions &options() const { return Opts; }

private:
  struct WorkerSlot;

  /// One solve attempt on \p Slot. Returns false in *Crashed when the
  /// worker vanished instead of replying.
  Response runOnWorker(WorkerSlot &Slot, const Request &Req, bool &Crashed,
                       bool &Killed);
  Response solveAdmitted(const Request &Req, uint64_t EffTimeoutMs);
  WorkerSlot *acquireSlot(uint64_t &RetryAfterMs);
  void releaseSlot(WorkerSlot *Slot);
  void quarantine(WorkerSlot &Slot);
  void spawnWorker(WorkerSlot &Slot);
  void reapWorker(WorkerSlot &Slot, bool Kill);

  ServeOptions Opts;
  std::unique_ptr<ResultCache> Cache; ///< null when CacheBytes == 0
  std::atomic<bool> ShuttingDown{false};

  mutable std::mutex Mu;
  std::condition_variable SlotFree;
  std::vector<std::unique_ptr<WorkerSlot>> Slots;
  uint32_t Waiters = 0;
  ServerStats St;
};

} // namespace serve
} // namespace postr

#endif // POSTR_SERVE_SERVER_H
