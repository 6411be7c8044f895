//===- base/Budget.h - Cooperative resource governance ---------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single cooperative resource-governance token shared by every layer of
/// the solver stack. A `Budget` combines a wall-clock deadline, an explicit
/// memory-accounting cap (charged at the growth sites: NFA state and
/// transition vectors, subset-construction maps, tableau rows, the learnt
/// clause DB), a step budget, and a cooperative cancellation flag. Layers
/// poll it through the cheap `checkpoint()` probe at loop heads; once any
/// limit trips, the first reason wins and every later probe answers
/// "stop". Every probe of a budget with a deadline reads the coarse
/// monotonic clock (a few ns, no syscall), and only within two coarse ticks
/// of the deadline the precise one, so a trip lands at the first probe
/// after the deadline rather than after a fixed number of probes. The
/// trip reason surfaces as a structured `StopReason` on `Verdict::Unknown`
/// results so callers can tell a timeout from a memory cap from an
/// external cancellation, and the budget remembers the probe site that
/// first answered "stop", so callers can name the layer that noticed.
///
/// Deterministic fault injection rides on the same probes: when
/// `POSTR_FAULT_INJECT=<site>:<n>[:seed]` is set (or a `FaultInjector` is
/// armed programmatically), the n-th probe of the named site trips the
/// current budget with a seed-derived reason. Tests sweep every registered
/// site to prove each layer unwinds cleanly mid-flight.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BASE_BUDGET_H
#define POSTR_BASE_BUDGET_H

#include "base/Base.h"

#include <atomic>
#include <cstddef>

namespace postr {

/// Why a solve stopped without a determinate verdict. `None` means the
/// verdict (including Unknown for incompleteness reasons, e.g. non-flat
/// ¬contains) was reached without exhausting any resource limit.
enum class StopReason : uint8_t {
  None = 0,
  /// The wall-clock deadline expired.
  Timeout,
  /// The external cancel flag was raised (user interrupt, daemon
  /// shutdown) on this budget or an ancestor.
  Cancelled,
  /// The memory-accounting cap was exceeded at a growth site.
  MemOut,
  /// The step budget (or an engine-internal work cap) ran out.
  StepBudget,
};

/// Printable name for a stop reason ("none", "timeout", ...).
const char *stopReasonName(StopReason R);

/// Shared cooperative budget token. One `Budget` is typically created per
/// top-level solve and threaded (as a non-owning pointer) through every
/// layer; the pipeline derives one child budget per disjunct so a single
/// disjunct's MemOut does not kill its siblings.
///
/// Thread-safe: all mutation is on atomics, so another thread may raise
/// the cancel flag or trip() while the solving thread probes.
class Budget {
public:
  /// Construction-time limits; 0 / nullptr disables a dimension.
  struct Limits {
    /// Wall-clock allowance measured from construction, in ms. With a
    /// Parent, capped at the nearest ancestor deadline.
    uint64_t TimeoutMs = 0;
    /// Cap on bytes charged via chargeMem().
    uint64_t MemLimitBytes = 0;
    /// Cap on abstract steps charged via checkpoint()/chargeSteps().
    uint64_t StepLimit = 0;
    /// Optional external cancel flag, polled on every checkpoint of this
    /// budget and of every descendant.
    const std::atomic<bool> *Cancel = nullptr;
    /// Optional parent budget, polled on every checkpoint: once an
    /// ancestor trips (for any reason), this budget trips with the same
    /// reason, and once an ancestor's cancel flag is raised, with
    /// Cancelled. A stop thus propagates down arbitrarily nested children
    /// while first-reason-wins still holds at every level. The parent
    /// must outlive the child.
    const Budget *Parent = nullptr;
  };

  Budget() : Budget(Limits{}) {}
  /// A budget whose Parent has already tripped or been cancelled, or whose
  /// deadline (its own or an ancestor's) has already passed, is born
  /// tripped: with the ancestor's reason, Cancelled, or Timeout.
  explicit Budget(const Limits &L);

  Budget(const Budget &) = delete;
  Budget &operator=(const Budget &) = delete;

  /// The cheap probe. Returns true while work may continue, false once any
  /// limit has tripped. `Site` names the calling layer boundary (e.g.
  /// "nfa.determinize"); it keys fault injection and costs nothing when no
  /// injector is armed. The cancel flag and trip state are one relaxed
  /// load each; with a deadline set, each call reads the coarse monotonic
  /// clock, and the precise clock only once the coarse reading is within
  /// two ticks of the deadline (the coarse clock's worst measured lag).
  /// The first call that answers false records \p Site as tripSite().
  bool checkpoint(const char *Site);

  /// Charges \p Bytes against the memory cap; trips MemOut and returns
  /// false when the cap is exceeded. Callers charge at container growth
  /// sites, not per element.
  bool chargeMem(uint64_t Bytes);

  /// Charges \p N abstract steps against the step budget.
  bool chargeSteps(uint64_t N);

  /// Trips the budget with \p R; the first reason wins and later trips are
  /// ignored. Returns the reason that actually stuck.
  StopReason trip(StopReason R);

  /// True once any limit has tripped.
  bool exceeded() const { return Reason.load(std::memory_order_relaxed) != StopReason::None; }

  /// The first reason that tripped, or None.
  StopReason reason() const { return Reason.load(std::memory_order_relaxed); }

  /// The site of the first checkpoint() that answered false, or nullptr
  /// (not tripped, or tripped and not probed since — e.g. by chargeMem).
  const char *tripSite() const {
    return TripSite.load(std::memory_order_relaxed);
  }

  /// Milliseconds left until the deadline; ~0ull when no deadline is set,
  /// 0 when it has passed. childLimits() derives child deadlines from it.
  uint64_t remainingMs() const;

  /// Limits for a child budget derived from this one — the single place
  /// deadline-propagation math lives (per-disjunct and per-baseline
  /// budgets call this instead of open-coding min/remaining juggling).
  /// The child's wall-clock allowance is the parent's remaining time
  /// (none when the parent has no deadline). Memory/step limits are
  /// inherited unless \p MemBytes / \p Steps override them (nonzero =
  /// tighter of the two). The child carries a Parent link back to this
  /// budget, so a trip or a raised cancel flag anywhere up the chain stops
  /// the child at its next probe, and a child derived after the parent's
  /// deadline has passed (or after the parent tripped) is born tripped.
  Limits childLimits(uint64_t MemBytes = 0, uint64_t Steps = 0) const;

  /// Bytes charged so far (testing / stats).
  uint64_t memCharged() const { return MemUsed.load(std::memory_order_relaxed); }

  const Limits &limits() const { return Lim; }

private:
  bool checkDeadline();
  /// The stop a probe of this budget or a descendant must take: the trip
  /// reason, else Cancelled when the cancel flag is raised, else None.
  StopReason pendingStop() const;
  /// checkpoint()'s false path: records \p Site if it is the first.
  bool stopAt(const char *Site);

  Limits Lim;
  /// Monotonic-clock deadline in ns; valid iff Lim.TimeoutMs != 0.
  int64_t DeadlineNs = 0;
  /// DeadlineNs minus the coarse clock's lag: below it, a coarse reading
  /// proves the deadline has not passed.
  int64_t CoarseGateNs = 0;
  std::atomic<StopReason> Reason{StopReason::None};
  std::atomic<const char *> TripSite{nullptr};
  std::atomic<uint64_t> MemUsed{0};
  std::atomic<uint64_t> StepsUsed{0};
};

/// Limits for the one budget of a call that takes both a caller-shared
/// budget and its own limits: \p Shared's childLimits(\p MemBytes,
/// \p Steps) (just those caps when null), with the deadline tightened to
/// \p TimeoutMs (0 = none). Both stop the call; the tighter limit wins.
Budget::Limits callLimits(const Budget *Shared, uint64_t TimeoutMs,
                          uint64_t MemBytes = 0, uint64_t Steps = 0);

/// Deterministic fault injection: arms the n-th probe of one named site to
/// trip the current budget with a reason derived from (seed, site). Armed
/// globally (one injector process-wide); the unarmed fast path in
/// `Budget::checkpoint` is a single relaxed pointer load.
class FaultInjector {
public:
  /// \p Site must match a name from faultSiteNames(); \p Nth is 1-based
  /// (the Nth probe of that site trips); \p Seed selects the injected
  /// reason deterministically.
  FaultInjector(const char *Site, uint64_t Nth, uint64_t Seed);

  /// Number of times the armed site has fired (i.e. actually tripped a
  /// budget). The sweep test asserts every site fires at least once.
  uint64_t fired() const { return Fired.load(std::memory_order_relaxed); }

  /// Number of probes of the armed site observed so far.
  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }

  /// The reason this injector trips with (derived from seed and site).
  StopReason reason() const { return Inject; }

  /// Installs \p I as the process-wide injector (nullptr disarms).
  static void arm(FaultInjector *I);

  /// The currently armed injector, if any.
  static FaultInjector *armed();

  /// Called from Budget::checkpoint when an injector is armed. Returns the
  /// reason to trip with, or None to continue.
  StopReason onProbe(const char *Site);

private:
  const char *Site;
  uint64_t Nth;
  StopReason Inject;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Fired{0};
};

/// Registered probe-site names, for sweep tests and diagnostics. Every
/// `checkpoint(Site)` literal in the sources must appear here (asserted by
/// the fault-injection sweep).
const std::vector<const char *> &faultSiteNames();

/// Parses `POSTR_FAULT_INJECT=<site>:<n>[:seed]` once per process and arms
/// the resulting injector. Called lazily from the first checkpoint; exposed
/// for tests that want to force the parse early. Returns the armed injector
/// or nullptr.
FaultInjector *faultInjectorFromEnv();

} // namespace postr

#endif // POSTR_BASE_BUDGET_H
