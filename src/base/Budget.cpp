//===- base/Budget.cpp - Cooperative resource governance -------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <time.h>

namespace postr {

const char *stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None:
    return "none";
  case StopReason::Timeout:
    return "timeout";
  case StopReason::Cancelled:
    return "cancelled";
  case StopReason::MemOut:
    return "memout";
  case StopReason::StepBudget:
    return "stepbudget";
  }
  assert(false && "invalid stop reason");
  return "?";
}

namespace {

std::atomic<FaultInjector *> ArmedInjector{nullptr};
std::once_flag EnvInjectorOnce;
std::unique_ptr<FaultInjector> EnvInjector;

#ifdef CLOCK_MONOTONIC_COARSE
constexpr clockid_t CoarseClock = CLOCK_MONOTONIC_COARSE;
#else
constexpr clockid_t CoarseClock = CLOCK_MONOTONIC;
#endif

int64_t readNs(clockid_t Id) {
  timespec T;
  clock_gettime(Id, &T);
  return static_cast<int64_t>(T.tv_sec) * 1000000000 + T.tv_nsec;
}

/// How far the coarse clock may lag the precise one. In theory it is the
/// precise reading at the last timer tick, so less than one resolution
/// behind; on a 4-vCPU VM with a 4 ms tick it was measured 3.3-7.4 ms
/// behind, so allow two resolutions.
int64_t coarseLagNs() {
  static const int64_t Lag = [] {
    timespec R;
    if (CoarseClock == CLOCK_MONOTONIC || clock_getres(CoarseClock, &R) != 0)
      return int64_t(0);
    return 2 * (static_cast<int64_t>(R.tv_sec) * 1000000000 + R.tv_nsec);
  }();
  return Lag;
}

} // namespace

Budget::Budget(const Limits &L) : Lim(L) {
  // Budgets are created per solve, never on a hot path, so this is the
  // cheapest place to make the env-configured injector available before
  // the first probe (checkpoint itself stays a relaxed load).
  std::call_once(EnvInjectorOnce, [] { faultInjectorFromEnv(); });
  // Born tripped: a child of a tripped or cancelled ancestor starts with
  // its reason.
  for (const Budget *P = Lim.Parent; P; P = P->Lim.Parent) {
    StopReason R = P->pendingStop();
    if (R != StopReason::None) {
      trip(R);
      break;
    }
  }
  if (!Lim.TimeoutMs)
    return;
  int64_t Now = readNs(CLOCK_MONOTONIC);
  DeadlineNs = Now + static_cast<int64_t>(Lim.TimeoutMs) * 1000000;
  // childLimits hands out whole ms and never 0, so clamp to the nearest
  // timed ancestor's exact deadline: a child never outlives it, and one
  // derived after it passed is born tripped.
  for (const Budget *P = Lim.Parent; P; P = P->Lim.Parent)
    if (P->Lim.TimeoutMs) {
      DeadlineNs = std::min(DeadlineNs, P->DeadlineNs);
      break;
    }
  CoarseGateNs = DeadlineNs - coarseLagNs();
  if (Now >= DeadlineNs)
    trip(StopReason::Timeout);
}

bool Budget::checkpoint(const char *Site) {
  if (FaultInjector *I = ArmedInjector.load(std::memory_order_relaxed)) {
    StopReason R = I->onProbe(Site);
    if (R != StopReason::None)
      trip(R);
  }
  // This budget, then the whole ancestor chain: a budget two levels down
  // still stops when the root trips or its cancel flag is raised, even if
  // the intermediate budgets never probe.
  for (const Budget *B = this; B; B = B->Lim.Parent) {
    StopReason R = B->pendingStop();
    if (R != StopReason::None) {
      trip(R);
      return stopAt(Site);
    }
  }
  if (Lim.StepLimit && !chargeSteps(1))
    return stopAt(Site);
  if (Lim.TimeoutMs && !checkDeadline())
    return stopAt(Site);
  return true;
}

StopReason Budget::pendingStop() const {
  if (exceeded())
    return reason();
  if (Lim.Cancel && Lim.Cancel->load(std::memory_order_relaxed))
    return StopReason::Cancelled;
  return StopReason::None;
}

bool Budget::stopAt(const char *Site) {
  const char *Expected = nullptr;
  TripSite.compare_exchange_strong(Expected, Site, std::memory_order_relaxed);
  return false;
}

bool Budget::checkDeadline() {
  // The coarse clock is a vDSO read of the last tick's time (a few ns);
  // only within its lag of the deadline can it be wrong about whether
  // the deadline has passed, so only there pay for the precise clock.
  if (readNs(CoarseClock) < CoarseGateNs)
    return true;
  if (readNs(CLOCK_MONOTONIC) >= DeadlineNs) {
    trip(StopReason::Timeout);
    return false;
  }
  return true;
}

bool Budget::chargeMem(uint64_t Bytes) {
  if (!Lim.MemLimitBytes)
    return !exceeded();
  uint64_t Used =
      MemUsed.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  if (Used > Lim.MemLimitBytes) {
    trip(StopReason::MemOut);
    return false;
  }
  return !exceeded();
}

bool Budget::chargeSteps(uint64_t N) {
  if (!Lim.StepLimit)
    return !exceeded();
  uint64_t Used = StepsUsed.fetch_add(N, std::memory_order_relaxed) + N;
  if (Used > Lim.StepLimit) {
    trip(StopReason::StepBudget);
    return false;
  }
  return !exceeded();
}

StopReason Budget::trip(StopReason R) {
  StopReason Expected = StopReason::None;
  Reason.compare_exchange_strong(Expected, R, std::memory_order_relaxed);
  return Reason.load(std::memory_order_relaxed);
}

Budget::Limits Budget::childLimits(uint64_t MemBytes, uint64_t Steps) const {
  Limits L;
  uint64_t Left = remainingMs();
  // TimeoutMs == 0 would mean "none"; a nearly-expired or expired parent
  // still yields a deadline, and the constructor clamps the child to the
  // parent's exact deadline (born tripped if it passed).
  if (Left != ~0ull)
    L.TimeoutMs = Left > 1 ? Left : 1;
  uint64_t PMem = Lim.MemLimitBytes, PSteps = Lim.StepLimit;
  L.MemLimitBytes =
      MemBytes && PMem ? std::min(MemBytes, PMem) : (MemBytes ? MemBytes : PMem);
  L.StepLimit =
      Steps && PSteps ? std::min(Steps, PSteps) : (Steps ? Steps : PSteps);
  L.Parent = this;
  return L;
}

Budget::Limits callLimits(const Budget *Shared, uint64_t TimeoutMs,
                          uint64_t MemBytes, uint64_t Steps) {
  Budget::Limits L = Shared ? Shared->childLimits(MemBytes, Steps)
                            : Budget::Limits{0, MemBytes, Steps, nullptr};
  if (TimeoutMs && (!L.TimeoutMs || TimeoutMs < L.TimeoutMs))
    L.TimeoutMs = TimeoutMs;
  return L;
}

uint64_t Budget::remainingMs() const {
  if (!Lim.TimeoutMs)
    return ~0ull;
  int64_t Left = (DeadlineNs - readNs(CLOCK_MONOTONIC)) / 1000000;
  return Left > 0 ? static_cast<uint64_t>(Left) : 0;
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

const std::vector<const char *> &faultSiteNames() {
  static const std::vector<const char *> Sites = {
      "nfa.intersect",  "nfa.determinize",  "nfa.epsilon",
      "eq.stabilize",   "tagaut.encode",    "tagaut.parikh",
      "counter.walk",   "lia.sat",          "lia.simplex",
      "lia.mbqi",
      "solver.disjunct", "solver.enum",     "solver.bruteforce",
  };
  return Sites;
}

FaultInjector::FaultInjector(const char *Site, uint64_t Nth, uint64_t Seed)
    : Site(Site), Nth(Nth ? Nth : 1) {
  // Deterministic reason choice: hash the site name into the seed so the
  // same seed exercises different reasons across sites.
  uint64_t H = Seed;
  for (const char *C = Site; *C; ++C)
    H = hashCombine(H, static_cast<uint64_t>(*C));
  static const StopReason Reasons[] = {StopReason::Timeout,
                                       StopReason::Cancelled,
                                       StopReason::MemOut,
                                       StopReason::StepBudget};
  Inject = Reasons[H % 4];
}

void FaultInjector::arm(FaultInjector *I) {
  ArmedInjector.store(I, std::memory_order_relaxed);
}

FaultInjector *FaultInjector::armed() {
  return ArmedInjector.load(std::memory_order_relaxed);
}

StopReason FaultInjector::onProbe(const char *ProbeSite) {
  if (std::strcmp(ProbeSite, Site) != 0)
    return StopReason::None;
  uint64_t H = Hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (H != Nth)
    return StopReason::None;
  Fired.fetch_add(1, std::memory_order_relaxed);
  return Inject;
}

FaultInjector *faultInjectorFromEnv() {
  const char *Spec = std::getenv("POSTR_FAULT_INJECT");
  if (!Spec || !*Spec)
    return nullptr;
  // Format: <site>:<n>[:seed]
  std::string S(Spec);
  size_t C1 = S.find(':');
  if (C1 == std::string::npos) {
    std::fprintf(stderr,
                 "POSTR_FAULT_INJECT: expected <site>:<n>[:seed], got %s\n",
                 Spec);
    return nullptr;
  }
  std::string SiteName = S.substr(0, C1);
  size_t C2 = S.find(':', C1 + 1);
  uint64_t Nth = std::strtoull(S.c_str() + C1 + 1, nullptr, 10);
  uint64_t Seed = 0;
  if (C2 != std::string::npos)
    Seed = std::strtoull(S.c_str() + C2 + 1, nullptr, 10);
  const char *Canonical = nullptr;
  for (const char *Known : faultSiteNames())
    if (SiteName == Known) {
      Canonical = Known;
      break;
    }
  if (!Canonical) {
    std::fprintf(stderr, "POSTR_FAULT_INJECT: unknown site %s\n",
                 SiteName.c_str());
    return nullptr;
  }
  EnvInjector = std::make_unique<FaultInjector>(Canonical, Nth, Seed);
  FaultInjector::arm(EnvInjector.get());
  return EnvInjector.get();
}

} // namespace postr
