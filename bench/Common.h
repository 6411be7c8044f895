//===- bench/Common.h - Shared bench harness plumbing ------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four evaluated solver configurations (Sec. 8.1) and per-instance
/// timing. Stand-ins for the external tools keep the *profile* the paper
/// describes, on our substrate:
///
///   postr-pos    — the paper's procedure (plays Z3-Noodler-pos)
///   eq-reduction — position constraints reduced to word equations first
///                  (plays Z3-Noodler 1.3)
///   enum-guess   — bounded model guessing (plays cvc5's profile: strong
///                  on Sat, diverges on position-heavy Unsat)
///   eq-lowfuel   — eq-reduction with tight budgets (plays Z3's weaker
///                  position handling)
///
/// POSTR_BENCH_N / POSTR_BENCH_TIMEOUT_MS scale instance counts and the
/// per-instance timeout (defaults keep `for b in build/bench/*` under a
/// few minutes).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BENCH_COMMON_H
#define POSTR_BENCH_COMMON_H

#include "base/Budget.h"
#include "solver/Baselines.h"
#include "solver/PositionSolver.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace postr {
namespace bench {

inline uint32_t envU32(const char *Name, uint32_t Default) {
  const char *V = std::getenv(Name);
  return V ? static_cast<uint32_t>(std::atoi(V)) : Default;
}

inline uint32_t instancesPerFamily() { return envU32("POSTR_BENCH_N", 12); }
inline uint32_t positionHardInstances() {
  return envU32("POSTR_BENCH_N_HARD", 12);
}
inline uint64_t perInstanceTimeoutMs() {
  return envU32("POSTR_BENCH_TIMEOUT_MS", 1200);
}

struct SolverDesc {
  const char *Name;
  const char *PlaysRole;
};

inline const std::vector<SolverDesc> &solverList() {
  static const std::vector<SolverDesc> S = {
      {"postr-pos", "Z3-Noodler-pos"},
      {"eq-reduction", "Z3-Noodler 1.3"},
      {"enum-guess", "cvc5 profile"},
      {"eq-lowfuel", "Z3 profile"},
  };
  return S;
}

struct RunOutcome {
  Verdict V = Verdict::Unknown;
  double Ms = 0.0;
  bool TimedOut = false;
};

inline RunOutcome runSolver(const std::string &Name,
                            const strings::Problem &P, uint64_t TimeoutMs) {
  using Clock = std::chrono::steady_clock;
  Clock::time_point T0 = Clock::now();
  Verdict V = Verdict::Unknown;
  if (Name == "postr-pos") {
    solver::SolveOptions O;
    O.TimeoutMs = TimeoutMs;
    V = solver::solveProblem(P, O).V;
  } else if (Name == "eq-reduction") {
    Budget Deadline(Budget::Limits{TimeoutMs, 0, 0, nullptr});
    solver::EqReductionOptions O;
    O.Budget = &Deadline;
    V = solver::solveEqReduction(P, O).V;
  } else if (Name == "enum-guess") {
    solver::EnumOptions O;
    O.TimeoutMs = TimeoutMs;
    O.MaxWordLen = 4; // cvc5-profile guessing: shallow but fast
    V = solver::solveEnum(P, O).V;
  } else if (Name == "eq-lowfuel") {
    Budget Deadline(Budget::Limits{TimeoutMs, 0, 0, nullptr});
    solver::EqReductionOptions O;
    O.Budget = &Deadline;
    O.MaxBranches = 32;
    O.Stabilize.Fuel = 500;
    V = solver::solveEqReduction(P, O).V;
  }
  RunOutcome Out;
  Out.V = V;
  Out.Ms = std::chrono::duration<double, std::milli>(Clock::now() - T0)
               .count();
  Out.TimedOut = Out.Ms >= static_cast<double>(TimeoutMs);
  return Out;
}

} // namespace bench
} // namespace postr

#endif // POSTR_BENCH_COMMON_H
