//===- solver/Baselines.h - Comparison solvers -------------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two baseline solvers the benchmark harness compares against,
/// standing in for the paper's comparison systems (Sec. 8):
///
///  * `solveEqReduction` — the pre-paper automata-solver route: every
///    position predicate is reduced to word equations + length
///    constraints with per-letter case splits (the reduction of [24]
///    that Sec. 3 describes as "making their word equations potentially
///    much harder to process"), then each branch goes through
///    stabilization + Parikh/LIA. This plays the role of Z3-Noodler 1.3.
///
///  * `solveEnum` — a guess-a-model enumeration solver with a growing
///    length bound: strong on satisfiable instances, diverges on
///    unsatisfiable position constraints unless every language is
///    finite. This mirrors the solver profile the paper attributes to
///    cvc5 ("may be able to guess the right solution for satisfiable
///    position constraints with ease", Sec. 1).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SOLVER_BASELINES_H
#define POSTR_SOLVER_BASELINES_H

#include "solver/PositionSolver.h"

namespace postr {
namespace solver {

struct EqReductionOptions {
  /// Hard cap on expanded predicate branches (the cross product over
  /// predicates); beyond it the solver answers Unknown.
  uint32_t MaxBranches = 4096;
  /// Optional shared resource budget (deadline, caps, cancel flag). The
  /// call runs on one child of it, threaded into stabilization and every
  /// branch solve.
  postr::Budget *Budget = nullptr;
  /// Stabilization's fuel and disjunct caps; its Budget is overwritten
  /// with the call's.
  eq::StabilizeOptions Stabilize;
};

/// Classical eq-reduction baseline.
SolveResult solveEqReduction(const strings::Problem &P,
                             const EqReductionOptions &Opts = {});

struct EnumOptions {
  uint64_t TimeoutMs = 0;
  /// Words per variable are enumerated up to this length.
  uint32_t MaxWordLen = 8;
  /// Integer variables are enumerated over [-1, MaxIntValue]; more than
  /// MaxIntVars integer variables yields Unknown.
  int64_t MaxIntValue = 16;
  uint32_t MaxIntVars = 2;
  /// Optional shared resource budget, probed every 64 evaluation steps
  /// ("solver.enum"). Composes with TimeoutMs: the call runs on one
  /// child of it whose deadline is the tighter of the two.
  postr::Budget *Budget = nullptr;
};

/// Enumeration baseline.
SolveResult solveEnum(const strings::Problem &P,
                      const EnumOptions &Opts = {});

} // namespace solver
} // namespace postr

#endif // POSTR_SOLVER_BASELINES_H
