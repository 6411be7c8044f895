//===- solver/BruteForce.h - Enumeration reference solver --------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded brute-force solver for R ∧ P: enumerates every assignment of
/// language words up to a length bound and evaluates the predicates
/// directly. Exponential; it serves two roles:
///
///  * the ground-truth oracle of the differential test suites, and
///  * the `EnumSolver` baseline of the benchmark harness, standing in
///    for the guess-a-model profile the paper attributes to cvc5 (good
///    at Sat, diverges on Unsat; Sec. 1 and Sec. 8.2).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SOLVER_BRUTEFORCE_H
#define POSTR_SOLVER_BRUTEFORCE_H

#include "automata/Nfa.h"
#include "solver/Semantics.h"
#include "tagaut/Encoder.h"

#include <map>
#include <optional>

namespace postr {
namespace solver {

struct BruteForceOptions {
  /// Words per variable are enumerated up to this length.
  uint32_t MaxWordLen = 4;
  /// Hard cap on evaluated assignments.
  uint64_t MaxAssignments = 2'000'000;
  /// Optional shared resource budget (base/Budget.h): deadline, caps and
  /// cancel flag. The call runs on one child of it, probed every 64
  /// evaluations ("solver.bruteforce").
  postr::Budget *Budget = nullptr;
};

struct BruteForceResult {
  /// Sat: model found. Unsat: exhausted ALL assignments within the word-
  /// length bound without the cap or deadline firing — i.e. "no model
  /// with every |x| <= MaxWordLen". Unknown: resources exhausted.
  Verdict V = Verdict::Unknown;
  /// On a resource-out Unknown: the budget's trip reason, or StepBudget
  /// when MaxAssignments/MaxWordLen ran out.
  StopReason Stop = StopReason::None;
  std::map<VarId, Word> Assignment;
};

/// Decides R ∧ P by bounded enumeration. AtPos terms must be constants.
BruteForceResult
solveBruteForce(const std::map<VarId, automata::Nfa> &Langs,
                const std::vector<tagaut::PosPredicate> &Preds,
                const BruteForceOptions &Opts = {});

} // namespace solver
} // namespace postr

#endif // POSTR_SOLVER_BRUTEFORCE_H
