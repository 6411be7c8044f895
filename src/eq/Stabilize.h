//===- eq/Stabilize.h - Word equations to monadic decompositions -*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate the paper's procedure runs after (Sec. 3): solving the
/// word-equation part E ∧ R into a *disjunction of monadic
/// decompositions* — systems R′ of refined regular constraints over
/// fresh variables plus a substitution map, such that *any* choice of
/// words from R′ solves E. The paper uses the stabilization procedure of
/// [24]; we implement the equivalent Nielsen-style transformation with
/// regular-language refinement:
///
///   X·α = Y·β  case-splits into  (i) X := ε, (ii) Y := ε,
///   (iii) Y = X·Y′ with L(X) ∩ pre_q(L(Y)) and L(Y′) = post_q(L(Y))
///   for every split state q of A_Y, and (iv) symmetrically X = Y·X′ —
///
/// propagating substitutions through the remaining equations. Leaves with
/// no equations left are monadic decompositions: every original variable
/// maps to a concatenation of terminal variables whose languages can be
/// chosen independently. Like all word-equation procedures in practical
/// solvers the search is fuel-bounded; exhausting fuel on non-chain-free
/// systems yields `Complete = false` (the paper reports the same OOR
/// behaviour for Z3-Noodler's stabilization, Sec. 8.2).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_EQ_STABILIZE_H
#define POSTR_EQ_STABILIZE_H

#include "automata/Nfa.h"
#include "base/Base.h"
#include "base/Budget.h"

#include <map>
#include <vector>

namespace postr {
namespace eq {

/// One word equation over variable-occurrence sequences (literals are
/// represented by singleton-language variables, Sec. 2 footnote 3).
struct WordEquation {
  std::vector<VarId> Lhs, Rhs;
};

/// One disjunct of the stabilization result.
struct Decomposition {
  /// Refined languages of the terminal variables.
  std::map<VarId, automata::Nfa> Langs;
  /// Original variable -> concatenation of terminal variables. Every
  /// variable of the input appears (identity [x] if untouched). An empty
  /// vector means the variable was forced to ε.
  std::map<VarId, std::vector<VarId>> Subst;
};

struct StabilizeOptions {
  /// Max explored branch nodes before giving up on remaining branches.
  uint64_t Fuel = 20000;
  /// Max collected disjuncts.
  uint32_t MaxDisjuncts = 256;
  /// Resource budget, probed at every branch node and threaded into the
  /// automata products. Branch nodes vary wildly in cost (each does
  /// automata products), so callers with latency budgets must bound time
  /// through it, not only fuel. Null runs the call under a fresh
  /// unlimited budget.
  postr::Budget *Budget = nullptr;
};

struct StabilizeResult {
  std::vector<Decomposition> Disjuncts;
  /// False if fuel ran out and branches were dropped: an empty disjunct
  /// list then means Unknown rather than Unsat.
  bool Complete = true;
  /// Why the search stopped early: None when Complete, the budget's trip
  /// reason when a shared resource ran out, or StepBudget when only the
  /// internal fuel/disjunct caps were hit.
  StopReason Stop = StopReason::None;
};

/// Solves E ∧ R into monadic decompositions. \p NextFresh supplies fresh
/// variable ids (in/out).
StabilizeResult stabilize(const std::map<VarId, automata::Nfa> &Langs,
                          const std::vector<WordEquation> &Equations,
                          VarId &NextFresh,
                          const StabilizeOptions &Opts = {});

} // namespace eq
} // namespace postr

#endif // POSTR_EQ_STABILIZE_H
