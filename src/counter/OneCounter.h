//===- counter/OneCounter.h - PTime single-predicate path --------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The polynomial-time decision procedure of Theorem 7.1 / Appendix B for
/// a single ≠ / ¬prefixof / ¬suffixof predicate under regular constraints
/// (no I part): the predicate is reduced to walk problems on weighted
/// counter graphs built over the ε-concatenation A_◦:
///
///  * the *length branch* (|L| ≠ |R| resp. |L| > |R|) asks for a complete
///    walk whose accumulated per-letter weight occ_L(z) − occ_R(z) is
///    non-zero (resp. positive) — decidable exactly via reachable
///    co-reachable positive/negative cycles;
///  * the *mismatch branch* asks, per occurrence pair (i,j), for a
///    0-weight complete walk of the three-phase sampling automaton of
///    Appendix B (phases ⊥ / sampled-first-symbol / ⊤), where a letter of
///    variable z weighs (its multiplicity before occurrence i on the
///    left) − (before j on the right), with the strictly-before-sample
///    increments handled by the phase.
///
/// **Witnesses.** Every graph edge remembers the A_◦ base transition it
/// was built from, so a complete walk spells one word per variable: its
/// non-ε letters, read off per variable in walk order (a variable the
/// walk reads nothing of gets ε). The walk search keeps a parent link per
/// discovered state and reads the walk back from the hit. A signed cycle
/// found by the length branch is pumped into a walk (prefix · cycle^k ·
/// suffix, k just large enough for the sign). Sat answers therefore carry
/// a model over the variables of `Langs`; only a pumped walk longer than
/// the witness cap leaves `Model` empty (the caller then needs another
/// path for a model).
///
/// **The walk search** runs a FIFO breadth-first search over (state,
/// counter), with the counter clamped to a Valiant–Paterson-style
/// quadratic excursion bound for the 0-weight mode. Discovered states
/// live in one index-addressed FIFO vector of (node, value, parent, edge)
/// records; the visited set is an open-addressing table of 64-value bit
/// pages keyed by (node, page), so its memory grows with the states the
/// search touches, never with nodes × (2·bound + 1) up front.
/// `OneCounterOptions::NodeBudget` caps the expansions across all
/// searches of one decision; when it runs out the procedure answers
/// Unknown with no stop reason and the caller falls back to the NP
/// tag/LIA path (the differential suite cross-checks both paths).
///
/// **Deadlines.** With `OneCounterOptions::Budget` set, the search probes
/// it as `counter.walk` on its first expansion and every 64 expansions
/// after that; a trip answers Unknown with the budget's reason in
/// `OneCounterResult::Stop`.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_COUNTER_ONECOUNTER_H
#define POSTR_COUNTER_ONECOUNTER_H

#include "automata/Nfa.h"
#include "base/Base.h"
#include "base/Budget.h"
#include "tagaut/Encoder.h"

#include <map>
#include <optional>

namespace postr {
namespace counter {

struct OneCounterOptions {
  /// Hard cap on expanded (state, counter) pairs across all searches.
  uint64_t NodeBudget = 5'000'000;
  /// Resource budget probed as `counter.walk` (null: never probed).
  postr::Budget *Budget = nullptr;
};

struct OneCounterResult {
  Verdict V = Verdict::Unknown;
  /// Why V is Unknown when the budget tripped; None on NodeBudget
  /// exhaustion (an engine-internal cap).
  StopReason Stop = StopReason::None;
  /// On Sat: one word per variable of `Langs` satisfying the languages
  /// and the predicate (see the file comment for when it is absent).
  std::optional<std::map<VarId, Word>> Model;
};

/// True if the fast path applies: a single Diseq/NotPrefix/NotSuffix.
bool isEligible(const std::vector<tagaut::PosPredicate> &Preds);

/// Decides R ∧ P for one eligible predicate. Unknown only on NodeBudget
/// exhaustion or a budget trip.
OneCounterResult
decideSinglePredicate(const std::map<VarId, automata::Nfa> &Langs,
                      const tagaut::PosPredicate &Pred, uint32_t AlphabetSize,
                      const OneCounterOptions &Opts = {});

} // namespace counter
} // namespace postr

#endif // POSTR_COUNTER_ONECOUNTER_H
