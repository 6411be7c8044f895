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
/// (no I part), and for a single numeral-index str.at / ¬str.at (below):
/// the predicate is reduced to walk problems on weighted counter graphs
/// built over the ε-concatenation A_◦:
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
/// **Numeral-index str.at.** A single y = str.at(S, i) (StrAtEq) or
/// y ≠ str.at(S, i) (StrAtNe) is eligible when i is a numeral and y is one
/// variable, absent from S, whose language holds only words of length
/// ≤ 1 (a string literal, say); indices beyond ±2^32 are left to the LIA
/// path. y then reduces to a letter filter:
/// the set Y ⊆ {ε} ∪ Γ of its words. The decision is one reachability
/// query on a graph over the A_◦ of S's variables whose edge weights are
/// all ≥ 0, and a counter that starts at i and drops by each weight:
///
///  * per occurrence t of S, with x = S[t], a *sampling component*
///    following the mismatch graph's phases (⊥ before the sample, ⊤
///    after it). A letter of z weighs the occurrences of z in S before
///    t, plus one for a letter of x before the sample; the sample edge
///    reads a letter a of x and is kept only when a compares with Y as
///    the predicate says (a ∈ Y for StrAtEq, some word of Y ≠ a for
///    StrAtNe). A complete walk that ends in phase ⊤ with the counter at
///    0 puts the sampled letter at position i of S;
///  * the ε outcome (|S| ≤ i, or i < 0), when Y allows it, is a *length
///    component* where a letter of z weighs z's occurrences in S, so the
///    counter ends at i − |S|.
///
/// Every value stays in [0, i] (at 0 when i < 0, where all weights are
/// 0), so the breadth-first search over at most (i+1)·nodes states is
/// exact: no excursion bound, no cap. A caller
/// may pass a numeral lower bound |S| > k with k ≤ i (`HayLenAbove`):
/// every hit at i already satisfies it, so it only narrows the length
/// component's accepted window to |S| ∈ (k, i]. With
/// `OneCounterOptions::Certify`, an Unsat carries the graph, start
/// state, targets and bound as a `proof::WalkProof` that the proof
/// kernel re-decides on its own.
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
/// quadratic excursion bound for the 0-weight mode. That bound is capped
/// at 2^21; a capped 0-weight search that finds no walk answers Unknown,
/// since the cap may have cut off the only walk. Discovered states
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
#include "proof/Proof.h"
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
  /// Record a str.at Unsat as a walk refutation (OneCounterResult::Cert);
  /// one whose graph exceeds proof::MaxWalkStates answers Unknown.
  bool Certify = false;
};

struct OneCounterResult {
  Verdict V = Verdict::Unknown;
  /// Why V is Unknown when the budget tripped; None on NodeBudget
  /// exhaustion (an engine-internal cap).
  StopReason Stop = StopReason::None;
  /// On Sat: one word per variable of `Langs` satisfying the languages
  /// and the predicate (see the file comment for when it is absent).
  std::optional<std::map<VarId, Word>> Model;
  /// On a certified str.at Unsat: the refutation the kernel re-checks.
  std::optional<proof::WalkProof> Cert;
};

/// True if the fast path applies: a single Diseq/NotPrefix/NotSuffix, or
/// a single StrAtEq/StrAtNe with a numeral index whose compared variable
/// does not occur in the haystack and has only words of length ≤ 1
/// under \p Langs.
bool isEligible(const std::vector<tagaut::PosPredicate> &Preds,
                const std::map<VarId, automata::Nfa> &Langs);

/// Decides R ∧ P for one eligible predicate; for str.at also |S| >
/// \p HayLenAbove, which must be at most max(i, −1) (−1: no bound).
/// Unknown only on NodeBudget exhaustion, a budget trip, or a certified
/// str.at graph beyond proof::MaxWalkStates.
OneCounterResult
decideSinglePredicate(const std::map<VarId, automata::Nfa> &Langs,
                      const tagaut::PosPredicate &Pred, uint32_t AlphabetSize,
                      const OneCounterOptions &Opts = {},
                      int64_t HayLenAbove = -1);

} // namespace counter
} // namespace postr

#endif // POSTR_COUNTER_ONECOUNTER_H
