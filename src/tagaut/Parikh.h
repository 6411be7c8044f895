//===- tagaut/Parikh.h - Parikh formula of a tag automaton -------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Parikh formula PF(T) of Appendix A: its models are exactly the
/// transition-count images of accepting runs (Eq. 1). Per state it emits
/// the φ_Init/φ_Fin 0-1 constraints, Kirchhoff's flow law (Eq. 36), and
/// the spanning-tree connectivity constraints φ_Span (Eqs. 37–39).
///
/// Tag counts (the free variables of PF_tag, Eq. 2) are exposed as linear
/// terms over the transition-count variables instead of extra LIA
/// variables — an equisatisfiable inlining that keeps the Simplex tableau
/// small.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_TAGAUT_PARIKH_H
#define POSTR_TAGAUT_PARIKH_H

#include "lia/Lia.h"
#include "tagaut/TagAutomaton.h"

#include <map>
#include <string>
#include <vector>

namespace postr {

class Budget;

namespace tagaut {

/// The Parikh formula together with its variable bookkeeping.
struct ParikhFormula {
  lia::FormulaId Formula = 0;
  /// One count variable per tag-automaton transition (#δ, >= 0).
  std::vector<lia::Var> TransCount;
  /// γ^I_q / γ^F_q indicator variables, per state.
  std::vector<lia::Var> GammaInit, GammaFin;

  /// The tag-count term #t (Eq. 2) of \p T, i.e. the sum of the count
  /// variables of all transitions carrying the tag.
  lia::LinTerm tagTerm(TagId T) const {
    auto It = TagUses.find(T);
    if (It == TagUses.end())
      return {};
    std::vector<lia::Var> Vars;
    Vars.reserve(It->second.size());
    for (uint32_t Idx : It->second)
      Vars.push_back(TransCount[Idx]);
    return lia::LinTerm::sum(Vars);
  }

  std::map<TagId, std::vector<uint32_t>> TagUses;
};

/// How run-connectivity (App. A's φ_Span, Eqs. 37–39) is enforced.
enum class SpanMode {
  /// Emit φ_Span eagerly: σ_q depth variables plus one implication and
  /// one disjunction-over-predecessors per state. Self-contained (every
  /// model is a genuine run image) but the per-state disjunctions blow up
  /// the boolean abstraction of the DPLL(T) loop on larger automata.
  Eager,
  /// Omit φ_Span. Models are then only flow-consistent pseudo-runs; the
  /// caller must validate each model with `connectedComponentGap` and
  /// refute disconnected ones with `connectivityCut` until a genuine run
  /// appears (CEGAR). Mandatory caveat: a Lazy PF may NOT be placed under
  /// a quantifier (the ¬contains blocks), where no caller sees the inner
  /// models — the encoder forces Eager there.
  Lazy,
};

/// Builds PF(T) into \p Arena. \p Prefix names the fresh variables (the
/// ¬contains encoding instantiates the same automaton twice, as #1/#2).
/// \p Bud, when non-null, is probed per state ("tagaut.parikh") and
/// charged for the minted variables; a trip returns a PARTIAL formula —
/// the caller must check Bud->exceeded() and discard it.
ParikhFormula buildParikhFormula(const TagAutomaton &Ta, lia::Arena &Arena,
                                 const std::string &Prefix,
                                 SpanMode Span = SpanMode::Eager,
                                 Budget *Bud = nullptr);

/// For a model of a Lazy-mode PF: the set of states that carry positive
/// flow but are unreachable from the model's start state over positive-
/// count transitions. Empty iff the counts describe a connected (hence
/// genuine, by Kirchhoff) run. Cheap: one BFS over used transitions.
std::vector<uint32_t> connectedComponentGap(const TagAutomaton &Ta,
                                            const ParikhFormula &Pf,
                                            const std::vector<int64_t> &Model);

/// The CEGAR cut refuting the disconnected component \p Gap: a real run
/// touching Gap either starts inside it or enters it from outside, so
///   Σ_{δ: src ∈ Gap} #δ = 0  ∨  Σ_{δ: src ∉ Gap, tgt ∈ Gap} #δ ≥ 1
///   ∨  ⋁_{q ∈ Gap ∩ I} γ^I_q = 1.
/// Valid for every accepting run and violated by the current model.
lia::FormulaId connectivityCut(const TagAutomaton &Ta,
                               const ParikhFormula &Pf, lia::Arena &Arena,
                               const std::vector<uint32_t> &Gap);

/// Reconstructs an accepting run from a model of PF(T): an Euler-path
/// walk over the transition multiset. Returns transition indices in run
/// order. The model must satisfy PF(T) (asserted).
std::vector<uint32_t> decodeRun(const TagAutomaton &Ta,
                                const ParikhFormula &Pf,
                                const std::vector<int64_t> &Model);

/// Extracts the string assignment encoded by a run: for each variable,
/// the concatenation of the ⟨S,a⟩ symbols on its ⟨L,x⟩-tagged transitions
/// in run order (Sec. 5.1: "an accepting run ... encodes an assignment").
std::map<VarId, Word> runToAssignment(const TagAutomaton &Ta,
                                      const TagTable &Tags,
                                      const std::vector<uint32_t> &Run);

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_PARIKH_H
