//===- lia/Solver.h - Quantifier-free LIA solver -----------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Online DPLL(T) for quantifier-free LIA: formulas are lowered so every
/// atom is `t <= 0`, Tseitin-encoded into CNF over atom variables, and
/// solved by the CDCL core with this engine attached as its theory
/// client. Atom literals are mirrored into Simplex bounds as the trail
/// grows (both polarities — over the integers ¬(t ≤ 0) is t ≥ 1), the
/// rational relaxation is re-checked incrementally after every
/// propagation, and infeasibilities become small theory lemmas read off
/// the conflicting tableau row. Integrality is checked on full boolean
/// models only: a fractional vertex coordinate x becomes a fresh split
/// atom x <= floor(beta(x)) that the CDCL core branches on (splitting on
/// demand); the 0/1 intrinsic bounds minted by the Parikh encoder keep
/// those splits rare.
///
/// Satisfiability of quantifier-free LIA is in NP [65]; this solver is the
/// engine behind the paper's Theorem 7.3 NP procedure.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_SOLVER_H
#define POSTR_LIA_SOLVER_H

#include "base/Base.h"
#include "base/Budget.h"
#include "lia/Lia.h"
#include "lia/Simplex.h"

#include <functional>
#include <optional>
#include <vector>

namespace postr {

namespace proof {
class QfTraceBuilder;
}

namespace lia {

/// Tunables for the QF solver. Defaults suit the formulae the tag
/// framework emits.
struct QfOptions {
  /// Runs this context's Simplex on Bland's leaving order instead of
  /// SparsestRow (lia/Simplex.h). Set only by tagaut/MpSolver, for
  /// formulas with position predicates; docs/BENCH.md has the A/B.
  bool BlandPivots = false;
  /// Resource budget (deadline / memory cap / step limit / cancel flag,
  /// see base/Budget.h): the CDCL core, Simplex, and the clause DB probe
  /// and charge against it, and its trip reason surfaces as
  /// QfResult::Stop. Null runs each solve call under a fresh unlimited
  /// budget.
  postr::Budget *Budget = nullptr;
  /// Optional proof trace sink. When set, every clause event of the CDCL
  /// core (inputs, learnt clauses, theory lemmas with Farkas
  /// certificates, DB-reduction deletions, the final conflict) is
  /// mirrored into the builder so an Unsat verdict can be replayed by the
  /// independent checker (proof/Check.h). Latched by incremental contexts
  /// at construction; attaching mid-stream would miss clause prefixes.
  /// Null (the default) disables recording — the search is bit-identical
  /// either way.
  proof::QfTraceBuilder *Proof = nullptr;
};

/// Search-core counters of one QF_LIA solve, or summed over several
/// (MaxRowNnz and Atoms combine by max), for benchmarks and triage.
struct QfSearchStats {
  /// SAT-core conflicts: conflict analyses the CDCL core ran, on a
  /// falsified clause or on a falsified theory lemma of two or more
  /// literals above level 0.
  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;   ///< unit propagations
  uint64_t Decisions = 0;      ///< decision literals
  uint64_t Restarts = 0;       ///< Luby restarts taken
  uint64_t Reductions = 0;     ///< clause-DB reduction passes
  uint64_t ClausesDeleted = 0; ///< learnt clauses dropped by DB reduction
  uint64_t Pivots = 0;         ///< Simplex pivots
  uint64_t Checks = 0;         ///< Simplex feasibility scans
  uint64_t RowFillIn = 0;      ///< tableau entries created by elimination
  uint64_t MaxRowNnz = 0;      ///< widest tableau row ever produced
  uint64_t RowsEliminated = 0; ///< rows a pivot substituted into
  uint64_t EntriesMerged = 0;  ///< row entries those substitutions merged
  uint64_t DenNormalizations = 0; ///< row gcd passes that reduced
  /// Theory vetoes: failed bound assertions, failed rational checks and
  /// integer splits. A split (its lemma carries a fresh atom) and a unit
  /// theory lemma never reach conflict analysis, and a boolean conflict
  /// involves no theory veto, so neither counter bounds the other.
  uint64_t TheoryConflicts = 0;
  uint64_t BudgetTrips = 0;     ///< solves stopped by a resource budget
  uint64_t Solves = 0;          ///< QF solves these counters cover
  uint64_t BlandSolves = 0;     ///< of those, solves on Bland's order
  uint64_t Atoms = 0;           ///< largest atom table of those solves

  QfSearchStats &operator+=(const QfSearchStats &O) {
    Conflicts += O.Conflicts;
    Propagations += O.Propagations;
    Decisions += O.Decisions;
    Restarts += O.Restarts;
    Reductions += O.Reductions;
    ClausesDeleted += O.ClausesDeleted;
    Pivots += O.Pivots;
    Checks += O.Checks;
    RowFillIn += O.RowFillIn;
    MaxRowNnz = MaxRowNnz > O.MaxRowNnz ? MaxRowNnz : O.MaxRowNnz;
    RowsEliminated += O.RowsEliminated;
    EntriesMerged += O.EntriesMerged;
    DenNormalizations += O.DenNormalizations;
    TheoryConflicts += O.TheoryConflicts;
    BudgetTrips += O.BudgetTrips;
    Solves += O.Solves;
    BlandSolves += O.BlandSolves;
    Atoms = Atoms > O.Atoms ? Atoms : O.Atoms;
    return *this;
  }
};

/// Outcome of a QF_LIA query. On Sat, Model is indexed by `Var` and
/// covers every variable of the arena.
struct QfResult {
  Verdict V = Verdict::Unknown;
  std::vector<int64_t> Model;
  QfSearchStats Stats;
  /// Why V is Unknown (None for determinate verdicts): the budget's trip
  /// reason, or StepBudget when an engine-internal cap
  /// (MaxTheoryConflicts) ran out.
  StopReason Stop = StopReason::None;
};

/// Model-refinement callback for CEGAR loops layered on the solver (the
/// tag framework's connectivity cuts): inspects a candidate model and
/// either accepts (nullopt) or returns a formula — valid for every
/// intended model and false under this one — that is conjoined and the
/// search resumed. Running the loop inside the engine keeps the learned
/// clauses, which re-solving from scratch would discard.
using ModelRefiner =
    std::function<std::optional<FormulaId>(Arena &,
                                           const std::vector<int64_t> &)>;

/// Decides \p F (any boolean structure over LIA atoms, no quantifiers).
QfResult solveQF(Arena &A, FormulaId F, const QfOptions &Opts = {},
                 const ModelRefiner &Refine = nullptr);

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_SOLVER_H
