//===- lia/Incremental.h - Incremental QF_LIA solver contexts ----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent solve contexts over the DPLL(T) engine behind `solveQF`:
/// push/pop assertion scopes, solve-under-assumptions, and retention of
/// everything expensive across calls — the CNF encoding and Tseitin gate
/// cache, the learnt-clause database, VSIDS activity and saved phases,
/// and the Simplex tableau/basis (new atoms append rows; bounds restore
/// to a baseline instead of rebuilding).
///
/// This is the classic incremental-SMT amortization (MiniSat-style
/// assumptions + theory warm-start) that the MBQI loop in `lia/Mbqi.cpp`
/// and the connectivity-CEGAR refiner depend on: thousands of
/// closely-related queries pay encoding and search-state cost once.
///
/// Mechanics:
///  - `assertFormula` encodes into the persistent CDCL core. Inside a
///    scope the formula's root literal is guarded by the scope's fresh
///    selector variable; `pop` permanently disables the selector (unit
///    ¬s), so guarded clauses become satisfied garbage rather than being
///    deleted — learnt clauses stay valid unconditionally.
///  - `solve(Assumptions)` flattens each assumption formula: lowered
///    conjunctions of atoms become assumption *literals* directly (no
///    gate, no clause garbage — repeated pins/offsets intern to the same
///    atom variables), anything else gets its Tseitin gate assumed.
///    Active scope selectors ride along as implicit assumptions.
///  - Unsat answers distinguish "the asserted set is unsatisfiable"
///    from "the assumptions clash": `unsatAssumptions()` holds the
///    indices of the guilty assumption formulas (from the SAT core's
///    final-conflict analysis), which MBQI uses to tell a size-bound
///    exhaustion from a genuine refutation without a second solve.
///  - Between solves the Simplex keeps its tableau and basis: bounds
///    reset to the intrinsic baseline in O(vars), new arena variables
///    and new atoms register incrementally (appending, never rebuilding),
///    and the next search warm-starts from the last feasible vertex.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_INCREMENTAL_H
#define POSTR_LIA_INCREMENTAL_H

#include "lia/Solver.h"

#include <memory>

namespace postr {
namespace lia {

class IncrementalContext {
public:
  /// The context references \p A for its whole lifetime. Variables may
  /// be minted in the arena between solves; they are picked up (with
  /// their intrinsic bounds) at the next `solve`.
  explicit IncrementalContext(Arena &A, const QfOptions &Opts = {});
  ~IncrementalContext();
  IncrementalContext(const IncrementalContext &) = delete;
  IncrementalContext &operator=(const IncrementalContext &) = delete;

  /// Replaces the solver options (budgets/deadline/cancel) for the next
  /// solve; deadlines are measured from each `solve` call.
  void setOptions(const QfOptions &O);

  /// Asserts \p F in the current scope (permanently when no scope is
  /// open). Must not be called from inside a ModelRefiner callback.
  void assertFormula(FormulaId F);

  /// Opens / closes an assertion scope. `pop` retracts every formula
  /// asserted since the matching `push`; atoms and learnt clauses
  /// encountered inside the scope remain cached for later reuse.
  void push();
  void pop();
  size_t numScopes() const;

  /// Decides the conjunction of all active assertions and \p Assumptions.
  /// On Sat the model covers every arena variable. \p Refine, if given,
  /// runs the CEGAR loop inside the context exactly like `solveQF`'s
  /// refinement hook: cuts are asserted permanently and the search
  /// resumes with all learnt state intact.
  QfResult solve(const std::vector<FormulaId> &Assumptions = {},
                 const ModelRefiner &Refine = nullptr);

  /// After an Unsat solve that depended on the assumptions: indices into
  /// the Assumptions vector of a responsible subset (empty when the
  /// active assertions are unsatisfiable on their own).
  const std::vector<uint32_t> &unsatAssumptions() const;

  uint64_t numSolves() const;

private:
  class Impl;
  std::unique_ptr<Impl> I;
};

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_INCREMENTAL_H
