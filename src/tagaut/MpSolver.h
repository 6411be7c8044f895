//===- tagaut/MpSolver.h - Deciding Monadic-Position constraints -*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decision procedure for the paper's MP problem (Sec. 1): a
/// conjunction of a monadic constraint (regular memberships R′ + LIA
/// length constraints I′) and position constraints P′. Encodes via
/// `encodeSystem` and discharges with the QF-LIA solver, or with the MBQI
/// layer when ¬contains blocks are present.
///
/// This is the procedure behind Theorems 7.3 (NP, existential position
/// constraints) and 7.4 (NExpTime, flat ¬contains).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_TAGAUT_MPSOLVER_H
#define POSTR_TAGAUT_MPSOLVER_H

#include "proof/Proof.h"
#include "tagaut/Encoder.h"

#include <functional>
#include <map>

namespace postr {
namespace tagaut {

struct MpOptions {
  lia::QfOptions Qf;
  lia::MbqiOptions Mbqi;
  /// Resource budget (deadline / memory cap / step limit / cancel flag,
  /// see base/Budget.h) governing the whole solve: the encoder, the
  /// automata shortcuts, and every QF/MBQI sub-solve. A cancel flag on
  /// it or an ancestor stops the solve at the next probe. Null runs the
  /// call under a fresh unlimited budget.
  postr::Budget *Budget = nullptr;
  EncoderOptions Encoder;
  /// Record an Unsat certificate into MpResult::Cert: the QF-LIA path
  /// logs a full DRUP + Farkas clause trace checkable by the independent
  /// kernel (proof/Check.h), while the automata-level short-circuits and
  /// the MBQI loop produce named trusted-rule records. Off by default —
  /// the solve is bit-identical and pays nothing.
  bool Certify = false;
};

struct MpResult {
  Verdict V = Verdict::Unknown;
  /// Why the verdict is Unknown, when a resource ran out: the budget's
  /// trip reason, or StepBudget when an engine-internal cap (connectivity
  /// cuts, MBQI candidates/offsets, tag-transition guard) was exhausted
  /// without tripping the shared budget. None for Sat/Unsat and for
  /// genuine incompleteness (non-flat ¬contains).
  StopReason Stop = StopReason::None;
  /// On Sat: a witnessing string assignment for every variable.
  std::map<VarId, Word> Assignment;
  /// On Sat: the full LIA model (integer variables the caller minted can
  /// be read off through their `lia::Var` handles).
  std::vector<int64_t> Model;
  /// With MpOptions::Certify, on Unsat: this call's refutation — either
  /// a named structural rule or a checkable QF clause trace.
  proof::DisjunctCert Cert;
};

/// Builds the I′ part: invoked after encoding with the per-variable
/// length terms so `x_i = len(y…)` constraints (Sec. 6.1) and plain LIA
/// atoms can be expressed over them. May return `A.trueF()`.
using IntConstraintBuilder = std::function<lia::FormulaId(
    lia::Arena &A, const std::map<VarId, lia::LinTerm> &LenTerms)>;

/// Decides R′ ∧ I′ ∧ P′. The caller owns \p A and may have minted integer
/// variables in it (e.g. for str.at position terms) before the call.
/// Returns Unknown when a ¬contains predicate ranges over a non-flat
/// language (callers apply the Sec. 8 heuristics first) or on resource
/// exhaustion.
MpResult solveMP(lia::Arena &A,
                 const std::map<VarId, automata::Nfa> &Langs,
                 const std::vector<PosPredicate> &Preds,
                 uint32_t AlphabetSize,
                 const IntConstraintBuilder &IntConstraints = nullptr,
                 const MpOptions &Opts = {});

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_MPSOLVER_H
