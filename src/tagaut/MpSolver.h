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
#include <optional>

namespace postr {
namespace tagaut {

struct MpOptions {
  /// The MBQI loop's options. Its Budget is overwritten with this call's
  /// budget; only the Stats sink is the caller's.
  lia::MbqiOptions Mbqi;
  /// Resource budget (deadline / memory cap / step limit / cancel flag,
  /// see base/Budget.h) governing the whole solve: the encoder, the
  /// automata shortcuts, and every QF/MBQI sub-solve. A cancel flag on
  /// it or an ancestor stops the solve at the next probe. Null runs the
  /// call under a fresh unlimited budget.
  postr::Budget *Budget = nullptr;
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
  /// a named structural rule or a checkable QF clause trace (with the
  /// mono-root rewrite it rests on, if any predicate was rewritten).
  proof::DisjunctCert Cert;
  /// True when the call reached the MBQI loop (a ¬contains predicate was
  /// left after the mono-root rewrite).
  bool UsedMbqi = false;
  /// The quantifier-free solves' counters, whatever the verdict: the
  /// length abstraction's and the full encoding's, summed. Zero when no
  /// QF solve ran (a rule decided the call, or the MBQI loop did, whose
  /// counters MbqiOptions::Stats collects).
  lia::QfSearchStats Qf;
};

/// Builds the I′ part over the per-variable length terms, so
/// `x_i = len(y…)` constraints (Sec. 6.1) and plain LIA atoms can be
/// expressed over them. May return `A.trueF()`. It may be called twice
/// on one arena: first over bare lengths (the length abstraction of
/// `solveMP`), then, if that is Sat, over the encoder's Parikh length
/// terms. Integer handles it mints are shared by both goals; each call
/// must build its own ties of them to the length terms it is given.
using IntConstraintBuilder = std::function<lia::FormulaId(
    lia::Arena &A, const std::map<VarId, lia::LinTerm> &LenTerms)>;

/// A length atom |Lhs| ⋈ |Rhs| between two concatenations.
struct LenAtom {
  std::vector<VarId> Lhs;
  lia::Cmp Op = lia::Cmp::Ne;
  std::vector<VarId> Rhs;
};

/// \p At over the encoder's per-variable length terms.
lia::FormulaId lenAtomFormula(lia::Arena &A,
                              const std::map<VarId, lia::LinTerm> &LenTerms,
                              const LenAtom &At);

/// The primitive root r when \p P is a ≠, ¬prefixof, ¬suffixof or
/// ¬contains and the language of every variable on both sides lies in
/// r*. A language holding only ε fits any root; when all of them do, r
/// is the first letter. Every side is then a power r^a, so by
/// Lyndon–Schützenberger and "r^b is a factor of r^a iff b ≤ a" the
/// predicate is equivalent to `monoRootAtom(P)`. The containment test is
/// a product walk of each trimmed automaton against r's |r|-state cycle.
std::optional<Word> monoRoot(const std::map<VarId, automata::Nfa> &Langs,
                             const PosPredicate &P);

/// The length atom a mono-root predicate is equivalent to: |u| ≠ |v|
/// for u ≠ v, and |needle| > |haystack| for ¬prefixof, ¬suffixof and
/// ¬contains (needle = Lhs).
LenAtom monoRootAtom(const PosPredicate &P);

/// Decides R′ ∧ I′ ∧ P′. The caller owns \p A and may have minted integer
/// variables in it (e.g. for str.at position terms) before the call.
/// A mono-root predicate (see `monoRoot`) leaves P′ and its length atom
/// joins I′; the rewrite is exact, so both verdicts stand. When any
/// predicate was rewritten, I′ and the length atoms are first solved over
/// bare lengths ℓ_x ≥ 0 with the other predicates dropped. That
/// over-approximates, so its Unsat (certified over the ℓ_x) is the
/// answer; only a Sat goes on to the Parikh encoding, and `MpResult::Qf`
/// then sums both solves. A ¬contains left after the rewrite goes to the
/// MBQI loop. The pipeline passes only those whose haystack can be
/// strictly longer than the needle; it solves a ¬contains whose needle
/// covers its haystack as the ≠ of its sides, which is exact. Returns Unknown when a ¬contains predicate left after
/// the rewrite ranges over a non-flat language (callers apply the Sec. 8
/// heuristics first) or on resource exhaustion.
MpResult solveMP(lia::Arena &A,
                 const std::map<VarId, automata::Nfa> &Langs,
                 const std::vector<PosPredicate> &Preds,
                 uint32_t AlphabetSize,
                 const IntConstraintBuilder &IntConstraints = nullptr,
                 const MpOptions &Opts = {});

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_MPSOLVER_H
