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
  /// The probe site that noticed Stop when the length-first attempt's
  /// child budget did; null when MpOptions::Budget's tripSite() names it.
  const char *StopSite = nullptr;
  /// On Sat: a witnessing string assignment for every variable.
  std::map<VarId, Word> Assignment;
  /// On Sat: the values of the IntSide's NumInts integer variables.
  std::vector<int64_t> Ints;
  /// With MpOptions::Certify, on Unsat: this call's refutation — either
  /// a named structural rule or a checkable QF clause trace (with the
  /// mono-root rewrite it rests on, if any predicate was rewritten).
  proof::DisjunctCert Cert;
  /// True when the call reached the MBQI loop (a ¬contains predicate was
  /// left after the mono-root rewrite).
  bool UsedMbqi = false;
  /// The quantifier-free solves' counters, whatever the verdict: the
  /// length stage's and the full encoding's, summed. Zero when no QF
  /// solve ran (a rule decided the call, or the MBQI loop did, whose
  /// counters MbqiOptions::Stats collects).
  lia::QfSearchStats Qf;
};

/// A length atom |Lhs| ⋈ |Rhs| between two concatenations.
struct LenAtom {
  std::vector<VarId> Lhs;
  lia::Cmp Op = lia::Cmp::Ne;
  std::vector<VarId> Rhs;
};

/// An integer atom Lhs ⋈ Rhs of I′ over the variables of an IntSide.
struct IntAtom {
  lia::LinTerm Lhs;
  lia::Cmp Op = lia::Cmp::Eq;
  lia::LinTerm Rhs;
};

/// A length handle of I′: the length of the caller's variable Of, which
/// stands for the concatenation Seq of the call's variables.
struct LenGroup {
  VarId Of = 0;
  std::vector<VarId> Seq;
};

/// I′ as data. Its terms (IntAtom sides and PosPredicate::AtPos) read
/// variable v < NumInts as the caller's integer variable v, and
/// NumInts + g as the handle of Lens[g]. Every arena `solveMP` builds
/// starts with the NumInts integer variables and then the handles that
/// str.at positions read, so AtPos terms are valid in each of them;
/// those groups must come first in Lens. The other handles are minted
/// when a goal is built, after the encoding, and ties are built in the
/// order of LenGroup::Of.
struct IntSide {
  uint32_t NumInts = 0;
  std::vector<LenGroup> Lens;
  std::vector<IntAtom> Atoms;
  /// Length atoms over the call's variables. The pipeline puts here the
  /// |needle| > |haystack| under-approximation (Sec. 8) of each
  /// ¬contains it leaves out of P′.
  std::vector<LenAtom> LenAtoms;
};

/// The primitive root r when \p P is a ≠, ¬prefixof, ¬suffixof or
/// ¬contains and the language of every variable on both sides lies in
/// r*. A language holding only ε fits any root; when all of them do, r
/// is the first letter. Every side is then a power r^a, so by
/// Lyndon–Schützenberger and "r^b is a factor of r^a iff b ≤ a" the
/// predicate is equivalent to a length atom: |u| ≠ |v| for u ≠ v, and
/// |needle| > |haystack| for ¬prefixof, ¬suffixof and ¬contains (needle
/// = Lhs). The containment test is a product walk of each trimmed
/// automaton against r's |r|-state cycle.
std::optional<Word> monoRoot(const std::map<VarId, automata::Nfa> &Langs,
                             const PosPredicate &P);

/// Decides R′ ∧ I′ ∧ P′, with I′ given as data (\p Ints); the call
/// builds every LIA arena it solves in. A mono-root predicate (see
/// `monoRoot`) leaves P′ and its exact length atom joins I′. Then the
/// length stage, each shortcut on a scratch arena: when a predicate was
/// rewritten, I′ over bare lengths ℓ_x ≥ 0 (an over-approximation: only
/// its Unsat, certified over the ℓ_x, is taken); when every predicate is
/// a ≠ and one is left, the languages alone with each strengthened to
/// |u| ≠ |v| (an under-approximation, on a child budget: only its Sat, or
/// a timeout or cancel, is taken). Otherwise the predicates left are
/// encoded, and `MpResult::Qf` sums every QF solve. A ¬contains left goes
/// to the MBQI loop; the pipeline passes only those whose haystack can be
/// strictly longer than the needle. Returns Unknown when such a
/// ¬contains ranges over a non-flat language (callers apply the Sec. 8
/// heuristics first) or on resource exhaustion.
MpResult solveMP(const std::map<VarId, automata::Nfa> &Langs,
                 const std::vector<PosPredicate> &Preds,
                 uint32_t AlphabetSize, const IntSide &Ints = {},
                 const MpOptions &Opts = {});

} // namespace tagaut
} // namespace postr

#endif // POSTR_TAGAUT_MPSOLVER_H
