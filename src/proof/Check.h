//===- proof/Check.h - Independent certificate checker kernel ----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The proof-checking kernel behind `tools/postr_check` and the
/// in-process `POSTR_SELFCHECK=certify` gate. Deliberately independent
/// of the solver: it consumes only the parsed certificate structures
/// from `proof/Proof.h`, re-implements exact rational arithmetic and
/// unit propagation from scratch, and is small enough to audit. A
/// clause trace is accepted when every learnt clause passes reverse
/// unit propagation against the live clause DB, every theory lemma's
/// Farkas certificate re-evaluates to `0 <= negative` (a certless one,
/// an integer split, must pass reverse unit propagation too), and the
/// final refutation event conflicts under unit propagation. A
/// trace's mono-root rewrite is accepted when every root is primitive
/// and every length atom is its predicate's image and among the trace's
/// atoms. A walk refutation is accepted when a breadth-first search of
/// its bounded counter graph reaches no target state.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_PROOF_CHECK_H
#define POSTR_PROOF_CHECK_H

#include "proof/Proof.h"

#include <cstdint>
#include <string>

namespace postr {
namespace proof {

/// Kernel activity counters, reported by `postr_check -v`.
struct CheckStats {
  /// Disjuncts closed by a clause trace or a walk refutation.
  uint32_t CheckedRefutations = 0;
  /// Disjuncts closed by a front-end rule; a complete certificate with
  /// zero disjuncts counts as one.
  uint32_t TrustedRules = 0;
  uint64_t RupChecks = 0;          ///< clauses verified by propagation
  uint64_t FarkasLeaves = 0;       ///< Farkas combinations re-evaluated
  uint64_t WalkStates = 0;         ///< walk states the kernel searched
  uint32_t MonoRootAtoms = 0;      ///< rewritten predicates checked
};

struct CheckOutcome {
  bool Ok = false;
  std::string Error; ///< first rejection reason (empty when Ok)
  CheckStats Stats;
};

/// Verifies one disjunct clause trace end to end.
CheckOutcome checkQfProof(const QfProof &P);

/// Verifies a whole-problem certificate: stabilization must be
/// complete and every disjunct refuted (checked trace or named
/// structural rule).
CheckOutcome checkCertificate(const Certificate &C);

} // namespace proof
} // namespace postr

#endif // POSTR_PROOF_CHECK_H
