//===- strings/Normalize.h - To the normal form E ∧ R ∧ I ∧ P ----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Brings a `Problem` to the paper's normal form (Sec. 2):
///  (i)  positive prefixof/suffixof/contains become word equations with
///       fresh variables (v = u·z_p, v = z_s·u, v = z_c·u·z_c′);
///  (ii) string literals step (v) leaves become fresh variables with
///       singleton languages (footnote 3);
///  (iii) per-variable regular memberships are merged by product
///       intersection into a single NFA per variable (unconstrained
///       variables get the universal language);
///  (iv) the effective alphabet is closed with one fresh sentinel symbol
///       so that "any other character" witnesses exist;
///  (v)  an assertion whose one side is a single variable x and whose
///       other side is literals only (the word w, possibly ε) becomes a
///       membership of x, merged in step (iii) and emitting no
///       equation, predicate or literal variable:
///
///         x = w                        {w}
///         prefixof(w, x) / (x, w)      wΣ*  / Pref(w)
///         suffixof(w, x) / (x, w)      Σ*w  / Suf(w)
///         contains(x, w) / (w, x)      Σ*wΣ* / Fact(w)   (x ∋ w / w ∋ x)
///         c = str.at(x, i), i ≥ 0      Σ^i·c·Σ* for one letter c,
///                                      Σ^{≤i} for c = ε, ∅ for |c| ≥ 2
///         c = str.at(x, i), i < 0      Σ* for c = ε, ∅ otherwise
///         y = str.at(w, i)             {w[i]}, or {ε} out of range
///
///       Every negation (≠ included) takes the complement. The automata
///       are ε-free and built over the closed alphabet of (iv). A str.at
///       index must be a numeral of at most 1024, since Σ^i takes i + 1
///       states; larger ones stay predicates.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_STRINGS_NORMALIZE_H
#define POSTR_STRINGS_NORMALIZE_H

#include "automata/Nfa.h"
#include "eq/Stabilize.h"
#include "strings/Ast.h"
#include "tagaut/MpSolver.h"

#include <map>
#include <vector>

namespace postr {
namespace strings {

/// One position predicate in problem-level form (AtPos still an IntTerm;
/// it becomes a `lia::LinTerm` once a per-disjunct arena exists).
struct NormPred {
  tagaut::PredKind Kind;
  std::vector<VarId> Lhs, Rhs;
  IntTerm AtPos;
};

/// One integer atom of the I part.
struct NormIntAtom {
  IntTerm Lhs;
  lia::Cmp Op;
  IntTerm Rhs;
};

/// The normal form E ∧ R ∧ I ∧ P plus the bookkeeping to interpret
/// models.
struct NormalForm {
  Alphabet Sigma;
  /// R: one NFA per solver variable (originals + literal + fresh vars).
  std::map<VarId, automata::Nfa> Langs;
  /// E.
  std::vector<eq::WordEquation> Equations;
  /// I.
  std::vector<NormIntAtom> IntAtoms;
  /// P.
  std::vector<NormPred> Preds;
  /// First VarId free for the stabilization pass.
  VarId NextFresh = 0;
  /// Number of problem-level integer variables.
  uint32_t NumIntVars = 0;
  /// Variables of the original problem (for model projection).
  uint32_t NumOriginalVars = 0;
};

/// Normalizes \p P. Pure; does not modify the problem.
NormalForm normalize(const Problem &P);

/// \p T over solveMP's integer side \p S for the decomposition \p D:
/// integer variable v reads variable v, and |x| the length group of
/// D.Subst(x), appended to S.Lens when first read.
lia::LinTerm lowerIntTerm(tagaut::IntSide &S, const eq::Decomposition &D,
                          const IntTerm &T);

} // namespace strings
} // namespace postr

#endif // POSTR_STRINGS_NORMALIZE_H
