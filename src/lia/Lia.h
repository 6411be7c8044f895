//===- lia/Lia.h - Linear integer arithmetic formulae ------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LIA formula representation into which the tag-automaton framework
/// compiles position constraints (Secs. 4–6), and which the DPLL(T) solver
/// in `lia/Solver.h` decides. Plays the role of Z3's internal LIA format
/// in the paper's implementation.
///
/// Formulae live in an `Arena` and are referenced by dense `FormulaId`s.
/// Atoms are normalized linear constraints `t <= 0`; equalities and
/// disequalities are lowered before solving so that literal negation is
/// closed over the atom language (¬(t<=0) ≡ -t+1<=0 for integers).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_LIA_H
#define POSTR_LIA_LIA_H

#include "base/Base.h"
#include "lia/Rational.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace postr {
namespace lia {

/// Integer variable, dense within one Arena.
using Var = uint32_t;

/// Formula node handle, dense within one Arena.
using FormulaId = uint32_t;

/// A linear term c0 + Σ ci·xi with int64 coefficients, kept sorted by
/// variable and free of zero coefficients.
class LinTerm {
public:
  LinTerm() = default;
  /*implicit*/ LinTerm(int64_t Constant) : Const(Constant) {}

  static LinTerm variable(Var V, int64_t Coeff = 1) {
    LinTerm T;
    if (Coeff != 0)
      T.Coeffs.push_back({V, Coeff});
    return T;
  }

  /// Σ 1·v over \p Vars (need not be sorted or duplicate-free; repeats
  /// accumulate). The bulk builder for Parikh tag/flow sums.
  static LinTerm sum(const std::vector<Var> &Vars);

  int64_t constant() const { return Const; }
  const std::vector<std::pair<Var, int64_t>> &coeffs() const {
    return Coeffs;
  }
  bool isConstant() const { return Coeffs.empty(); }

  /// Adds K·v in place. O(1) amortized when variables arrive in
  /// ascending order (the dominant pattern: count variables are minted
  /// in transition order); O(n) insert otherwise.
  LinTerm &addMonomial(Var V, int64_t K);

  LinTerm operator+(const LinTerm &O) const {
    LinTerm R = *this;
    R += O;
    return R;
  }
  LinTerm operator-(const LinTerm &O) const {
    LinTerm R = *this;
    R -= O;
    return R;
  }
  LinTerm operator-() const { return *this * -1; }
  LinTerm operator*(int64_t K) const;
  /// True in-place sorted merge (no reallocation of the left operand
  /// beyond the final size; zero-coefficient entries are dropped).
  LinTerm &operator+=(const LinTerm &O) { return mergeInPlace(O, 1); }
  LinTerm &operator-=(const LinTerm &O) { return mergeInPlace(O, -1); }

  friend bool operator==(const LinTerm &A, const LinTerm &B) {
    return A.Const == B.Const && A.Coeffs == B.Coeffs;
  }

  /// Evaluates under a dense model vector (indexed by Var).
  int64_t eval(const std::vector<int64_t> &Model) const;

  std::string str() const;

private:
  /// Merges Sign·O into *this: backward in-place merge of the two sorted
  /// coefficient runs, then one compaction pass dropping zeros.
  LinTerm &mergeInPlace(const LinTerm &O, int64_t Sign);

  std::vector<std::pair<Var, int64_t>> Coeffs;
  int64_t Const = 0;
};

/// Formula node kinds. After `Arena::lower`, only True/False/Atom/Not/
/// And/Or remain and every Not wraps an Atom.
enum class FKind : uint8_t {
  True,
  False,
  Atom, ///< LinTerm <= 0 (after lowering) or any Cmp (before).
  Not,
  And,
  Or,
};

/// Comparison operators available when building atoms. All are lowered to
/// `<= 0` form before solving.
enum class Cmp : uint8_t { Le, Lt, Ge, Gt, Eq, Ne };

/// Formula arena: owns nodes, atoms, and variable metadata.
class Arena {
public:
  /// Creates a fresh integer variable. \p Lo / \p Hi are intrinsic bounds
  /// enforced directly by the theory solver (INT64_MIN/MAX mean
  /// unbounded); Parikh counter variables use Lo = 0.
  Var freshVar(std::string Name, int64_t Lo = INT64_MIN,
               int64_t Hi = INT64_MAX);

  uint32_t numVars() const { return static_cast<uint32_t>(Names.size()); }
  const std::string &varName(Var V) const { return Names[V]; }
  int64_t varLo(Var V) const { return Lower[V]; }
  int64_t varHi(Var V) const { return Upper[V]; }

  FormulaId trueF();
  FormulaId falseF();
  /// The atom `T Cmp 0`.
  FormulaId atom(LinTerm T, Cmp Op);
  /// Convenience: `L Cmp R`.
  FormulaId cmp(const LinTerm &L, Cmp Op, const LinTerm &R) {
    return atom(L - R, Op);
  }
  FormulaId conj(std::vector<FormulaId> Children);
  FormulaId disj(std::vector<FormulaId> Children);
  FormulaId neg(FormulaId F);
  FormulaId implies(FormulaId A, FormulaId B) {
    return disj({neg(A), B});
  }
  FormulaId iff(FormulaId A, FormulaId B) {
    return conj({implies(A, B), implies(B, A)});
  }

  FKind kind(FormulaId F) const { return Nodes[F].Kind; }
  const std::vector<FormulaId> &children(FormulaId F) const {
    return Nodes[F].Children;
  }
  const LinTerm &atomTerm(FormulaId F) const {
    assert(Nodes[F].Kind == FKind::Atom);
    return Atoms[Nodes[F].AtomIndex].Term;
  }
  Cmp atomCmp(FormulaId F) const {
    assert(Nodes[F].Kind == FKind::Atom);
    return Atoms[Nodes[F].AtomIndex].Op;
  }

  /// Number of formula nodes (a size proxy used by the benches that check
  /// the paper's "polynomial vs exponential encoding" claims).
  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }

  /// Rewrites \p F so that every atom has the form `t <= 0`:
  /// Eq → And(Le,Ge), Ne → Or(Lt,Gt), Lt → t+1 <= 0, Ge/Gt mirrored;
  /// pushes no negations (the solver treats ¬(t<=0) as -t+1<=0).
  FormulaId lower(FormulaId F);

  /// Rebuilds \p F with every variable v replaced by MapVar(v) inside
  /// atom terms (identity: LinTerm::variable(v)). The MBQI layer uses
  /// this to instantiate a ∀-block body at a concrete offset with fresh
  /// inner variables.
  FormulaId substitute(FormulaId F,
                       const std::function<LinTerm(Var)> &MapVar);

  /// Evaluates \p F under a dense model vector. Intended for model
  /// validation and tests; all variables must be assigned.
  bool eval(FormulaId F, const std::vector<int64_t> &Model) const;

  std::string str(FormulaId F) const;

private:
  struct Node {
    FKind Kind;
    uint32_t AtomIndex = 0;
    std::vector<FormulaId> Children;
  };
  struct AtomRec {
    LinTerm Term;
    Cmp Op;
  };

  FormulaId push(Node N) {
    Nodes.push_back(std::move(N));
    return static_cast<FormulaId>(Nodes.size() - 1);
  }

  std::vector<Node> Nodes;
  std::vector<AtomRec> Atoms;
  std::vector<std::string> Names;
  std::vector<int64_t> Lower, Upper;
  FormulaId TrueId = ~FormulaId(0), FalseId = ~FormulaId(0);
};

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_LIA_H
