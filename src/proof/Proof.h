//===- proof/Proof.h - Unsat certificate format ------------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Unsat certificate format: plain data structures, their text
/// serialization, and the parser. This header is the *entire* shared
/// surface between the solver (which emits certificates) and the
/// independent checker kernel (`proof/Check.h`, `tools/postr_check`):
/// the kernel re-derives every arithmetic and propositional fact from
/// these records alone and never touches solver data structures.
///
/// A whole-problem certificate is one refutation per stabilization
/// disjunct. A disjunct refutation is either
///
///  - a `QfProof`: a DRUP-style clause trace of the DPLL(T) search over
///    the disjunct's LIA encoding — input clauses (the trusted
///    encoding), learnt clauses (checkable by reverse unit propagation),
///    theory lemmas (checkable by re-evaluating an attached Farkas
///    certificate: a nonnegative rational combination of asserted
///    bounds summing to `0 <= negative`), certless integer splits
///    `x <= f | x >= f+1` (tautologies over a fresh atom, checkable by
///    reverse unit propagation), DB-reduction deletions, and a final
///    refutation event (empty-clause or assumption-core). A trace
///    may carry a `MonoRootRewrite` (`mono` and `len` records): the
///    disjunct's predicates over powers of one primitive word became
///    length atoms of its input, and the kernel checks each atom against
///    its predicate before replaying the trace; or
///
///  - a `WalkProof` (`disjunct <i> walk`): a bounded counter-reachability
///    refutation from the one-counter fast path for a numeral-index
///    str.at (counter/OneCounter.h). It holds a weighted graph, a start
///    state, target states and a bound; the kernel re-decides bounded
///    reachability on its own and accepts only when no target is
///    reachable. Building the graph from the languages' concatenation
///    automaton A_◦ is trusted encoding, exactly like a `QfProof`'s Input
///    clauses: the kernel checks the search, not the construction; or
///
///  - a named structural rule (`DisjunctCert::IsRule`): one of the
///    automata-level short-circuits (empty language, epsilon needle,
///    syntactic self-containment, the one-counter fast path for
///    mixed-root ≠ / ¬prefixof / ¬suffixof, MBQI candidate logic). These
///    are part of the trusted front-end, recorded so the composition is
///    explicit; the kernel counts them but cannot re-derive them.
///
/// Atoms tie SAT variables to linear inequalities: SAT var v true means
/// `Const + Σ Coeff·Var <= 0` over the integer problem variables, false
/// means `Const + Σ Coeff·Var >= 1` (integer negation). Farkas entries
/// reference the asserting literal or an intrinsic variable bound, so
/// the checker reconstructs each inequality from the tables instead of
/// trusting the emitter.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_PROOF_PROOF_H
#define POSTR_PROOF_PROOF_H

#include "base/Base.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace postr {
namespace proof {

/// A 128-bit fraction, plain data. The checker implements its own exact
/// arithmetic over this representation (`proof/Check.cpp`); the solver
/// only converts into it at emission time.
struct Rat {
  __int128 Num = 0;
  __int128 Den = 1;
};

/// Atom definition: SAT var \p SatVar true <=> Const + Σ Coeff·Var <= 0.
struct LinAtom {
  uint32_t SatVar = 0;
  int64_t Const = 0;
  std::vector<std::pair<uint32_t, int64_t>> Coeffs; ///< (problem var, coeff)
};

/// Intrinsic (declared) bounds of one integer problem variable.
struct VarBounds {
  uint32_t Var = 0;
  bool HasLo = false, HasHi = false;
  int64_t Lo = 0, Hi = 0;
};

/// One term of a Farkas combination: a strictly positive rational
/// multiple of an available inequality, identified by origin.
struct FarkasEntry {
  enum class Kind : uint8_t {
    Lit,      ///< bound asserted by SAT literal `Ref` (atom table)
    VarBound, ///< intrinsic bound of problem var `Ref`, side `Upper`
  };
  Kind K = Kind::Lit;
  uint32_t Ref = 0;
  bool Upper = false;
  Rat Mult;
};

/// The certificate of one theory lemma: Farkas entries summing to a
/// contradiction (all variables cancel, constant strictly negative).
struct FarkasLeaf {
  std::vector<FarkasEntry> Entries;
};

/// One DRUP-style event of the clause trace. Literal codes follow the
/// SAT solver convention: `var*2 + negated`.
struct ClauseStep {
  enum class Kind : uint8_t {
    Input,  ///< asserted clause (trusted encoding / axiom)
    Learnt, ///< CDCL-learnt clause — must pass reverse unit propagation
    Theory, ///< theory lemma — checked via `Cert` (or RUP when -1)
    Delete, ///< DB-reduction deletion (by literal multiset)
    Final,  ///< refutation: Lits = refuted assumption core (empty = UP alone)
  };
  Kind K = Kind::Input;
  std::vector<uint32_t> Lits;
  int32_t Cert = -1; ///< Theory: index into QfProof::Certs
};

/// Full proof of one disjunct's LIA-level unsatisfiability.
struct QfProof {
  std::vector<LinAtom> Atoms;
  std::vector<VarBounds> Bounds;
  std::vector<ClauseStep> Steps;
  std::vector<FarkasLeaf> Certs;
};

/// One edge of a WalkProof graph; its weight must be non-negative.
struct WalkEdge {
  uint32_t From = 0, To = 0;
  int64_t Weight = 0;
};

/// Target states (Node, v) for every counter value Lo <= v <= Hi.
struct WalkTarget {
  uint32_t Node = 0;
  int64_t Lo = 0, Hi = 0;
};

/// A bounded counter-reachability refutation. A counter holds
/// StartValue on StartNode; taking an edge subtracts its weight, and no
/// move may take the counter below 0. The claim: no target state is
/// reachable. Since weights are non-negative, every reachable value lies
/// in [0, StartValue] ⊆ [0, Bound], so a search over the (Bound + 1) ·
/// NumNodes states is exhaustive and needs no excursion argument.
struct WalkProof {
  uint32_t NumNodes = 0;
  std::vector<WalkEdge> Edges;
  uint32_t StartNode = 0;
  int64_t StartValue = 0;
  std::vector<WalkTarget> Targets;
  int64_t Bound = 0;
};

/// Cap on (Bound + 1) · NumNodes a WalkProof may span; the kernel
/// rejects larger ones, so the fast path does not emit them.
constexpr uint64_t MaxWalkStates = uint64_t(1) << 24;

/// A string variable's length term #⟨L,x⟩ over the trace's problem
/// variables: Σ Coeff·Var.
struct LenDef {
  uint32_t StrVar = 0;
  std::vector<std::pair<uint32_t, int64_t>> Coeffs; ///< (problem var, coeff)
};

/// One predicate a MonoRootRewrite replaced, and the length atom it
/// became: Σ Coeff·|x| ⋈ 0 over string variables.
struct MonoRootAtom {
  enum class Kind : uint8_t { Diseq, NotPrefix, NotSuffix, NotContains };
  enum class Op : uint8_t { Le, Lt, Ge, Gt, Eq, Ne };
  Kind K = Kind::Diseq;
  std::vector<uint32_t> Root;     ///< the primitive word r, as letters
  std::vector<uint32_t> Lhs, Rhs; ///< the sides; Lhs is the needle
  Op Cmp = Op::Ne;
  std::vector<std::pair<uint32_t, int64_t>> Coeffs; ///< (string var, coeff)
};

/// The rewrite a clause trace rests on: each mono-root predicate of the
/// disjunct became a length atom of the trace's input (|u| ≠ |v| for ≠,
/// |needle| > |haystack| otherwise). The kernel checks that every root
/// is primitive, that every atom is its kind's image over the sides'
/// occurrence counts, and that the atom, read through the length terms,
/// is among the trace's atoms. That every language lies in r* is
/// trusted encoding, like a walk graph's construction; the lemma behind
/// the rewrite is metatheory. A `len` term is either a Parikh length
/// (the sum of a variable's transition counts) or a bare length
/// variable bounded below by 0: solveMP refutes the atoms over bare
/// lengths first, and such a trace trusts no encoding of the languages.
struct MonoRootRewrite {
  std::vector<LenDef> Lens;
  std::vector<MonoRootAtom> Atoms;
};

/// Refutation of one stabilization disjunct.
struct DisjunctCert {
  bool IsRule = false;
  std::string Rule; ///< structural rule name when IsRule
  QfProof Proof;    ///< clause trace otherwise
  /// Set for a walk refutation (then Proof is unused).
  std::optional<WalkProof> Walk;
  /// Set for a clause trace over a disjunct whose mono-root predicates
  /// became length atoms.
  std::optional<MonoRootRewrite> Rewrite;
};

/// Whole-problem Unsat certificate: every disjunct refuted and the
/// stabilization complete (an incomplete stabilization certifies
/// nothing — the solver's verdict correctly stays Unknown).
struct Certificate {
  bool Complete = true;
  std::vector<DisjunctCert> Disjuncts;
};

/// Append-only builder the solver layers write into while searching.
/// Zero-cost when absent: every emission site is behind a null check.
class QfTraceBuilder {
public:
  QfProof P;

  /// Cert id staged by the theory client for the next Theory step (the
  /// lemma travels through the SAT core separately from its cert).
  int32_t Pending = -1;

  void atomDef(uint32_t SatVar, int64_t Const,
               std::vector<std::pair<uint32_t, int64_t>> Coeffs) {
    P.Atoms.push_back({SatVar, Const, std::move(Coeffs)});
  }
  void varBounds(VarBounds B) { P.Bounds.push_back(B); }
  int32_t addCert(FarkasLeaf C) {
    P.Certs.push_back(std::move(C));
    return static_cast<int32_t>(P.Certs.size() - 1);
  }

  void input(std::vector<uint32_t> Lits) {
    // A staged cert turns the incoming clause into a certified theory
    // step (atom-lattice lemmas enter through addClause but are
    // theory-valid, not axioms).
    if (Pending >= 0)
      return theory(std::move(Lits));
    P.Steps.push_back({ClauseStep::Kind::Input, std::move(Lits), -1});
  }
  void learnt(std::vector<uint32_t> Lits) {
    P.Steps.push_back({ClauseStep::Kind::Learnt, std::move(Lits), -1});
  }
  void theory(std::vector<uint32_t> Lits) {
    P.Steps.push_back({ClauseStep::Kind::Theory, std::move(Lits), Pending});
    Pending = -1;
  }
  void del(std::vector<uint32_t> Lits) {
    P.Steps.push_back({ClauseStep::Kind::Delete, std::move(Lits), -1});
  }
  void finalCore(std::vector<uint32_t> Core) {
    P.Steps.push_back({ClauseStep::Kind::Final, std::move(Core), -1});
  }
  /// Drops a stale Final step: an Unsat-under-assumptions outcome is
  /// only *the* refutation if the owning loop stops there; a context
  /// that keeps solving clears it at the next solve() entry.
  void clearFinal() {
    for (size_t I = P.Steps.size(); I > 0; --I)
      if (P.Steps[I - 1].K == ClauseStep::Kind::Final)
        P.Steps.erase(P.Steps.begin() + static_cast<ptrdiff_t>(I - 1));
  }
  void reset() {
    P = QfProof();
    Pending = -1;
  }
};

/// Renders \p C in the line-based text format (`postr-cert 2` header).
std::string serialize(const Certificate &C);

/// Parses certificate text. Errors carry a line number.
Result<Certificate> parse(std::string_view Text);

} // namespace proof
} // namespace postr

#endif // POSTR_PROOF_PROOF_H
