//===- strings/Normalize.cpp - To the normal form E ∧ R ∧ I ∧ P -----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "strings/Normalize.h"

#include <optional>

using namespace postr;
using namespace postr::strings;
using automata::Nfa;
using tagaut::PredKind;

namespace {

/// str.at positions past this bound stay predicates: Σ^i·c·Σ* has i + 2
/// states, and the index is a numeral of the input.
constexpr int64_t MaxLoweredIndex = 1024;

/// A letter slot of `chain` that reads any symbol.
constexpr Symbol AnySymbol = Nfa::Epsilon - 1;

/// Where a `chain` automaton may start, stop and loop.
struct ChainShape {
  bool LoopFront = false;  ///< Σ self-loop on the first state
  bool LoopBack = false;   ///< Σ self-loop on the last state
  bool AllInitial = false; ///< every state initial (else only the first)
  bool AllFinal = false;   ///< every state final (else only the last)
};

/// The ε-free chain automaton over \p Slots: states 0..n, where slot k
/// leads from state k to k + 1 on its symbol (on every symbol for
/// AnySymbol). {w}, wΣ*, Σ*w, Σ*wΣ*, Pref(w), Suf(w), Fact(w), Σ^{≤i}
/// and Σ^i·c·Σ* are all chains.
Nfa chain(uint32_t SigmaSize, const Word &Slots, ChainShape Shape) {
  Nfa A(SigmaSize);
  uint32_t Last = static_cast<uint32_t>(Slots.size());
  A.addStates(Last + 1);
  for (uint32_t K = 0; K <= Last; ++K) {
    if (Shape.AllInitial || K == 0)
      A.markInitial(K);
    if (Shape.AllFinal || K == Last)
      A.markFinal(K);
  }
  auto Step = [&](uint32_t From, Symbol Sym, uint32_t To) {
    for (Symbol S = 0; S < SigmaSize; ++S)
      if (Sym == AnySymbol || Sym == S)
        A.addTransition(From, S, To);
  };
  for (uint32_t K = 0; K < Last; ++K)
    Step(K, Slots[K], K + 1);
  if (Shape.LoopFront)
    Step(0, AnySymbol, 0);
  if (Shape.LoopBack)
    Step(Last, AnySymbol, Last);
  return A;
}

/// The variable of a term that is exactly one variable (empty literals
/// aside).
std::optional<VarId> soleVar(const StrSeq &Seq) {
  std::optional<VarId> X;
  for (const StrElem &E : Seq) {
    if (!E.IsVar && E.Lit.empty())
      continue;
    if (!E.IsVar || X)
      return std::nullopt;
    X = E.Var;
  }
  return X;
}

/// The word of a term made of literals only.
std::optional<std::string> wordOf(const StrSeq &Seq) {
  std::string W;
  for (const StrElem &E : Seq) {
    if (E.IsVar)
      return std::nullopt;
    W += E.Lit;
  }
  return W;
}

/// Collects alphabet symbols from every literal and regex in the problem.
void collectProblemAlphabet(const Problem &P, Alphabet &Sigma) {
  for (const Assertion &A : P.assertions()) {
    for (const StrSeq *Seq : {&A.Lhs, &A.Rhs})
      for (const StrElem &E : *Seq)
        if (!E.IsVar)
          for (char C : E.Lit)
            Sigma.intern(C);
    if (A.Re)
      regex::collectAlphabet(*A.Re, Sigma);
  }
}

class Normalizer {
public:
  explicit Normalizer(const Problem &P) : P(P) {}

  NormalForm run() {
    Out.NumOriginalVars = P.numStrVars();
    Out.NumIntVars = P.numIntVars();
    Out.NextFresh = P.numStrVars();
    // The alphabet is fully known before any NFA is built: all literals
    // and regexes first, then one sentinel symbol outside all of them.
    collectProblemAlphabet(P, Out.Sigma);
    Out.Sigma.freshSymbol();

    for (const Assertion &A : P.assertions())
      normalizeAssertion(A);

    // R: merge memberships; variables without any get the universal
    // language. Literal variables already carry their singleton NFA.
    uint32_t SigmaSize = Out.Sigma.size();
    for (VarId X = 0; X < Out.NextFresh; ++X) {
      if (Out.Langs.count(X))
        continue; // literal variable
      auto It = Memberships.find(X);
      if (It == Memberships.end()) {
        Out.Langs[X] = Nfa::universal(SigmaSize);
        continue;
      }
      Nfa Merged = std::move(It->second.front());
      for (size_t I = 1; I < It->second.size(); ++I)
        Merged = automata::intersect(Merged, It->second[I]).trim();
      Out.Langs[X] = std::move(Merged);
    }
    return std::move(Out);
  }

private:
  /// Literal -> fresh singleton-language variable (deduplicated;
  /// footnote 3 of the paper).
  VarId literalVar(const std::string &Lit) {
    auto [It, Inserted] = LiteralVars.try_emplace(Lit, 0);
    if (!Inserted)
      return It->second;
    VarId X = Out.NextFresh++;
    It->second = X;
    Out.Langs[X] = Nfa::fromWord(Out.Sigma.size(), Out.Sigma.internWord(Lit));
    return X;
  }

  VarId freshUniversal() { return Out.NextFresh++; }

  /// Lowers a term to a variable-occurrence sequence.
  std::vector<VarId> seqVars(const StrSeq &Seq) {
    std::vector<VarId> Occs;
    for (const StrElem &E : Seq) {
      if (E.IsVar) {
        assert(E.Var < P.numStrVars() && "undeclared variable in term");
        Occs.push_back(E.Var);
      } else if (!E.Lit.empty()) {
        Occs.push_back(literalVar(E.Lit));
      }
      // Empty literals vanish in concatenation.
    }
    return Occs;
  }

  void addMembership(VarId X, Nfa A) {
    Memberships[X].push_back(std::move(A));
  }

  /// Step (v): an assertion between one variable and a word is a regular
  /// constraint on that variable. Adds it as a membership and returns
  /// true, or returns false when \p A has another shape.
  bool lowerToMembership(const Assertion &A) {
    std::optional<VarId> LVar = soleVar(A.Lhs), RVar = soleVar(A.Rhs);
    std::optional<std::string> LWord = wordOf(A.Lhs), RWord = wordOf(A.Rhs);
    uint32_t N = Out.Sigma.size();
    auto Lit = [&](const std::string &W) { return Out.Sigma.internWord(W); };
    // Orients a two-sided kind: Pattern when the variable is the right
    // side (the word is the prefix/suffix/needle), Closure when it is the
    // left side (the variable is the prefix/suffix/needle of the word).
    VarId X = InvalidVar;
    std::optional<Nfa> L;
    auto Orient = [&](ChainShape Pattern, ChainShape Closure) {
      if (RVar && LWord) {
        X = *RVar;
        L = chain(N, Lit(*LWord), Pattern);
      } else if (LVar && RWord) {
        X = *LVar;
        L = chain(N, Lit(*RWord), Closure);
      }
    };
    bool Negated = false;
    switch (A.Kind) {
    case AssertKind::Diseq:
      Negated = true;
      [[fallthrough]];
    case AssertKind::WordEq:
      Orient({}, {}); // {w}
      break;
    case AssertKind::NotPrefixof:
      Negated = true;
      [[fallthrough]];
    case AssertKind::Prefixof:
      Orient({.LoopBack = true}, {.AllFinal = true}); // wΣ*, Pref(w)
      break;
    case AssertKind::NotSuffixof:
      Negated = true;
      [[fallthrough]];
    case AssertKind::Suffixof:
      Orient({.LoopFront = true}, {.AllInitial = true}); // Σ*w, Suf(w)
      break;
    case AssertKind::NotContains:
      Negated = true;
      [[fallthrough]];
    case AssertKind::Contains: // Lhs is the needle
      Orient({.LoopFront = true, .LoopBack = true},
             {.AllInitial = true, .AllFinal = true}); // Σ*wΣ*, Fact(w)
      break;
    case AssertKind::StrAtNe:
      Negated = true;
      [[fallthrough]];
    case AssertKind::StrAtEq: {
      if (!A.Pos.isConstant())
        return false;
      int64_t I = A.Pos.Const;
      if (LVar && RWord) { // y = str.at(w, i): y ∈ {w[i]} or {ε}
        X = *LVar;
        bool InRange = I >= 0 && I < static_cast<int64_t>(RWord->size());
        L = chain(N, InRange ? Lit(RWord->substr(I, 1)) : Word{}, {});
      } else if (RVar && LWord && I < 0) { // str.at(x, i) = ε
        X = *RVar;
        L = LWord->empty() ? Nfa::universal(N) : Nfa::emptyLanguage(N);
      } else if (RVar && LWord && I <= MaxLoweredIndex) {
        X = *RVar;
        Word Skip(static_cast<size_t>(I), AnySymbol);
        if (LWord->empty()) { // |x| ≤ i
          L = chain(N, Skip, {.AllFinal = true});
        } else if (LWord->size() == 1) { // Σ^i·c·Σ*
          Skip.push_back(Lit(*LWord).front());
          L = chain(N, Skip, {.LoopBack = true});
        } else {
          L = Nfa::emptyLanguage(N);
        }
      }
      break;
    }
    default:
      break;
    }
    if (!L)
      return false;
    addMembership(X, Negated ? automata::complement(*L) : std::move(*L));
    return true;
  }

  void normalizeAssertion(const Assertion &A) {
    if (lowerToMembership(A))
      return;
    switch (A.Kind) {
    case AssertKind::InRe: {
      assert(A.Lhs.size() == 1 && A.Lhs[0].IsVar && "InRe needs a variable");
      addMembership(A.Lhs[0].Var, regex::compile(*A.Re, Out.Sigma));
      return;
    }
    case AssertKind::WordEq:
      Out.Equations.push_back({seqVars(A.Lhs), seqVars(A.Rhs)});
      return;
    case AssertKind::Prefixof: {
      // prefixof(u, v) ⇒ v = u·z_p (Sec. 2 step (i)).
      std::vector<VarId> U = seqVars(A.Lhs), V = seqVars(A.Rhs);
      U.push_back(freshUniversal());
      Out.Equations.push_back({V, U});
      return;
    }
    case AssertKind::Suffixof: {
      // suffixof(u, v) ⇒ v = z_s·u.
      std::vector<VarId> U = seqVars(A.Lhs), V = seqVars(A.Rhs);
      U.insert(U.begin(), freshUniversal());
      Out.Equations.push_back({V, U});
      return;
    }
    case AssertKind::Contains: {
      // contains(u, v) ⇒ v = z_c·u·z_c′.
      std::vector<VarId> U = seqVars(A.Lhs), V = seqVars(A.Rhs);
      U.insert(U.begin(), freshUniversal());
      U.push_back(freshUniversal());
      Out.Equations.push_back({V, U});
      return;
    }
    case AssertKind::Diseq:
      Out.Preds.push_back(
          {PredKind::Diseq, seqVars(A.Lhs), seqVars(A.Rhs), {}});
      return;
    case AssertKind::NotPrefixof:
      Out.Preds.push_back(
          {PredKind::NotPrefix, seqVars(A.Lhs), seqVars(A.Rhs), {}});
      return;
    case AssertKind::NotSuffixof:
      Out.Preds.push_back(
          {PredKind::NotSuffix, seqVars(A.Lhs), seqVars(A.Rhs), {}});
      return;
    case AssertKind::NotContains:
      Out.Preds.push_back(
          {PredKind::NotContains, seqVars(A.Lhs), seqVars(A.Rhs), {}});
      return;
    case AssertKind::StrAtEq:
    case AssertKind::StrAtNe: {
      assert(A.Lhs.size() == 1 && "str.at left side must be one element");
      std::vector<VarId> Xs = seqVars(A.Lhs);
      if (Xs.empty()) // literal "" on the left
        Xs.push_back(literalVar(""));
      Out.Preds.push_back({A.Kind == AssertKind::StrAtEq
                               ? PredKind::StrAtEq
                               : PredKind::StrAtNe,
                           Xs, seqVars(A.Rhs), A.Pos});
      return;
    }
    case AssertKind::IntAtom:
    case AssertKind::LenEq:
      Out.IntAtoms.push_back({A.Pos, A.Op, A.IntRhs});
      return;
    }
    assert(false && "bad assertion kind");
  }

  const Problem &P;
  NormalForm Out;
  std::map<std::string, VarId> LiteralVars;
  std::map<VarId, std::vector<Nfa>> Memberships;
};

} // namespace

NormalForm postr::strings::normalize(const Problem &P) {
  return Normalizer(P).run();
}

lia::LinTerm postr::strings::lowerIntTerm(tagaut::IntSide &S,
                                          const eq::Decomposition &D,
                                          const IntTerm &T) {
  lia::LinTerm Out(T.Const);
  for (auto [V, C] : T.IntVars)
    Out += lia::LinTerm::variable(V, C);
  for (auto [X, C] : T.LenVars) {
    lia::Var G = 0;
    while (G < S.Lens.size() && S.Lens[G].Of != X)
      ++G;
    if (G == S.Lens.size())
      S.Lens.push_back({X, D.Subst.at(X)});
    Out += lia::LinTerm::variable(S.NumInts + G, C);
  }
  return Out;
}
