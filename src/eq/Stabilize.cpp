//===- eq/Stabilize.cpp - Word equations to monadic decompositions --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "eq/Stabilize.h"

#include <algorithm>
#include <deque>

using namespace postr;
using namespace postr::eq;
using automata::Nfa;

namespace {

/// The language of words leading from the initial states to \p Q.
Nfa prefixLanguage(const Nfa &A, uint32_t Q) {
  Nfa Out(A.alphabetSize());
  Out.addStates(A.numStates());
  for (uint32_t S = 0; S < A.numStates(); ++S)
    if (A.isInitial(S))
      Out.markInitial(S);
  Out.markFinal(Q);
  for (const automata::Transition &T : A.transitions())
    Out.addTransition(T.From, T.Sym, T.To);
  return Out.trim();
}

/// The language of words leading from \p Q to the final states.
Nfa suffixLanguage(const Nfa &A, uint32_t Q) {
  Nfa Out(A.alphabetSize());
  Out.addStates(A.numStates());
  Out.markInitial(Q);
  for (uint32_t S = 0; S < A.numStates(); ++S)
    if (A.isFinal(S))
      Out.markFinal(S);
  for (const automata::Transition &T : A.transitions())
    Out.addTransition(T.From, T.Sym, T.To);
  return Out.trim();
}

/// One branch of the search.
struct BranchState {
  std::map<VarId, Nfa> Langs;
  /// Terminal-variable replacement steps, applied lazily: X -> sequence.
  std::map<VarId, std::vector<VarId>> Replace;
  std::deque<WordEquation> Pending;
};

class Engine {
public:
  Engine(const std::map<VarId, Nfa> &Langs,
         const std::vector<WordEquation> &Equations, VarId &NextFresh,
         const StabilizeOptions &Opts)
      : NextFresh(NextFresh), Opts(Opts) {
    Initial.Langs = Langs;
    for (const WordEquation &E : Equations)
      Initial.Pending.push_back(E);
    for (const auto &[X, L] : Langs)
      InputVars.push_back(X);
  }

  StabilizeResult run() {
    // The caller's budget also reaches the automata products inside
    // explore(); without one the search runs under an unlimited one.
    Budget Local;
    Bud = Opts.Budget ? Opts.Budget : &Local;
    Work.push_back(std::move(Initial));
    while (!Work.empty()) {
      if (!Bud->checkpoint("eq.stabilize")) {
        Stopped = Bud->reason();
        FuelExhausted = true;
        break;
      }
      BranchState B = std::move(Work.back());
      Work.pop_back();
      explore(std::move(B));
    }
    StabilizeResult Out;
    Out.Disjuncts = std::move(Disjuncts);
    Out.Complete = !FuelExhausted;
    if (FuelExhausted && Stopped == StopReason::None)
      Stopped = Bud->exceeded() ? Bud->reason() : StopReason::StepBudget;
    Out.Stop = FuelExhausted ? Stopped : StopReason::None;
    return Out;
  }

private:
  /// Applies the branch's replacement map to a sequence (transitively).
  static std::vector<VarId> expand(const BranchState &B,
                                   const std::vector<VarId> &Seq) {
    std::vector<VarId> Out;
    std::vector<VarId> Stack(Seq.rbegin(), Seq.rend());
    while (!Stack.empty()) {
      VarId X = Stack.back();
      Stack.pop_back();
      auto It = B.Replace.find(X);
      if (It == B.Replace.end()) {
        Out.push_back(X);
        continue;
      }
      for (auto RIt = It->second.rbegin(); RIt != It->second.rend(); ++RIt)
        Stack.push_back(*RIt);
    }
    return Out;
  }

  /// Records X -> Seq in the branch (X becomes non-terminal).
  static void substitute(BranchState &B, VarId X, std::vector<VarId> Seq) {
    assert(!B.Replace.count(X) && "double substitution");
    B.Replace[X] = std::move(Seq);
    B.Langs.erase(X);
  }

  void explore(BranchState B) {
    if (Disjuncts.size() >= Opts.MaxDisjuncts) {
      FuelExhausted = true;
      return;
    }
    if (Fuel++ >= Opts.Fuel) {
      FuelExhausted = true;
      return;
    }

    // Normalize the head equation.
    while (!B.Pending.empty()) {
      WordEquation &E = B.Pending.front();
      E.Lhs = expand(B, E.Lhs);
      E.Rhs = expand(B, E.Rhs);
      // Strip the common prefix of syntactically equal variables.
      size_t Common = 0;
      while (Common < E.Lhs.size() && Common < E.Rhs.size() &&
             E.Lhs[Common] == E.Rhs[Common])
        ++Common;
      E.Lhs.erase(E.Lhs.begin(), E.Lhs.begin() + Common);
      E.Rhs.erase(E.Rhs.begin(), E.Rhs.begin() + Common);
      if (E.Lhs.empty() && E.Rhs.empty()) {
        B.Pending.pop_front();
        continue;
      }
      break;
    }
    if (B.Pending.empty()) {
      emitLeaf(std::move(B));
      return;
    }

    WordEquation E = B.Pending.front();
    B.Pending.pop_front();

    // One side empty: every variable on the other side becomes ε.
    if (E.Lhs.empty() || E.Rhs.empty()) {
      const std::vector<VarId> &Side = E.Lhs.empty() ? E.Rhs : E.Lhs;
      BranchState Next = B;
      for (VarId X : Side) {
        if (Next.Replace.count(X))
          continue; // may repeat in Side; expand() handles the rest
        if (!Next.Langs.at(X).accepts({}))
          return; // dead branch: ε not in the language
        substitute(Next, X, {});
      }
      Work.push_back(std::move(Next));
      return;
    }

    VarId X = E.Lhs.front();
    VarId Y = E.Rhs.front();
    assert(X != Y && "common prefix was stripped");
    const Nfa &AX = B.Langs.at(X);
    const Nfa &AY = B.Langs.at(Y);
    WordEquation Tail{{E.Lhs.begin() + 1, E.Lhs.end()},
                      {E.Rhs.begin() + 1, E.Rhs.end()}};

    // Case (iii): Y = X · Y′, split at every state q of A_Y. The q with
    // L(Y′) ∋ ε subsumes "X and Y are equal"; ε ∈ L(X) branches are
    // covered by case (i) below.
    for (uint32_t Q = 0; Q < AY.numStates(); ++Q) {
      Nfa XRefined = automata::intersect(AX, prefixLanguage(AY, Q), Bud);
      if (Bud->exceeded()) {
        FuelExhausted = true;
        return; // partial product; run() records the reason and stops
      }
      if (XRefined.isEmpty())
        continue;
      Nfa YRest = suffixLanguage(AY, Q);
      if (YRest.isEmpty())
        continue;
      BranchState Next = B;
      Next.Langs[X] = XRefined.trim();
      VarId Y2 = NextFresh++;
      Next.Langs[Y2] = YRest;
      substitute(Next, Y, {X, Y2});
      WordEquation Rec = Tail;
      Rec.Rhs.insert(Rec.Rhs.begin(), Y2);
      Next.Pending.push_front(Rec);
      Work.push_back(std::move(Next));
    }
    // Case (iv): X = Y · X′, symmetric.
    for (uint32_t Q = 0; Q < AX.numStates(); ++Q) {
      Nfa YRefined = automata::intersect(AY, prefixLanguage(AX, Q), Bud);
      if (Bud->exceeded()) {
        FuelExhausted = true;
        return;
      }
      if (YRefined.isEmpty())
        continue;
      Nfa XRest = suffixLanguage(AX, Q);
      if (XRest.isEmpty())
        continue;
      BranchState Next = B;
      Next.Langs[Y] = YRefined.trim();
      VarId X2 = NextFresh++;
      Next.Langs[X2] = XRest;
      substitute(Next, X, {Y, X2});
      WordEquation Rec = Tail;
      Rec.Lhs.insert(Rec.Lhs.begin(), X2);
      Next.Pending.push_front(Rec);
      Work.push_back(std::move(Next));
    }
    // Case (i): X := ε.
    if (AX.accepts({})) {
      BranchState Next = B;
      substitute(Next, X, {});
      Next.Pending.push_front(E); // re-normalized on the next visit
      Work.push_back(std::move(Next));
    }
    // Case (ii): Y := ε.
    if (AY.accepts({})) {
      BranchState Next = B;
      substitute(Next, Y, {});
      Next.Pending.push_front(E);
      Work.push_back(std::move(Next));
    }
  }

  void emitLeaf(BranchState B) {
    Decomposition D;
    D.Langs = std::move(B.Langs);
    for (VarId X : InputVars)
      D.Subst[X] = expand(B, {X});
    Disjuncts.push_back(std::move(D));
  }

  BranchState Initial;
  /// Explicit DFS worklist: branch states are deep (maps of NFAs), so
  /// recursing per state would overflow the stack long before the fuel
  /// bound trips.
  std::vector<BranchState> Work;
  std::vector<VarId> InputVars;
  VarId &NextFresh;
  StabilizeOptions Opts;
  Budget *Bud = nullptr;
  std::vector<Decomposition> Disjuncts;
  uint64_t Fuel = 0;
  bool FuelExhausted = false;
  StopReason Stopped = StopReason::None;
};

} // namespace

StabilizeResult postr::eq::stabilize(
    const std::map<VarId, automata::Nfa> &Langs,
    const std::vector<WordEquation> &Equations, VarId &NextFresh,
    const StabilizeOptions &Opts) {
  // Dead on arrival if any language is empty.
  for (const auto &[X, L] : Langs) {
    (void)X;
    if (L.isEmpty())
      return {{}, true};
  }
  Engine E(Langs, Equations, NextFresh, Opts);
  return E.run();
}
