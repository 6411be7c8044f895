//===- automata/Nfa.cpp - NFA algorithms ----------------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "automata/Nfa.h"

#include "base/Budget.h"
#include "base/Hash.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <sstream>
#include <unordered_map>

using namespace postr;
using namespace postr::automata;

namespace {

/// Growth-charging probe for the worklist constructions: charges the
/// output automaton's growth since the last probe against the budget's
/// memory cap, then runs the cooperative checkpoint. Returns false when
/// the construction should stop and hand back its partial result.
struct GrowthProbe {
  Budget *Bud;
  const Nfa &Out;
  uint64_t SeenStates = 0, SeenTransitions = 0;

  bool operator()(const char *Site) {
    if (!Bud)
      return true;
    uint64_t Q = Out.numStates(), T = Out.numTransitions();
    if (Q > SeenStates || T > SeenTransitions) {
      // Per-state cost approximates the interning map node + flag bits;
      // the transition vector is charged at its element size.
      Bud->chargeMem((Q - SeenStates) * 64 +
                     (T - SeenTransitions) * sizeof(Transition));
      SeenStates = Q;
      SeenTransitions = T;
    }
    return Bud->checkpoint(Site);
  }
};

} // namespace

void Nfa::normalize() const {
  if (!Dirty && RowBegin.size() == numStates() + 1)
    return;
  std::sort(Delta.begin(), Delta.end());
  Delta.erase(std::unique(Delta.begin(), Delta.end()), Delta.end());
  RowBegin.assign(numStates() + 1, 0);
  for (const Transition &T : Delta)
    ++RowBegin[T.From + 1];
  for (uint32_t I = 1; I <= numStates(); ++I)
    RowBegin[I] += RowBegin[I - 1];
  Dirty = false;
}

std::pair<const Transition *, const Transition *>
Nfa::outgoing(State Q) const {
  normalize();
  const Transition *Base = Delta.data();
  return {Base + RowBegin[Q], Base + RowBegin[Q + 1]};
}

std::vector<State> Nfa::initialStates() const {
  std::vector<State> R;
  for (State Q = 0; Q < numStates(); ++Q)
    if (IsInitial[Q])
      R.push_back(Q);
  return R;
}

std::vector<State> Nfa::finalStates() const {
  std::vector<State> R;
  for (State Q = 0; Q < numStates(); ++Q)
    if (IsFinal[Q])
      R.push_back(Q);
  return R;
}

std::pair<const Transition *, const Transition *>
Nfa::outgoingSym(State Q, Symbol Sym) const {
  auto [Begin, End] = outgoing(Q);
  // Rows are sorted by (Sym, To); narrow to the Sym run.
  const Transition *Lo = std::lower_bound(
      Begin, End, Sym,
      [](const Transition &T, Symbol S) { return T.Sym < S; });
  const Transition *Hi = Lo;
  while (Hi != End && Hi->Sym == Sym)
    ++Hi;
  return {Lo, Hi};
}

void Nfa::epsClosureGrow(std::vector<State> &Set,
                         std::vector<uint32_t> &Mark, uint32_t Stamp) const {
  normalize();
  // The tail of Set doubles as the worklist.
  for (size_t I = 0; I < Set.size(); ++I) {
    auto [Begin, End] = outgoingSym(Set[I], Epsilon);
    for (const Transition *T = Begin; T != End; ++T)
      if (Mark[T->To] != Stamp) {
        Mark[T->To] = Stamp;
        Set.push_back(T->To);
      }
  }
}

std::vector<State> Nfa::epsClosure(const std::vector<State> &Set) const {
  std::vector<uint32_t> Mark(numStates(), 0);
  std::vector<State> Out;
  Out.reserve(Set.size());
  for (State Q : Set)
    if (Mark[Q] != 1) {
      Mark[Q] = 1;
      Out.push_back(Q);
    }
  epsClosureGrow(Out, Mark, 1);
  std::sort(Out.begin(), Out.end());
  return Out;
}

namespace {

/// Iterative Tarjan SCC. Returns the SCC id of each state; ids come out
/// in reverse topological order (every successor's SCC has a smaller
/// id), which is what both users rely on: the ε-closure memoization
/// below processes SCCs in increasing-id (successors-first) order, and
/// isFlat only needs the partition. With \p EpsOnly, only ε-transitions
/// are traversed (SCCs of the ε-subgraph).
std::vector<uint32_t> tarjanScc(const Nfa &A, uint32_t &NumSccs,
                                bool EpsOnly) {
  uint32_t N = A.numStates();
  std::vector<uint32_t> Index(N, ~0u), Low(N, 0), SccId(N, ~0u);
  std::vector<bool> OnStack(N, false);
  std::vector<State> Stack;
  uint32_t NextIndex = 0;
  NumSccs = 0;

  auto Edges = [&](State Q) {
    return EpsOnly ? A.outgoingSym(Q, Nfa::Epsilon) : A.outgoing(Q);
  };
  struct Frame {
    State Q;
    const Transition *It;
    const Transition *End;
  };
  std::vector<Frame> CallStack;
  for (State Root = 0; Root < N; ++Root) {
    if (Index[Root] != ~0u)
      continue;
    auto [B, E] = Edges(Root);
    Index[Root] = Low[Root] = NextIndex++;
    Stack.push_back(Root);
    OnStack[Root] = true;
    CallStack.push_back({Root, B, E});
    while (!CallStack.empty()) {
      Frame &F = CallStack.back();
      if (F.It != F.End) {
        State W = F.It->To;
        ++F.It;
        if (Index[W] == ~0u) {
          Index[W] = Low[W] = NextIndex++;
          Stack.push_back(W);
          OnStack[W] = true;
          auto [WB, WE] = Edges(W);
          CallStack.push_back({W, WB, WE});
        } else if (OnStack[W]) {
          Low[F.Q] = std::min(Low[F.Q], Index[W]);
        }
        continue;
      }
      if (Low[F.Q] == Index[F.Q]) {
        State W;
        do {
          W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          SccId[W] = NumSccs;
        } while (W != F.Q);
        ++NumSccs;
      }
      State Done = F.Q;
      CallStack.pop_back();
      if (!CallStack.empty())
        Low[CallStack.back().Q] =
            std::min(Low[CallStack.back().Q], Low[Done]);
    }
  }
  return SccId;
}

} // namespace

Nfa Nfa::removeEpsilon(Budget *Bud) const {
  if (!HasEps)
    return trim();
  normalize();
  uint32_t N = numStates();

  // Memoized ε-closures: states in one ε-SCC share a closure, and a
  // closure is the SCC's members plus the closures of its ε-successor
  // SCCs. Computing per SCC in reverse topological order shares all
  // closure work instead of redoing a DFS per state.
  uint32_t NumSccs = 0;
  std::vector<uint32_t> Scc = tarjanScc(*this, NumSccs, /*EpsOnly=*/true);
  std::vector<std::vector<State>> SccStates(NumSccs);
  for (State Q = 0; Q < N; ++Q)
    SccStates[Scc[Q]].push_back(Q);

  std::vector<std::vector<State>> Closure(NumSccs);
  std::vector<uint32_t> StateMark(N, ~0u);
  std::vector<uint32_t> SccMark(NumSccs, ~0u);
  for (uint32_t S = 0; S < NumSccs; ++S) {
    if (Bud && !Bud->checkpoint("nfa.epsilon"))
      return Nfa(AlphabetSz);
    std::vector<State> &Out = Closure[S];
    for (State Q : SccStates[S]) {
      StateMark[Q] = S;
      Out.push_back(Q);
    }
    SccMark[S] = S;
    for (State Q : SccStates[S]) {
      auto [Begin, End] = outgoingSym(Q, Epsilon);
      for (const Transition *T = Begin; T != End; ++T) {
        uint32_t Succ = Scc[T->To];
        if (SccMark[Succ] == S)
          continue;
        SccMark[Succ] = S;
        // Tarjan ids are reverse-topological, so Closure[Succ] is done.
        for (State C : Closure[Succ])
          if (StateMark[C] != S) {
            StateMark[C] = S;
            Out.push_back(C);
          }
      }
    }
    std::sort(Out.begin(), Out.end());
    if (Bud)
      Bud->chargeMem(Out.size() * sizeof(State));
  }

  Nfa Out(AlphabetSz);
  Out.addStates(N);
  GrowthProbe Probe{Bud, Out};
  // For every state, fold the ε-closure: symbol transitions of closure
  // members become direct transitions, and finality propagates backwards.
  for (State Q = 0; Q < N; ++Q) {
    if (!Probe("nfa.epsilon"))
      return Out;
    if (IsInitial[Q])
      Out.markInitial(Q);
    for (State C : Closure[Scc[Q]]) {
      if (IsFinal[C])
        Out.markFinal(Q);
      auto [Begin, End] = outgoing(C);
      for (const Transition *T = Begin; T != End; ++T)
        if (T->Sym != Epsilon)
          Out.addTransition(Q, T->Sym, T->To);
    }
  }
  return Out.trim();
}

Nfa Nfa::trim() const {
  normalize();
  // Forward reachability from initial states.
  std::vector<bool> Fwd(numStates(), false);
  std::vector<State> Stack;
  for (State Q = 0; Q < numStates(); ++Q)
    if (IsInitial[Q]) {
      Fwd[Q] = true;
      Stack.push_back(Q);
    }
  while (!Stack.empty()) {
    State Q = Stack.back();
    Stack.pop_back();
    auto [Begin, End] = outgoing(Q);
    for (const Transition *T = Begin; T != End; ++T)
      if (!Fwd[T->To]) {
        Fwd[T->To] = true;
        Stack.push_back(T->To);
      }
  }
  // Backward reachability from final states.
  std::vector<std::vector<State>> Pred(numStates());
  for (const Transition &T : Delta)
    Pred[T.To].push_back(T.From);
  std::vector<bool> Bwd(numStates(), false);
  for (State Q = 0; Q < numStates(); ++Q)
    if (IsFinal[Q]) {
      Bwd[Q] = true;
      Stack.push_back(Q);
    }
  while (!Stack.empty()) {
    State Q = Stack.back();
    Stack.pop_back();
    for (State P : Pred[Q])
      if (!Bwd[P]) {
        Bwd[P] = true;
        Stack.push_back(P);
      }
  }
  // Rebuild with surviving states only.
  std::vector<State> Map(numStates(), ~State(0));
  Nfa Out(AlphabetSz);
  for (State Q = 0; Q < numStates(); ++Q)
    if (Fwd[Q] && Bwd[Q]) {
      Map[Q] = Out.addState();
      if (IsInitial[Q])
        Out.markInitial(Map[Q]);
      if (IsFinal[Q])
        Out.markFinal(Map[Q]);
    }
  for (const Transition &T : Delta)
    if (Map[T.From] != ~State(0) && Map[T.To] != ~State(0))
      Out.addTransition(Map[T.From], T.Sym, Map[T.To]);
  return Out;
}

bool Nfa::isEmpty() const {
  Nfa T = trim();
  return T.finalStates().empty();
}

bool Nfa::accepts(const Word &W) const {
  normalize();
  // One stamped mark buffer shared by every step and ε-closure of the
  // run; per-symbol work is O(out-edges of the current set).
  std::vector<uint32_t> Mark(numStates(), 0);
  uint32_t Stamp = 1;
  std::vector<State> Cur, Next;
  for (State Q : initialStates()) {
    Mark[Q] = Stamp;
    Cur.push_back(Q);
  }
  if (HasEps)
    epsClosureGrow(Cur, Mark, Stamp);
  for (Symbol S : W) {
    ++Stamp;
    Next.clear();
    for (State Q : Cur) {
      auto [Begin, End] = outgoingSym(Q, S);
      for (const Transition *T = Begin; T != End; ++T)
        if (Mark[T->To] != Stamp) {
          Mark[T->To] = Stamp;
          Next.push_back(T->To);
        }
    }
    if (HasEps)
      epsClosureGrow(Next, Mark, Stamp);
    Cur.swap(Next);
    if (Cur.empty())
      return false;
  }
  for (State Q : Cur)
    if (IsFinal[Q])
      return true;
  return false;
}

std::optional<uint32_t> Nfa::shortestWordLength() const {
  std::optional<Word> W = someWord();
  if (!W)
    return std::nullopt;
  return static_cast<uint32_t>(W->size());
}

std::optional<Word> Nfa::someWord() const {
  normalize();
  // BFS over states; ε-edges cost 0, symbol edges cost 1. A plain BFS with
  // a deque (0/1 weights) yields a shortest accepted word.
  struct Item {
    State Q;
  };
  std::vector<int64_t> Dist(numStates(), -1);
  std::vector<std::pair<State, Symbol>> Parent(
      numStates(), {~State(0), Nfa::Epsilon});
  std::deque<State> Queue;
  for (State Q : initialStates()) {
    Dist[Q] = 0;
    Queue.push_back(Q);
  }
  while (!Queue.empty()) {
    State Q = Queue.front();
    Queue.pop_front();
    auto [Begin, End] = outgoing(Q);
    for (const Transition *T = Begin; T != End; ++T) {
      int64_t Cost = T->Sym == Epsilon ? 0 : 1;
      if (Dist[T->To] != -1 && Dist[T->To] <= Dist[Q] + Cost)
        continue;
      Dist[T->To] = Dist[Q] + Cost;
      Parent[T->To] = {Q, T->Sym};
      if (Cost == 0)
        Queue.push_front(T->To);
      else
        Queue.push_back(T->To);
    }
  }
  State Best = ~State(0);
  for (State Q : finalStates())
    if (Dist[Q] != -1 && (Best == ~State(0) || Dist[Q] < Dist[Best]))
      Best = Q;
  if (Best == ~State(0))
    return std::nullopt;
  Word W;
  for (State Q = Best; Parent[Q].first != ~State(0); Q = Parent[Q].first)
    if (Parent[Q].second != Epsilon)
      W.push_back(Parent[Q].second);
  std::reverse(W.begin(), W.end());
  return W;
}

std::vector<Word> Nfa::enumerateWords(uint32_t MaxLen) const {
  // Breadth-first over (word) with the NFA state-set as acceptance test;
  // prunes prefixes whose state-set is empty.
  std::vector<Word> Out;
  struct Item {
    Word W;
    std::vector<State> States;
  };
  std::queue<Item> Queue;
  Queue.push({{}, epsClosure(initialStates())});
  while (!Queue.empty()) {
    Item It = std::move(Queue.front());
    Queue.pop();
    bool Accepting = false;
    for (State Q : It.States)
      if (IsFinal[Q])
        Accepting = true;
    if (Accepting)
      Out.push_back(It.W);
    if (It.W.size() == MaxLen)
      continue;
    for (Symbol S = 0; S < AlphabetSz; ++S) {
      std::vector<State> Next;
      for (State Q : It.States) {
        auto [Begin, End] = outgoingSym(Q, S);
        for (const Transition *T = Begin; T != End; ++T)
          Next.push_back(T->To);
      }
      std::sort(Next.begin(), Next.end());
      Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
      if (HasEps)
        Next = epsClosure(Next);
      if (Next.empty())
        continue;
      Word W2 = It.W;
      W2.push_back(S);
      Queue.push({std::move(W2), std::move(Next)});
    }
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}


bool Nfa::isFlat() const {
  Nfa T = trim();
  uint32_t NumSccs = 0;
  std::vector<uint32_t> Scc = tarjanScc(T, NumSccs, /*EpsOnly=*/false);
  // Count intra-SCC out-transitions per state and per SCC.
  std::vector<uint32_t> SccSize(NumSccs, 0);
  for (State Q = 0; Q < T.numStates(); ++Q)
    ++SccSize[Scc[Q]];
  std::vector<uint32_t> IntraOut(T.numStates(), 0);
  std::vector<uint32_t> IntraEdges(NumSccs, 0);
  bool HasSelfLoop = false;
  for (const Transition &Tr : T.transitions()) {
    if (Scc[Tr.From] != Scc[Tr.To])
      continue;
    ++IntraOut[Tr.From];
    ++IntraEdges[Scc[Tr.From]];
    if (Tr.From == Tr.To)
      HasSelfLoop = true;
  }
  (void)HasSelfLoop;
  // A trivial SCC (singleton, no self-loop) has 0 intra edges. A simple
  // cycle has exactly |SCC| intra edges and each member exactly one
  // intra-SCC outgoing transition (this also rules out parallel edges,
  // which would make two distinct runs share a Parikh image).
  for (State Q = 0; Q < T.numStates(); ++Q) {
    uint32_t Sz = SccSize[Scc[Q]];
    uint32_t Edges = IntraEdges[Scc[Q]];
    if (Edges == 0)
      continue; // trivial SCC member
    if (Edges != Sz || IntraOut[Q] != 1)
      return false;
  }
  // Also require that there are at least two distinct initial-state runs
  // only when they are distinguishable; with multiple initial states the
  // paper's run-based definition is taken structurally, so multiple
  // initials are allowed.
  return true;
}

std::string Nfa::debugString() const {
  std::ostringstream OS;
  OS << "Nfa(states=" << numStates() << ", sigma=" << AlphabetSz << ", I={";
  for (State Q : initialStates())
    OS << Q << ' ';
  OS << "}, F={";
  for (State Q : finalStates())
    OS << Q << ' ';
  OS << "}, delta=[";
  for (const Transition &T : transitions()) {
    OS << T.From << '-';
    if (T.Sym == Epsilon)
      OS << "eps";
    else
      OS << T.Sym;
    OS << "->" << T.To << ' ';
  }
  OS << "])";
  return OS.str();
}

Nfa Nfa::fromWord(uint32_t AlphabetSize, const Word &W) {
  Nfa A(AlphabetSize);
  State First = A.addStates(static_cast<uint32_t>(W.size()) + 1);
  A.markInitial(First);
  A.markFinal(First + static_cast<State>(W.size()));
  for (uint32_t I = 0; I < W.size(); ++I) {
    assert(W[I] < AlphabetSize && "word symbol outside alphabet");
    A.addTransition(First + I, W[I], First + I + 1);
  }
  return A;
}

Nfa Nfa::universal(uint32_t AlphabetSize) {
  Nfa A(AlphabetSize);
  State Q = A.addState();
  A.markInitial(Q);
  A.markFinal(Q);
  for (Symbol S = 0; S < AlphabetSize; ++S)
    A.addTransition(Q, S, Q);
  return A;
}

Nfa Nfa::emptyLanguage(uint32_t AlphabetSize) {
  Nfa A(AlphabetSize);
  State Q = A.addState();
  A.markInitial(Q);
  return A;
}

Nfa Nfa::epsilonLanguage(uint32_t AlphabetSize) {
  Nfa A(AlphabetSize);
  State Q = A.addState();
  A.markInitial(Q);
  A.markFinal(Q);
  return A;
}

Nfa postr::automata::intersect(const Nfa &A, const Nfa &B, Budget *Bud) {
  assert(!A.hasEpsilon() && !B.hasEpsilon() &&
         "intersect requires epsilon-free inputs");
  assert(A.alphabetSize() == B.alphabetSize() && "alphabet mismatch");
  NfaOpHook *Hook = activeNfaOpHook();
  if (Hook)
    if (std::optional<Nfa> Hit = Hook->lookup(NfaOp::Intersect, A, &B))
      return *std::move(Hit);
  Nfa Out(A.alphabetSize());
  // Hashed pair interning; the key packs both states into one word.
  std::unordered_map<uint64_t, State> Map;
  Map.reserve(A.numStates() + B.numStates());
  struct WorkItem {
    State QA, QB, Id;
  };
  std::vector<WorkItem> Work;
  auto GetState = [&](State QA, State QB) {
    uint64_t Key = (static_cast<uint64_t>(QA) << 32) | QB;
    auto [It, Inserted] = Map.try_emplace(Key, 0);
    if (Inserted) {
      It->second = Out.addState();
      if (A.isFinal(QA) && B.isFinal(QB))
        Out.markFinal(It->second);
      Work.push_back({QA, QB, It->second});
    }
    return It->second;
  };
  for (State QA : A.initialStates())
    for (State QB : B.initialStates())
      Out.markInitial(GetState(QA, QB));
  GrowthProbe Probe{Bud, Out};
  while (!Work.empty()) {
    if (!Probe("nfa.intersect"))
      return Out;
    auto [QA, QB, From] = Work.back();
    Work.pop_back();
    // Both rows are Sym-sorted: advance the two cursors in lockstep and
    // expand the cartesian product of each shared-symbol run.
    auto [TA, AEnd] = A.outgoing(QA);
    auto [TB, BEnd] = B.outgoing(QB);
    while (TA != AEnd && TB != BEnd) {
      if (TA->Sym < TB->Sym) {
        ++TA;
        continue;
      }
      if (TB->Sym < TA->Sym) {
        ++TB;
        continue;
      }
      Symbol S = TA->Sym;
      const Transition *ARunEnd = TA;
      while (ARunEnd != AEnd && ARunEnd->Sym == S)
        ++ARunEnd;
      const Transition *BRunEnd = TB;
      while (BRunEnd != BEnd && BRunEnd->Sym == S)
        ++BRunEnd;
      for (const Transition *IA = TA; IA != ARunEnd; ++IA)
        for (const Transition *IB = TB; IB != BRunEnd; ++IB)
          Out.addTransition(From, S, GetState(IA->To, IB->To));
      TA = ARunEnd;
      TB = BRunEnd;
    }
  }
  // Only a complete product is worth keeping; a budget-tripped partial
  // automaton must never be replayed as the real intersection.
  if (Hook && (!Bud || !Bud->exceeded()))
    Hook->stage(NfaOp::Intersect, A, &B, Out);
  return Out;
}

Nfa postr::automata::unite(const Nfa &A, const Nfa &B) {
  assert(A.alphabetSize() == B.alphabetSize() && "alphabet mismatch");
  Nfa Out(A.alphabetSize());
  State BaseA = Out.addStates(A.numStates());
  State BaseB = Out.addStates(B.numStates());
  for (State Q = 0; Q < A.numStates(); ++Q) {
    if (A.isInitial(Q))
      Out.markInitial(BaseA + Q);
    if (A.isFinal(Q))
      Out.markFinal(BaseA + Q);
  }
  for (State Q = 0; Q < B.numStates(); ++Q) {
    if (B.isInitial(Q))
      Out.markInitial(BaseB + Q);
    if (B.isFinal(Q))
      Out.markFinal(BaseB + Q);
  }
  for (const Transition &T : A.transitions())
    Out.addTransition(BaseA + T.From, T.Sym, BaseA + T.To);
  for (const Transition &T : B.transitions())
    Out.addTransition(BaseB + T.From, T.Sym, BaseB + T.To);
  return Out;
}

Nfa postr::automata::concatenate(const Nfa &A, const Nfa &B) {
  assert(A.alphabetSize() == B.alphabetSize() && "alphabet mismatch");
  Nfa Out(A.alphabetSize());
  State BaseA = Out.addStates(A.numStates());
  State BaseB = Out.addStates(B.numStates());
  for (State Q = 0; Q < A.numStates(); ++Q)
    if (A.isInitial(Q))
      Out.markInitial(BaseA + Q);
  for (State Q = 0; Q < B.numStates(); ++Q)
    if (B.isFinal(Q))
      Out.markFinal(BaseB + Q);
  for (const Transition &T : A.transitions())
    Out.addTransition(BaseA + T.From, T.Sym, BaseA + T.To);
  for (const Transition &T : B.transitions())
    Out.addTransition(BaseB + T.From, T.Sym, BaseB + T.To);
  for (State QF : A.finalStates())
    for (State QI : B.initialStates())
      Out.addTransition(BaseA + QF, Nfa::Epsilon, BaseB + QI);
  return Out;
}

Nfa postr::automata::determinize(const Nfa &In, Budget *Bud) {
  NfaOpHook *Hook = activeNfaOpHook();
  if (Hook)
    if (std::optional<Nfa> Hit = Hook->lookup(NfaOp::Determinize, In, nullptr))
      return *std::move(Hit);
  Nfa A = In.hasEpsilon() ? In.removeEpsilon(Bud) : In;
  if (Bud && Bud->exceeded())
    return Nfa(In.alphabetSize());
  uint32_t Sigma = A.alphabetSize();
  Nfa Out(Sigma);
  std::unordered_map<std::vector<State>, State, U32VecHash> Map;
  // Work items point at the interned keys (node-based unordered_map:
  // stable addresses, never erased), so subsets are copied exactly once
  // — on first interning — and cache hits copy nothing.
  struct WorkItem {
    const std::vector<State> *Set;
    State Id;
  };
  std::vector<WorkItem> Work;
  auto GetState = [&](std::vector<State> &&Set) {
    auto It = Map.find(Set);
    if (It != Map.end())
      return It->second;
    State Id = Out.addState();
    for (State Q : Set)
      if (A.isFinal(Q)) {
        Out.markFinal(Id);
        break;
      }
    auto [Ins, Inserted] = Map.emplace(std::move(Set), Id);
    Work.push_back({&Ins->first, Id});
    if (Bud)
      Bud->chargeMem(Ins->first.size() * sizeof(State));
    return Id;
  };
  State Start = GetState(A.initialStates());
  Out.markInitial(Start);
  // Per-symbol successor buckets, reused across subsets: one pass over
  // the subset's out-edges replaces an alphabet-sized sequence of full
  // scans (each of which used to allocate a numStates-sized Seen mask).
  std::vector<std::vector<State>> Buckets(Sigma);
  GrowthProbe Probe{Bud, Out};
  while (!Work.empty()) {
    if (!Probe("nfa.determinize"))
      return Out;
    auto [Set, From] = Work.back();
    Work.pop_back();
    for (std::vector<State> &B : Buckets)
      B.clear();
    for (State Q : *Set) {
      auto [Begin, End] = A.outgoing(Q);
      for (const Transition *T = Begin; T != End; ++T)
        Buckets[T->Sym].push_back(T->To);
    }
    for (Symbol S = 0; S < Sigma; ++S) {
      std::vector<State> &B = Buckets[S];
      std::sort(B.begin(), B.end());
      B.erase(std::unique(B.begin(), B.end()), B.end());
      // Moved-from buckets are reset by the clear() above next round.
      Out.addTransition(From, S, GetState(std::move(B)));
    }
  }
  if (Hook && (!Bud || !Bud->exceeded()))
    Hook->stage(NfaOp::Determinize, In, nullptr, Out);
  return Out;
}

Nfa postr::automata::complement(const Nfa &A, Budget *Bud) {
  Nfa D = determinize(A, Bud);
  if (Bud && Bud->exceeded())
    return Nfa(A.alphabetSize());
  Nfa Out(D.alphabetSize());
  Out.addStates(D.numStates());
  for (State Q = 0; Q < D.numStates(); ++Q) {
    if (D.isInitial(Q))
      Out.markInitial(Q);
    if (!D.isFinal(Q))
      Out.markFinal(Q);
  }
  for (const Transition &T : D.transitions())
    Out.addTransition(T.From, T.Sym, T.To);
  return Out;
}

Nfa postr::automata::reverse(const Nfa &A) {
  Nfa Out(A.alphabetSize());
  Out.addStates(A.numStates());
  for (State Q = 0; Q < A.numStates(); ++Q) {
    if (A.isInitial(Q))
      Out.markFinal(Q);
    if (A.isFinal(Q))
      Out.markInitial(Q);
  }
  for (const Transition &T : A.transitions())
    Out.addTransition(T.To, T.Sym, T.From);
  return Out;
}

bool postr::automata::equivalent(const Nfa &A, const Nfa &B) {
  Nfa AE = A.hasEpsilon() ? A.removeEpsilon() : A;
  Nfa BE = B.hasEpsilon() ? B.removeEpsilon() : B;
  if (!intersect(AE, complement(B).removeEpsilon()).isEmpty())
    return false;
  return intersect(BE, complement(A).removeEpsilon()).isEmpty();
}

//===----------------------------------------------------------------------===//
// Operation hook
//===----------------------------------------------------------------------===//

namespace {
/// One plain pointer per thread; the common (unhooked) case pays a
/// single TLS read in intersect()/determinize() and nothing else.
thread_local NfaOpHook *ActiveNfaOpHook = nullptr;
} // namespace

NfaOpHook *postr::automata::activeNfaOpHook() { return ActiveNfaOpHook; }

NfaOpHookScope::NfaOpHookScope(NfaOpHook *H) : Prev(ActiveNfaOpHook) {
  ActiveNfaOpHook = H;
}

NfaOpHookScope::~NfaOpHookScope() { ActiveNfaOpHook = Prev; }
