//===- counter/OneCounter.cpp - PTime single-predicate path ----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "counter/OneCounter.h"

#include "tagaut/TagAutomaton.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>

using namespace postr;
using namespace postr::counter;
using namespace postr::tagaut;

namespace {

constexpr uint32_t NoIdx = ~0u;

/// A weighted digraph with designated start/finish node sets. Every edge
/// remembers the A_◦ base transition it was built from, so a walk reads
/// back as one word per variable.
struct WeightedGraph {
  struct Edge {
    uint32_t From, To;
    int64_t Weight;
    /// Index into VarConcat::BaseDelta.
    uint32_t Base;
  };
  uint32_t NumNodes = 0;
  std::vector<Edge> Edges;
  std::vector<bool> Start, Finish;

  uint32_t addNodes(uint32_t N) {
    uint32_t First = NumNodes;
    NumNodes += N;
    Start.resize(NumNodes, false);
    Finish.resize(NumNodes, false);
    return First;
  }
};

/// A walk as edge indices into WeightedGraph::Edges, in walk order.
using Walk = std::vector<uint32_t>;

/// Cap on the edges of a pumped witness walk; beyond it the Sat verdict
/// stands without a model.
constexpr size_t MaxWitnessEdges = size_t(1) << 20;

/// Nodes that lie on some start→finish walk.
std::vector<bool> relevantNodes(const WeightedGraph &G) {
  std::vector<std::vector<uint32_t>> Succ(G.NumNodes), Pred(G.NumNodes);
  for (const WeightedGraph::Edge &E : G.Edges) {
    Succ[E.From].push_back(E.To);
    Pred[E.To].push_back(E.From);
  }
  auto Bfs = [&](const std::vector<bool> &Init,
                 const std::vector<std::vector<uint32_t>> &Adj) {
    std::vector<bool> Seen = Init;
    std::vector<uint32_t> Stack;
    for (uint32_t N = 0; N < G.NumNodes; ++N)
      if (Seen[N])
        Stack.push_back(N);
    while (!Stack.empty()) {
      uint32_t N = Stack.back();
      Stack.pop_back();
      for (uint32_t M : Adj[N])
        if (!Seen[M]) {
          Seen[M] = true;
          Stack.push_back(M);
        }
    }
    return Seen;
  };
  std::vector<bool> Fwd = Bfs(G.Start, Succ);
  std::vector<bool> Bwd = Bfs(G.Finish, Pred);
  std::vector<bool> Out(G.NumNodes);
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    Out[N] = Fwd[N] && Bwd[N];
  return Out;
}

/// Is there a positive-weight (Sign=+1) or negative-weight (Sign=-1)
/// cycle through relevant nodes? Bellman–Ford on the relevant subgraph
/// from a virtual source. On true, \p CycleOut receives one such cycle
/// read off the predecessor links, or stays empty if they do not close
/// one of the right sign.
bool hasSignedCycle(const WeightedGraph &G, const std::vector<bool> &Rel,
                    int Sign, Walk &CycleOut) {
  // Negate weights for Sign=+1 so that "negative cycle" detection finds
  // positive cycles.
  std::vector<int64_t> Dist(G.NumNodes, 0);
  std::vector<uint32_t> PredEdge(G.NumNodes, NoIdx);
  uint32_t LastRelaxed = NoIdx;
  for (uint32_t Round = 0; Round < G.NumNodes; ++Round) {
    LastRelaxed = NoIdx;
    for (uint32_t EI = 0; EI < G.Edges.size(); ++EI) {
      const WeightedGraph::Edge &E = G.Edges[EI];
      if (!Rel[E.From] || !Rel[E.To])
        continue;
      int64_t W = Sign > 0 ? -E.Weight : E.Weight;
      if (Dist[E.From] + W < Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        PredEdge[E.To] = EI;
        LastRelaxed = E.To;
      }
    }
    if (LastRelaxed == NoIdx)
      return false;
  }
  // A relaxation in round |V| leaves a cycle on the predecessor links
  // behind the relaxed node: |V| steps back land on it.
  CycleOut.clear();
  uint32_t N = LastRelaxed;
  for (uint32_t I = 0; I < G.NumNodes && N != NoIdx; ++I)
    N = PredEdge[N] == NoIdx ? NoIdx : G.Edges[PredEdge[N]].From;
  if (N == NoIdx)
    return true;
  int64_t Weight = 0;
  uint32_t M = N;
  do {
    if (PredEdge[M] == NoIdx || CycleOut.size() > G.NumNodes) {
      CycleOut.clear();
      return true;
    }
    CycleOut.push_back(PredEdge[M]);
    Weight += G.Edges[PredEdge[M]].Weight;
    M = G.Edges[PredEdge[M]].From;
  } while (M != N);
  std::reverse(CycleOut.begin(), CycleOut.end());
  if (Sign * Weight < 1)
    CycleOut.clear();
  return true;
}

/// Shortest relevant-subgraph walk from any node in \p From to any node
/// in \p To (plain BFS on nodes). Both sets must meet a common walk.
Walk shortestWalk(const WeightedGraph &G, const std::vector<bool> &Rel,
                  const std::vector<bool> &From, const std::vector<bool> &To) {
  std::vector<uint32_t> PredEdge(G.NumNodes, NoIdx);
  std::vector<bool> Seen(G.NumNodes, false);
  std::vector<std::vector<uint32_t>> Out(G.NumNodes);
  for (uint32_t EI = 0; EI < G.Edges.size(); ++EI)
    if (Rel[G.Edges[EI].From] && Rel[G.Edges[EI].To])
      Out[G.Edges[EI].From].push_back(EI);
  std::vector<uint32_t> Queue;
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && From[N]) {
      Seen[N] = true;
      Queue.push_back(N);
    }
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    uint32_t N = Queue[Head];
    if (To[N]) {
      Walk W;
      for (uint32_t M = N; PredEdge[M] != NoIdx; M = G.Edges[PredEdge[M]].From)
        W.push_back(PredEdge[M]);
      std::reverse(W.begin(), W.end());
      return W;
    }
    for (uint32_t EI : Out[N])
      if (!Seen[G.Edges[EI].To]) {
        Seen[G.Edges[EI].To] = true;
        PredEdge[G.Edges[EI].To] = EI;
        Queue.push_back(G.Edges[EI].To);
      }
  }
  assert(false && "no walk between relevant node sets");
  return {};
}

/// Pumps a signed cycle into a complete walk: prefix · cycle^k · suffix
/// with k the least count whose total weight has sign \p Sign (≥ 1 in
/// absolute value). None if the walk would exceed MaxWitnessEdges.
std::optional<Walk> pumpCycle(const WeightedGraph &G,
                              const std::vector<bool> &Rel, const Walk &Cycle,
                              int Sign) {
  uint32_t C = G.Edges[Cycle.front()].From;
  std::vector<bool> AtC(G.NumNodes, false);
  AtC[C] = true;
  Walk Prefix = shortestWalk(G, Rel, G.Start, AtC);
  Walk Suffix = shortestWalk(G, Rel, AtC, G.Finish);
  int64_t Ends = 0, Loop = 0;
  for (uint32_t EI : Prefix)
    Ends += G.Edges[EI].Weight;
  for (uint32_t EI : Suffix)
    Ends += G.Edges[EI].Weight;
  for (uint32_t EI : Cycle)
    Loop += G.Edges[EI].Weight;
  int64_t A = Sign * Ends, B = Sign * Loop; // B ≥ 1
  uint64_t K = A >= 1 ? 0 : static_cast<uint64_t>((B - A) / B);
  if (Prefix.size() + Suffix.size() + K * Cycle.size() > MaxWitnessEdges)
    return std::nullopt;
  Walk Out = std::move(Prefix);
  for (uint64_t I = 0; I < K; ++I)
    Out.insert(Out.end(), Cycle.begin(), Cycle.end());
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
  return Out;
}

/// Successor edges per node in compressed rows: the edges out of node N
/// are Edge[Start[N] .. Start[N+1]), in edge order.
struct SuccRows {
  std::vector<uint32_t> Start, Edge;
};

/// The rows of the edges of \p G that \p Keep accepts.
template <typename KeepFn>
SuccRows succRows(const WeightedGraph &G, KeepFn &&Keep) {
  SuccRows R;
  R.Start.assign(G.NumNodes + 1, 0);
  for (const WeightedGraph::Edge &E : G.Edges)
    if (Keep(E))
      ++R.Start[E.From + 1];
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    R.Start[N + 1] += R.Start[N];
  R.Edge.resize(R.Start.back());
  std::vector<uint32_t> Fill(R.Start.begin(), R.Start.end() - 1);
  for (uint32_t EI = 0; EI < G.Edges.size(); ++EI)
    if (Keep(G.Edges[EI]))
      R.Edge[Fill[G.Edges[EI].From]++] = EI;
  return R;
}

/// Visited (node, value) pairs of one walk search: an open-addressing
/// table of 64-value bit pages keyed by (node, page). Memory grows with
/// the pages the search touches, never with nodes × (2·Bound+1).
class VisitedSet {
public:
  void reset(int64_t Bound) {
    assert(Bound < (int64_t(1) << 36) && "counter bound overflows page key");
    Offset = Bound;
    Used = 0;
    Shift = 64 - InitialLog2;
    Slots.assign(size_t(1) << InitialLog2, Slot{EmptyKey, 0});
  }

  /// Inserts (\p N, \p V); true if it was not yet present.
  bool insert(uint32_t N, int64_t V) {
    uint64_t Off = static_cast<uint64_t>(V + Offset);
    uint64_t Key = (static_cast<uint64_t>(N) << 32) | (Off >> 6);
    uint64_t Bit = uint64_t(1) << (Off & 63);
    size_t Mask = Slots.size() - 1;
    for (size_t I = slotOf(Key);; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Key == Key) {
        if (S.Bits & Bit)
          return false;
        S.Bits |= Bit;
        return true;
      }
      if (S.Key == EmptyKey) {
        S = Slot{Key, Bit};
        if (++Used * 2 > Slots.size())
          grow();
        return true;
      }
    }
  }

private:
  struct Slot {
    uint64_t Key;
    uint64_t Bits;
  };
  static constexpr uint64_t EmptyKey = ~uint64_t(0);
  static constexpr unsigned InitialLog2 = 10;

  size_t slotOf(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  void grow() {
    std::vector<Slot> Old;
    Old.swap(Slots);
    --Shift;
    Slots.assign(Old.size() * 2, Slot{EmptyKey, 0});
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = slotOf(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots;
  int64_t Offset = 0;
  size_t Used = 0;
  unsigned Shift = 64 - InitialLog2;
};

/// State shared by the walk searches of one decision: the expansion
/// budget, the probe cadence, and the search storage reused across them.
struct WalkSearch {
  /// One discovered (node, value) state; Parent indexes the FIFO, Edge
  /// the graph (both NoIdx on start states).
  struct State {
    int64_t Value;
    uint32_t Node, Parent, Edge;
  };

  uint64_t NodesLeft;
  postr::Budget *Bud;
  uint64_t Expansions = 0;
  /// Set once a probe of Bud answered stop.
  bool Tripped = false;
  std::vector<State> Fifo;
  VisitedSet Seen;

  explicit WalkSearch(const OneCounterOptions &Opts)
      : NodesLeft(Opts.NodeBudget), Bud(Opts.Budget) {}

  /// The walk from a start state to Fifo[Head], read off the parent
  /// links.
  Walk walkTo(size_t Head) const {
    Walk W;
    for (uint32_t I = static_cast<uint32_t>(Head); Fifo[I].Parent != NoIdx;
         I = Fifo[I].Parent)
      W.push_back(Fifo[I].Edge);
    std::reverse(W.begin(), W.end());
    return W;
  }

  /// The probe of one expansion: `counter.walk` on the first expansion
  /// and every 64th after it.
  bool mayExpand() {
    if ((Expansions++ & 63) != 0 || !Bud || Bud->checkpoint("counter.walk"))
      return true;
    Tripped = true;
    return false;
  }
};

/// Does a start→finish walk with total weight satisfying \p Test exist?
/// \p Test is one of: =0, >=1, <=-1 (encoded by Mode).
enum class WalkMode { ExactZero, AtLeastOne, AtMostMinusOne };

/// Exact decision for the monotone modes; for ExactZero a clamped BFS
/// with a quadratic excursion bound (see file header). Returns Unknown
/// on NodeBudget exhaustion in the clamped BFS, on a budget trip
/// (S.Tripped), and when an ExactZero search whose bound had to be capped
/// below the excursion bound runs dry: that search proves nothing. On
/// Sat, \p Witness receives the walk found, or stays empty when no
/// signed cycle could be pumped into one.
Verdict existsWalk(const WeightedGraph &G, WalkMode Mode, WalkSearch &S,
                   std::optional<Walk> &Witness) {
  Witness.reset();
  std::vector<bool> Rel = relevantNodes(G);
  bool AnyRelStart = false;
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && G.Start[N])
      AnyRelStart = true;
  if (!AnyRelStart)
    return Verdict::Unsat;

  int64_t MaxW = 1;
  uint32_t RelCount = 0;
  for (const WeightedGraph::Edge &E : G.Edges)
    MaxW = std::max<int64_t>(MaxW, std::llabs(E.Weight));
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N])
      ++RelCount;

  // For the monotone modes, an insertable cycle of the right sign makes
  // the target reachable as soon as any complete walk exists (which it
  // does: AnyRelStart); otherwise all walk values are realized within
  // the DAG-ish bound and the clamped BFS below is exact.
  if (Mode != WalkMode::ExactZero) {
    int Sign = Mode == WalkMode::AtLeastOne ? +1 : -1;
    Walk Cycle;
    if (hasSignedCycle(G, Rel, Sign, Cycle)) {
      if (!Cycle.empty())
        Witness = pumpCycle(G, Rel, Cycle, Sign);
      return Verdict::Sat;
    }
  }

  // Clamped BFS over (node, value). For the monotone modes, cycles of the
  // right sign are gone, so values toward the target are bounded by
  // |Q|·MaxW and the search is exact. For ExactZero we use the quadratic
  // small-excursion bound, capped at MaxBound; a capped search that finds
  // no walk answers Unknown, not Unsat.
  constexpr int64_t MaxBound = 1 << 21;
  int64_t Bound;
  bool Capped = false;
  if (Mode == WalkMode::ExactZero) {
    int64_t Expanded = static_cast<int64_t>(RelCount) * (MaxW + 1) + 2;
    Capped = Expanded > MaxBound / Expanded; // Expanded² > MaxBound
    Bound = Capped ? MaxBound : Expanded * Expanded;
  } else {
    Bound = static_cast<int64_t>(RelCount) * MaxW + 1;
  }

  SuccRows Succ = succRows(G, [&](const WeightedGraph::Edge &E) {
    return Rel[E.From] && Rel[E.To];
  });

  // FIFO discovery order: Fifo[Head..] is the queue, Fifo[..Head] the
  // expanded states kept for the parent links.
  std::vector<WalkSearch::State> &Fifo = S.Fifo;
  Fifo.clear();
  S.Seen.reset(Bound);
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && G.Start[N]) {
      S.Seen.insert(N, 0);
      Fifo.push_back({0, N, NoIdx, NoIdx});
    }
  for (size_t Head = 0; Head < Fifo.size(); ++Head) {
    WalkSearch::State Cur = Fifo[Head];
    if (G.Finish[Cur.Node]) {
      bool Hit = false;
      switch (Mode) {
      case WalkMode::ExactZero:
        Hit = Cur.Value == 0;
        break;
      case WalkMode::AtLeastOne:
        Hit = Cur.Value >= 1;
        break;
      case WalkMode::AtMostMinusOne:
        Hit = Cur.Value <= -1;
        break;
      }
      if (Hit) {
        Witness = S.walkTo(Head);
        return Verdict::Sat;
      }
    }
    if (S.NodesLeft == 0 || !S.mayExpand())
      return Verdict::Unknown;
    --S.NodesLeft;
    for (uint32_t K = Succ.Start[Cur.Node]; K < Succ.Start[Cur.Node + 1];
         ++K) {
      const WeightedGraph::Edge &E = G.Edges[Succ.Edge[K]];
      int64_t V2 = Cur.Value + E.Weight;
      if (V2 > Bound || V2 < -Bound)
        continue;
      if (S.Seen.insert(E.To, V2)) {
        assert(Head < NoIdx && "walk search outgrew its parent links");
        Fifo.push_back(
            {V2, E.To, static_cast<uint32_t>(Head), Succ.Edge[K]});
      }
    }
  }
  return Capped ? Verdict::Unknown : Verdict::Unsat;
}

/// Reads a complete walk back as one word per variable of \p Langs.
std::map<VarId, Word> wordsOfWalk(const WeightedGraph &G, const VarConcat &Vc,
                                  const std::map<VarId, automata::Nfa> &Langs,
                                  const Walk &W) {
  std::map<VarId, Word> Words;
  for (const auto &[X, Nfa] : Langs) {
    (void)Nfa;
    Words[X];
  }
  for (uint32_t EI : W) {
    if (G.Edges[EI].Base == NoIdx) // a str.at graph's start edge
      continue;
    const VarConcat::BaseTransition &T = Vc.BaseDelta[G.Edges[EI].Base];
    if (T.Sym != VarConcat::Epsilon)
      Words[T.Var].push_back(T.Sym);
  }
  return Words;
}

/// Occurrence multiplicity of \p Z among the first \p Count entries.
int64_t multBefore(const std::vector<VarId> &Occs, size_t Count, VarId Z) {
  int64_t N = 0;
  for (size_t I = 0; I < Count && I < Occs.size(); ++I)
    if (Occs[I] == Z)
      ++N;
  return N;
}

/// Builds the length-difference graph: one node per A_◦ state, each
/// letter of variable z weighing occ_L(z) − occ_R(z) (complete walks
/// accumulate |L| − |R|).
WeightedGraph buildLengthGraph(const VarConcat &Vc,
                               const tagaut::PosPredicate &Pred) {
  WeightedGraph G;
  G.addNodes(Vc.numStates());
  for (uint32_t Q = 0; Q < Vc.numStates(); ++Q) {
    if (Vc.IsInitial[Q])
      G.Start[Q] = true;
    if (Vc.IsFinal[Q])
      G.Finish[Q] = true;
  }
  for (uint32_t B = 0; B < Vc.BaseDelta.size(); ++B) {
    const VarConcat::BaseTransition &T = Vc.BaseDelta[B];
    int64_t W = 0;
    if (T.Sym != VarConcat::Epsilon)
      W = multBefore(Pred.Lhs, Pred.Lhs.size(), T.Var) -
          multBefore(Pred.Rhs, Pred.Rhs.size(), T.Var);
    G.Edges.push_back({T.From, T.To, W, B});
  }
  return G;
}

/// Builds the three-phase mismatch graph of Appendix B for occurrence
/// pair (i, j). Phases: 0 = no sample yet; then |Γ| phases per
/// first-sampled side remembering the sampled symbol; finally ⊤ after
/// the second sample (symbols must differ). The counter tracks
/// g_L − g_R for ≠/¬prefixof and (|L|−g_L) − (|R|−g_R) for ¬suffixof.
WeightedGraph buildMismatchGraph(const VarConcat &Vc,
                                 const tagaut::PosPredicate &Pred,
                                 size_t I, size_t J, uint32_t Sigma) {
  bool FromEnd = Pred.Kind == tagaut::PredKind::NotSuffix;
  VarId Xi = Pred.Lhs[I], Yj = Pred.Rhs[J];
  uint32_t NumBase = Vc.numStates();

  // Phase layout: 0 = ⊥; 1 + s*Sigma + a = sampled first on side s with
  // symbol a; 1 + 2*Sigma = ⊤.
  uint32_t NumPhases = 2 + 2 * Sigma;
  auto Node = [&](uint32_t Q, uint32_t Phase) {
    return Phase * NumBase + Q;
  };
  uint32_t PhaseBot = 0, PhaseTop = 1 + 2 * Sigma;
  auto PhaseFirst = [&](int SideIdx, Symbol A) {
    return 1u + static_cast<uint32_t>(SideIdx) * Sigma + A;
  };

  WeightedGraph G;
  G.addNodes(NumBase * NumPhases);
  for (uint32_t Q = 0; Q < NumBase; ++Q) {
    if (Vc.IsInitial[Q])
      G.Start[Node(Q, PhaseBot)] = true;
    if (Vc.IsFinal[Q])
      G.Finish[Node(Q, PhaseTop)] = true;
  }

  // Letter weight toward g_L: multiplicity of z before occurrence i,
  // plus 1 inside occurrence i for letters strictly before the L-sample
  // (i.e. while the L sample is still pending). Mirrored for g_R. For
  // ¬suffixof the tracked value is (|L|−|R|) − (g_L−g_R), so the letter
  // weight gets the total-multiplicity difference added and the g-part
  // subtracted.
  auto LetterWeight = [&](VarId Z, bool LPending, bool RPending) {
    int64_t GL = multBefore(Pred.Lhs, I, Z) + ((Z == Xi && LPending) ? 1 : 0);
    int64_t GR = multBefore(Pred.Rhs, J, Z) + ((Z == Yj && RPending) ? 1 : 0);
    int64_t W = GL - GR;
    if (FromEnd)
      W = (multBefore(Pred.Lhs, Pred.Lhs.size(), Z) -
           multBefore(Pred.Rhs, Pred.Rhs.size(), Z)) -
          W;
    return W;
  };
  // The sampled letter itself: no strictly-before increment for its own
  // side, but the pending increment of the *other* side still applies.
  auto SampleWeight = [&](VarId Z, bool SampleIsL, bool OtherPending) {
    int64_t GL = multBefore(Pred.Lhs, I, Z) +
                 ((!SampleIsL && Z == Xi && OtherPending) ? 1 : 0);
    int64_t GR = multBefore(Pred.Rhs, J, Z) +
                 ((SampleIsL && Z == Yj && OtherPending) ? 1 : 0);
    int64_t W = GL - GR;
    if (FromEnd)
      W = (multBefore(Pred.Lhs, Pred.Lhs.size(), Z) -
           multBefore(Pred.Rhs, Pred.Rhs.size(), Z)) -
          W;
    return W;
  };

  for (uint32_t B = 0; B < Vc.BaseDelta.size(); ++B) {
    const VarConcat::BaseTransition &T = Vc.BaseDelta[B];
    if (T.Sym == VarConcat::Epsilon) {
      for (uint32_t Phase = 0; Phase < NumPhases; ++Phase)
        G.Edges.push_back({Node(T.From, Phase), Node(T.To, Phase), 0, B});
      continue;
    }
    VarId Z = T.Var;
    // Phase ⊥: both samples pending.
    G.Edges.push_back({Node(T.From, PhaseBot), Node(T.To, PhaseBot),
                       LetterWeight(Z, true, true), B});
    // First sample on L (letters of x_i only).
    if (Z == Xi)
      G.Edges.push_back({Node(T.From, PhaseBot),
                         Node(T.To, PhaseFirst(0, T.Sym)),
                         SampleWeight(Z, /*SampleIsL=*/true, true), B});
    // First sample on R.
    if (Z == Yj)
      G.Edges.push_back({Node(T.From, PhaseBot),
                         Node(T.To, PhaseFirst(1, T.Sym)),
                         SampleWeight(Z, /*SampleIsL=*/false, true), B});
    for (Symbol A = 0; A < Sigma; ++A) {
      // Mid phase after an L-sample of symbol A: R still pending.
      G.Edges.push_back({Node(T.From, PhaseFirst(0, A)),
                         Node(T.To, PhaseFirst(0, A)),
                         LetterWeight(Z, false, true), B});
      // Second sample on R: symbol must differ from A.
      if (Z == Yj && T.Sym != A)
        G.Edges.push_back({Node(T.From, PhaseFirst(0, A)),
                           Node(T.To, PhaseTop),
                           SampleWeight(Z, /*SampleIsL=*/false, false), B});
      // Mid phase after an R-sample.
      G.Edges.push_back({Node(T.From, PhaseFirst(1, A)),
                         Node(T.To, PhaseFirst(1, A)),
                         LetterWeight(Z, true, false), B});
      if (Z == Xi && T.Sym != A)
        G.Edges.push_back({Node(T.From, PhaseFirst(1, A)),
                           Node(T.To, PhaseTop),
                           SampleWeight(Z, /*SampleIsL=*/true, false), B});
    }
    // Phase ⊤: both sampled.
    G.Edges.push_back({Node(T.From, PhaseTop), Node(T.To, PhaseTop),
                       LetterWeight(Z, false, false), B});
  }
  return G;
}

/// Largest |i| a str.at index may have on the fast path (the visited
/// set's page keys hold values below 2^36).
constexpr int64_t MaxAtIndex = int64_t(1) << 32;

/// The words of a language that holds no word longer than one letter:
/// whether ε is one, and which letters are.
struct ShortWords {
  bool Eps = false;
  std::vector<bool> Letter;
};

/// The words of \p A if all of them have length ≤ 1, else none. In the
/// trimmed (ε-free) automaton a longer word exists exactly when some
/// transition ends where another starts; otherwise every transition
/// runs from an initial to a final state and spells one word.
std::optional<ShortWords> shortWordsOf(const automata::Nfa &A,
                                       uint32_t Sigma) {
  automata::Nfa T = A.trim();
  ShortWords Out;
  Out.Letter.assign(Sigma, false);
  for (const automata::Transition &Tr : T.transitions()) {
    auto [B, E] = T.outgoing(Tr.To);
    if (B != E)
      return std::nullopt;
    if (Tr.Sym < Sigma)
      Out.Letter[Tr.Sym] = true;
  }
  for (uint32_t Q : T.initialStates())
    if (T.isFinal(Q))
      Out.Eps = true;
  return Out;
}

/// The reachability problem of one str.at decision (see the file
/// comment): node 0 is the start, where the counter holds Start; a
/// move subtracts its edge's weight and may not go below 0.
struct AtProblem {
  WeightedGraph G;
  int64_t Start = 0;
  std::vector<proof::WalkTarget> Targets;
  /// Per edge: true on a sample edge (its base letter is S's letter at i).
  std::vector<bool> IsSample;

  void edge(uint32_t From, uint32_t To, int64_t W, uint32_t Base,
            bool Sample = false) {
    G.Edges.push_back({From, To, W, Base});
    IsSample.push_back(Sample);
  }
};

/// Builds the sampling components (one per occurrence of S) and the
/// length component of `y ◇ str.at(S, I)` for y's words \p Y.
AtProblem buildAtProblem(const VarConcat &Vc, const tagaut::PosPredicate &Pred,
                         const ShortWords &Y, int64_t I, int64_t HayLenAbove) {
  const bool Eq = Pred.Kind == tagaut::PredKind::StrAtEq;
  const std::vector<VarId> &S = Pred.Rhs;
  const uint32_t NumBase = Vc.numStates();
  AtProblem P;
  P.Start = std::max<int64_t>(I, 0);
  P.G.addNodes(1);
  P.G.Start[0] = true;
  // A component's copy of A_◦ at node offset \p Base: start edges into its
  // initial states.
  auto Enter = [&](uint32_t Base) {
    for (uint32_t Q = 0; Q < NumBase; ++Q)
      if (Vc.IsInitial[Q])
        P.edge(0, Base + Q, 0, NoIdx);
  };

  // Sampling components: which letters S may carry at position I.
  std::vector<bool> Allowed(Y.Letter.size());
  bool AnyAllowed = false;
  size_t NumLetters = std::count(Y.Letter.begin(), Y.Letter.end(), true);
  for (Symbol A = 0; A < Allowed.size(); ++A) {
    Allowed[A] = Eq ? bool(Y.Letter[A])
                    : Y.Eps || NumLetters > (Y.Letter[A] ? 1u : 0u);
    AnyAllowed |= Allowed[A];
  }
  if (I >= 0 && AnyAllowed)
    for (size_t T = 0; T < S.size(); ++T) {
      const VarId X = S[T];
      const uint32_t Bot = P.G.addNodes(2 * NumBase), Top = Bot + NumBase;
      Enter(Bot);
      for (uint32_t Q = 0; Q < NumBase; ++Q)
        if (Vc.IsFinal[Q])
          P.Targets.push_back({Top + Q, 0, 0});
      for (uint32_t B = 0; B < Vc.BaseDelta.size(); ++B) {
        const VarConcat::BaseTransition &Tr = Vc.BaseDelta[B];
        int64_t Before =
            Tr.Sym == VarConcat::Epsilon ? 0 : multBefore(S, T, Tr.Var);
        bool OfX = Tr.Sym != VarConcat::Epsilon && Tr.Var == X;
        P.edge(Bot + Tr.From, Bot + Tr.To, Before + (OfX ? 1 : 0), B);
        P.edge(Top + Tr.From, Top + Tr.To, Before, B);
        if (OfX && Allowed[Tr.Sym])
          P.edge(Bot + Tr.From, Top + Tr.To, Before, B, /*Sample=*/true);
      }
    }

  // Length component: the ε outcome, |S| ∈ (HayLenAbove, I] (any |S| when
  // I < 0, where every weight is 0).
  bool EpsAllowed = Eq ? Y.Eps : NumLetters > 0;
  int64_t Window = I >= 0 ? I - HayLenAbove - 1 : 0;
  if (EpsAllowed && Window >= 0) {
    const uint32_t Base = P.G.addNodes(NumBase);
    Enter(Base);
    for (uint32_t Q = 0; Q < NumBase; ++Q)
      if (Vc.IsFinal[Q])
        P.Targets.push_back({Base + Q, 0, Window});
    for (uint32_t B = 0; B < Vc.BaseDelta.size(); ++B) {
      const VarConcat::BaseTransition &Tr = Vc.BaseDelta[B];
      int64_t W = Tr.Sym == VarConcat::Epsilon || I < 0
                      ? 0
                      : multBefore(S, S.size(), Tr.Var);
      P.edge(Base + Tr.From, Base + Tr.To, W, B);
    }
  }
  return P;
}

/// Is a target state reachable from (node 0, P.Start)? Exact: values stay
/// in [0, P.Start]. Unknown on NodeBudget exhaustion or a budget trip
/// (S.Tripped). On Sat, \p Witness receives the walk.
Verdict existsTargetWalk(const AtProblem &P, WalkSearch &S,
                         std::optional<Walk> &Witness) {
  Witness.reset();
  const WeightedGraph &G = P.G;
  // Each node is the target of at most one window; {1, 0} is none.
  std::vector<std::pair<int64_t, int64_t>> Window(G.NumNodes, {1, 0});
  for (const proof::WalkTarget &T : P.Targets)
    Window[T.Node] = {T.Lo, T.Hi};
  SuccRows Succ = succRows(G, [](const WeightedGraph::Edge &) {
    return true;
  });

  std::vector<WalkSearch::State> &Fifo = S.Fifo;
  Fifo.clear();
  S.Seen.reset(P.Start);
  S.Seen.insert(0, P.Start);
  Fifo.push_back({P.Start, 0, NoIdx, NoIdx});
  for (size_t Head = 0; Head < Fifo.size(); ++Head) {
    WalkSearch::State Cur = Fifo[Head];
    auto [Lo, Hi] = Window[Cur.Node];
    if (Lo <= Cur.Value && Cur.Value <= Hi) {
      Witness = S.walkTo(Head);
      return Verdict::Sat;
    }
    if (S.NodesLeft == 0 || !S.mayExpand())
      return Verdict::Unknown;
    --S.NodesLeft;
    for (uint32_t K = Succ.Start[Cur.Node]; K < Succ.Start[Cur.Node + 1];
         ++K) {
      const WeightedGraph::Edge &E = G.Edges[Succ.Edge[K]];
      if (E.Weight > Cur.Value)
        continue;
      int64_t V2 = Cur.Value - E.Weight;
      if (S.Seen.insert(E.To, V2)) {
        assert(Head < NoIdx && "walk search outgrew its parent links");
        Fifo.push_back({V2, E.To, static_cast<uint32_t>(Head), Succ.Edge[K]});
      }
    }
  }
  return Verdict::Unsat;
}

/// Decides one eligible str.at predicate (see the file comment).
OneCounterResult decideStrAt(const std::map<VarId, automata::Nfa> &Langs,
                             const tagaut::PosPredicate &Pred, uint32_t Sigma,
                             const OneCounterOptions &Opts,
                             int64_t HayLenAbove) {
  const int64_t I = Pred.AtPos.constant();
  assert(HayLenAbove <= std::max<int64_t>(I, -1) && "bound not below i");
  const VarId Y = Pred.Lhs.front();
  const ShortWords YWords = *shortWordsOf(Langs.at(Y), Sigma);
  std::map<VarId, automata::Nfa> HayLangs = Langs;
  HayLangs.erase(Y);
  VarConcat Vc = buildVarConcat(HayLangs);
  AtProblem P = buildAtProblem(Vc, Pred, YWords, I, HayLenAbove);

  OneCounterResult R;
  uint64_t States = (static_cast<uint64_t>(P.Start) + 1) * P.G.NumNodes;
  if (Opts.Certify && States > proof::MaxWalkStates)
    return R;
  WalkSearch S(Opts);
  std::optional<Walk> Witness;
  R.V = existsTargetWalk(P, S, Witness);
  if (S.Tripped) {
    R.V = Verdict::Unknown;
    R.Stop = Opts.Budget->reason();
    return R;
  }
  if (R.V == Verdict::Unsat && Opts.Certify) {
    proof::WalkProof &C = R.Cert.emplace();
    C.NumNodes = P.G.NumNodes;
    for (const WeightedGraph::Edge &E : P.G.Edges)
      C.Edges.push_back({E.From, E.To, E.Weight});
    C.StartValue = C.Bound = P.Start;
    C.Targets = std::move(P.Targets);
  }
  if (R.V != Verdict::Sat)
    return R;

  // y's word: the sampled letter's partner, or the ε outcome's.
  std::map<VarId, Word> Words = wordsOfWalk(P.G, Vc, HayLangs, *Witness);
  std::optional<Symbol> Sampled;
  for (uint32_t EI : *Witness)
    if (P.IsSample[EI])
      Sampled = Vc.BaseDelta[P.G.Edges[EI].Base].Sym;
  const bool Eq = Pred.Kind == tagaut::PredKind::StrAtEq;
  Word &YWord = Words[Y];
  if (Sampled && Eq) {
    YWord = {*Sampled};
  } else if ((Sampled && !YWords.Eps) || (!Sampled && !Eq)) {
    // A letter of y other than the sampled one (any, for the ε outcome).
    for (Symbol A = 0; A < Sigma && YWord.empty(); ++A)
      if (YWords.Letter[A] && (!Sampled || A != *Sampled))
        YWord = {A};
  }
  R.Model = std::move(Words);
  return R;
}

} // namespace

bool postr::counter::isEligible(
    const std::vector<tagaut::PosPredicate> &Preds,
    const std::map<VarId, automata::Nfa> &Langs) {
  if (Preds.size() != 1)
    return false;
  const tagaut::PosPredicate &P = Preds.front();
  switch (P.Kind) {
  case tagaut::PredKind::Diseq:
  case tagaut::PredKind::NotPrefix:
  case tagaut::PredKind::NotSuffix:
    return true;
  case tagaut::PredKind::StrAtEq:
  case tagaut::PredKind::StrAtNe: {
    if (!P.AtPos.isConstant() || std::llabs(P.AtPos.constant()) > MaxAtIndex ||
        P.Lhs.size() != 1 || P.Rhs.empty() ||
        std::count(P.Rhs.begin(), P.Rhs.end(), P.Lhs.front()) != 0)
      return false;
    auto It = Langs.find(P.Lhs.front());
    return It != Langs.end() &&
           shortWordsOf(It->second, It->second.alphabetSize()).has_value();
  }
  default:
    return false;
  }
}

OneCounterResult postr::counter::decideSinglePredicate(
    const std::map<VarId, automata::Nfa> &Langs,
    const tagaut::PosPredicate &Pred, uint32_t Sigma,
    const OneCounterOptions &Opts, int64_t HayLenAbove) {
  assert(isEligible({Pred}, Langs) && "fast path on ineligible predicate");
  if (Pred.Kind == tagaut::PredKind::StrAtEq ||
      Pred.Kind == tagaut::PredKind::StrAtNe)
    return decideStrAt(Langs, Pred, Sigma, Opts, HayLenAbove);
  OneCounterResult R;
  for (const auto &[X, Nfa] : Langs) {
    (void)X;
    if (Nfa.isEmpty()) {
      R.V = Verdict::Unsat;
      return R;
    }
  }
  VarConcat Vc = buildVarConcat(Langs);
  WalkSearch S(Opts);
  std::optional<Walk> Witness;
  // Runs one walk query; true once it settled the decision in R (Sat, or
  // Unknown on a budget trip).
  auto Settles = [&](const WeightedGraph &G, WalkMode Mode, Verdict &V) {
    V = existsWalk(G, Mode, S, Witness);
    if (S.Tripped) {
      R.V = Verdict::Unknown;
      R.Stop = Opts.Budget->reason();
      return true;
    }
    if (V != Verdict::Sat)
      return false;
    R.V = Verdict::Sat;
    if (Witness)
      R.Model = wordsOfWalk(G, Vc, Langs, *Witness);
    return true;
  };
  Verdict V;

  // Length branch.
  WeightedGraph LenG = buildLengthGraph(Vc, Pred);
  if (Settles(LenG, WalkMode::AtLeastOne, V))
    return R;
  // ≠ also holds when |L| < |R|; for ¬prefixof / ¬suffixof only
  // |L| > |R| suffices.
  if (Pred.Kind == tagaut::PredKind::Diseq &&
      Settles(LenG, WalkMode::AtMostMinusOne, V))
    return R;

  // Mismatch branch, one 0-reachability query per occurrence pair.
  bool SawUnknown = false;
  for (size_t I = 0; I < Pred.Lhs.size(); ++I)
    for (size_t J = 0; J < Pred.Rhs.size(); ++J) {
      WeightedGraph G = buildMismatchGraph(Vc, Pred, I, J, Sigma);
      if (Settles(G, WalkMode::ExactZero, V))
        return R;
      if (V == Verdict::Unknown)
        SawUnknown = true;
    }
  R.V = SawUnknown ? Verdict::Unknown : Verdict::Unsat;
  return R;
}
