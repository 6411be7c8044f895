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
#include <limits>
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

/// The walk that ends at \p N, read back over the links \p PredEdge to a
/// node that has none.
Walk walkBack(const WeightedGraph &G, const std::vector<uint32_t> &PredEdge,
              uint32_t N) {
  Walk W;
  for (; PredEdge[N] != NoIdx; N = G.Edges[PredEdge[N]].From)
    W.push_back(PredEdge[N]);
  std::reverse(W.begin(), W.end());
  return W;
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
    if (To[N])
      return walkBack(G, PredEdge, N);
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
  int64_t A = Sign * Ends, B = Sign * Loop;
  assert(B >= 1 && "pumped cycle of the wrong sign");
  uint64_t K = A >= 1 ? 0 : static_cast<uint64_t>((B - A) / B);
  if (Prefix.size() + Suffix.size() + K * Cycle.size() > MaxWitnessEdges)
    return std::nullopt;
  Walk Out = std::move(Prefix);
  for (uint64_t I = 0; I < K; ++I)
    Out.insert(Out.end(), Cycle.begin(), Cycle.end());
  Out.insert(Out.end(), Suffix.begin(), Suffix.end());
  return Out;
}

/// Is there a complete walk of weight W with Sign·W ≥ 1? Bellman–Ford on
/// the relevant subgraph, seeded at 0 on the start nodes, maximising
/// Sign·weight. A relaxation in round |V| leaves a cycle of positive
/// Sign·weight, which is pumped into the witness; otherwise the distances
/// are the exact heaviest weights, and the heaviest finish node's
/// predecessor path is the witness. On true, \p Witness receives the walk,
/// or stays empty when the predecessor links close no cycle or the pumped
/// walk exceeds MaxWitnessEdges.
bool signedWalk(const WeightedGraph &G, const std::vector<bool> &Rel,
                int Sign, std::optional<Walk> &Witness) {
  constexpr int64_t Unreached = std::numeric_limits<int64_t>::min();
  std::vector<int64_t> Dist(G.NumNodes, Unreached);
  std::vector<uint32_t> PredEdge(G.NumNodes, NoIdx);
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (Rel[N] && G.Start[N])
      Dist[N] = 0;
  uint32_t LastRelaxed = NoIdx;
  for (uint32_t Round = 0; Round < G.NumNodes; ++Round) {
    LastRelaxed = NoIdx;
    for (uint32_t EI = 0; EI < G.Edges.size(); ++EI) {
      const WeightedGraph::Edge &E = G.Edges[EI];
      if (!Rel[E.From] || !Rel[E.To] || Dist[E.From] == Unreached)
        continue;
      int64_t D = Dist[E.From] + Sign * E.Weight;
      if (D > Dist[E.To]) {
        Dist[E.To] = D;
        PredEdge[E.To] = EI;
        LastRelaxed = E.To;
      }
    }
    if (LastRelaxed == NoIdx)
      break;
  }
  if (LastRelaxed == NoIdx) {
    uint32_t Best = NoIdx;
    for (uint32_t N = 0; N < G.NumNodes; ++N)
      if (Rel[N] && G.Finish[N] && (Best == NoIdx || Dist[N] > Dist[Best]))
        Best = N;
    if (Best == NoIdx || Dist[Best] < 1)
      return false;
    // With no signed cycle the predecessor links form a forest rooted at
    // start nodes, and each link is tight.
    Witness = walkBack(G, PredEdge, Best);
    return true;
  }
  // Every cycle of the predecessor links has positive Sign·weight. A
  // relaxation in round |V| leaves one behind the relaxed node: |V| steps
  // back land on it, unless they reach a start node first.
  uint32_t C = LastRelaxed;
  for (uint32_t I = 0; I < G.NumNodes && C != NoIdx; ++I)
    C = PredEdge[C] == NoIdx ? NoIdx : G.Edges[PredEdge[C]].From;
  if (C == NoIdx)
    return true;
  Walk Cycle;
  uint32_t M = C;
  do {
    Cycle.push_back(PredEdge[M]);
    M = G.Edges[PredEdge[M]].From;
  } while (M != C);
  std::reverse(Cycle.begin(), Cycle.end());
  Witness = pumpCycle(G, Rel, Cycle, Sign);
  return true;
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
/// the pages the search touches, never with nodes × (Hi − Lo + 1).
class VisitedSet {
public:
  /// Empties the set for values of at least \p Lo, below Lo + 2^37.
  void reset(int64_t Lo) {
    Offset = -Lo;
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

  uint64_t bytes() const { return Slots.capacity() * sizeof(Slot); }

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

/// The expansion budget shared by the walk searches of one decision, and
/// the cadence of its `counter.walk` probe.
struct ExpansionBudget {
  uint64_t NodesLeft;
  postr::Budget *Bud;
  uint64_t Expansions = 0;
  /// Set once a probe of Bud answered stop.
  bool Tripped = false;

  explicit ExpansionBudget(const OneCounterOptions &Opts)
      : NodesLeft(Opts.NodeBudget), Bud(Opts.Budget) {}

  /// Probes Bud as `counter.walk`: false once it answered stop.
  bool probe() {
    if (Bud && !Bud->checkpoint("counter.walk"))
      Tripped = true;
    return !Tripped;
  }

  /// Takes one expansion: false once NodeBudget is spent or the probe, on
  /// the first expansion and every 64th after it, trips.
  bool take() {
    if (NodesLeft == 0)
      return false;
    if ((Expansions++ & 63) == 0 && !probe())
      return false;
    --NodesLeft;
    return true;
  }
};

/// A step() slice with no limit.
constexpr uint64_t Unlimited = ~uint64_t(0);

/// One walk query on its own graph, searched in resumable slices: a FIFO
/// breadth-first search over (node, value) that starts at value Start on
/// every start node, adds each edge's weight, keeps values in [Lo, Hi],
/// and ends at a state whose value lies in its node's target window.
class ExistsWalk {
public:
  /// Prepares the search over the edges between nodes \p Keep accepts
  /// (every edge when null), seeded on the start nodes it accepts. With
  /// \p Capped, [Lo, Hi] may cut off walks, so a search that runs dry
  /// proves nothing.
  ExistsWalk(WeightedGraph Graph, const std::vector<bool> *Keep,
             const std::vector<proof::WalkTarget> &Targets, int64_t Start,
             int64_t Lo, int64_t Hi, bool Capped);

  /// Runs at most \p Slice more expansions and returns the verdict, or
  /// none while the query is still open. Unknown on NodeBudget exhaustion
  /// or a budget trip (B.Tripped), and when a capped search runs dry.
  std::optional<Verdict> step(ExpansionBudget &B, uint64_t Slice = Unlimited);

  const WeightedGraph &graph() const { return G; }
  /// On Sat: the walk found.
  const Walk &witness() const { return Witness; }

private:
  /// A discovered state. Parent indexes Fifo, Edge the graph (both NoIdx
  /// on start states).
  struct State {
    int64_t Value;
    uint32_t Node, Parent, Edge;
  };

  /// Records (\p Node, \p Value), reached from Fifo[Parent] over \p Edge,
  /// unless it was seen before.
  void reach(uint32_t Node, int64_t Value, uint32_t Parent, uint32_t Edge) {
    if (Seen.insert(Node, Value))
      Fifo.push_back({Value, Node, Parent, Edge});
  }
  /// Charges what the graph and the search storage grew by since the
  /// last charge to B's budget; a MemOut trip stops the search at its
  /// next probe.
  void chargeGrowth(ExpansionBudget &B);

  WeightedGraph G;
  SuccRows Succ;
  /// Per node, the target values [first, second]; empty when first >
  /// second.
  std::vector<std::pair<int64_t, int64_t>> Window;
  int64_t Lo, Hi;
  bool Capped;
  /// The states discovered, in discovery order: Fifo[Head..] is the
  /// queue, Fifo[..Head] the expanded states, kept for the parent links.
  std::vector<State> Fifo;
  VisitedSet Seen;
  size_t Head = 0;
  Walk Witness;
  uint64_t Charged = 0;
};

ExistsWalk::ExistsWalk(WeightedGraph Graph, const std::vector<bool> *Keep,
                       const std::vector<proof::WalkTarget> &Targets,
                       int64_t Start, int64_t Lo, int64_t Hi, bool Capped)
    : G(std::move(Graph)), Window(G.NumNodes, {1, 0}), Lo(Lo), Hi(Hi),
      Capped(Capped) {
  auto Kept = [&](uint32_t N) { return !Keep || (*Keep)[N]; };
  Succ = succRows(G, [&](const WeightedGraph::Edge &E) {
    return Kept(E.From) && Kept(E.To);
  });
  // Each node is the target of at most one window.
  for (const proof::WalkTarget &T : Targets)
    Window[T.Node] = {T.Lo, T.Hi};
  assert(Hi - Lo < (int64_t(1) << 37) && "value range overflows page key");
  Seen.reset(Lo);
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (G.Start[N] && Kept(N))
      reach(N, Start, NoIdx, NoIdx);
}

void ExistsWalk::chargeGrowth(ExpansionBudget &B) {
  uint64_t Now = G.Edges.capacity() * sizeof(WeightedGraph::Edge) +
                 (Succ.Start.capacity() + Succ.Edge.capacity()) *
                     sizeof(uint32_t) +
                 Window.capacity() * sizeof(Window[0]) +
                 Fifo.capacity() * sizeof(State) + Seen.bytes();
  if (B.Bud && Now > Charged) {
    B.Bud->chargeMem(Now - Charged);
    Charged = Now;
  }
}

std::optional<Verdict> ExistsWalk::step(ExpansionBudget &B, uint64_t Slice) {
  chargeGrowth(B);
  for (; Head < Fifo.size(); ++Head) {
    const State Cur = Fifo[Head];
    if (Window[Cur.Node].first <= Cur.Value &&
        Cur.Value <= Window[Cur.Node].second) {
      for (size_t K = Head; Fifo[K].Parent != NoIdx; K = Fifo[K].Parent)
        Witness.push_back(Fifo[K].Edge);
      std::reverse(Witness.begin(), Witness.end());
      return Verdict::Sat;
    }
    if (Slice-- == 0)
      return std::nullopt;
    // Charged ahead of the probe take() makes every 64 expansions.
    if ((B.Expansions & 63) == 0)
      chargeGrowth(B);
    if (!B.take())
      return Verdict::Unknown;
    assert(Head < NoIdx && "walk search outgrew its parent links");
    for (uint32_t K = Succ.Start[Cur.Node]; K < Succ.Start[Cur.Node + 1];
         ++K) {
      const WeightedGraph::Edge &E = G.Edges[Succ.Edge[K]];
      int64_t V2 = Cur.Value + E.Weight;
      if (Lo <= V2 && V2 <= Hi)
        reach(E.To, V2, static_cast<uint32_t>(Head), Succ.Edge[K]);
    }
  }
  return Capped ? Verdict::Unknown : Verdict::Unsat;
}

/// Cap on the mismatch search's excursion bound (see the file comment).
constexpr int64_t MaxBound = 1 << 21;

/// The 0-weight query of a mismatch graph: from value 0 on a start node
/// to value 0 on a finish node, over the relevant subgraph, with the
/// counter clamped to the quadratic small-excursion bound. Capped at
/// MaxBound, a search that finds no walk answers Unknown, not Unsat.
ExistsWalk zeroWalk(WeightedGraph G) {
  std::vector<bool> Rel = relevantNodes(G);
  int64_t MaxW = 1;
  for (const WeightedGraph::Edge &E : G.Edges)
    MaxW = std::max<int64_t>(MaxW, std::llabs(E.Weight));
  int64_t RelCount = std::count(Rel.begin(), Rel.end(), true);
  int64_t Expanded = RelCount * (MaxW + 1) + 2;
  bool Capped = Expanded > MaxBound / Expanded; // Expanded² > MaxBound
  int64_t Bound = Capped ? MaxBound : Expanded * Expanded;
  std::vector<proof::WalkTarget> Targets;
  for (uint32_t N = 0; N < G.NumNodes; ++N)
    if (G.Finish[N])
      Targets.push_back({N, 0, 0});
  return ExistsWalk(std::move(G), &Rel, Targets, 0, -Bound, Bound, Capped);
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
/// set's page keys span at most 2^37 values).
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
/// move subtracts its edge's weight and may not go below 0. The edges
/// are stored with their weights negated, as ExistsWalk adds them.
struct AtProblem {
  WeightedGraph G;
  int64_t Start = 0;
  std::vector<proof::WalkTarget> Targets;
  /// Per edge: true on a sample edge (its base letter is S's letter at i).
  std::vector<bool> IsSample;

  void edge(uint32_t From, uint32_t To, int64_t W, uint32_t Base,
            bool Sample = false) {
    G.Edges.push_back({From, To, -W, Base});
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
  // Exact: every value stays in [0, P.Start].
  ExpansionBudget B(Opts);
  ExistsWalk Q(std::move(P.G), nullptr, P.Targets, P.Start, 0, P.Start,
               /*Capped=*/false);
  R.V = *Q.step(B);
  if (B.Tripped) {
    R.V = Verdict::Unknown;
    R.Stop = Opts.Budget->reason();
    return R;
  }
  const WeightedGraph &G = Q.graph();
  if (R.V == Verdict::Unsat && Opts.Certify) {
    proof::WalkProof &C = R.Cert.emplace();
    C.NumNodes = G.NumNodes;
    for (const WeightedGraph::Edge &E : G.Edges)
      C.Edges.push_back({E.From, E.To, -E.Weight});
    C.StartValue = C.Bound = P.Start;
    C.Targets = std::move(P.Targets);
  }
  if (R.V != Verdict::Sat)
    return R;

  // y's word: the sampled letter's partner, or the ε outcome's.
  std::map<VarId, Word> Words = wordsOfWalk(G, Vc, HayLangs, Q.witness());
  std::optional<Symbol> Sampled;
  for (uint32_t EI : Q.witness())
    if (P.IsSample[EI])
      Sampled = Vc.BaseDelta[G.Edges[EI].Base].Sym;
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
  ExpansionBudget B(Opts);
  // The answer once a probe of the budget tripped.
  auto Stopped = [&] {
    R.V = Verdict::Unknown;
    R.Stop = Opts.Budget->reason();
    return R;
  };

  // Length branch, one exact Bellman–Ford pass per sign: ≠ also holds
  // when |L| < |R|; for ¬prefixof / ¬suffixof only |L| > |R| suffices.
  WeightedGraph LenG = buildLengthGraph(Vc, Pred);
  std::vector<bool> Rel = relevantNodes(LenG);
  for (int Sign : {+1, -1}) {
    if (Sign < 0 && Pred.Kind != tagaut::PredKind::Diseq)
      break;
    if (!B.probe())
      return Stopped();
    std::optional<Walk> Witness;
    if (signedWalk(LenG, Rel, Sign, Witness)) {
      R.V = Verdict::Sat;
      if (Witness)
        R.Model = wordsOfWalk(LenG, Vc, Langs, *Witness);
      return R;
    }
  }

  // Mismatch branch, one 0-weight query per occurrence pair (i, j),
  // stepped round-robin in (i, j) order: each open pair gets FirstSlice
  // expansions, then twice as many each round up to LastSlice, and after
  // that round each pair still open runs to its end. A pair's graph is
  // built when it is first stepped and dropped, with its search storage,
  // once it is decided.
  constexpr uint64_t FirstSlice = 256, LastSlice = 4096;
  bool SawUnknown = false;
  const size_t NumRhs = Pred.Rhs.size();
  std::vector<std::optional<ExistsWalk>> Pairs(Pred.Lhs.size() * NumRhs);
  std::vector<bool> Done(Pairs.size(), false);
  size_t Open = Pairs.size();
  for (uint64_t Slice = FirstSlice; Open > 0;
       Slice = Slice < LastSlice ? 2 * Slice : Unlimited)
    for (size_t P = 0; P < Pairs.size(); ++P) {
      if (Done[P])
        continue;
      std::optional<ExistsWalk> &Q = Pairs[P];
      if (!Q)
        Q.emplace(zeroWalk(
            buildMismatchGraph(Vc, Pred, P / NumRhs, P % NumRhs, Sigma)));
      std::optional<Verdict> V = Q->step(B, Slice);
      if (!V)
        continue;
      if (B.Tripped)
        return Stopped();
      if (*V == Verdict::Sat) {
        R.V = Verdict::Sat;
        R.Model = wordsOfWalk(Q->graph(), Vc, Langs, Q->witness());
        return R;
      }
      // With NodeBudget spent no pair can expand again, and none is Sat
      // without an expansion (its start states lie in phase ⊥).
      if (*V == Verdict::Unknown && B.NodesLeft == 0)
        return R;
      SawUnknown |= *V == Verdict::Unknown;
      Done[P] = true;
      --Open;
      Q.reset();
    }
  R.V = SawUnknown ? Verdict::Unknown : Verdict::Unsat;
  return R;
}
