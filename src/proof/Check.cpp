//===- proof/Check.cpp - Independent certificate checker kernel ------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Shares nothing with the solver beyond the parsed certificate
// structures: rationals, unit propagation, and the watch scheme below
// are re-implemented from first principles so a solver bug cannot
// silently agree with itself.
//
//===----------------------------------------------------------------------===//

#include "proof/Check.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

using namespace postr;
using namespace postr::proof;

namespace {

//===----------------------------------------------------------------------===//
// Exact rationals (kernel-owned, independent of lia/Rational.h)
//===----------------------------------------------------------------------===//

struct KRat {
  __int128 N = 0;
  __int128 D = 1;

  static __int128 gcd(__int128 A, __int128 B) {
    if (A < 0)
      A = -A;
    if (B < 0)
      B = -B;
    while (B != 0) {
      __int128 T = A % B;
      A = B;
      B = T;
    }
    return A;
  }
  void norm() {
    if (D < 0) {
      N = -N;
      D = -D;
    }
    if (N == 0) {
      D = 1;
      return;
    }
    __int128 G = gcd(N, D);
    if (G > 1) {
      N /= G;
      D /= G;
    }
  }
  static KRat make(__int128 N, __int128 D) {
    KRat R{N, D};
    R.norm();
    return R;
  }
  bool isZero() const { return N == 0; }
  bool isNeg() const { return N < 0; }
  bool isPos() const { return N > 0; }
  KRat operator+(const KRat &O) const {
    return make(N * O.D + O.N * D, D * O.D);
  }
  KRat operator-(const KRat &O) const {
    return make(N * O.D - O.N * D, D * O.D);
  }
  KRat operator*(const KRat &O) const { return make(N * O.N, D * O.D); }
};

//===----------------------------------------------------------------------===//
// Clause trace replay: a decision-free mini-solver (watched literals,
// persistent level-0 trail, temporary RUP probes).
//===----------------------------------------------------------------------===//

class Replayer {
public:
  std::string Err;

  bool fail(const std::string &M) {
    if (Err.empty())
      Err = M;
    return false;
  }

  void ensureVar(uint32_t Var) {
    if (Var >= NumVars) {
      NumVars = Var + 1;
      Assign.resize(NumVars, 0);
      Watches.resize(2 * NumVars);
    }
  }

  bool litTrue(uint32_t L) const {
    return Assign[L >> 1] == ((L & 1) ? -1 : 1);
  }
  bool litFalse(uint32_t L) const {
    return Assign[L >> 1] == ((L & 1) ? 1 : -1);
  }
  bool litFree(uint32_t L) const { return Assign[L >> 1] == 0; }

  /// Enqueues L as true; returns false on an immediate clash.
  bool enqueue(uint32_t L) {
    if (litFalse(L))
      return false;
    if (litTrue(L))
      return true;
    Assign[L >> 1] = (L & 1) ? -1 : 1;
    Trail.push_back(L);
    return true;
  }

  /// Watch-based unit propagation from QHead. Returns false on conflict
  /// (a falsified clause) — the desired outcome of a RUP probe.
  bool propagate() {
    while (QHead < Trail.size()) {
      uint32_t False = Trail[QHead++] ^ 1; // lit that just became false
      std::vector<uint32_t> &Ws = Watches[False];
      size_t Keep = 0;
      for (size_t I = 0; I < Ws.size(); ++I) {
        uint32_t Ci = Ws[I];
        Clause &C = Clauses[Ci];
        if (!C.Alive)
          continue; // dropped by DB reduction; GC'd here
        // Normalize: watched lit under scrutiny at position 1.
        if (C.Lits[0] == False)
          std::swap(C.Lits[0], C.Lits[1]);
        if (litTrue(C.Lits[0])) {
          Ws[Keep++] = Ci;
          continue;
        }
        bool Moved = false;
        for (size_t K = 2; K < C.Lits.size(); ++K) {
          if (!litFalse(C.Lits[K])) {
            std::swap(C.Lits[1], C.Lits[K]);
            Watches[C.Lits[1]].push_back(Ci);
            Moved = true;
            break;
          }
        }
        if (Moved)
          continue;
        Ws[Keep++] = Ci;
        if (!enqueue(C.Lits[0])) {
          Ws.erase(Ws.begin() + static_cast<ptrdiff_t>(Keep),
                   Ws.begin() + static_cast<ptrdiff_t>(I + 1));
          return false;
        }
      }
      Ws.resize(Keep);
    }
    return true;
  }

  /// Adds a clause to the live DB and absorbs its level-0 consequences.
  /// A derived top-level conflict is remembered (`Refuted`) — from that
  /// point the trace's refutation claim holds outright.
  void addClause(const std::vector<uint32_t> &Lits) {
    std::vector<uint32_t> Ls = Lits;
    for (uint32_t L : Ls)
      ensureVar(L >> 1);
    if (Refuted)
      return;
    if (Ls.empty()) {
      Refuted = true;
      return;
    }
    uint32_t Ci = static_cast<uint32_t>(Clauses.size());
    Clauses.push_back({Ls, true});
    std::vector<uint32_t> Key = Ls;
    std::sort(Key.begin(), Key.end());
    ByLits[Key].push_back(Ci);
    if (Ls.size() >= 2) {
      // Watch two non-falsified lits when possible so the persistent
      // trail keeps propagating through this clause.
      auto Pick = [&](size_t From) {
        for (size_t K = From; K < Ls.size(); ++K)
          if (!litFalse(Clauses[Ci].Lits[K]))
            return K;
        return From;
      };
      size_t W0 = Pick(0);
      std::swap(Clauses[Ci].Lits[0], Clauses[Ci].Lits[W0]);
      size_t W1 = Pick(1);
      std::swap(Clauses[Ci].Lits[1], Clauses[Ci].Lits[W1]);
      Watches[Clauses[Ci].Lits[0]].push_back(Ci);
      Watches[Clauses[Ci].Lits[1]].push_back(Ci);
    }
    // Level-0 status: unit or falsified clauses feed the trail now.
    uint32_t Free = ~0u;
    size_t NumFree = 0;
    bool Sat = false;
    for (uint32_t L : Clauses[Ci].Lits) {
      if (litTrue(L))
        Sat = true;
      else if (!litFalse(L)) {
        Free = L;
        ++NumFree;
      }
    }
    if (Sat)
      return;
    if (NumFree == 0 || (NumFree == 1 && !enqueue(Free)) || !propagate())
      Refuted = true;
  }

  /// Deletes one live clause with exactly these literals (multiset).
  /// Literals the clause already forced onto the persistent trail stay
  /// asserted — the standard DRUP-checker treatment of unit deletions
  /// (retracting them would require recomputing the propagation
  /// fixpoint from scratch, and solvers never delete reason clauses of
  /// top-level literals).
  bool delClause(const std::vector<uint32_t> &Lits) {
    if (Refuted)
      return true; // post-refutation bookkeeping; nothing left to protect
    std::vector<uint32_t> Key = Lits;
    std::sort(Key.begin(), Key.end());
    auto It = ByLits.find(Key);
    while (It != ByLits.end() && !It->second.empty()) {
      uint32_t Ci = It->second.back();
      It->second.pop_back();
      if (Clauses[Ci].Alive) {
        Clauses[Ci].Alive = false;
        return true;
      }
    }
    return fail("delete of a clause that is not in the live DB");
  }

  /// Reverse-unit-propagation probe: asserting the negation of every
  /// literal of \p Lits must conflict. Leaves persistent state intact.
  bool rupHolds(const std::vector<uint32_t> &Lits) {
    for (uint32_t L : Lits)
      ensureVar(L >> 1);
    if (Refuted)
      return true;
    size_t Mark = Trail.size();
    bool Conflict = false;
    for (uint32_t L : Lits)
      if (!enqueue(L ^ 1)) {
        Conflict = true;
        break;
      }
    if (!Conflict)
      Conflict = !propagate();
    undoTo(Mark);
    return Conflict;
  }

  /// Refutation probe for the final event: the core assumptions (as
  /// asserted) must conflict under propagation.
  bool coreRefuted(const std::vector<uint32_t> &Core) {
    for (uint32_t L : Core)
      ensureVar(L >> 1);
    if (Refuted)
      return true;
    size_t Mark = Trail.size();
    bool Conflict = false;
    for (uint32_t L : Core)
      if (!enqueue(L)) {
        Conflict = true;
        break;
      }
    if (!Conflict)
      Conflict = !propagate();
    undoTo(Mark);
    return Conflict;
  }

private:
  struct Clause {
    std::vector<uint32_t> Lits;
    bool Alive = true;
  };

  void undoTo(size_t Mark) {
    while (Trail.size() > Mark) {
      Assign[Trail.back() >> 1] = 0;
      Trail.pop_back();
    }
    QHead = Mark;
  }

  uint32_t NumVars = 0;
  std::vector<int8_t> Assign; ///< per var: 0 free, 1 true, -1 false
  std::vector<uint32_t> Trail;
  size_t QHead = 0;
  std::vector<Clause> Clauses;
  std::vector<std::vector<uint32_t>> Watches; ///< per literal code
  std::map<std::vector<uint32_t>, std::vector<uint32_t>> ByLits;
  bool Refuted = false;
};

//===----------------------------------------------------------------------===//
// Farkas re-evaluation
//===----------------------------------------------------------------------===//

class QfChecker {
public:
  QfChecker(const QfProof &P, CheckStats &Stats) : P(P), Stats(Stats) {}

  bool run(std::string &Err) {
    bool Ok = runImpl();
    if (!Ok)
      Err = !R.Err.empty() ? R.Err : this->Err;
    return Ok;
  }

private:
  bool fail(const std::string &M) {
    if (Err.empty())
      Err = M;
    return false;
  }

  bool runImpl() {
    for (const LinAtom &A : P.Atoms)
      if (!Atoms.emplace(A.SatVar, &A).second)
        return fail("duplicate atom definition for SAT var " +
                    std::to_string(A.SatVar));
    for (const VarBounds &B : P.Bounds)
      if (!Bounds.emplace(B.Var, &B).second)
        return fail("duplicate bounds record for var " +
                    std::to_string(B.Var));

    bool SawFinal = false;
    for (size_t I = 0; I < P.Steps.size(); ++I) {
      const ClauseStep &S = P.Steps[I];
      if (SawFinal)
        return fail("events after the final refutation step");
      switch (S.K) {
      case ClauseStep::Kind::Input:
        R.addClause(S.Lits);
        break;
      case ClauseStep::Kind::Learnt:
        ++Stats.RupChecks;
        if (!R.rupHolds(S.Lits))
          return fail("learnt clause at step " + std::to_string(I) +
                      " is not RUP");
        R.addClause(S.Lits);
        break;
      case ClauseStep::Kind::Theory:
        if (S.Cert < 0) {
          // Certless theory clauses are the splitting-on-demand
          // tautologies; RUP covers those.
          ++Stats.RupChecks;
          if (!R.rupHolds(S.Lits))
            return fail("certless theory lemma at step " +
                        std::to_string(I) + " is not RUP");
        } else {
          if (static_cast<size_t>(S.Cert) >= P.Certs.size())
            return fail("theory lemma cites missing cert");
          if (!checkLeaf(P.Certs[S.Cert], S.Lits))
            return false;
        }
        R.addClause(S.Lits);
        break;
      case ClauseStep::Kind::Delete:
        if (!R.delClause(S.Lits))
          return false;
        break;
      case ClauseStep::Kind::Final:
        SawFinal = true;
        if (!R.coreRefuted(S.Lits))
          return fail("final event does not conflict under propagation");
        break;
      }
    }
    if (!SawFinal)
      return fail("trace has no final refutation event");
    ++Stats.CheckedRefutations;
    return true;
  }

  /// The lemma `¬r1 ∨ … ∨ ¬rk` is justified when the certificate shows
  /// {r1..rk} ∪ intrinsic bounds jointly infeasible. Accumulates
  /// Mult · (t <= b) per entry in `<=` normal form; the combination must
  /// cancel every variable and leave a strictly negative constant:
  /// 0 <= negative.
  bool checkLeaf(const FarkasLeaf &Leaf, const std::vector<uint32_t> &Lemma) {
    ++Stats.FarkasLeaves;
    LemmaLits.clear();
    LemmaLits.insert(Lemma.begin(), Lemma.end());
    Acc.clear();
    KRat Rhs{};
    if (Leaf.Entries.empty())
      return fail("empty Farkas combination");
    for (const FarkasEntry &E : Leaf.Entries) {
      KRat M = KRat::make(E.Mult.Num, E.Mult.Den);
      if (!M.isPos())
        return fail("Farkas multiplier is not strictly positive");
      switch (E.K) {
      case FarkasEntry::Kind::Lit: {
        // The asserted bound's negation must be offered by the lemma.
        if (!LemmaLits.count(E.Ref ^ 1u))
          return fail("Farkas entry cites a literal missing from the "
                      "lemma");
        auto It = Atoms.find(E.Ref >> 1);
        if (It == Atoms.end())
          return fail("Farkas entry cites an undefined atom");
        const LinAtom &A = *It->second;
        if (!(E.Ref & 1)) {
          // Atom true: Σc·v <= -Const.
          for (const auto &[V, Cf] : A.Coeffs)
            addAcc(V, M * KRat::make(Cf, 1));
          Rhs = Rhs + M * KRat::make(-A.Const, 1);
        } else {
          // Atom false: Σc·v >= 1-Const, i.e. -Σc·v <= Const-1.
          for (const auto &[V, Cf] : A.Coeffs)
            addAcc(V, M * KRat::make(-Cf, 1));
          Rhs = Rhs + M * KRat::make(A.Const - 1, 1);
        }
        break;
      }
      case FarkasEntry::Kind::VarBound: {
        auto It = Bounds.find(E.Ref);
        if (It == Bounds.end())
          return fail("Farkas entry cites unknown variable bounds");
        const VarBounds &B = *It->second;
        if (E.Upper) {
          if (!B.HasHi)
            return fail("Farkas entry cites a missing upper bound");
          addAcc(E.Ref, M);
          Rhs = Rhs + M * KRat::make(B.Hi, 1);
        } else {
          if (!B.HasLo)
            return fail("Farkas entry cites a missing lower bound");
          addAcc(E.Ref, KRat::make(-M.N, M.D));
          Rhs = Rhs + M * KRat::make(-B.Lo, 1);
        }
        break;
      }
      }
    }
    for (const auto &[V, Coef] : Acc)
      if (!Coef.isZero())
        return fail("Farkas combination does not cancel variable " +
                    std::to_string(V));
    if (!Rhs.isNeg())
      return fail("Farkas combination is not contradictory (constant "
                  "not negative)");
    return true;
  }

  void addAcc(uint32_t Var, const KRat &Delta) {
    auto [It, Inserted] = Acc.emplace(Var, Delta);
    if (!Inserted)
      It->second = It->second + Delta;
  }

  const QfProof &P;
  CheckStats &Stats;
  Replayer R;
  std::string Err;
  std::unordered_map<uint32_t, const LinAtom *> Atoms;
  std::unordered_map<uint32_t, const VarBounds *> Bounds;
  std::set<uint32_t> LemmaLits;
  std::map<uint32_t, KRat> Acc;
};

} // namespace

CheckOutcome proof::checkQfProof(const QfProof &P) {
  CheckOutcome Out;
  QfChecker C(P, Out.Stats);
  Out.Ok = C.run(Out.Error);
  return Out;
}

//===----------------------------------------------------------------------===//
// Walk refutations: bounded counter reachability, re-decided from scratch
//===----------------------------------------------------------------------===//

namespace {

/// Verifies one walk refutation: non-negative weights, the start inside
/// [0, Bound], and no target reachable. On rejection \p Err says why.
bool checkWalkProof(const WalkProof &W, CheckStats &Stats, std::string &Err) {
  if (W.NumNodes == 0 || W.StartNode >= W.NumNodes) {
    Err = "walk start node out of range";
    return false;
  }
  if (W.StartValue < 0 || W.StartValue > W.Bound) {
    Err = "walk start value outside [0, bound]";
    return false;
  }
  // (Bound + 1) · NumNodes <= MaxWalkStates, without overflow.
  if (static_cast<uint64_t>(W.Bound) >= MaxWalkStates / W.NumNodes) {
    Err = "walk state space exceeds the kernel cap";
    return false;
  }
  const uint64_t Width = static_cast<uint64_t>(W.Bound) + 1;
  std::vector<std::vector<const WalkEdge *>> Out(W.NumNodes);
  for (const WalkEdge &E : W.Edges) {
    if (E.From >= W.NumNodes || E.To >= W.NumNodes) {
      Err = "walk edge node out of range";
      return false;
    }
    if (E.Weight < 0) {
      Err = "walk edge with negative weight";
      return false;
    }
    Out[E.From].push_back(&E);
  }
  std::vector<std::vector<const WalkTarget *>> TargetsAt(W.NumNodes);
  for (const WalkTarget &T : W.Targets) {
    if (T.Node >= W.NumNodes) {
      Err = "walk target node out of range";
      return false;
    }
    TargetsAt[T.Node].push_back(&T);
  }
  // Breadth-first search over (node, value) with 0 <= value <= Bound.
  std::vector<bool> Seen(Width * W.NumNodes, false);
  std::vector<std::pair<uint32_t, int64_t>> Queue{{W.StartNode, W.StartValue}};
  Seen[W.StartNode * Width + static_cast<uint64_t>(W.StartValue)] = true;
  for (size_t Head = 0; Head < Queue.size(); ++Head) {
    auto [N, V] = Queue[Head];
    ++Stats.WalkStates;
    for (const WalkTarget *T : TargetsAt[N])
      if (T->Lo <= V && V <= T->Hi) {
        Err = "walk target (" + std::to_string(N) + ", " + std::to_string(V) +
              ") is reachable";
        return false;
      }
    for (const WalkEdge *E : Out[N]) {
      if (E->Weight > V)
        continue;
      int64_t V2 = V - E->Weight;
      uint64_t Slot = E->To * Width + static_cast<uint64_t>(V2);
      if (!Seen[Slot]) {
        Seen[Slot] = true;
        Queue.push_back({E->To, V2});
      }
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mono-root rewrites: each atom is its predicate's image, and in the trace
//===----------------------------------------------------------------------===//

namespace {

using Coeffs = std::vector<std::pair<uint32_t, int64_t>>;

/// True if \p W is a primitive word: no proper divisor d of |W| makes W
/// d-periodic.
bool isPrimitive(const std::vector<uint32_t> &W) {
  if (W.empty())
    return false;
  for (size_t D = 1; D < W.size(); ++D) {
    if (W.size() % D != 0)
      continue;
    bool Periodic = true;
    for (size_t I = D; I < W.size() && Periodic; ++I)
      Periodic = W[I] == W[I - D];
    if (Periodic)
      return false;
  }
  return true;
}

/// Verifies the rewrite \p R against the trace \p P it travels with.
bool checkRewrite(const MonoRootRewrite &R, const QfProof &P,
                  CheckStats &Stats, std::string &Err) {
  std::map<uint32_t, const LenDef *> Lens;
  for (const LenDef &L : R.Lens)
    if (!Lens.emplace(L.StrVar, &L).second) {
      Err = "duplicate length term for string var " + std::to_string(L.StrVar);
      return false;
    }
  std::set<std::pair<int64_t, Coeffs>> TraceAtoms;
  for (const LinAtom &A : P.Atoms)
    TraceAtoms.insert({A.Const, A.Coeffs});

  for (const MonoRootAtom &M : R.Atoms) {
    if (!isPrimitive(M.Root)) {
      Err = "mono-root rewrite over a root that is not primitive";
      return false;
    }
    // ≠ becomes |u| ≠ |v|; ¬prefixof, ¬suffixof and ¬contains become
    // |needle| > |haystack|.
    MonoRootAtom::Op Want = M.K == MonoRootAtom::Kind::Diseq
                                ? MonoRootAtom::Op::Ne
                                : MonoRootAtom::Op::Gt;
    if (M.Cmp != Want) {
      Err = "mono-root rewrite maps a predicate to the wrong comparison";
      return false;
    }
    std::map<uint32_t, int64_t> Occ;
    for (uint32_t X : M.Lhs)
      ++Occ[X];
    for (uint32_t X : M.Rhs)
      --Occ[X];
    std::erase_if(Occ, [](const auto &E) { return E.second == 0; });
    if (!std::equal(Occ.begin(), Occ.end(), M.Coeffs.begin(), M.Coeffs.end(),
                    [](const auto &A, const auto &B) {
                      return A.first == B.first && A.second == B.second;
                    })) {
      Err = "mono-root atom is not the image of its predicate's sides";
      return false;
    }
    // T = Σ c·|x| over the problem variables, in 128 bits.
    std::map<uint32_t, __int128> Term;
    for (const auto &[X, C] : Occ) {
      auto It = Lens.find(X);
      if (It == Lens.end()) {
        Err = "mono-root atom reads string var " + std::to_string(X) +
              " without a length term";
        return false;
      }
      for (const auto &[V, K] : It->second->Coeffs)
        Term[V] += static_cast<__int128>(C) * K;
    }
    std::erase_if(Term, [](const auto &E) { return E.second == 0; });
    ++Stats.MonoRootAtoms;
    // A ground atom (T = 0, false either way) never reaches the atom
    // table. Otherwise its lowered forms must: T ≠ 0 is T + 1 ≤ 0 or
    // −T + 1 ≤ 0, and T > 0 is −T + 1 ≤ 0.
    if (Term.empty())
      continue;
    for (int Sign : {1, -1}) {
      if (Sign == 1 && M.Cmp == MonoRootAtom::Op::Gt)
        continue;
      std::pair<int64_t, Coeffs> Key{1, {}};
      for (const auto &[V, C] : Term) {
        __int128 SC = Sign * C;
        if (SC < INT64_MIN || SC > INT64_MAX) {
          Err = "mono-root atom coefficient out of range";
          return false;
        }
        Key.second.push_back({V, static_cast<int64_t>(SC)});
      }
      if (!TraceAtoms.count(Key)) {
        Err = "mono-root atom is not among the trace's atoms";
        return false;
      }
    }
  }
  return true;
}

} // namespace

CheckOutcome proof::checkCertificate(const Certificate &C) {
  CheckOutcome Out;
  if (!C.Complete) {
    Out.Error = "stabilization incomplete: the certificate cannot claim "
                "whole-problem unsatisfiability";
    return Out;
  }
  // Zero disjuncts: the front-end refuted the problem before any
  // disjunct existed (an empty normal-form language, or every
  // word-equation branch closed). That is one trusted step.
  if (C.Disjuncts.empty())
    ++Out.Stats.TrustedRules;
  for (size_t I = 0; I < C.Disjuncts.size(); ++I) {
    const DisjunctCert &D = C.Disjuncts[I];
    if (D.IsRule) {
      if (D.Rule.empty()) {
        Out.Error = "disjunct " + std::to_string(I) + ": empty rule name";
        return Out;
      }
      ++Out.Stats.TrustedRules;
      continue;
    }
    if (D.Walk) {
      std::string Err;
      if (!checkWalkProof(*D.Walk, Out.Stats, Err)) {
        Out.Error = "disjunct " + std::to_string(I) + ": " + Err;
        return Out;
      }
      ++Out.Stats.CheckedRefutations;
      continue;
    }
    std::string Err;
    if (D.Rewrite && !checkRewrite(*D.Rewrite, D.Proof, Out.Stats, Err)) {
      Out.Error = "disjunct " + std::to_string(I) + ": " + Err;
      return Out;
    }
    QfChecker QC(D.Proof, Out.Stats);
    if (!QC.run(Err)) {
      Out.Error = "disjunct " + std::to_string(I) + ": " + Err;
      return Out;
    }
  }
  Out.Ok = true;
  return Out;
}
