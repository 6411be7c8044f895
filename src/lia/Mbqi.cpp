//===- lia/Mbqi.cpp - Model-based quantifier instantiation -----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Mbqi.h"

#include "base/Budget.h"
#include "lia/Incremental.h"

#include <map>
#include <memory>

using namespace postr;
using namespace postr::lia;

namespace {

/// Outer candidate models tried before answering Unknown.
constexpr uint32_t MaxCandidates = 64;
/// Enumerated offsets per candidate beyond which the loop answers
/// Unknown (guards degenerate models).
constexpr int64_t MaxOffsets = 4096;
/// Largest bound of the fair size schedule before it goes unbounded.
constexpr int64_t MaxSizeBound = 64;

/// The κ := K instantiation lemma for block \p B (the heart of MBQI
/// [36]): the block demands, for THIS offset K, either K > Upper(#1) or
/// a witness run with a mismatch at K. The κ := K instance is cloned
/// with fresh inner variables — it prunes every future candidate lacking
/// a mismatch at K, and can make the outer side unsatisfiable outright
/// (the Unsat verdict depends on these lemmas, not on candidate
/// exhaustion).
FormulaId instantiationLemma(Arena &A, const ForallBlock &B, int64_t K) {
  std::map<Var, Var> Fresh;
  for (Var V : B.InnerVars)
    Fresh.emplace(V,
                  A.freshVar(A.varName(V) + "$i", A.varLo(V), A.varHi(V)));
  FormulaId Inst = A.substitute(B.Inner, [&](Var V) {
    if (V == B.Kappa)
      return LinTerm(K);
    auto It = Fresh.find(V);
    return LinTerm::variable(It == Fresh.end() ? V : It->second);
  });
  return A.disj({A.cmp(LinTerm(K), Cmp::Gt, B.Upper), Inst});
}

/// The blocking clause excluding outer model \p Model. Prefers the
/// semantic block terms, which rule out every run encoding the same
/// refuted content instead of just this run.
FormulaId blocker(Arena &A, const MbqiQuery &Q,
                  const std::vector<int64_t> &Model) {
  std::vector<FormulaId> Diff;
  if (!Q.BlockTerms.empty()) {
    Diff.reserve(Q.BlockTerms.size());
    for (const LinTerm &T : Q.BlockTerms)
      Diff.push_back(A.cmp(T, Cmp::Ne, LinTerm(T.eval(Model))));
  } else {
    Diff.reserve(Q.OuterVars.size());
    for (Var V : Q.OuterVars)
      Diff.push_back(A.cmp(LinTerm::variable(V), Cmp::Ne, LinTerm(Model[V])));
  }
  return A.disj(std::move(Diff));
}

} // namespace

/// One persistent outer context accumulates blockers and instantiation
/// lemmas as level-0 assertions (never re-conjoined, never re-encoded;
/// the learnt clauses and the Simplex basis carry over), the size-bound
/// schedule rides as an assumption whose presence in the final-conflict
/// core tells bound exhaustion from genuine refutation without a second
/// solve, and per-block inner contexts encode `B.Inner` once — each
/// candidate pushes a scope with the model pin, each offset is a
/// two-literal κ = K assumption, and the pop between candidates retracts
/// only the pin.
Verdict postr::lia::solveMbqi(Arena &A, const MbqiQuery &Q,
                              std::vector<int64_t> *ModelOut,
                              const MbqiOptions &Opts) {
  MbqiStats Dummy;
  MbqiStats &St = Opts.Stats ? *Opts.Stats : Dummy;
  Budget Local;
  Budget *Bud = Opts.Budget ? Opts.Budget : &Local;
  // Budget probe between candidates and offsets. True means stop now
  // (the reason is recorded in the budget).
  auto Stopped = [Bud] { return !Bud->checkpoint("lia.mbqi"); };
  // Every sub-solve shares the loop's budget, so the deadline / memory
  // cap / cancel flag govern it directly. Its queries — the outer Parikh
  // formula under blockers/lemmas and the pinned per-offset inner
  // instances — are Parikh/length-pin shaped, so they keep SparsestRow
  // pivots. No clause traces either: an MBQI Unsat rests on blocking
  // clauses whose soundness comes from *inner* refutations, which a
  // single QF trace cannot express; it enters certificates as the
  // trusted "mbqi" rule instead (proof/Proof.h).
  QfOptions Sub;
  Sub.Budget = Bud;

  // Fair length-bound schedule: propose small candidates first. The size
  // proxy (total transition count of the outer run) is bounded, escalated
  // to unbounded on exhaustion; easy Sat instances finish within the
  // first bound, and the final Unsat verdict is only ever drawn from the
  // unbounded query.
  LinTerm SizeTerm;
  if (!Q.BlockTerms.empty())
    for (const LinTerm &T : Q.BlockTerms)
      SizeTerm += T;
  else
    for (Var V : Q.OuterVars)
      SizeTerm += LinTerm::variable(V);
  int64_t SizeBound = 16;

  IncrementalContext Outer(A, Sub);
  Outer.assertFormula(Q.Outer);
  std::vector<std::unique_ptr<IncrementalContext>> Inner(Q.Blocks.size());

  // Atom memos: repeated size bounds, pins, and offsets re-solve against
  // the exact same formula ids, so the contexts' gate/atom caches hit
  // and the arena does not accumulate duplicate nodes.
  std::map<int64_t, FormulaId> SizeMemo;
  std::map<std::pair<Var, int64_t>, FormulaId> PinMemo;
  std::vector<std::map<int64_t, FormulaId>> KEqMemo(Q.Blocks.size());

  for (uint32_t Cand = 0; Cand < MaxCandidates; ++Cand) {
    if (Stopped())
      return Verdict::Unknown;

    QfResult OuterR;
    for (;;) {
      std::vector<FormulaId> Assumps;
      if (SizeBound <= MaxSizeBound) {
        auto It = SizeMemo.find(SizeBound);
        if (It == SizeMemo.end())
          It = SizeMemo
                   .emplace(SizeBound,
                            A.cmp(SizeTerm, Cmp::Le, LinTerm(SizeBound)))
                   .first;
        Assumps.push_back(It->second);
      }
      if (Outer.numSolves() > 0)
        ++St.ContextReuses;
      ++St.OuterSolves;
      OuterR = Outer.solve(Assumps);
      if (OuterR.V == Verdict::Unsat && SizeBound <= MaxSizeBound) {
        // Exhausted below the bound. The assumption core says whether the
        // bound even participated: if not, the refutation already holds
        // unbounded and needs no re-solve.
        bool BoundBlamed = !Outer.unsatAssumptions().empty();
        SizeBound = MaxSizeBound * 4;
        if (BoundBlamed)
          continue;
        break;
      }
      break;
    }
    if (OuterR.V == Verdict::Unsat)
      return Verdict::Unsat;
    if (OuterR.V == Verdict::Unknown)
      return Verdict::Unknown;
    ++St.Candidates;

    // Pin the outer model for the inner queries.
    std::vector<FormulaId> Pins;
    Pins.reserve(Q.OuterVars.size());
    for (Var V : Q.OuterVars) {
      auto Key = std::make_pair(V, OuterR.Model[V]);
      auto It = PinMemo.find(Key);
      if (It == PinMemo.end())
        It = PinMemo
                 .emplace(Key, A.cmp(LinTerm::variable(V), Cmp::Eq,
                                     LinTerm(OuterR.Model[V])))
                 .first;
      Pins.push_back(It->second);
    }

    bool AllBlocksHold = true;
    for (size_t BI = 0; BI < Q.Blocks.size(); ++BI) {
      const ForallBlock &B = Q.Blocks[BI];
      int64_t Upper = B.Upper.eval(OuterR.Model);
      if (Upper > MaxOffsets)
        return Verdict::Unknown;
      if (!Inner[BI]) {
        Inner[BI] = std::make_unique<IncrementalContext>(A, Sub);
        Inner[BI]->assertFormula(B.Inner);
      }
      IncrementalContext &IC = *Inner[BI];
      IC.push();
      for (FormulaId P : Pins)
        IC.assertFormula(P);
      for (int64_t K = 0; K <= Upper && AllBlocksHold; ++K) {
        if (Stopped()) {
          IC.pop();
          return Verdict::Unknown;
        }
        auto It = KEqMemo[BI].find(K);
        if (It == KEqMemo[BI].end())
          It = KEqMemo[BI]
                   .emplace(K, A.cmp(LinTerm::variable(B.Kappa), Cmp::Eq,
                                     LinTerm(K)))
                   .first;
        if (IC.numSolves() > 0)
          ++St.ContextReuses;
        ++St.InnerQueries;
        QfResult InnerR = IC.solve({It->second});
        if (InnerR.V == Verdict::Unknown) {
          IC.pop();
          return Verdict::Unknown;
        }
        if (InnerR.V == Verdict::Unsat) {
          AllBlocksHold = false;
          ++St.InstLemmas;
          Outer.assertFormula(instantiationLemma(A, B, K));
        }
      }
      IC.pop();
      if (!AllBlocksHold)
        break;
    }

    if (AllBlocksHold) {
      if (ModelOut)
        *ModelOut = std::move(OuterR.Model);
      return Verdict::Sat;
    }

    // Refuted: exclude this valuation and retry.
    ++St.Blockers;
    Outer.assertFormula(blocker(A, Q, OuterR.Model));
  }
  return Verdict::Unknown;
}
