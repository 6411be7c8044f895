//===- tagaut/MpSolver.cpp - Deciding Monadic-Position constraints ---------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "tagaut/MpSolver.h"

#include "base/Budget.h"
#include "lia/Mbqi.h"
#include "lia/Solver.h"

#include <algorithm>
#include <cstdlib>

using namespace postr;
using namespace postr::tagaut;

namespace {

/// The primitive root of a non-empty word: the shortest p with W = p^k.
Word primitiveRoot(const Word &W) {
  for (size_t D = 1; D <= W.size(); ++D) {
    if (W.size() % D != 0)
      continue;
    bool Ok = true;
    for (size_t I = D; I < W.size() && Ok; ++I)
      Ok = W[I] == W[I - D];
    if (Ok)
      return Word(W.begin(), W.begin() + static_cast<ptrdiff_t>(D));
  }
  return W;
}

/// NFA for the language p* (a cycle through the letters of p).
automata::Nfa starOfWord(const Word &P, uint32_t AlphabetSize) {
  automata::Nfa A(AlphabetSize);
  A.addStates(static_cast<uint32_t>(P.size()));
  A.markInitial(0);
  A.markFinal(0);
  for (uint32_t I = 0; I < P.size(); ++I)
    A.addTransition(I, P[I], (I + 1) % static_cast<uint32_t>(P.size()));
  return A;
}

/// True if both sides of \p P are permutations of the same occurrence
/// multiset and every involved language is contained in p* for a single
/// word p. All values then iterate p, so concatenation commutes and the
/// two sides are *equal* under every assignment — ¬contains (and ≠,
/// ¬suffixof, …) can never hold. This is the primitive-word structure of
/// the position-hard family (footnote 10).
bool sidesForcedEqual(const std::map<VarId, automata::Nfa> &Langs,
                      const PosPredicate &P, uint32_t AlphabetSize) {
  std::vector<VarId> L = P.Lhs, R = P.Rhs;
  std::sort(L.begin(), L.end());
  std::sort(R.begin(), R.end());
  if (L != R || L.empty())
    return false;
  // Find the root from the first language with a non-empty word (someWord
  // returns a shortest word, which may be ε — intersect with Σ⁺ first).
  automata::Nfa AnyPlus(AlphabetSize);
  AnyPlus.addStates(2);
  AnyPlus.markInitial(0);
  AnyPlus.markFinal(1);
  for (Symbol S = 0; S < AlphabetSize; ++S) {
    AnyPlus.addTransition(0, S, 1);
    AnyPlus.addTransition(1, S, 1);
  }
  Word Root;
  for (VarId X : L) {
    std::optional<Word> W =
        automata::intersect(Langs.at(X), AnyPlus).someWord();
    if (W && !W->empty()) {
      Root = primitiveRoot(*W);
      break;
    }
  }
  if (Root.empty())
    return false; // all-ε handled by the ε-needle check
  automata::Nfa RootStar = starOfWord(Root, AlphabetSize);
  automata::Nfa NotRootStar = automata::complement(RootStar);
  for (VarId X : L)
    if (!automata::intersect(Langs.at(X), NotRootStar).isEmpty())
      return false;
  return true;
}

} // namespace

MpResult postr::tagaut::solveMP(lia::Arena &A,
                                const std::map<VarId, automata::Nfa> &Langs,
                                const std::vector<PosPredicate> &Preds,
                                uint32_t AlphabetSize,
                                const IntConstraintBuilder &IntConstraints,
                                const MpOptions &Opts) {
  MpResult Out;
  // Resource governance: the caller's budget, or an unlimited per-call
  // one, governs every phase below. The automata shortcuts and the
  // encoder can run for a while, so probe between phases.
  Budget Local;
  Budget *Bud = Opts.Budget ? Opts.Budget : &Local;
  auto Stopped = [Bud, &Out] {
    if (!Bud->checkpoint("tagaut.encode")) {
      Out.Stop = Bud->reason();
      return true;
    }
    return false;
  };

  // Named trusted-rule record for certificates (see proof/Proof.h): the
  // automata-level short-circuits below are part of the trusted
  // front-end, so their refutations are recorded by name rather than
  // re-derived by the checker kernel.
  auto RuleUnsat = [&Out, &Opts](const char *Rule) -> MpResult & {
    Out.V = Verdict::Unsat;
    if (Opts.Certify) {
      Out.Cert.IsRule = true;
      Out.Cert.Rule = Rule;
    }
    return Out;
  };

  // R′ alone is unsatisfiable if any variable's language is empty.
  for (const auto &[X, Nfa] : Langs) {
    (void)X;
    if (Nfa.isEmpty())
      return RuleUnsat("empty-language");
  }

  // Thm. 6.5's side condition; callers run heuristics before this point.
  if (!notContainsVarsFlat(Langs, Preds)) {
    Out.V = Verdict::Unknown;
    return Out;
  }

  // ε-needle short-circuit: when every left-hand variable of a ¬contains
  // is forced to ε, the needle is ε, which is contained in every word —
  // unsatisfiable regardless of the rest. (MBQI alone cannot conclude
  // this when the haystack language is infinite: there are infinitely
  // many candidate models and each one gets refuted individually.)
  // Commuting-powers short-circuit: when a mismatch-style predicate's two
  // sides are forced equal (same occurrence multiset over one iterated
  // word), it is unsatisfiable outright. ¬prefixof additionally requires
  // a strictly longer left side, which equality also rules out.
  for (const PosPredicate &P : Preds) {
    if (Stopped()) {
      Out.V = Verdict::Unknown;
      return Out;
    }
    if (P.Kind != PredKind::NotContains && P.Kind != PredKind::Diseq &&
        P.Kind != PredKind::NotPrefix && P.Kind != PredKind::NotSuffix)
      continue;
    if (sidesForcedEqual(Langs, P, AlphabetSize))
      return RuleUnsat("commuting-powers");
  }

  for (const PosPredicate &P : Preds) {
    if (P.Kind != PredKind::NotContains)
      continue;
    bool NeedleForcedEmpty = true;
    for (VarId X : P.Lhs) {
      const automata::Nfa &L = Langs.at(X);
      if (L.trim().numTransitions() != 0 || !L.accepts({})) {
        NeedleForcedEmpty = false;
        break;
      }
    }
    if (NeedleForcedEmpty)
      return RuleUnsat("epsilon-needle");
    // Syntactic self-containment: if the needle's occurrence sequence is
    // a contiguous subsequence of the haystack's, every assignment makes
    // the needle a factor of the haystack (align it with its own copy),
    // so ¬contains is unsatisfiable. Catches the common u ⊑ u·w shapes
    // that MBQI would otherwise have to refute offset by offset.
    if (!P.Lhs.empty() && P.Lhs.size() <= P.Rhs.size()) {
      for (size_t Off = 0; Off + P.Lhs.size() <= P.Rhs.size(); ++Off) {
        if (std::equal(P.Lhs.begin(), P.Lhs.end(),
                       P.Rhs.begin() + static_cast<ptrdiff_t>(Off)))
          return RuleUnsat("self-containment");
      }
    }
  }

  if (Stopped()) {
    Out.V = Verdict::Unknown;
    return Out;
  }
  EncoderOptions EncOpts = Opts.Encoder;
  if (!EncOpts.Budget)
    EncOpts.Budget = Bud;
  SystemEncoding Enc = encodeSystem(A, Langs, Preds, AlphabetSize, EncOpts);
  // A tripped encoder returns a partial encoding — discard it.
  if (Stopped()) {
    Out.V = Verdict::Unknown;
    return Out;
  }

  lia::FormulaId Goal = Enc.Outer;
  if (IntConstraints)
    Goal = A.conj({Goal, IntConstraints(A, Enc.LenTerms)});

  if (Enc.Blocks.empty()) {
    lia::QfOptions Qf = Opts.Qf;
    // Clause-trace recording for the quantifier-free path: the whole
    // DPLL(T) search is mirrored into the builder, and an Unsat verdict
    // hands the trace to the caller as this call's certificate.
    proof::QfTraceBuilder Trace;
    if (Opts.Certify)
      Qf.Proof = &Trace;
    // Position predicates encode the 2K+1-copy mismatch structure, whose
    // tableaus run on Bland's order; a bare membership + length system is
    // the Parikh load where SparsestRow halves the fill-in (docs/BENCH.md).
    if (!Preds.empty())
      Qf.BlandPivots = true;
    if (!Qf.Budget)
      Qf.Budget = Bud;
    // Connectivity CEGAR: under SpanMode::Lazy every Sat model is only
    // flow-consistent; disconnected pseudo-runs are refuted by cuts fed
    // back through the solver's refinement hook (which keeps learned
    // clauses across episodes). Unsat/Unknown are final — cuts only
    // shrink the model space towards the true one.
    uint32_t Cuts = 0;
    bool ExceededCuts = false;
    lia::ModelRefiner Refine =
        [&](lia::Arena &Ar,
            const std::vector<int64_t> &Model) -> std::optional<lia::FormulaId> {
      if (Enc.Span != SpanMode::Lazy)
        return std::nullopt;
      std::vector<uint32_t> Gap = connectedComponentGap(Enc.Ta, Enc.Pf, Model);
      if (Gap.empty())
        return std::nullopt;
      if (++Cuts > Opts.MaxConnectivityCuts) {
        ExceededCuts = true;
        return std::nullopt;
      }
      return connectivityCut(Enc.Ta, Enc.Pf, Ar, Gap);
    };
    lia::QfResult R = lia::solveQF(A, Goal, Qf, Refine);
    Out.V = ExceededCuts ? Verdict::Unknown : R.V;
    if (Opts.Certify && Out.V == Verdict::Unsat)
      Out.Cert.Proof = std::move(Trace.P);
    if (Out.V == Verdict::Unknown)
      // Exhausted cut rounds are an engine-internal cap, not a shared-
      // budget trip.
      Out.Stop = ExceededCuts ? StopReason::StepBudget : R.Stop;
    if (Out.V == Verdict::Sat) {
      Out.Assignment = Enc.decode(R.Model);
      Out.Model = std::move(R.Model);
    }
    return Out;
  }

  // Resource guard for the quantified path: past a few thousand tag
  // transitions even the incremental MBQI setup (outer encoding plus one
  // Parikh clone per accumulated lemma) exceeds any sane budget. Answer
  // Unknown up-front instead (the same resource-out the paper reports
  // for OSTRICH-sized encodings). The threshold is an MpOptions knob,
  // env-overridable so large-instance experiments need no rebuild.
  uint32_t MbqiGuard = Opts.MbqiMaxTaTransitions;
  if (const char *E = std::getenv("POSTR_MBQI_MAX_TA_TRANSITIONS")) {
    char *End = nullptr;
    unsigned long V = std::strtoul(E, &End, 10);
    // A malformed value must not silently disable the resource guard;
    // keep the option default unless the whole string parsed.
    if (End != E && *End == '\0' && V <= UINT32_MAX)
      MbqiGuard = static_cast<uint32_t>(V);
  }
  if (MbqiGuard != 0 && Enc.Ta.transitions().size() > MbqiGuard) {
    Out.V = Verdict::Unknown;
    Out.Stop = StopReason::StepBudget;
    return Out;
  }

  lia::MbqiQuery Q;
  Q.Outer = Goal;
  Q.OuterVars = Enc.OuterVars;
  Q.Blocks = Enc.Blocks;
  Q.BlockTerms = Enc.BlockTerms;
  lia::MbqiOptions Mb = Opts.Mbqi;
  if (!Mb.Qf.Budget)
    Mb.Qf.Budget = Bud;
  std::vector<int64_t> Model;
  Out.V = lia::solveMbqi(A, Q, &Model, Mb);
  // An MBQI refutation rests on blocking clauses justified by *inner*
  // refutations — candidate logic the clause-trace kernel cannot replay.
  // It enters certificates as a named trusted rule (proof/Proof.h).
  if (Opts.Certify && Out.V == Verdict::Unsat) {
    Out.Cert.IsRule = true;
    Out.Cert.Rule = "mbqi";
  }
  if (Out.V == Verdict::Unknown) {
    // solveMbqi reports no reason itself; reconstruct it. A budget trip
    // (a raised cancel flag included, which the MBQI probes turn into
    // Cancelled) names itself; candidate / offset exhaustion without a
    // trip is a step-budget stop.
    Out.Stop = Bud->exceeded() ? Bud->reason() : StopReason::StepBudget;
  }
  if (Out.V == Verdict::Sat) {
    Out.Assignment = Enc.decode(Model);
    Out.Model = std::move(Model);
  }
  return Out;
}
