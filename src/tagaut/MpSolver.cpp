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
#include <set>

using namespace postr;
using namespace postr::tagaut;

namespace {

/// Cap on connectivity-CEGAR rounds (the QF path's Lazy span) before
/// the solver answers Unknown. Each round adds one cut; real workloads
/// converge in a handful.
constexpr uint32_t MaxCutRounds = 4096;

/// Resource guard for the quantified (MBQI) path: tag automata with more
/// transitions than this answer Unknown up-front, because even the
/// incremental encoding of the outer instance grows with every
/// accumulated lemma.
constexpr size_t MbqiTaTransitionCap = 4000;

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

/// A shortest non-empty word of the trimmed automaton \p T, or ε when it
/// has none: breadth-first over (state, read a letter yet).
Word shortestNonEmptyWord(const automata::Nfa &T) {
  using automata::State;
  struct Node {
    State Q;
    bool Read;
    uint32_t Parent;
    Symbol Sym;
  };
  std::vector<Node> Nodes;
  std::vector<uint8_t> Seen(2 * size_t(T.numStates()), 0);
  for (State Q : T.initialStates()) {
    Seen[2 * size_t(Q)] = 1;
    Nodes.push_back({Q, false, ~0u, 0});
  }
  for (uint32_t Head = 0; Head < Nodes.size(); ++Head) {
    Node N = Nodes[Head];
    if (N.Read && T.isFinal(N.Q)) {
      Word W;
      for (uint32_t I = Head; Nodes[I].Parent != ~0u; I = Nodes[I].Parent)
        if (Nodes[I].Sym != automata::Nfa::Epsilon)
          W.push_back(Nodes[I].Sym);
      return Word(W.rbegin(), W.rend());
    }
    auto [B, E] = T.outgoing(N.Q);
    for (const automata::Transition *It = B; It != E; ++It) {
      bool Read = N.Read || It->Sym != automata::Nfa::Epsilon;
      size_t Slot = 2 * size_t(It->To) + Read;
      if (!Seen[Slot]) {
        Seen[Slot] = 1;
        Nodes.push_back({It->To, Read, Head, It->Sym});
      }
    }
  }
  return {};
}

/// True if the language of the trimmed automaton \p T lies in R*: the
/// product with R's |R|-state cycle never reads a letter off the cycle
/// and never accepts away from phase 0. Every state of \p T lies on an
/// accepting path, so either violation spells a word outside R*.
bool inRootStar(const automata::Nfa &T, const Word &R) {
  using automata::State;
  const size_t N = R.size();
  std::vector<uint8_t> Seen(size_t(T.numStates()) * N, 0);
  std::vector<std::pair<State, uint32_t>> Stack;
  for (State Q : T.initialStates()) {
    Seen[size_t(Q) * N] = 1;
    Stack.push_back({Q, 0});
  }
  while (!Stack.empty()) {
    auto [Q, Phase] = Stack.back();
    Stack.pop_back();
    if (T.isFinal(Q) && Phase != 0)
      return false;
    auto [B, E] = T.outgoing(Q);
    for (const automata::Transition *It = B; It != E; ++It) {
      uint32_t Next = Phase;
      if (It->Sym != automata::Nfa::Epsilon) {
        if (It->Sym != R[Phase])
          return false;
        Next = static_cast<uint32_t>((Phase + 1) % N);
      }
      size_t Slot = size_t(It->To) * N + Next;
      if (!Seen[Slot]) {
        Seen[Slot] = 1;
        Stack.push_back({It->To, Next});
      }
    }
  }
  return true;
}

proof::MonoRootAtom::Kind proofKind(PredKind K) {
  switch (K) {
  case PredKind::NotPrefix:
    return proof::MonoRootAtom::Kind::NotPrefix;
  case PredKind::NotSuffix:
    return proof::MonoRootAtom::Kind::NotSuffix;
  case PredKind::NotContains:
    return proof::MonoRootAtom::Kind::NotContains;
  default:
    return proof::MonoRootAtom::Kind::Diseq;
  }
}

/// The certificate record of \p P's rewrite over root \p Root.
proof::MonoRootAtom rewriteRecord(const PosPredicate &P, const Word &Root) {
  proof::MonoRootAtom M;
  M.K = proofKind(P.Kind);
  M.Root.assign(Root.begin(), Root.end());
  M.Lhs.assign(P.Lhs.begin(), P.Lhs.end());
  M.Rhs.assign(P.Rhs.begin(), P.Rhs.end());
  M.Cmp = P.Kind == PredKind::Diseq ? proof::MonoRootAtom::Op::Ne
                                    : proof::MonoRootAtom::Op::Gt;
  std::map<VarId, int64_t> Occ;
  for (VarId X : P.Lhs)
    ++Occ[X];
  for (VarId X : P.Rhs)
    --Occ[X];
  for (auto [X, C] : Occ)
    if (C != 0)
      M.Coeffs.push_back({X, C});
  return M;
}

/// Attaches to \p Out's certificate the rewrite its clause trace over
/// \p Goal rests on: every rewritten predicate and the length term, out
/// of \p LenTerms, of each variable it reads. A goal folded to false
/// defines no atom, so then only the atoms that folded too (a false one
/// refutes the disjunct) are the trace's.
void attachRewrite(MpResult &Out, const lia::Arena &A, lia::FormulaId Goal,
                   std::vector<proof::MonoRootAtom> Records,
                   const std::vector<lia::FormulaId> &AtomFs,
                   const std::map<VarId, lia::LinTerm> &LenTerms) {
  auto Folded = [&A](lia::FormulaId F) {
    return A.kind(F) == lia::FKind::True || A.kind(F) == lia::FKind::False;
  };
  if (A.kind(Goal) == lia::FKind::False)
    for (size_t I = Records.size(); I-- > 0;)
      if (!Folded(AtomFs[I]))
        Records.erase(Records.begin() + static_cast<ptrdiff_t>(I));
  if (Records.empty())
    return;
  proof::MonoRootRewrite &Rw = Out.Cert.Rewrite.emplace();
  std::set<VarId> Read;
  for (const proof::MonoRootAtom &M : Records)
    for (const auto &Mono : M.Coeffs)
      Read.insert(Mono.first);
  for (VarId X : Read)
    Rw.Lens.push_back({X, LenTerms.at(X).coeffs()});
  Rw.Atoms = std::move(Records);
}

} // namespace

lia::FormulaId
postr::tagaut::lenAtomFormula(lia::Arena &A,
                              const std::map<VarId, lia::LinTerm> &LenTerms,
                              const LenAtom &At) {
  auto Len = [&](const std::vector<VarId> &Seq) {
    lia::LinTerm Sum;
    for (VarId X : Seq)
      Sum += LenTerms.at(X);
    return Sum;
  };
  return A.cmp(Len(At.Lhs), At.Op, Len(At.Rhs));
}

std::optional<Word>
postr::tagaut::monoRoot(const std::map<VarId, automata::Nfa> &Langs,
                        const PosPredicate &P) {
  if (P.Kind != PredKind::Diseq && P.Kind != PredKind::NotPrefix &&
      P.Kind != PredKind::NotSuffix && P.Kind != PredKind::NotContains)
    return std::nullopt;
  std::vector<VarId> Vars = P.Lhs;
  Vars.insert(Vars.end(), P.Rhs.begin(), P.Rhs.end());
  std::sort(Vars.begin(), Vars.end());
  Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
  // The root comes from the first language with a non-empty word; a
  // language holding only ε (no transition once trimmed) fits any root.
  Word Root;
  for (VarId X : Vars) {
    automata::Nfa T = Langs.at(X).trim();
    if (Root.empty()) {
      Word W = shortestNonEmptyWord(T);
      if (W.empty())
        continue;
      Root = primitiveRoot(W);
    }
    if (!inRootStar(T, Root))
      return std::nullopt;
  }
  if (Root.empty())
    Root = {0};
  return Root;
}

LenAtom postr::tagaut::monoRootAtom(const PosPredicate &P) {
  return {P.Lhs,
          P.Kind == PredKind::Diseq ? lia::Cmp::Ne : lia::Cmp::Gt, P.Rhs};
}

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

  // Mono-root rewrite: a predicate whose variables all range over powers
  // of one primitive word is equivalent to a length atom, which joins I′
  // below; the predicates left are encoded.
  std::vector<PosPredicate> Rest;
  std::vector<LenAtom> Atoms;
  std::vector<proof::MonoRootAtom> Records;
  for (const PosPredicate &P : Preds) {
    if (Stopped()) {
      Out.V = Verdict::Unknown;
      return Out;
    }
    if (std::optional<Word> Root = monoRoot(Langs, P)) {
      Atoms.push_back(monoRootAtom(P));
      if (Opts.Certify)
        Records.push_back(rewriteRecord(P, *Root));
    } else {
      Rest.push_back(P);
    }
  }

  // I′ over the length terms \p LenTerms beside \p Parts: the caller's
  // integer constraints and every length atom, whose formulas are left
  // in \p AtomFs for the rewrite record.
  auto LengthGoal = [&](std::vector<lia::FormulaId> Parts,
                        const std::map<VarId, lia::LinTerm> &LenTerms,
                        std::vector<lia::FormulaId> &AtomFs) {
    if (IntConstraints)
      Parts.push_back(IntConstraints(A, LenTerms));
    for (const LenAtom &At : Atoms)
      AtomFs.push_back(lenAtomFormula(A, LenTerms, At));
    Parts.insert(Parts.end(), AtomFs.begin(), AtomFs.end());
    return A.conj(std::move(Parts));
  };

  // Length abstraction: I′ and the length atoms over bare lengths
  // ℓ_x ≥ 0, the other predicates dropped. Every model's lengths satisfy
  // it, so its Unsat is the disjunct's, and its refutation trusts no
  // encoding of the languages. Only a Sat leads on to the Parikh encoding.
  if (!Atoms.empty()) {
    std::map<VarId, lia::LinTerm> Bare;
    for (const auto &[X, Nfa] : Langs) {
      (void)Nfa;
      Bare.emplace(X, lia::LinTerm::variable(
                          A.freshVar("len.bare.x" + std::to_string(X), 0)));
    }
    std::vector<lia::FormulaId> AtomFs;
    lia::FormulaId Goal = LengthGoal({}, Bare, AtomFs);
    lia::QfOptions Qf;
    Qf.Budget = Bud;
    proof::QfTraceBuilder Trace;
    if (Opts.Certify)
      Qf.Proof = &Trace;
    lia::QfResult R = lia::solveQF(A, Goal, Qf);
    Out.Qf = R.Stats;
    if (R.V == Verdict::Unsat) {
      Out.V = Verdict::Unsat;
      if (Opts.Certify) {
        Out.Cert.Proof = std::move(Trace.P);
        attachRewrite(Out, A, Goal, std::move(Records), AtomFs, Bare);
      }
      return Out;
    }
    if (R.V == Verdict::Unknown) {
      Out.V = Verdict::Unknown;
      Out.Stop = R.Stop;
      return Out;
    }
  }

  // Thm. 6.5's side condition; callers run heuristics before this point.
  if (!notContainsVarsFlat(Langs, Rest)) {
    Out.V = Verdict::Unknown;
    return Out;
  }

  // ε-needle short-circuit: when every left-hand variable of a ¬contains
  // is forced to ε, the needle is ε, which is contained in every word —
  // unsatisfiable regardless of the rest. (MBQI alone cannot conclude
  // this when the haystack language is infinite: there are infinitely
  // many candidate models and each one gets refuted individually.)
  for (const PosPredicate &P : Rest) {
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
  EncoderOptions EncOpts;
  EncOpts.Budget = Bud;
  SystemEncoding Enc = encodeSystem(A, Langs, Rest, AlphabetSize, EncOpts);
  // A tripped encoder returns a partial encoding — discard it.
  if (Stopped()) {
    Out.V = Verdict::Unknown;
    return Out;
  }

  std::vector<lia::FormulaId> AtomFs;
  lia::FormulaId Goal = LengthGoal({Enc.Outer}, Enc.LenTerms, AtomFs);

  if (Enc.Blocks.empty()) {
    lia::QfOptions Qf;
    Qf.Budget = Bud;
    // Clause-trace recording for the quantifier-free path: the whole
    // DPLL(T) search is mirrored into the builder, and an Unsat verdict
    // hands the trace to the caller as this call's certificate.
    proof::QfTraceBuilder Trace;
    if (Opts.Certify)
      Qf.Proof = &Trace;
    // Position predicates encode the 2K+1-copy mismatch structure, whose
    // tableaus run on Bland's order; a bare membership + length system is
    // the Parikh load where SparsestRow halves the fill-in (docs/BENCH.md).
    Qf.BlandPivots = !Rest.empty();
    // Connectivity CEGAR: without ¬contains blocks the outer Parikh
    // formula is built Lazy (tagaut/Encoder.h), so every Sat model is only
    // flow-consistent; disconnected pseudo-runs are refuted by cuts fed
    // back through the solver's refinement hook (which keeps learned
    // clauses across episodes). Unsat/Unknown are final — cuts only
    // shrink the model space towards the true one.
    uint32_t Cuts = 0;
    bool ExceededCuts = false;
    lia::ModelRefiner Refine =
        [&](lia::Arena &Ar,
            const std::vector<int64_t> &Model) -> std::optional<lia::FormulaId> {
      std::vector<uint32_t> Gap = connectedComponentGap(Enc.Ta, Enc.Pf, Model);
      if (Gap.empty())
        return std::nullopt;
      if (++Cuts > MaxCutRounds) {
        ExceededCuts = true;
        return std::nullopt;
      }
      return connectivityCut(Enc.Ta, Enc.Pf, Ar, Gap);
    };
    lia::QfResult R = lia::solveQF(A, Goal, Qf, Refine);
    Out.V = ExceededCuts ? Verdict::Unknown : R.V;
    Out.Qf += R.Stats;
    if (Opts.Certify && Out.V == Verdict::Unsat) {
      Out.Cert.Proof = std::move(Trace.P);
      attachRewrite(Out, A, Goal, std::move(Records), AtomFs, Enc.LenTerms);
    }
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
  // for OSTRICH-sized encodings).
  if (Enc.Ta.transitions().size() > MbqiTaTransitionCap) {
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
  Mb.Budget = Bud;
  std::vector<int64_t> Model;
  Out.UsedMbqi = true;
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
