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

/// \p At over the per-variable length terms \p LenTerms.
lia::FormulaId lenAtomFormula(lia::Arena &A,
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

/// The length atom a mono-root predicate is equivalent to: |u| ≠ |v|
/// for u ≠ v, and |needle| > |haystack| for ¬prefixof, ¬suffixof and
/// ¬contains (needle = Lhs).
LenAtom monoRootAtom(const PosPredicate &P) {
  return {P.Lhs, P.Kind == PredKind::Diseq ? lia::Cmp::Ne : lia::Cmp::Gt,
          P.Rhs};
}

/// Probes \p Bud between phases; on a stop, records its reason in \p Out.
bool stopped(Budget &Bud, MpResult &Out) {
  if (Bud.checkpoint("tagaut.encode"))
    return false;
  Out.Stop = Bud.reason();
  return true;
}

/// What every arena of one solveMP call is built from.
struct Call {
  const std::map<VarId, automata::Nfa> &Langs;
  uint32_t AlphabetSize;
  const IntSide &Ints;
  /// How many leading groups of Ints.Lens str.at positions read.
  uint32_t PrefixLens;
  const lia::MbqiOptions &Mbqi;

  /// Mints the variables every arena of the call starts with: the integer
  /// variables, then the handles str.at positions read.
  void mintPrefix(lia::Arena &A) const {
    for (uint32_t V = 0; V < Ints.NumInts; ++V)
      A.freshVar("int." + std::to_string(V));
    for (uint32_t G = 0; G < PrefixLens; ++G)
      A.freshVar("len.x" + std::to_string(Ints.Lens[G].Of), 0);
  }

  /// \p Parts, then I′ over the length terms \p LenTerms (the integer
  /// atoms, the length atoms, and the tie of every handle, those past the
  /// prefix minted first), then the mono-root atoms \p Mono, whose
  /// formulas are left in \p MonoFs.
  lia::FormulaId goal(lia::Arena &A, std::vector<lia::FormulaId> Parts,
                      const std::vector<LenAtom> &Mono,
                      const std::map<VarId, lia::LinTerm> &LenTerms,
                      std::vector<lia::FormulaId> &MonoFs) const {
    lia::Var Base = A.numVars();
    for (size_t G = PrefixLens; G < Ints.Lens.size(); ++G)
      A.freshVar("len.x" + std::to_string(Ints.Lens[G].Of), 0);
    auto Handle = [&](size_t G) {
      return static_cast<lia::Var>(G < PrefixLens ? Ints.NumInts + G
                                                  : Base + (G - PrefixLens));
    };
    // Term variables map to arena variables in increasing order, so the
    // coefficients stay sorted.
    auto Lower = [&](const lia::LinTerm &T) {
      lia::LinTerm Out(T.constant());
      for (auto [V, C] : T.coeffs())
        Out.addMonomial(V < Ints.NumInts ? V : Handle(V - Ints.NumInts), C);
      return Out;
    };
    std::vector<lia::FormulaId> Int;
    for (const IntAtom &At : Ints.Atoms)
      Int.push_back(A.cmp(Lower(At.Lhs), At.Op, Lower(At.Rhs)));
    for (const LenAtom &At : Ints.LenAtoms)
      Int.push_back(lenAtomFormula(A, LenTerms, At));
    // The ties, in the order of the variables they measure.
    std::map<VarId, size_t> ByVar;
    for (size_t G = 0; G < Ints.Lens.size(); ++G)
      ByVar[Ints.Lens[G].Of] = G;
    for (auto [X, G] : ByVar) {
      lia::LinTerm Len;
      for (VarId T : Ints.Lens[G].Seq)
        Len += LenTerms.at(T);
      Int.push_back(
          A.cmp(lia::LinTerm::variable(Handle(G)), lia::Cmp::Eq, Len));
    }
    Parts.push_back(A.conj(std::move(Int)));
    for (const LenAtom &At : Mono)
      MonoFs.push_back(lenAtomFormula(A, LenTerms, At));
    Parts.insert(Parts.end(), MonoFs.begin(), MonoFs.end());
    return A.conj(std::move(Parts));
  }
};

/// Encodes R′ ∧ \p Rest on a fresh arena and decides it under \p Bud,
/// beside I′ and the mono-root atoms \p Mono, which rewrote the
/// predicates of \p Records.
MpResult encodeAndDecide(const Call &C, const std::vector<PosPredicate> &Rest,
                         const std::vector<LenAtom> &Mono,
                         std::vector<proof::MonoRootAtom> Records,
                         Budget &Bud, bool Certify) {
  MpResult Out;
  if (stopped(Bud, Out))
    return Out;
  lia::Arena A;
  C.mintPrefix(A);
  EncoderOptions EncOpts;
  EncOpts.Budget = &Bud;
  SystemEncoding Enc = encodeSystem(A, C.Langs, Rest, C.AlphabetSize, EncOpts);
  // A tripped encoder returns a partial encoding — discard it.
  if (stopped(Bud, Out))
    return Out;

  std::vector<lia::FormulaId> MonoFs;
  lia::FormulaId Goal = C.goal(A, {Enc.Outer}, Mono, Enc.LenTerms, MonoFs);

  if (Enc.Blocks.empty()) {
    lia::QfOptions Qf;
    Qf.Budget = &Bud;
    // Clause-trace recording for the quantifier-free path: the whole
    // DPLL(T) search is mirrored into the builder, and an Unsat verdict
    // hands the trace to the caller as this call's certificate.
    proof::QfTraceBuilder Trace;
    if (Certify)
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
    Out.Qf = R.Stats;
    if (Certify && Out.V == Verdict::Unsat) {
      Out.Cert.Proof = std::move(Trace.P);
      attachRewrite(Out, A, Goal, std::move(Records), MonoFs, Enc.LenTerms);
    }
    if (Out.V == Verdict::Unknown)
      // Exhausted cut rounds are an engine-internal cap, not a shared-
      // budget trip.
      Out.Stop = ExceededCuts ? StopReason::StepBudget : R.Stop;
    if (Out.V == Verdict::Sat) {
      Out.Assignment = Enc.decode(R.Model);
      Out.Ints.assign(R.Model.begin(), R.Model.begin() + C.Ints.NumInts);
    }
    return Out;
  }

  // Resource guard for the quantified path: past a few thousand tag
  // transitions even the incremental MBQI setup (outer encoding plus one
  // Parikh clone per accumulated lemma) exceeds any sane budget. Answer
  // Unknown up-front instead (the same resource-out the paper reports
  // for OSTRICH-sized encodings).
  if (Enc.Ta.transitions().size() > MbqiTaTransitionCap) {
    Out.Stop = StopReason::StepBudget;
    return Out;
  }

  lia::MbqiQuery Q;
  Q.Outer = Goal;
  Q.OuterVars = Enc.OuterVars;
  Q.Blocks = Enc.Blocks;
  Q.BlockTerms = Enc.BlockTerms;
  lia::MbqiOptions Mb = C.Mbqi;
  Mb.Budget = &Bud;
  std::vector<int64_t> Model;
  Out.UsedMbqi = true;
  Out.V = lia::solveMbqi(A, Q, &Model, Mb);
  // An MBQI refutation rests on blocking clauses justified by *inner*
  // refutations — candidate logic the clause-trace kernel cannot replay.
  // It enters certificates as a named trusted rule (proof/Proof.h).
  if (Certify && Out.V == Verdict::Unsat) {
    Out.Cert.IsRule = true;
    Out.Cert.Rule = "mbqi";
  }
  if (Out.V == Verdict::Unknown) {
    // solveMbqi reports no reason itself; reconstruct it. A budget trip
    // (a raised cancel flag included, which the MBQI probes turn into
    // Cancelled) names itself; candidate / offset exhaustion without a
    // trip is a step-budget stop.
    Out.Stop = Bud.exceeded() ? Bud.reason() : StopReason::StepBudget;
  }
  if (Out.V == Verdict::Sat) {
    Out.Assignment = Enc.decode(Model);
    Out.Ints.assign(Model.begin(), Model.begin() + C.Ints.NumInts);
  }
  return Out;
}

} // namespace

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

MpResult postr::tagaut::solveMP(const std::map<VarId, automata::Nfa> &Langs,
                                const std::vector<PosPredicate> &Preds,
                                uint32_t AlphabetSize, const IntSide &Ints,
                                const MpOptions &Opts) {
  MpResult Out;
  // Resource governance: the caller's budget, or an unlimited per-call
  // one, governs every phase below. The automata shortcuts and the
  // encoder can run for a while, so probe between phases.
  Budget Local;
  Budget *Bud = Opts.Budget ? Opts.Budget : &Local;

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
  uint32_t PrefixLens = 0;
  for (const PosPredicate &P : Preds) {
    if (stopped(*Bud, Out))
      return Out;
    for (const auto &Mono : P.AtPos.coeffs())
      if (Mono.first >= Ints.NumInts)
        PrefixLens = std::max(PrefixLens, Mono.first - Ints.NumInts + 1);
    if (std::optional<Word> Root = monoRoot(Langs, P)) {
      Atoms.push_back(monoRootAtom(P));
      if (Opts.Certify)
        Records.push_back(rewriteRecord(P, *Root));
    } else {
      Rest.push_back(P);
    }
  }
  const Call C{Langs, AlphabetSize, Ints, PrefixLens, Opts.Mbqi};

  // The length stage. First the length abstraction: I′ and the length
  // atoms over bare lengths ℓ_x ≥ 0, the other predicates dropped. Every
  // model's lengths satisfy it, so its Unsat is the disjunct's, and its
  // refutation trusts no encoding of the languages. Only a Sat goes on.
  if (!Atoms.empty()) {
    lia::Arena A;
    C.mintPrefix(A);
    std::map<VarId, lia::LinTerm> Bare;
    for (const auto &[X, Nfa] : Langs) {
      (void)Nfa;
      Bare.emplace(X, lia::LinTerm::variable(
                          A.freshVar("len.bare.x" + std::to_string(X), 0)));
    }
    std::vector<lia::FormulaId> AtomFs;
    lia::FormulaId Goal = C.goal(A, {}, Atoms, Bare, AtomFs);
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
      Out.Stop = R.Stop;
      return Out;
    }
  }

  // Then length-first ≠: a ≠ is encoded through 2K+1 tag copies, yet
  // mostly holds by length alone. So when every predicate is a ≠, each is
  // strengthened to |u| ≠ |v| and the languages alone are encoded, on a
  // child budget whose memory counts against this call's. That
  // under-approximates: only its Sat, or a timeout or cancel, is final.
  // When every ≠ is mono-root, the rewrite above made it exact already.
  if (!Rest.empty() &&
      std::all_of(Preds.begin(), Preds.end(), [](const PosPredicate &P) {
        return P.Kind == PredKind::Diseq;
      })) {
    IntSide ByLength = Ints;
    for (const PosPredicate &P : Preds)
      ByLength.LenAtoms.push_back(monoRootAtom(P));
    Budget LenBud(Bud->childLimits());
    MpResult Len =
        encodeAndDecide({Langs, AlphabetSize, ByLength, PrefixLens, Opts.Mbqi},
                        {}, {}, {}, LenBud, false);
    Bud->chargeMem(LenBud.memCharged());
    Out.Qf += Len.Qf;
    if (Len.V == Verdict::Sat) {
      Len.Qf = Out.Qf;
      return Len;
    }
    if (Len.Stop == StopReason::Timeout || Len.Stop == StopReason::Cancelled) {
      Out.Stop = Len.Stop;
      Out.StopSite = LenBud.tripSite();
      return Out;
    }
  }

  // Thm. 6.5's side condition; callers run heuristics before this point.
  if (!notContainsVarsFlat(Langs, Rest))
    return Out;

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

  MpResult R =
      encodeAndDecide(C, Rest, Atoms, std::move(Records), *Bud, Opts.Certify);
  R.Qf += Out.Qf;
  return R;
}
