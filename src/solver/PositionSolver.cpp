//===- solver/PositionSolver.cpp - The Z3-Noodler-pos pipeline -------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "solver/PositionSolver.h"

#include "base/Budget.h"
#include "solver/Baselines.h"
#include "strings/Eval.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

using namespace postr;
using namespace postr::solver;
using namespace postr::strings;
using automata::Nfa;
using tagaut::PosPredicate;
using tagaut::PredKind;

namespace {

/// POSTR_SELFCHECK=paranoid turns on the Unsat-vs-enumeration cross-check
/// process-wide, without touching SolveOptions (read once; the usual
/// pattern for deployment knobs in this codebase).
bool paranoidSelfCheckEnv() {
  static const bool On = [] {
    const char *E = std::getenv("POSTR_SELFCHECK");
    return E && std::strcmp(E, "paranoid") == 0;
  }();
  return On;
}

/// POSTR_SELFCHECK=certify turns on certificate production + in-process
/// kernel verification for every Unsat, process-wide (see
/// SolveOptions::CertifyUnsat).
bool certifySelfCheckEnv() {
  static const bool On = [] {
    const char *E = std::getenv("POSTR_SELFCHECK");
    return E && std::strcmp(E, "certify") == 0;
  }();
  return On;
}

/// The first resource stop of a solve and the Budget probe site that
/// noticed it (null when no probe tripped, e.g. an engine-internal cap).
struct StopNote {
  StopReason Reason = StopReason::None;
  const char *Site = nullptr;
  void note(StopReason R, const char *S) {
    if (Reason == StopReason::None) {
      Reason = R;
      Site = S;
    }
  }
  /// Surfaces the stop on an Unknown result.
  void surface(SolveResult &R) const {
    R.Stop = Reason;
    if (Reason != StopReason::None && Site)
      R.StopSite = Site;
  }
};

class Pipeline {
public:
  Pipeline(const Problem &P, const SolveOptions &Opts)
      : P(P), Opts(Opts),
        RootBud(Budget::Limits{Opts.TimeoutMs, Opts.MemLimitBytes,
                               Opts.StepLimit, nullptr}),
        Root(Opts.Budget ? Opts.Budget : &RootBud) {}

  SolveResult run();

private:
  SolveResult runImpl();

  /// The shared model-validation evaluator, built once on first use
  /// (regex compilation is the expensive part; disjunct workers share
  /// the compiled automata, which are immutable after construction).
  const ConcreteEvaluator &evaluator() const {
    std::call_once(EvalOnce,
                   [&] { Eval = std::make_unique<ConcreteEvaluator>(
                             P, NF.Sigma); });
    return *Eval;
  }
  /// Root budget probe between disjuncts; \p StopOut records the first
  /// trip reason and site.
  bool stopped(StopNote &StopOut) const {
    if (Root->checkpoint("solver.disjunct"))
      return false;
    StopOut.note(Root->reason(), Root->tripSite());
    return true;
  }
  /// Limits of one disjunct's child budget: the root's remaining time,
  /// the full memory/step allowance (disjunct state is independent and
  /// freed when the disjunct finishes), the pool's \p Cancel flag, and a
  /// parent link so a root trip stops the disjunct mid-solve. All the
  /// deadline math lives in Budget::childLimits.
  Budget::Limits childLimits(const std::atomic<bool> *Cancel) const {
    return Root->childLimits(0, Opts.MemLimitBytes, Opts.StepLimit, Cancel);
  }

  /// Applies a decomposition's substitution to an occurrence sequence.
  static std::vector<VarId> substSeq(const eq::Decomposition &D,
                                     const std::vector<VarId> &Occs) {
    std::vector<VarId> Out;
    for (VarId X : Occs) {
      const std::vector<VarId> &Rep = D.Subst.at(X);
      Out.insert(Out.end(), Rep.begin(), Rep.end());
    }
    return Out;
  }

  /// Solves one decomposition. Thread-safe: all mutable state is local or
  /// reached through \p Result and \p St, which each worker owns; \p
  /// Cancel (may be null) cooperatively aborts the underlying engines.
  /// On an Unknown caused by resource exhaustion, \p StopOut receives
  /// the reason and site (first one wins). A disjunct whose child budget
  /// is born tripped (the root's deadline passed) reaches neither the
  /// one-counter fast path nor solveMP.
  /// A disjunct stopping on MemOut or StepBudget is retried once in
  /// degraded mode — Bland pivoting, reduced MBQI bounds — on a fresh
  /// child budget before giving up.
  Verdict solveDisjunct(const eq::Decomposition &D, SolveResult &Result,
                        SolveStats &St, const std::atomic<bool> *Cancel,
                        StopNote &StopOut,
                        proof::DisjunctCert *CertOut) const;
  /// A disjunct's Sat: projects \p Assignment (words of the disjunct's
  /// variables) through D.Subst onto the original variables, installs
  /// \p Ints, and runs the model self-check. Sat, or Unknown when the
  /// model falsifies an assertion.
  Verdict acceptSat(const eq::Decomposition &D,
                    const std::map<VarId, Word> &Assignment,
                    std::map<IntVarId, int64_t> Ints, SolveResult &Result,
                    SolveStats &St) const;

  const Problem &P;
  SolveOptions Opts;
  Budget RootBud; ///< used when Opts.Budget is null
  Budget *Root;
  NormalForm NF;
  SolveStats Stats;
  /// Certification state: on, the per-disjunct refutations (slot per
  /// stabilization disjunct, written by whichever worker solves it), and
  /// whether stabilization covered the whole problem.
  bool CertifyOn = false;
  std::vector<proof::DisjunctCert> Certs;
  bool CertComplete = false;
  mutable std::once_flag EvalOnce;
  mutable std::unique_ptr<ConcreteEvaluator> Eval;
  /// First self-check rejection across all disjuncts/workers.
  mutable std::mutex FailMu;
  mutable ValidationFailure FirstFail;
};

Verdict Pipeline::acceptSat(const eq::Decomposition &D,
                            const std::map<VarId, Word> &Assignment,
                            std::map<IntVarId, int64_t> Ints,
                            SolveResult &Result, SolveStats &St) const {
  // Project onto the original variables through the substitution map.
  Result.Words.clear();
  for (VarId X = 0; X < NF.NumOriginalVars; ++X) {
    Word W;
    for (VarId T : D.Subst.at(X)) {
      const Word &Part = Assignment.at(T);
      W.insert(W.end(), Part.begin(), Part.end());
    }
    Result.Words[X] = std::move(W);
  }
  Result.Ints = std::move(Ints);
  if (Opts.TamperModel)
    Opts.TamperModel(Result.Words, Result.Ints);
  // Always-on self-check: every Sat model is re-validated against the
  // concrete semantics before it leaves the pipeline. An invalid model
  // is demoted to a structured Unknown (never a silent wrong answer).
  if (Opts.ValidateModels) {
    ++St.ModelsValidated;
    const ConcreteEvaluator &E = evaluator();
    for (size_t I = 0; I < P.assertions().size(); ++I) {
      if (E.evalOne(I, Result.Words, Result.Ints))
        continue;
      ++St.ValidationFailures;
      std::lock_guard<std::mutex> Lock(FailMu);
      if (!FirstFail.Failed) {
        FirstFail.Failed = true;
        FirstFail.AssertionIndex = static_cast<uint32_t>(I);
        FirstFail.Detail = "Sat model falsifies assertion #" +
                           std::to_string(I);
      }
      return Verdict::Unknown;
    }
  }
  return Verdict::Sat;
}

Verdict Pipeline::solveDisjunct(const eq::Decomposition &D,
                                SolveResult &Result, SolveStats &St,
                                const std::atomic<bool> *Cancel,
                                StopNote &StopOut,
                                proof::DisjunctCert *CertOut) const {
  std::map<VarId, Nfa> Langs = D.Langs;
  VarId NextLocal = NF.NextFresh + 1000000; // disjunct-local fresh ids
  auto EnsureNonEmptySeq = [&](std::vector<VarId> &Seq) {
    if (!Seq.empty())
      return;
    VarId E = NextLocal++;
    Langs.emplace(E, Nfa::epsilonLanguage(NF.Sigma.size()));
    Seq.push_back(E);
  };

  // The per-disjunct LIA arena exists up-front so that str.at position
  // terms (which may mention integer variables) can be lowered while the
  // predicates are substituted. Length handles are tied to the Parikh
  // image later, inside the IntConstraintBuilder callback.
  lia::Arena A;
  std::vector<lia::Var> IntHandles;
  for (IntVarId V = 0; V < NF.NumIntVars; ++V)
    IntHandles.push_back(A.freshVar("int." + P.intVarName(V)));
  std::map<VarId, lia::Var> LenHandles;
  auto LenHandle = [&](VarId X) {
    auto [It, Inserted] = LenHandles.try_emplace(X, 0);
    if (Inserted)
      It->second = A.freshVar("len.x" + std::to_string(X), 0);
    return It->second;
  };
  auto ToLinTerm = [&](const IntTerm &T) {
    lia::LinTerm Out(T.Const);
    for (auto [V, C] : T.IntVars)
      Out += lia::LinTerm::variable(IntHandles[V], C);
    for (auto [X, C] : T.LenVars)
      Out += lia::LinTerm::variable(LenHandle(X), C);
    return Out;
  };

  // Substitute the decomposition into P; divert non-flat ¬contains into
  // the |u| > |v| under-approximation (Sec. 8 heuristic).
  std::vector<PosPredicate> Preds;
  std::vector<std::pair<std::vector<VarId>, std::vector<VarId>>> ApproxLenGt;
  for (const NormPred &NP : NF.Preds) {
    PosPredicate Pred;
    Pred.Kind = NP.Kind;
    Pred.Lhs = substSeq(D, NP.Lhs);
    Pred.Rhs = substSeq(D, NP.Rhs);
    if (Pred.Kind == PredKind::StrAtEq || Pred.Kind == PredKind::StrAtNe) {
      EnsureNonEmptySeq(Pred.Lhs);
      Pred.AtPos = ToLinTerm(NP.AtPos);
    }
    if (Pred.Kind == PredKind::NotContains &&
        !tagaut::notContainsVarsFlat(Langs, {Pred})) {
      ApproxLenGt.push_back({Pred.Lhs, Pred.Rhs});
      continue;
    }
    Preds.push_back(std::move(Pred));
  }
  bool Approximated = !ApproxLenGt.empty();
  if (Approximated)
    St.UsedApproximation = true;
  bool HasIntSide = !NF.IntAtoms.empty() || Approximated;

  if (Cancel && Cancel->load(std::memory_order_relaxed))
    return Verdict::Unknown; // a sibling disjunct already answered Sat

  // Child budget: the root's remaining time plus the full memory/step
  // allowance and the pool's cancel flag. Born tripped once the root's
  // deadline has passed: then neither the fast path nor solveMP starts
  // after the cap.
  Budget Child(childLimits(Cancel));
  if (Child.exceeded()) {
    ++St.BudgetTrips;
    StopOut.note(Child.reason(), "solver.disjunct");
    return Verdict::Unknown;
  }

  // PTime fast path (Thm. 7.1): a single eligible predicate, no I part.
  // Its Sat carries the walk it found as the model; only a Sat without
  // one (an over-long pumped cycle) or a NodeBudget Unknown falls through
  // to the LIA path.
  if (Opts.UseOcaFastPath && !HasIntSide && counter::isEligible(Preds)) {
    counter::OneCounterOptions OcOpts;
    OcOpts.Budget = &Child;
    counter::OneCounterResult Oc = counter::decideSinglePredicate(
        Langs, Preds.front(), NF.Sigma.size(), OcOpts);
    if (Oc.Stop != StopReason::None) {
      ++St.BudgetTrips;
      StopOut.note(Oc.Stop, Child.tripSite());
      return Verdict::Unknown;
    }
    if (Oc.V == Verdict::Unsat) {
      ++St.FastPathDecisions;
      if (CertOut) {
        // The PTime one-counter decision (Thm. 7.1) is a trusted engine;
        // its refutation is recorded by name (proof/Proof.h).
        CertOut->IsRule = true;
        CertOut->Rule = "one-counter";
      }
      return Verdict::Unsat;
    }
    if (Oc.V == Verdict::Sat && Oc.Model) {
      ++St.FastPathDecisions;
      // No integer side: any declared integer variable is unconstrained.
      std::map<IntVarId, int64_t> Ints;
      for (IntVarId V = 0; V < NF.NumIntVars; ++V)
        Ints[V] = 0;
      return acceptSat(D, *Oc.Model, std::move(Ints), Result, St);
    }
  }

  ++St.MpCalls;
  for (const PosPredicate &Pred : Preds)
    if (Pred.Kind == PredKind::NotContains)
      St.UsedMbqi = true;

  tagaut::IntConstraintBuilder IntBuilder =
      [&](lia::Arena &Ar,
          const std::map<VarId, lia::LinTerm> &LenTerms) -> lia::FormulaId {
    std::vector<lia::FormulaId> Parts;
    // Convert the atoms first: ToLinTerm lazily mints length handles, and
    // every handle minted anywhere must be tied to the Parikh image below.
    for (const NormIntAtom &Atom : NF.IntAtoms)
      Parts.push_back(
          Ar.cmp(ToLinTerm(Atom.Lhs), Atom.Op, ToLinTerm(Atom.Rhs)));
    for (const auto &[U, V] : ApproxLenGt) {
      lia::LinTerm SumU, SumV;
      for (VarId T : U)
        SumU += LenTerms.at(T);
      for (VarId T : V)
        SumV += LenTerms.at(T);
      Parts.push_back(Ar.cmp(SumU, lia::Cmp::Gt, SumV));
    }
    // Tie every length handle to the Parikh length of its substitution.
    for (const auto &[X, Handle] : LenHandles) {
      lia::LinTerm Sum;
      for (VarId T : D.Subst.at(X))
        Sum += LenTerms.at(T);
      Parts.push_back(
          Ar.cmp(lia::LinTerm::variable(Handle), lia::Cmp::Eq, Sum));
    }
    return Ar.conj(std::move(Parts));
  };

  tagaut::MpOptions MpOpts = Opts.Mp;
  MpOpts.Certify = CertOut != nullptr;
  // Adaptive pivot-rule family, decided where the disjunct is created: a
  // decomposition whose substitution actually split or renamed a
  // variable came out of word-equation solving (the thefuck/django
  // shapes — equality tests, positive prefix/suffix dispatch — whose
  // pipelines the A/B measured as Bland territory), with the subfamily
  // picked from the substituted predicate mix: any
  // prefix/suffix/at/contains predicate means the wide per-position tag
  // blocks (WordEqPosition), otherwise — disequalities only, or no
  // predicates left after substitution — the narrow diseq shape
  // (WordEqDiseq). Identity decompositions stay Unknown and
  // tagaut/MpSolver refines from the predicate mix; MBQI contexts
  // classify themselves (lia/Mbqi).
  if (MpOpts.Qf.Pivot.Family == lia::InstanceFamily::Unknown) {
    for (const auto &[X, Rep] : D.Subst)
      if (Rep.size() != 1 || Rep.front() != X) {
        lia::InstanceFamily F = tagaut::classifyFamily(Preds);
        MpOpts.Qf.Pivot.Family = F == lia::InstanceFamily::WordEqPosition
                                     ? F
                                     : lia::InstanceFamily::WordEqDiseq;
        break;
      }
  }

  MpOpts.Budget = &Child;
  tagaut::MpResult R =
      tagaut::solveMP(A, Langs, Preds, NF.Sigma.size(), IntBuilder, MpOpts);
  const char *StopSite = Child.tripSite();
  // Root-level accounting: the disjunct's cumulative charges count
  // against the root cap too (the run loop's probe notices the trip).
  Root->chargeMem(Child.memCharged());

  // Graceful degradation: a disjunct stopping on MemOut/StepBudget gets
  // one cheaper shot — Bland pivoting (bounded fill-in) and reduced MBQI
  // bounds — on a fresh child budget. Timeout/Cancelled are not retried:
  // there is no time left to spend.
  if (R.V == Verdict::Unknown &&
      (R.Stop == StopReason::MemOut || R.Stop == StopReason::StepBudget) &&
      !(Cancel && Cancel->load(std::memory_order_relaxed))) {
    ++St.DegradedRetries;
    tagaut::MpOptions Deg = MpOpts;
    applyDegraded(Deg);
    // Fresh limits: the root's remaining time has shrunk by the first
    // attempt, so re-derive rather than reuse. Born tripped once the
    // root's deadline has passed: then the stop is that one.
    Budget RetryBud(childLimits(Cancel));
    if (RetryBud.exceeded()) {
      R.Stop = RetryBud.reason();
      StopSite = "solver.disjunct";
    } else {
      Deg.Budget = &RetryBud;
      R = tagaut::solveMP(A, Langs, Preds, NF.Sigma.size(), IntBuilder, Deg);
      StopSite = RetryBud.tripSite();
      Root->chargeMem(RetryBud.memCharged());
    }
  }
  if (R.V == Verdict::Unknown && R.Stop != StopReason::None) {
    ++St.BudgetTrips;
    StopOut.note(R.Stop, StopSite);
  }

  if (R.V == Verdict::Sat) {
    std::map<IntVarId, int64_t> Ints;
    for (IntVarId V = 0; V < NF.NumIntVars; ++V)
      Ints[V] = R.Model[IntHandles[V]];
    return acceptSat(D, R.Assignment, std::move(Ints), Result, St);
  }
  if (R.V == Verdict::Unsat && Approximated)
    return Verdict::Unknown; // an under-approximation cannot prove Unsat
  if (R.V == Verdict::Unsat && CertOut)
    *CertOut = std::move(R.Cert);
  return R.V;
}

SolveResult Pipeline::run() {
  SolveResult R = runImpl();

  // Attach the first self-check rejection, if any. The demoted disjunct
  // already reported Unknown, so R.V reflects it; the diagnostic makes
  // the demotion visible to callers (CLI exit code 7, fuzz triage).
  {
    std::lock_guard<std::mutex> Lock(FailMu);
    if (FirstFail.Failed)
      R.Validation = FirstFail;
  }

  // Paranoid mode: cross-check Unsat against the bounded enumeration
  // oracle. Its Sat is evaluator-certified, so a hit is a proven wrong
  // Unsat — demote and say so.
  if (R.V == Verdict::Unsat &&
      (Opts.ParanoidUnsatCheck || paranoidSelfCheckEnv())) {
    ++R.Stats.ParanoidChecks;
    EnumOptions EO;
    EO.MaxWordLen = Opts.ParanoidMaxWordLen;
    Budget ParanoidBud(
        Budget::Limits{0, 0, Opts.ParanoidStepLimit, nullptr});
    EO.Budget = &ParanoidBud;
    SolveResult OracleR = solveEnum(P, EO);
    if (OracleR.V == Verdict::Sat) {
      ++R.Stats.ValidationFailures;
      R.V = Verdict::Unknown;
      R.Stop = StopReason::None;
      R.Validation.Failed = true;
      R.Validation.AssertionIndex = ~0u;
      R.Validation.Detail =
          "paranoid self-check: enumeration oracle found a certified "
          "model for an Unsat verdict";
    }
  }

  // Certification gate: compose the per-disjunct refutations into the
  // whole-problem certificate and verify it in-process with the
  // independent kernel, through the same serialize → parse → check
  // pipeline external audits use. Acceptance is counted; rejection
  // demotes the Unsat to a structured Unknown — the certificate text is
  // kept either way so callers can save the evidence.
  if (R.V == Verdict::Unsat && CertifyOn) {
    proof::Certificate C;
    C.Complete = CertComplete;
    C.Disjuncts = std::move(Certs);
    if (Opts.TamperCert)
      Opts.TamperCert(C);
    R.CertText = proof::serialize(C);
    proof::CheckOutcome CO;
    if (Result<proof::Certificate> Parsed = proof::parse(R.CertText))
      CO = proof::checkCertificate(*Parsed);
    else
      CO.Error = "certificate failed to re-parse: " + Parsed.error();
    if (CO.Ok) {
      ++R.Stats.UnsatsCertified;
    } else {
      ++R.Stats.CertificationFailures;
      R.V = Verdict::Unknown;
      R.Stop = StopReason::None;
      R.Validation.Failed = true;
      R.Validation.AssertionIndex = ~0u;
      R.Validation.Detail = "certification failure: " + CO.Error;
    }
  }
  return R;
}

SolveResult Pipeline::runImpl() {
  SolveResult Result;
  StopNote AggStop;

  NF = normalize(P);

  // Stabilization runs directly on the root budget (its growth — automata
  // products, subset constructions — is charged there).
  eq::StabilizeOptions StabOpts = Opts.Stabilize;
  if (!StabOpts.Budget)
    StabOpts.Budget = Root;
  eq::StabilizeResult Stab =
      eq::stabilize(NF.Langs, NF.Equations, NF.NextFresh, StabOpts);
  Stats.Disjuncts = static_cast<uint32_t>(Stab.Disjuncts.size());
  Stats.StabilizationIncomplete = !Stab.Complete;
  CertifyOn = Opts.CertifyUnsat || certifySelfCheckEnv();
  CertComplete = Stab.Complete;
  if (CertifyOn)
    Certs.assign(Stab.Disjuncts.size(), proof::DisjunctCert());
  if (!Stab.Complete && Stab.Stop != StopReason::None)
    AggStop.note(Stab.Stop, Root->tripSite());

  bool AnyUnknown = !Stab.Complete;

  uint32_t Threads = Opts.Threads == 0
                         ? std::max(1u, std::thread::hardware_concurrency())
                         : Opts.Threads;
  Threads = std::min<uint32_t>(
      Threads, static_cast<uint32_t>(Stab.Disjuncts.size()));

  if (Threads <= 1) {
    for (size_t I = 0; I < Stab.Disjuncts.size(); ++I) {
      const eq::Decomposition &D = Stab.Disjuncts[I];
      if (stopped(AggStop)) {
        AnyUnknown = true;
        break;
      }
      Verdict V = solveDisjunct(D, Result, Stats, nullptr, AggStop,
                                CertifyOn ? &Certs[I] : nullptr);
      if (V == Verdict::Sat) {
        Result.V = Verdict::Sat;
        Result.Stats = Stats;
        return Result;
      }
      if (V == Verdict::Unknown)
        AnyUnknown = true;
    }
    Result.V = AnyUnknown ? Verdict::Unknown : Verdict::Unsat;
    if (Result.V == Verdict::Unknown)
      AggStop.surface(Result);
    Result.Stats = Stats;
    return Result;
  }

  // Stage the pool: solve disjunct 0 on the calling thread first. The
  // stabilizer orders easy decompositions early, so a serial run's
  // early-Sat exit usually never reaches the hard tail — an eagerly
  // fanned-out pool starts those hard disjuncts anyway and, on few-core
  // hosts, pays for work the serial loop would have skipped (the
  // solve-parallel-1 regression). Staging keeps the serial fast path:
  // only when disjunct 0 fails to answer Sat does the fan-out begin.
  if (stopped(AggStop)) {
    Result.V = Verdict::Unknown;
    AggStop.surface(Result);
    Result.Stats = Stats;
    return Result;
  }
  {
    Verdict V = solveDisjunct(Stab.Disjuncts[0], Result, Stats, nullptr,
                              AggStop, CertifyOn ? &Certs[0] : nullptr);
    if (V == Verdict::Sat) {
      Result.V = Verdict::Sat;
      Result.Stats = Stats;
      return Result;
    }
    if (V == Verdict::Unknown)
      AnyUnknown = true;
  }
  Threads = std::min<uint32_t>(
      Threads, static_cast<uint32_t>(Stab.Disjuncts.size() - 1));

  // Disjunct pool over the remaining disjuncts: the decompositions are
  // independent (each worker builds its own arena, tag automata, Simplex
  // and SAT core), so grab them off a shared index — the atomic counter
  // is the work-stealing deque of this coarse-grained pool. The first
  // Sat raises the cancel flag, which the engines poll at their theory
  // callbacks; cancelled losers come back Unknown and are ignored once a
  // winner exists. Verdicts stay deterministic at any thread count: Sat
  // wins outright, and without a Sat no disjunct is ever cancelled, so
  // Unsat/Unknown aggregate exactly as in the serial loop.
  std::atomic<size_t> NextIdx{1};
  std::atomic<bool> Cancel{false};
  std::atomic<bool> PoolUnknown{AnyUnknown};
  std::mutex WinnerMu;
  bool HaveWinner = false;
  size_t WinnerIdx = 0;
  SolveResult Winner;
  SolveStats Merged = Stats;

  StopNote PoolStop = AggStop;

  auto Worker = [&] {
    SolveStats Local;
    StopNote LocalStop;
    for (;;) {
      size_t I = NextIdx.fetch_add(1, std::memory_order_relaxed);
      if (I >= Stab.Disjuncts.size())
        break;
      if (Cancel.load(std::memory_order_relaxed))
        break;
      if (stopped(LocalStop)) {
        PoolUnknown.store(true, std::memory_order_relaxed);
        break;
      }
      SolveResult R;
      Verdict V = solveDisjunct(Stab.Disjuncts[I], R, Local, &Cancel,
                                LocalStop, CertifyOn ? &Certs[I] : nullptr);
      if (V == Verdict::Sat) {
        std::lock_guard<std::mutex> Lock(WinnerMu);
        if (!HaveWinner || I < WinnerIdx) {
          HaveWinner = true;
          WinnerIdx = I;
          Winner = std::move(R);
        }
        Cancel.store(true, std::memory_order_relaxed);
        break;
      }
      if (V == Verdict::Unknown && !Cancel.load(std::memory_order_relaxed))
        PoolUnknown.store(true, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> Lock(WinnerMu);
    Merged.FastPathDecisions += Local.FastPathDecisions;
    Merged.MpCalls += Local.MpCalls;
    Merged.BudgetTrips += Local.BudgetTrips;
    Merged.DegradedRetries += Local.DegradedRetries;
    Merged.UsedMbqi |= Local.UsedMbqi;
    Merged.UsedApproximation |= Local.UsedApproximation;
    Merged.ModelsValidated += Local.ModelsValidated;
    Merged.ValidationFailures += Local.ValidationFailures;
    Merged.ParanoidChecks += Local.ParanoidChecks;
    PoolStop.note(LocalStop.Reason, LocalStop.Site);
  };

  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (uint32_t T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();

  Stats = Merged;
  if (HaveWinner) {
    Result = std::move(Winner);
    Result.V = Verdict::Sat;
  } else {
    Result.V = PoolUnknown.load() ? Verdict::Unknown : Verdict::Unsat;
    if (Result.V == Verdict::Unknown)
      PoolStop.surface(Result);
  }
  Result.Stats = Stats;
  return Result;
}

} // namespace

SolveResult postr::solver::solveProblem(const Problem &P,
                                        const SolveOptions &Opts) {
  Pipeline Pipe(P, Opts);
  return Pipe.run();
}

void postr::solver::applyDegraded(tagaut::MpOptions &O) {
  O.Qf.Pivot.Rule = lia::PivotRule::Bland;
  O.Mbqi.Qf.Pivot.Rule = lia::PivotRule::Bland;
  O.Mbqi.MaxCandidates = std::min<uint32_t>(O.Mbqi.MaxCandidates, 16);
  O.Mbqi.MaxOffsets = std::min<int64_t>(O.Mbqi.MaxOffsets, 512);
}

int postr::solver::exitCodeFor(const SolveResult &R) {
  if (R.Validation.Failed)
    return 7;
  if (R.V != Verdict::Unknown)
    return 0;
  switch (R.Stop) {
  case StopReason::None:
    return 2;
  case StopReason::Timeout:
    return 3;
  case StopReason::Cancelled:
    return 4;
  case StopReason::MemOut:
    return 5;
  case StopReason::StepBudget:
    return 6;
  }
  return 2;
}
