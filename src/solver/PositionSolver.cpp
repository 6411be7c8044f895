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
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>

using namespace postr;
using namespace postr::solver;
using namespace postr::strings;
using automata::Nfa;
using tagaut::PosPredicate;
using tagaut::PredKind;

namespace {

/// Word-length bound for the paranoid enumeration cross-check.
constexpr uint32_t ParanoidWordLen = 3;

/// Abstract step budget for the paranoid cross-check (keeps it cheap and
/// deterministic; the oracle reports Unknown when it trips).
constexpr uint64_t ParanoidSteps = 50'000;

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

/// The integer side the str.at fast path absorbs: every atom of \p NF,
/// read through \p D's substitution, is a numeral lower bound |S| > k on
/// the haystack S of \p Pred. Returns the largest k, or none when some
/// atom is anything else.
std::optional<int64_t> hayLenLowerBound(const NormalForm &NF,
                                        const eq::Decomposition &D,
                                        const PosPredicate &Pred) {
  // Sums in 128 bits: the coefficients and constants come from the input.
  std::map<VarId, __int128> Hay;
  for (VarId X : Pred.Rhs)
    ++Hay[X];
  __int128 K = -1;
  for (const NormIntAtom &Atom : NF.IntAtoms) {
    // Atom as Σ c·|z| + Const  ⋈  0, with ⋈ turned into > or ≥.
    IntTerm Diff = Atom.Lhs - Atom.Rhs;
    if (!Diff.IntVars.empty())
      return std::nullopt;
    int64_t Sign;
    bool Strict;
    switch (Atom.Op) {
    case lia::Cmp::Gt:
    case lia::Cmp::Ge:
      Sign = 1;
      Strict = Atom.Op == lia::Cmp::Gt;
      break;
    case lia::Cmp::Lt:
    case lia::Cmp::Le:
      Sign = -1;
      Strict = Atom.Op == lia::Cmp::Lt;
      break;
    default:
      return std::nullopt;
    }
    std::map<VarId, __int128> Coeff;
    for (const auto &[X, C] : Diff.LenVars)
      for (VarId T : D.Subst.at(X))
        Coeff[T] += Sign * static_cast<__int128>(C);
    std::erase_if(Coeff, [](const auto &Entry) { return Entry.second == 0; });
    if (Coeff != Hay)
      return std::nullopt;
    // |S| + c > 0 is |S| > −c; |S| + c ≥ 0 is |S| > −c − 1.
    __int128 C = Sign * static_cast<__int128>(Diff.Const);
    K = std::max(K, Strict ? -C : -C - 1);
  }
  if (K > INT64_MAX)
    return std::nullopt;
  return static_cast<int64_t>(K);
}

/// Whether every variable occurs in \p Needle at least as often as in
/// \p Hay, so that |Needle| ≥ |Hay| in every model.
bool coversOccurrences(const std::vector<VarId> &Needle,
                       const std::vector<VarId> &Hay) {
  std::map<VarId, int64_t> Occ;
  for (VarId X : Needle)
    ++Occ[X];
  for (VarId X : Hay)
    if (--Occ[X] < 0)
      return false;
  return true;
}

class Pipeline {
public:
  Pipeline(const Problem &P, const SolveOptions &Opts)
      : P(P), Opts(Opts),
        Root(callLimits(Opts.Budget, Opts.TimeoutMs, Opts.MemLimitBytes,
                        Opts.StepLimit)) {}

  SolveResult run();

private:
  SolveResult runImpl();

  /// The model-validation evaluator, built on first use (regex
  /// compilation is the expensive part) and shared by every disjunct.
  const ConcreteEvaluator &evaluator() {
    if (!Eval)
      Eval = std::make_unique<ConcreteEvaluator>(P, NF.Sigma);
    return *Eval;
  }
  /// Root budget probe between disjuncts; notes the first trip reason
  /// and site.
  bool stopped() {
    if (Root.checkpoint("solver.disjunct"))
      return false;
    Stop.note(Root.reason(), Root.tripSite());
    return true;
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

  /// Solves one decomposition. On an Unknown caused by resource
  /// exhaustion, Stop receives the reason and site (first one wins). A
  /// disjunct whose child budget is born tripped (the root's deadline
  /// passed, or its cancel flag was raised) reaches neither the
  /// one-counter fast path nor solveMP.
  Verdict solveDisjunct(const eq::Decomposition &D, SolveResult &Result,
                        proof::DisjunctCert *CertOut);
  /// A disjunct's Sat: projects \p Assignment (words of the disjunct's
  /// variables) through D.Subst onto the original variables, installs
  /// \p Ints, and runs the model self-check. Sat, or Unknown when the
  /// model falsifies an assertion.
  Verdict acceptSat(const eq::Decomposition &D,
                    const std::map<VarId, Word> &Assignment,
                    std::map<IntVarId, int64_t> Ints, SolveResult &Result);

  const Problem &P;
  SolveOptions Opts;
  /// The solve's own budget, a child of Opts.Budget when one is shared.
  Budget Root;
  NormalForm NF;
  SolveStats Stats;
  /// The first resource stop across stabilization and all disjuncts.
  StopNote Stop;
  /// Certification state: on, the per-disjunct refutations (slot per
  /// stabilization disjunct), and whether stabilization covered the
  /// whole problem.
  bool CertifyOn = false;
  std::vector<proof::DisjunctCert> Certs;
  bool CertComplete = false;
  std::unique_ptr<ConcreteEvaluator> Eval;
  /// First self-check rejection across all disjuncts.
  ValidationFailure FirstFail;
};

Verdict Pipeline::acceptSat(const eq::Decomposition &D,
                            const std::map<VarId, Word> &Assignment,
                            std::map<IntVarId, int64_t> Ints,
                            SolveResult &Result) {
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
  ++Stats.ModelsValidated;
  const ConcreteEvaluator &E = evaluator();
  for (size_t I = 0; I < P.assertions().size(); ++I) {
    if (E.evalOne(I, Result.Words, Result.Ints))
      continue;
    ++Stats.ValidationFailures;
    if (!FirstFail.Failed) {
      FirstFail.Failed = true;
      FirstFail.AssertionIndex = static_cast<uint32_t>(I);
      FirstFail.Detail = "Sat model falsifies assertion #" +
                         std::to_string(I);
    }
    return Verdict::Unknown;
  }
  return Verdict::Sat;
}

Verdict Pipeline::solveDisjunct(const eq::Decomposition &D,
                                SolveResult &Result,
                                proof::DisjunctCert *CertOut) {
  std::map<VarId, Nfa> Langs = D.Langs;
  VarId NextLocal = NF.NextFresh + 1000000; // disjunct-local fresh ids
  auto EnsureNonEmptySeq = [&](std::vector<VarId> &Seq) {
    if (!Seq.empty())
      return;
    VarId E = NextLocal++;
    Langs.emplace(E, Nfa::epsilonLanguage(NF.Sigma.size()));
    Seq.push_back(E);
  };

  // The integer side, lowered as the predicates are substituted so that
  // the length groups str.at positions read come first.
  tagaut::IntSide Ints;
  Ints.NumInts = NF.NumIntVars;

  // Substitute the decomposition into P. A ¬contains(h, n) that is not
  // mono-root and whose needle covers its haystack (occ_n(x) ≥ occ_h(x)
  // for every x) has |n| ≥ |h| in every model, while contains(h, n)
  // forces |n| ≤ |h|; so it holds iff n ≠ h, and becomes that ≠. Divert
  // the other non-flat, non-mono-root ¬contains into the |u| > |v|
  // under-approximation (Sec. 8 heuristic).
  std::vector<PosPredicate> Preds;
  // Whether every predicate kept is mono-root: solveMP then rewrites each
  // one to its length atom, exactly and with a checked refutation.
  bool AllMonoRoot = true;
  for (const NormPred &NP : NF.Preds) {
    PosPredicate Pred;
    Pred.Kind = NP.Kind;
    Pred.Lhs = substSeq(D, NP.Lhs);
    Pred.Rhs = substSeq(D, NP.Rhs);
    if (Pred.Kind == PredKind::StrAtEq || Pred.Kind == PredKind::StrAtNe) {
      EnsureNonEmptySeq(Pred.Lhs);
      Pred.AtPos = lowerIntTerm(Ints, D, NP.AtPos);
    }
    bool MonoRoot = tagaut::monoRoot(Langs, Pred).has_value();
    if (Pred.Kind == PredKind::NotContains && !MonoRoot) {
      if (coversOccurrences(Pred.Lhs, Pred.Rhs)) {
        Pred.Kind = PredKind::Diseq;
      } else if (!tagaut::notContainsVarsFlat(Langs, {Pred})) {
        Ints.LenAtoms.push_back({Pred.Lhs, lia::Cmp::Gt, Pred.Rhs});
        continue;
      }
    }
    AllMonoRoot &= MonoRoot;
    Preds.push_back(std::move(Pred));
  }
  // A braced list lowers Lhs before Rhs, as the atom reads them.
  for (const NormIntAtom &At : NF.IntAtoms)
    Ints.Atoms.push_back({lowerIntTerm(Ints, D, At.Lhs), At.Op,
                          lowerIntTerm(Ints, D, At.Rhs)});
  bool Approximated = !Ints.LenAtoms.empty();
  if (Approximated)
    Stats.UsedApproximation = true;
  bool HasIntSide = !NF.IntAtoms.empty() || Approximated;

  // Projection: a variable that no predicate, ¬contains approximation,
  // or length or position term reads is constrained by its language
  // alone, so it takes a shortest word of it and stays out of A_◦ (which
  // the tag automaton copies 2K+1 times). Its word rejoins the model
  // before the self-check.
  std::set<VarId> Read;
  for (const PosPredicate &Pred : Preds) {
    Read.insert(Pred.Lhs.begin(), Pred.Lhs.end());
    Read.insert(Pred.Rhs.begin(), Pred.Rhs.end());
  }
  for (const tagaut::LenAtom &At : Ints.LenAtoms) {
    Read.insert(At.Lhs.begin(), At.Lhs.end());
    Read.insert(At.Rhs.begin(), At.Rhs.end());
  }
  for (const tagaut::LenGroup &G : Ints.Lens)
    Read.insert(G.Seq.begin(), G.Seq.end());
  std::map<VarId, Word> Projected;
  for (auto It = Langs.begin(); It != Langs.end();) {
    if (Read.count(It->first)) {
      ++It;
      continue;
    }
    std::optional<Word> W = It->second.someWord();
    if (!W) {
      if (CertOut) {
        CertOut->IsRule = true;
        CertOut->Rule = "empty-language";
      }
      return Verdict::Unsat;
    }
    Projected.emplace(It->first, std::move(*W));
    It = Langs.erase(It);
  }
  // A Sat whose integer variables take \p IntVals, or all 0 when it is
  // empty (no integer side: they are unconstrained).
  auto Accept = [&](std::map<VarId, Word> Assignment,
                    const std::vector<int64_t> &IntVals) {
    Assignment.insert(Projected.begin(), Projected.end());
    std::map<IntVarId, int64_t> Vals;
    for (IntVarId V = 0; V < NF.NumIntVars; ++V)
      Vals[V] = IntVals.empty() ? 0 : IntVals[V];
    return acceptSat(D, Assignment, std::move(Vals), Result);
  };
  if (Langs.empty() && Preds.empty() && !HasIntSide)
    return Accept({}, {});

  // Child budget: the root's remaining time plus the full memory/step
  // allowance (disjunct state is independent and freed when the disjunct
  // finishes), with a parent link so a root trip or cancel stops the
  // disjunct mid-solve. Born tripped once the root's deadline has passed
  // or its cancel flag was raised: then neither the fast path nor solveMP
  // starts after the stop.
  Budget Child(Root.childLimits());
  if (Child.exceeded()) {
    ++Stats.BudgetTrips;
    Stop.note(Child.reason(), "solver.disjunct");
    return Verdict::Unknown;
  }

  // PTime fast path (Thm. 7.1): a single eligible predicate, no I part
  // except, for a numeral-index str.at, lower bounds |S| > k (k ≤ i) on
  // its haystack. Its Sat carries the walk it found as the model; only a
  // Sat without one (an over-long pumped cycle) or a NodeBudget Unknown
  // falls through to the LIA path. A mono-root predicate is left to
  // solveMP, whose refutation the kernel checks.
  std::optional<int64_t> HayLenAbove;
  // What the disjunct's charges have added to the root's so far.
  uint64_t RootCharged = 0;
  if (Opts.UseOcaFastPath && !AllMonoRoot &&
      counter::isEligible(Preds, Langs)) {
    const PosPredicate &Pred = Preds.front();
    bool StrAt =
        Pred.Kind == PredKind::StrAtEq || Pred.Kind == PredKind::StrAtNe;
    if (!HasIntSide)
      HayLenAbove = -1;
    else if (StrAt && !Approximated)
      HayLenAbove = hayLenLowerBound(NF, D, Pred);
    // Every hit at i satisfies |S| > k only for k ≤ i; for i < 0 such a
    // bound holds outright.
    if (HayLenAbove && StrAt) {
      int64_t I = Pred.AtPos.constant();
      if (*HayLenAbove > I)
        HayLenAbove.reset();
      else if (I < 0)
        HayLenAbove = -1;
    }
  }
  if (HayLenAbove) {
    counter::OneCounterOptions OcOpts;
    OcOpts.Budget = &Child;
    OcOpts.Certify = CertOut != nullptr;
    counter::OneCounterResult Oc = counter::decideSinglePredicate(
        Langs, Preds.front(), NF.Sigma.size(), OcOpts, *HayLenAbove);
    RootCharged = Child.memCharged();
    Root.chargeMem(RootCharged);
    if (Oc.Stop != StopReason::None) {
      ++Stats.BudgetTrips;
      Stop.note(Oc.Stop, Child.tripSite());
      return Verdict::Unknown;
    }
    if (Oc.V == Verdict::Unsat) {
      ++Stats.FastPathDecisions;
      if (CertOut && Oc.Cert) {
        // A str.at refutation: the kernel re-decides its walk graph.
        CertOut->Walk = std::move(Oc.Cert);
      } else if (CertOut) {
        // The mixed-root ≠ / ¬prefixof / ¬suffixof searches (Thm. 7.1)
        // are a trusted engine; their refutation is recorded by name
        // (proof/Proof.h).
        CertOut->IsRule = true;
        CertOut->Rule = "one-counter";
      }
      return Verdict::Unsat;
    }
    if (Oc.V == Verdict::Sat && Oc.Model) {
      ++Stats.FastPathDecisions;
      return Accept(std::move(*Oc.Model), {});
    }
  }

  ++Stats.MpCalls;
  tagaut::MpOptions MpOpts = Opts.Mp;
  MpOpts.Certify = CertOut != nullptr;
  MpOpts.Budget = &Child;
  tagaut::MpResult R =
      tagaut::solveMP(Langs, Preds, NF.Sigma.size(), Ints, MpOpts);
  Stats.UsedMbqi |= R.UsedMbqi;
  Stats.Qf += R.Qf;
  // Root-level accounting: the disjunct's cumulative charges count
  // against the root cap too (the run loop's probe notices the trip).
  Root.chargeMem(Child.memCharged() - RootCharged);
  if (R.V == Verdict::Unknown && R.Stop != StopReason::None) {
    ++Stats.BudgetTrips;
    Stop.note(R.Stop, R.StopSite ? R.StopSite : Child.tripSite());
  }

  if (R.V == Verdict::Sat)
    return Accept(std::move(R.Assignment), R.Ints);
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
  if (FirstFail.Failed)
    R.Validation = FirstFail;

  // Paranoid mode: cross-check Unsat against the bounded enumeration
  // oracle. Its Sat is evaluator-certified, so a hit is a proven wrong
  // Unsat — demote and say so.
  if (R.V == Verdict::Unsat &&
      (Opts.ParanoidUnsatCheck || paranoidSelfCheckEnv())) {
    ++R.Stats.ParanoidChecks;
    EnumOptions EO;
    EO.MaxWordLen = ParanoidWordLen;
    Budget ParanoidBud(Budget::Limits{0, 0, ParanoidSteps, nullptr});
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

  NF = normalize(P);

  // Stabilization runs directly on the root budget (its growth — automata
  // products, subset constructions — is charged there).
  eq::StabilizeOptions StabOpts = Opts.Stabilize;
  StabOpts.Budget = &Root;
  eq::StabilizeResult Stab =
      eq::stabilize(NF.Langs, NF.Equations, NF.NextFresh, StabOpts);
  Stats.Disjuncts = static_cast<uint32_t>(Stab.Disjuncts.size());
  Stats.StabilizationIncomplete = !Stab.Complete;
  CertifyOn = Opts.CertifyUnsat || certifySelfCheckEnv();
  CertComplete = Stab.Complete;
  if (CertifyOn)
    Certs.assign(Stab.Disjuncts.size(), proof::DisjunctCert());
  // A stop the root budget did not trip is stabilization's own fuel or
  // disjunct cap running out.
  if (!Stab.Complete && Stab.Stop != StopReason::None)
    Stop.note(Stab.Stop, Root.exceeded() ? Root.tripSite() : "eq.stabilize");

  // The decompositions are decided one after another (Sec. 8): the first
  // Sat answers, and Unsat needs every disjunct refuted.
  bool AnyUnknown = !Stab.Complete;
  for (size_t I = 0; I < Stab.Disjuncts.size(); ++I) {
    if (stopped()) {
      AnyUnknown = true;
      break;
    }
    Verdict V = solveDisjunct(Stab.Disjuncts[I], Result,
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
    Stop.surface(Result);
  Result.Stats = Stats;
  return Result;
}

} // namespace

SolveResult postr::solver::solveProblem(const Problem &P,
                                        const SolveOptions &Opts) {
  Pipeline Pipe(P, Opts);
  return Pipe.run();
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

const char *postr::solver::unknownReason(const SolveResult &R) {
  if (R.Validation.Failed)
    return "self-check failed";
  return R.Stop != StopReason::None ? stopReasonName(R.Stop) : "incomplete";
}

std::string postr::solver::modelLines(const SolveResult &R,
                                      const Problem &P) {
  std::string Out;
  if (R.V == Verdict::Sat)
    for (const auto &[X, W] : R.Words)
      if (X < P.numStrVars())
        Out += "; " + P.strVarName(X) + " has length " +
               std::to_string(W.size()) + "\n";
  return Out;
}

std::string postr::solver::statsLine(const SolveResult &R) {
  const SolveStats &S = R.Stats;
  const lia::QfSearchStats &Q = S.Qf;
  JsonObject J;
  J.str("stop_reason", stopReasonName(R.Stop))
      .str("stop_site", R.StopSite.empty() ? nullptr : R.StopSite.c_str())
      .num("disjuncts", S.Disjuncts)
      .flag("stabilization_incomplete", S.StabilizationIncomplete)
      .num("mp_calls", S.MpCalls)
      .num("fastpath_decisions", S.FastPathDecisions)
      .num("budget_trips", S.BudgetTrips)
      .num("models_validated", S.ModelsValidated)
      .num("validation_failures", S.ValidationFailures)
      .num("paranoid_checks", S.ParanoidChecks)
      .open("proof_counters")
      .num("unsats_certified", S.UnsatsCertified)
      .num("certification_failures", S.CertificationFailures)
      .close()
      .open("qf")
      .num("solves", Q.Solves)
      .num("bland_solves", Q.BlandSolves)
      .num("atoms", Q.Atoms)
      .num("conflicts", Q.Conflicts)
      .num("propagations", Q.Propagations)
      .num("decisions", Q.Decisions)
      .num("restarts", Q.Restarts)
      .num("reductions", Q.Reductions)
      .num("clauses_deleted", Q.ClausesDeleted)
      .num("theory_conflicts", Q.TheoryConflicts)
      .num("pivots", Q.Pivots)
      .num("checks", Q.Checks)
      .num("row_fill_in", Q.RowFillIn)
      .num("max_row_nnz", Q.MaxRowNnz)
      .num("rows_eliminated", Q.RowsEliminated)
      .num("entries_merged", Q.EntriesMerged)
      .num("den_normalizations", Q.DenNormalizations)
      .num("budget_trips", Q.BudgetTrips)
      .close();
  return "; stats " + J.text() + "\n";
}
