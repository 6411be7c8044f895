//===- solver/PositionSolver.h - The Z3-Noodler-pos pipeline -----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full solving pipeline the paper evaluates as Z3-Noodler-pos
/// (Sec. 8): normalize to E ∧ R ∧ I ∧ P, run the stabilization-based
/// procedure on E ∧ R to obtain monadic decompositions, and for each
/// decomposition decide the substituted position constraints with the
/// tag-automaton/LIA procedure — with the PTime one-counter fast path
/// for a lone ≠/¬prefixof/¬suffixof (Thm. 7.1) and the Sec. 8 heuristics
/// in front of non-flat ¬contains. Variables of a decomposition that no
/// predicate or integer term reads are projected out first: each takes
/// a shortest word of its language.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SOLVER_POSITIONSOLVER_H
#define POSTR_SOLVER_POSITIONSOLVER_H

#include "counter/OneCounter.h"
#include "eq/Stabilize.h"
#include "proof/Check.h"
#include "strings/Normalize.h"
#include "tagaut/MpSolver.h"

#include <functional>
#include <map>

namespace postr {
namespace solver {

/// Test-only hook: mutates a Sat model before the self-check validates
/// it. Fuzz/unit tests install this to prove that a corrupted model is
/// caught and surfaced as a ValidationFailure rather than returned as
/// Sat. Never set in production paths.
using ModelTamperHook = std::function<void(
    std::map<VarId, Word> &, std::map<strings::IntVarId, int64_t> &)>;

/// Test-only hook: mutates an assembled Unsat certificate before it is
/// serialized and re-checked. Fuzz/unit tests install this to prove that
/// a corrupted certificate is rejected by the independent kernel and
/// demoted to Unknown rather than reported as certified. Never set in
/// production paths.
using CertTamperHook = std::function<void(proof::Certificate &)>;

struct SolveOptions {
  /// Overall deadline in milliseconds (0 = none).
  uint64_t TimeoutMs = 0;
  /// Explicit memory-accounting cap in bytes (0 = none), charged at the
  /// growth sites — automata states/transitions, subset-construction
  /// maps, Simplex tableau rows, CDCL clause DB, encoder variable blocks.
  /// Accounting is cumulative (freed structures are not credited back),
  /// so the cap bounds total allocation, not the high-water mark. Each
  /// disjunct gets the full cap (their arenas are independent and freed
  /// when the disjunct finishes).
  uint64_t MemLimitBytes = 0;
  /// Abstract step budget per disjunct (0 = none): every budget probe in
  /// the engines consumes one step, giving a deterministic, wall-clock-
  /// independent resource bound (useful for tests and reproducible runs).
  uint64_t StepLimit = 0;
  /// Optional caller-owned shared budget (base/Budget.h). The pipeline's
  /// root budget is its child (callLimits): TimeoutMs, MemLimitBytes and
  /// StepLimit tighten what it inherits, and a trip or a raised cancel
  /// flag up the chain stops the solve at its next probe.
  postr::Budget *Budget = nullptr;
  /// Stabilization's fuel and disjunct caps. Its Budget is overwritten
  /// with the root budget, so StepLimit/TimeoutMs/Budget govern it.
  eq::StabilizeOptions Stabilize;
  /// solveMP's options. The pipeline sets Budget (each disjunct's child)
  /// and Certify (from CertifyUnsat); only Mbqi.Stats is the caller's.
  tagaut::MpOptions Mp;
  /// Use the PTime one-counter path when eligible (Thm. 7.1). Its Sat
  /// answers carry the walk they found as the model.
  bool UseOcaFastPath = true;
  /// Cross-check every Unsat against the bounded enumeration oracle
  /// (solver::solveEnum). If the oracle finds a certified model, the
  /// Unsat is demoted to Unknown with a ValidationFailure diagnostic.
  /// Expensive; also enabled process-wide by POSTR_SELFCHECK=paranoid.
  bool ParanoidUnsatCheck = false;
  /// Certify every Unsat verdict: each disjunct records a refutation
  /// (full DRUP + Farkas clause trace on the QF-LIA path, named
  /// trusted-rule records for the automata shortcuts / one-counter /
  /// MBQI paths), the per-disjunct refutations are composed into a
  /// whole-problem certificate, and the certificate is serialized,
  /// re-parsed, and verified in-process by the independent checker
  /// kernel (proof/Check.h). A rejected certificate demotes the verdict
  /// to Unknown with a `certification failure:` diagnostic — a certified
  /// Unsat is never taken on the solver's word alone. Also enabled
  /// process-wide by POSTR_SELFCHECK=certify. The accepted (or rejected)
  /// certificate text is returned in SolveResult::CertText.
  bool CertifyUnsat = false;
  /// Test-only model corruption hook (see ModelTamperHook).
  ModelTamperHook TamperModel;
  /// Test-only certificate corruption hook (see CertTamperHook).
  CertTamperHook TamperCert;
};

struct SolveStats {
  uint32_t Disjuncts = 0;
  uint32_t FastPathDecisions = 0;
  /// Disjuncts that reached solveMP (one call each).
  uint32_t MpCalls = 0;
  /// Disjuncts whose answer was a budget-tripped Unknown.
  uint32_t BudgetTrips = 0;
  /// Always 0: each disjunct is solved once (kept for postr-bench).
  uint32_t DegradedRetries = 0;
  /// A solveMP call reached the MBQI loop.
  bool UsedMbqi = false;
  bool UsedApproximation = false;
  bool StabilizationIncomplete = false;
  /// Sat models run through the concrete-evaluation self-check, which
  /// every Sat path takes; an invalid model is demoted to Unknown with
  /// SolveResult::Validation filled in.
  uint32_t ModelsValidated = 0;
  /// Self-check rejections: invalid Sat models caught (and demoted to
  /// Unknown), plus paranoid Unsat cross-checks that found a model.
  uint32_t ValidationFailures = 0;
  /// Unsat verdicts cross-checked against the enumeration oracle.
  uint32_t ParanoidChecks = 0;
  /// Unsat verdicts whose composed certificate the independent checker
  /// kernel accepted (CertifyUnsat / POSTR_SELFCHECK=certify).
  uint32_t UnsatsCertified = 0;
  /// Unsat verdicts demoted to Unknown because the checker kernel
  /// rejected the certificate.
  uint32_t CertificationFailures = 0;
  /// Counters of the quantifier-free LIA solves, summed over every
  /// solveMP call (its length stage included). MBQI sub-solves are not
  /// in them (MbqiOptions::Stats collects those).
  lia::QfSearchStats Qf;
};

/// Structured self-check diagnostic. When Failed, the accompanying
/// verdict is Unknown: the pipeline produced an answer its own
/// validation layer rejected, and surfacing that beats returning it.
struct ValidationFailure {
  bool Failed = false;
  /// Index of the first assertion the Sat model falsified (~0u when the
  /// failure is a paranoid Unsat cross-check, which has no model).
  uint32_t AssertionIndex = ~0u;
  std::string Detail;
};

struct SolveResult {
  Verdict V = Verdict::Unknown;
  /// Why the verdict is Unknown when a resource ran out (Timeout /
  /// Cancelled / MemOut / StepBudget); None for determinate verdicts and
  /// for genuine incompleteness.
  StopReason Stop = StopReason::None;
  /// With Stop set, the Budget probe site that first noticed the stop
  /// (e.g. "lia.simplex", "solver.disjunct"; see faultSiteNames()), so an
  /// Unknown names the layer that noticed the cap. Empty when no probe
  /// tripped (an engine-internal cap, or a stop no probe saw).
  std::string StopSite;
  /// On Sat: words of the *original* problem variables.
  std::map<VarId, Word> Words;
  std::map<strings::IntVarId, int64_t> Ints;
  SolveStats Stats;
  /// Filled in when the self-check demoted a verdict (see
  /// ValidationFailure); Validation.Failed is false on clean runs.
  ValidationFailure Validation;
  /// With certification on, the serialized whole-problem certificate of
  /// an Unsat verdict (also kept when the kernel rejected it and the
  /// verdict was demoted, so callers can save the evidence). Empty
  /// otherwise.
  std::string CertText;
};

/// Decides a conjunction of string assertions.
SolveResult solveProblem(const strings::Problem &P,
                         const SolveOptions &Opts = {});

// The solve report. smtlib_cli and postr_serve render a SolveResult
// only through these, so one-shot and served replies agree.

/// Wall-clock cap of a solve whose caller sets none: smtlib_cli's
/// default and postr_serve's default per-request cap.
constexpr uint64_t DefaultTimeoutMs = 60000;

/// Process exit code of a solve result: 0 sat/unsat, 2 unknown with no
/// recorded reason, then one per resource stop (3 timeout, 4 cancelled,
/// 5 memout, 6 stepbudget), and 7 when the self-check rejected the
/// solver's own answer. Code 1 (parse error) is the front ends' own.
int exitCodeFor(const SolveResult &R);

/// Why an Unknown is unknown: "self-check failed", the stop reason's
/// name, or "incomplete" when nothing ran out.
const char *unknownReason(const SolveResult &R);

/// The `; <var> has length N` lines of a Sat model, one per declared
/// string variable of \p P; empty for other verdicts.
std::string modelLines(const SolveResult &R, const strings::Problem &P);

/// The `; stats {...}` comment line: stop reason and site, the SolveStats
/// counters, and the QF search counters under "qf".
std::string statsLine(const SolveResult &R);

} // namespace solver
} // namespace postr

#endif // POSTR_SOLVER_POSITIONSOLVER_H
