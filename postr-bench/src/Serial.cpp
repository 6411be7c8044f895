//===- postr-bench/src/Serial.cpp - One-client in-process workloads -------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// solve-mix, position and deadline: one client, closed loop, each query
// text in → verdict out through smtlib::parseString + solveProblem, the
// one-shot path smtlib_cli takes. The traced run re-times each layer
// from outside by calling its public entry points around the solve.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "automata/Nfa.h"
#include "lia/Mbqi.h"
#include "smtlib/Reader.h"
#include "strings/Normalize.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <malloc.h>
#include <optional>
#include <random>
#include <sched.h>

using namespace pbench;
using namespace postr;

namespace {

struct Workload {
  std::vector<Query> Queries;
  solver::SolveOptions Opts;
  uint64_t CapMs = GenerousCapMs;
  double PassCostMs = 0; ///< recorded answer times of one pass
};

Workload buildWorkload(const RunArgs &A) {
  Workload W;
  std::vector<Recorded> All = readRecorded(A.Instances);
  W.Queries = recordedQueries(All, A.Workload);
  for (const Recorded &R : All)
    if (R.Workload == A.Workload)
      W.PassCostMs += R.DefineMs;
  std::mt19937_64 Rng(A.Seed);
  std::shuffle(W.Queries.begin(), W.Queries.end(), Rng);
  W.Opts.CertifyUnsat = A.Workload == "position";
  W.CapMs = A.Workload == "deadline" ? DeadlineCapMs : GenerousCapMs;
  W.Opts.TimeoutMs = W.CapMs;
  return W;
}

/// Generates the inputs and runs the warm-up queries.
Workload setUp(const RunArgs &A) {
  Workload W = buildWorkload(A);
  for (const char *Text : WarmUpQueries)
    if (Result<strings::Problem> P = smtlib::parseString(Text))
      solver::solveProblem(*P, W.Opts);
  return W;
}

/// What one query produced, untraced.
struct Answer {
  size_t Query = 0; ///< index into Workload::Queries
  double Ms = 0;    ///< text in → verdict out
  bool Decided = false;
  bool TimedOut = false;
  bool Failed = false;
};

/// Counters and busy times of the traced pass (per-layer metrics).
struct Layers {
  double ParseMs = 0, NormalizeMs = 0, StabilizeMs = 0, SolveMs = 0,
         DisjunctMs = 0, FastPathMs = 0, MpMs = 0, EvalMs = 0, CheckMs = 0,
         OpMs = 0;
  uint64_t Disjuncts = 0, Incomplete = 0, Ops = 0, TrippedOps = 0,
           OutStates = 0, MpCalls = 0, BudgetTrips = 0, DegradedRetries = 0,
           ModelsValidated = 0, FastPathDecisions = 0, CertBytes = 0,
           Refutations = 0, TrustedRules = 0, CertFailures = 0, Timeouts = 0;
  lia::MbqiStats Mbqi;
};

/// Counts the automata layer's memoizable operations: each lookup that
/// is followed by a stage is one completed op (timed between the two); a
/// lookup with no stage before the next lookup or the end of the solve
/// is an op the budget tripped. Never answers a lookup, so the solve runs
/// exactly as it does unhooked.
class CountingHook : public automata::NfaOpHook {
public:
  explicit CountingHook(Layers &L) : L(L) {}
  std::optional<automata::Nfa> lookup(automata::NfaOp, const automata::Nfa &,
                                      const automata::Nfa *) override {
    finish();
    Pending = true;
    T0 = Clock::now();
    return std::nullopt;
  }
  void stage(automata::NfaOp, const automata::Nfa &, const automata::Nfa *,
             const automata::Nfa &Out) override {
    if (!Pending)
      return;
    Pending = false;
    ++L.Ops;
    L.OpMs += msSince(T0);
    L.OutStates += Out.numStates();
  }
  void finish() {
    if (Pending)
      ++L.TrippedOps;
    Pending = false;
  }

private:
  Layers &L;
  bool Pending = false;
  Clock::time_point T0;
};

/// Moves the process between the CPUs it may run on, and back to its
/// original CPU set at the end. On a host whose CPUs run at
/// different speeds, a single-threaded run would otherwise take the speed
/// of whichever CPU the scheduler happened to start it on; rotating makes
/// every run sample all of them alike.
class CpuRotation {
public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(Original), &Original) != 0)
      return;
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Original))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (Cpus.size() > 1)
      sched_setaffinity(0, sizeof(Original), &Original);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  /// Moves the process to the \p K-th CPU (modulo their number).
  void moveTo(size_t K) {
    if (Cpus.size() < 2)
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[K % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Original;
  std::vector<int> Cpus;
};

/// One query on the untraced path. The gate runs after the latency
/// window closes; its time is added to \p AsideMs so the caller can keep
/// it out of the timed wall.
Answer answer(const Workload &W, size_t Index, double &AsideMs) {
  const Query &Q = W.Queries[Index];
  Answer Ans;
  Ans.Query = Index;
  Clock::time_point T0 = Clock::now();
  Result<strings::Problem> P = smtlib::parseString(Q.Text);
  std::optional<solver::SolveResult> R;
  if (P)
    R = solver::solveProblem(*P, W.Opts);
  Ans.Ms = msSince(T0);

  Clock::time_point G0 = Clock::now();
  if (!P) {
    Ans.Failed = true;
    std::fprintf(stderr, "postr-bench: %s: parse error: %s\n",
                 Q.Label.c_str(), P.error().c_str());
  } else {
    Ans.Decided = R->V != Verdict::Unknown;
    Ans.TimedOut = R->Stop == StopReason::Timeout;
    GateResult G = gate(Q, *P, *R, W.Opts.CertifyUnsat);
    if (!G.Ok) {
      Ans.Failed = true;
      std::fprintf(stderr, "postr-bench: %s: %s\n", Q.Label.c_str(),
                   G.Why.c_str());
    }
  }
  AsideMs += msSince(G0);
  return Ans;
}

/// One query on the traced path: every layer is re-timed from outside.
/// Returns false when the gate failed.
bool traced(const Workload &W, const Query &Q, Layers &L, double &PathMs) {
  Clock::time_point T0 = Clock::now();
  Result<strings::Problem> P = smtlib::parseString(Q.Text);
  double ParseMs = msSince(T0);
  L.ParseMs += ParseMs;
  if (!P)
    return false;

  // normalize and stabilize re-called as solveProblem calls them, on a
  // budget with the query's cap.
  T0 = Clock::now();
  strings::NormalForm NF = strings::normalize(*P);
  double NormMs = msSince(T0);
  Budget StabBud(Budget::Limits{W.CapMs, 0, 0, nullptr});
  eq::StabilizeOptions SO = W.Opts.Stabilize;
  SO.Budget = &StabBud;
  VarId Next = NF.NextFresh;
  T0 = Clock::now();
  eq::StabilizeResult SR = eq::stabilize(NF.Langs, NF.Equations, Next, SO);
  double StabMs = msSince(T0);
  L.NormalizeMs += NormMs;
  L.StabilizeMs += StabMs;
  L.Disjuncts += SR.Disjuncts.size();
  L.Incomplete += SR.Complete ? 0 : 1;

  solver::SolveOptions Opts = W.Opts;
  Opts.Mp.Mbqi.Stats = &L.Mbqi;
  CountingHook Hook(L);
  solver::SolveResult R;
  T0 = Clock::now();
  {
    automata::NfaOpHookScope Scope(&Hook);
    R = solver::solveProblem(*P, Opts);
  }
  double SolveMs = msSince(T0);
  Hook.finish();
  PathMs += ParseMs + SolveMs;

  double DisjunctMs = SolveMs - NormMs - StabMs;
  L.SolveMs += SolveMs;
  L.DisjunctMs += DisjunctMs;
  L.MpCalls += R.Stats.MpCalls;
  L.BudgetTrips += R.Stats.BudgetTrips;
  L.DegradedRetries += R.Stats.DegradedRetries;
  L.ModelsValidated += R.Stats.ModelsValidated;
  L.FastPathDecisions += R.Stats.FastPathDecisions;
  L.CertFailures += R.Stats.CertificationFailures;
  if (R.Stats.MpCalls > 0)
    L.MpMs += DisjunctMs;
  else if (R.Stats.FastPathDecisions > 0)
    L.FastPathMs += DisjunctMs;
  if (R.Stop == StopReason::Timeout)
    ++L.Timeouts;

  GateResult G = gate(Q, *P, R, W.Opts.CertifyUnsat);
  L.EvalMs += G.EvalMs;
  L.CheckMs += G.CheckMs;
  L.CertBytes += G.CertBytes;
  L.Refutations += G.Refutations;
  L.TrustedRules += G.TrustedRules;
  if (!G.Ok)
    std::fprintf(stderr, "postr-bench: %s: %s\n", Q.Label.c_str(),
                 G.Why.c_str());
  malloc_trim(0); // as between untraced queries
  return G.Ok;
}

/// \p Passes untraced passes over the workload, each in a new seeded
/// order; query I of pass P is answered on CPU I + P, so consecutive
/// passes move every query across all CPUs. \p Between runs after each
/// answer. Returns the timed wall in seconds: the gate's and \p Between's
/// time is kept out of it.
double untracedPasses(const Workload &W, uint64_t Seed, int Passes,
                      std::vector<Answer> &Out,
                      const std::function<void()> &Between) {
  std::vector<size_t> Order(W.Queries.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::mt19937_64 Rng(Seed ^ 0x5a5a5a5aull);
  CpuRotation Cpus;
  double WallS = 0;
  for (int Pass = 0; Pass < Passes; ++Pass) {
    if (Pass > 0)
      std::shuffle(Order.begin(), Order.end(), Rng);
    double AsideMs = 0;
    Clock::time_point T0 = Clock::now();
    for (size_t I : Order) {
      Clock::time_point A0 = Clock::now();
      Cpus.moveTo(I + static_cast<size_t>(Pass));
      AsideMs += msSince(A0);
      Out.push_back(answer(W, I, AsideMs));
      A0 = Clock::now();
      Between();
      // Hand the freed heap back to the system, so every query starts
      // from the same allocator state, as in the fresh process the
      // one-shot CLI gives each query, not from whatever the previous
      // query left behind.
      malloc_trim(0);
      AsideMs += msSince(A0);
    }
    WallS += (msSince(T0) - AsideMs) / 1000.0;
  }
  return WallS;
}

std::string count(size_t N) { return "n=" + std::to_string(N); }

} // namespace

int pbench::runSerial(const RunArgs &A) {
  // Set-up is timed several times before the measurement and then every
  // SetupEveryMs during it, between two queries and outside the timed
  // window. The median is reported: the set-ups sample the same stretch
  // of the host as the queries, so neither one slow start nor the CPU
  // the run began on moves the metric.
  std::vector<double> SetupS;
  auto TimedSetUp = [&] {
    malloc_trim(0); // each set-up starts from the same allocator state
    Clock::time_point T0 = Clock::now();
    Workload Fresh = setUp(A);
    SetupS.push_back(msSince(T0) / 1000.0);
    return Fresh;
  };
  Workload W;
  for (int I = 0; I < SetupsBefore; ++I)
    W = TimedSetUp();

  // A timed run makes the passes its --seconds buy at the recorded
  // answer times; a traced run makes one, its overhead baseline.
  std::vector<Answer> Answers;
  Clock::time_point LastSetUp = Clock::now();
  auto SetUpNow = [&] {
    if (msSince(LastSetUp) < SetupEveryMs)
      return;
    TimedSetUp();
    LastSetUp = Clock::now();
  };
  double WallS =
      A.Trace ? untracedPasses(W, A.Seed, 1, Answers, [] {})
              : untracedPasses(W, A.Seed, passesFor(A.Seconds, W.PassCostMs),
                               Answers, SetUpNow);
  std::vector<double> Ms, Overrun;
  std::vector<size_t> Keys;
  uint64_t Failed = 0, Decided = 0;
  for (const Answer &Ans : Answers) {
    Ms.push_back(Ans.Ms);
    Keys.push_back(Ans.Query);
    Failed += Ans.Failed;
    Decided += Ans.Decided;
    if (Ans.TimedOut)
      Overrun.push_back(Ans.Ms - static_cast<double>(W.CapMs));
  }
  const double N = static_cast<double>(Answers.size());
  Report Rep;
  Rep.note(A.Workload + ": " + std::to_string(W.Queries.size()) +
           " distinct queries, " + count(Answers.size()) + " answers, cap " +
           std::to_string(W.CapMs) + " ms");
  Rep.note("failed_share " + std::to_string(Failed / N) +
           " ratio; decided_share " + std::to_string(Decided / N) +
           " ratio; overrun_p50_ms " +
           (Overrun.empty() ? std::string("n/a")
                            : std::to_string(percentile(Overrun, 0.5))) +
           " ms (" + count(Overrun.size()) + ")");

  if (!A.Trace) {
    Rep.add("setup_s", percentile(SetupS, 0.5), "s",
            "median of " + std::to_string(SetupS.size()) + " set-ups");
    Rep.addLatencies(Ms, Keys, 1, WallS);
    Rep.add("peak_rss_mb", peakRssMiB(false), "MiB");
    Rep.print(Failed == 0, Answers.size(), Failed);
    return 0;
  }

  // Traced run: one untraced pass above (the overhead baseline), then
  // one traced pass over the same queries in the same order, so every
  // count repeats exactly for a seed.
  double BaseMs = 0;
  for (double T : Ms)
    BaseMs += T;
  Layers L;
  double PathMs = 0;
  uint64_t TracedFailed = 0;
  CpuRotation Cpus; // each query on the CPU of its untraced answer
  for (size_t I = 0; I < W.Queries.size(); ++I) {
    Cpus.moveTo(I);
    TracedFailed += traced(W, W.Queries[I], L, PathMs) ? 0 : 1;
  }

  auto D = [](uint64_t V) { return static_cast<double>(V); };
  const double Closed = D(L.Refutations + L.TrustedRules);
  Rep.note("trace overhead: traced parse+solve " + std::to_string(PathMs) +
           " ms vs untraced " + std::to_string(BaseMs) + " ms");
  Rep.addLayers({
      {"smtlib.parse_ms", L.ParseMs},
      {"strings.normalize_ms", L.NormalizeMs},
      {"eq.stabilize_ms", L.StabilizeMs},
      {"eq.disjuncts", D(L.Disjuncts)},
      {"eq.incomplete", D(L.Incomplete)},
      {"automata.ops", D(L.Ops)},
      {"automata.op_ms", L.OpMs},
      {"automata.tripped_ops", D(L.TrippedOps)},
      {"automata.out_states", D(L.OutStates)},
      {"solver.solve_ms", L.SolveMs},
      {"solver.disjunct_ms", L.DisjunctMs},
      {"solver.mp_calls", D(L.MpCalls)},
      {"solver.budget_trips", D(L.BudgetTrips)},
      {"solver.degraded_retries", D(L.DegradedRetries)},
      {"solver.models_validated", D(L.ModelsValidated)},
      {"counter.fastpath_decisions", D(L.FastPathDecisions)},
      {"counter.fastpath_ms", L.FastPathMs},
      {"tagaut.mp_ms", L.MpMs},
      {"lia.mbqi_candidates", D(L.Mbqi.Candidates)},
      {"lia.mbqi_outer_solves", D(L.Mbqi.OuterSolves)},
      {"lia.mbqi_inner_queries", D(L.Mbqi.InnerQueries)},
      {"lia.mbqi_context_reuses", D(L.Mbqi.ContextReuses)},
      {"selfcheck.eval_ms", L.EvalMs},
      {"proof.cert_bytes", D(L.CertBytes)},
      {"proof.check_ms", L.CheckMs},
      {"proof.refutations", D(L.Refutations)},
      {"proof.trusted_rules", D(L.TrustedRules)},
      {"proof.trusted_share", Closed > 0 ? D(L.TrustedRules) / Closed : 0},
      {"proof.certification_failures", D(L.CertFailures)},
      {"budget.timeouts", D(L.Timeouts)},
      {"overrun_p50_ms", Overrun.empty() ? 0 : percentile(Overrun, 0.5)},
      {"decided_share", Decided / N},
      {"trace.overhead_pct", BaseMs > 0 ? (PathMs / BaseMs - 1) * 100 : 0},
  });
  Rep.print(Failed + TracedFailed == 0, Answers.size() + W.Queries.size(),
            Failed + TracedFailed);
  return 0;
}
