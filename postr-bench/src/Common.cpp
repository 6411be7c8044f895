//===- postr-bench/src/Common.cpp - Gate, recorded lists, report ----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "proof/Check.h"
#include "smtlib/Printer.h"
#include "strings/Eval.h"
#include "strings/Normalize.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace pbench;
using namespace postr;

const char *const pbench::WarmUpQueries[2] = {
    "(declare-fun x () String)\n"
    "(assert (str.in_re x (re.* (str.to_re \"ab\"))))\n"
    "(assert (not (= x \"ab\")))\n(check-sat)\n",
    "(declare-fun x () String)\n(declare-fun y () String)\n"
    "(assert (str.in_re x (re.* (str.to_re \"a\"))))\n"
    "(assert (str.in_re y (re.* (str.to_re \"a\"))))\n"
    "(assert (not (= (str.++ x y) (str.++ y x))))\n(check-sat)\n",
};

std::vector<Recorded> pbench::readRecorded(const std::string &Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "postr-bench: cannot read %s\n", Path.c_str());
    std::exit(2);
  }
  std::vector<Recorded> Out;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    Recorded R;
    std::string V;
    if (!(Fields >> R.Workload >> R.Family >> R.Seed >> R.Index >> V >>
          R.DefineMs) ||
        (V != "sat" && V != "unsat" && V != "unknown")) {
      std::fprintf(stderr, "postr-bench: malformed line in %s: %s\n",
                   Path.c_str(), Line.c_str());
      std::exit(2);
    }
    R.Expected = V == "sat"     ? Verdict::Sat
                 : V == "unsat" ? Verdict::Unsat
                                : Verdict::Unknown;
    Out.push_back(R);
  }
  return Out;
}

std::vector<Query> pbench::recordedQueries(const std::vector<Recorded> &All,
                                           const std::string &Workload) {
  // Footnote-10 entries name a draw of the position generator by seed
  // and index: draw each seed's prefix once.
  std::map<uint32_t, std::vector<Query>> Drawn;
  for (const Recorded &R : All)
    if (R.Workload == Workload && R.Family == "footnote10") {
      std::vector<Query> &D = Drawn[R.Seed];
      if (D.size() <= R.Index)
        D.resize(R.Index + 1);
    }
  for (auto &[Seed, D] : Drawn)
    D = positionQueries(Seed, static_cast<uint32_t>(D.size()));

  std::vector<Query> Out;
  for (const Recorded &R : All) {
    if (R.Workload != Workload)
      continue;
    Query Q;
    Q.Expected = R.Expected;
    Q.Label = R.Family + "/" + std::to_string(R.Seed) + "/" +
              std::to_string(R.Index);
    if (R.Family == "footnote10") {
      const std::vector<Query> &D = Drawn[R.Seed];
      Q.Text = D[R.Index].Text;
      if (D[R.Index].Expected != R.Expected) {
        std::fprintf(stderr, "postr-bench: %s: the generator's verdict "
                             "differs from the recorded one\n",
                     Q.Label.c_str());
        std::exit(2);
      }
    } else {
      bool Known = false;
      for (bench::Family F : {bench::Family::Biopython,
                              bench::Family::Django, bench::Family::Thefuck})
        if (R.Family == bench::familyName(F)) {
          Q.Text = smtlib::printProblem(bench::generate(F, R.Seed, R.Index));
          Known = true;
        }
      if (!Known) {
        std::fprintf(stderr, "postr-bench: unknown family %s\n",
                     R.Family.c_str());
        std::exit(2);
      }
    }
    Out.push_back(std::move(Q));
  }
  if (Out.empty()) {
    std::fprintf(stderr, "postr-bench: no recorded %s queries\n",
                 Workload.c_str());
    std::exit(2);
  }
  return Out;
}

GateResult pbench::gate(const Query &Q, const strings::Problem &P,
                        const solver::SolveResult &R, bool Certified) {
  GateResult G;
  auto Fail = [&G](std::string Why) {
    G.Ok = false;
    G.Why = std::move(Why);
  };
  if (R.V == Verdict::Unknown) {
    if (Q.Expected != Verdict::Unknown)
      Fail("unexpected unknown");
    else if (R.Stop != StopReason::Timeout)
      Fail(std::string("unknown without a timeout: ") +
           stopReasonName(R.Stop));
    return G;
  }
  if (Q.Expected != Verdict::Unknown && R.V != Q.Expected) {
    Fail(std::string("wrong verdict ") + verdictName(R.V));
    return G;
  }

  if (R.V == Verdict::Sat) {
    Clock::time_point T0 = Clock::now();
    strings::NormalForm NF = strings::normalize(P);
    strings::ConcreteEvaluator E(P, NF.Sigma);
    bool Holds = E.evalAll(R.Words, R.Ints);
    G.EvalMs = msSince(T0);
    if (!Holds)
      Fail("sat model falsifies the problem");
    return G;
  }

  // Unsat. With certification on, the solver must have attached a
  // certificate, and it is re-checked here; an uncertified Unsat where
  // none was expected (a deadline query that finished) is certified now,
  // so no Unsat is taken on trust.
  std::string Cert = R.CertText;
  if (Cert.empty() && Certified) {
    Fail("unsat without a certificate");
    return G;
  }
  if (Cert.empty() && Q.Expected == Verdict::Unknown) {
    solver::SolveOptions O;
    O.TimeoutMs = GenerousCapMs;
    O.CertifyUnsat = true;
    Cert = solver::solveProblem(P, O).CertText;
    if (Cert.empty()) {
      Fail("unsat not reproduced with a certificate");
      return G;
    }
  }
  if (Cert.empty())
    return G;
  Clock::time_point T0 = Clock::now();
  Result<proof::Certificate> C = proof::parse(Cert);
  proof::CheckOutcome CO;
  if (C)
    CO = proof::checkCertificate(*C);
  G.CheckMs = msSince(T0);
  G.CertBytes = Cert.size();
  G.Refutations = CO.Stats.CheckedRefutations;
  G.TrustedRules = CO.Stats.TrustedRules;
  if (!C)
    Fail("certificate does not parse: " + C.error());
  else if (!CO.Ok)
    Fail("certificate rejected: " + CO.Error);
  return G;
}

void Report::add(const std::string &Name, double Value,
                 const std::string &Unit, const std::string &Note) {
  Metrics.push_back({Name, Unit, Note, Value});
}

namespace {

struct MetricDef {
  const char *Name, *Unit;
};

/// The per-layer metrics (BENCHMARK.json's per_layer), in report order.
const MetricDef LayerMetrics[] = {
    {"smtlib.parse_ms", "ms"},
    {"smtlib.print_ms", "ms"},
    {"strings.normalize_ms", "ms"},
    {"eq.stabilize_ms", "ms"},
    {"eq.disjuncts", "count"},
    {"eq.incomplete", "count"},
    {"automata.ops", "count"},
    {"automata.op_ms", "ms"},
    {"automata.tripped_ops", "count"},
    {"automata.out_states", "count"},
    {"solver.solve_ms", "ms"},
    {"solver.disjunct_ms", "ms"},
    {"solver.mp_calls", "count"},
    {"solver.budget_trips", "count"},
    {"solver.degraded_retries", "count"},
    {"solver.models_validated", "count"},
    {"counter.fastpath_decisions", "count"},
    {"counter.fastpath_ms", "ms"},
    {"tagaut.mp_ms", "ms"},
    {"lia.mbqi_candidates", "count"},
    {"lia.mbqi_outer_solves", "count"},
    {"lia.mbqi_inner_queries", "count"},
    {"lia.mbqi_context_reuses", "count"},
    {"selfcheck.eval_ms", "ms"},
    {"proof.cert_bytes", "bytes"},
    {"proof.check_ms", "ms"},
    {"proof.refutations", "count"},
    {"proof.trusted_rules", "count"},
    {"proof.trusted_share", "ratio"},
    {"proof.certification_failures", "count"},
    {"serve.ping_rtt_ms", "ms"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.hit_rate", "ratio"},
    {"serve.cache_entries", "count"},
    {"serve.cache_bytes", "bytes"},
    {"serve.evictions", "count"},
    {"serve.quarantines", "count"},
    {"serve.worker_kills", "count"},
    {"serve.shed", "count"},
    {"budget.timeouts", "count"},
    {"overrun_p50_ms", "ms"},
    {"decided_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

} // namespace

void Report::addLayers(const std::map<std::string, double> &Values) {
  for (const MetricDef &M : LayerMetrics) {
    auto It = Values.find(M.Name);
    add(M.Name, It == Values.end() ? 0.0 : It->second, M.Unit);
  }
  for (const auto &[Name, V] : Values) {
    bool Known = false;
    for (const MetricDef &M : LayerMetrics)
      Known |= Name == M.Name;
    if (!Known) {
      std::fprintf(stderr, "postr-bench: unlisted layer metric %s\n",
                   Name.c_str());
      std::exit(2);
    }
  }
}

void Report::addLatencies(const std::vector<double> &Ms,
                          const std::vector<size_t> &Keys, int Clients,
                          double WallS) {
  std::map<size_t, double> Fastest;
  for (size_t I = 0; I < Ms.size(); ++I) {
    auto [It, New] = Fastest.emplace(Keys[I], Ms[I]);
    if (!New)
      It->second = std::min(It->second, Ms[I]);
  }
  std::vector<double> Lat;
  double SumMs = 0;
  for (size_t K : Keys) {
    Lat.push_back(Fastest[K]);
    SumMs += Lat.back();
  }
  const double N = static_cast<double>(Lat.size());
  std::string Count = "n=" + std::to_string(Lat.size()) + " answers of " +
                      std::to_string(Fastest.size()) +
                      " keys, each its key's fastest";
  add("latency_p50_ms", percentile(Lat, 0.5), "ms", Count);
  add("latency_p90_ms", percentile(Lat, 0.9), "ms",
      Count + ", " + std::to_string(static_cast<size_t>(N / 10)) +
          " beyond p90");
  add("queries_per_s", Clients * N / (SumMs / 1000.0), "1/s",
      std::to_string(Clients) + " client(s) / mean fastest latency");
  note("as measured: p50 " + std::to_string(percentile(Ms, 0.5)) +
       " ms, p90 " + std::to_string(percentile(Ms, 0.9)) + " ms, " +
       std::to_string(N / WallS) + " answers per timed-wall second");
}

void Report::note(const std::string &Line) { Notes.push_back(Line); }

void Report::print(bool Correct, uint64_t Attempted, uint64_t Failed) const {
  for (const std::string &Line : Notes)
    std::printf("# %s\n", Line.c_str());
  for (const Metric &M : Metrics)
    std::printf("# %-28s %14.4f %-6s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", Metrics[I].Value);
    J += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " + Num +
         ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

int pbench::passesFor(double Seconds, double PassCostMs) {
  if (PassCostMs <= 0)
    return MinPasses;
  return std::max(MinPasses, static_cast<int>(std::lround(
                                 Seconds * 1000.0 / PassCostMs)));
}

double pbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double pbench::peakRssMiB(bool Children) {
  rusage U = {};
  getrusage(Children ? RUSAGE_CHILDREN : RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}
