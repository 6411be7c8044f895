//===- postr-bench/src/Bench.h - postr-bench shared declarations -*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the postr-bench program: the query record every
/// workload produces, the recorded instance lists, the seeded input
/// generators, the correctness gate, and the metric sink that prints the
/// result line. See postr-bench/README.md for what each workload
/// measures and why.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BENCH_SRC_BENCH_H
#define POSTR_BENCH_SRC_BENCH_H

#include "base/Base.h"
#include "solver/PositionSolver.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Generous per-query cap of solve-mix, position and serve-replay: the
/// recorded solve-mix queries were each decided in under a quarter of it.
inline constexpr uint64_t GenerousCapMs = 4000;
/// Set-ups timed before the measurement, and on serve-replay after it; the
/// in-process workloads also time one every SetupEveryMs during it.
/// setup_s is the median of them all.
inline constexpr int SetupsBefore = 10, SetupsAfter = 10;
inline constexpr double SetupEveryMs = 250;
/// Fewest untraced passes of a timed run (see passesFor).
inline constexpr int MinPasses = 2;
/// Answer time that separates solve-mix's fast mode from its slow mode.
inline constexpr double SlowMs = 100;
/// The fixed cap of the deadline workload.
inline constexpr uint64_t DeadlineCapMs = 50;

/// One query as the program receives it: SMT-LIB text, plus what the
/// gate expects of it. Expected is Unknown only on the deadline
/// workload, whose queries must stop on the cap.
struct Query {
  std::string Text;
  postr::Verdict Expected = postr::Verdict::Unknown;
  std::string Label;
};

/// Two cheap fixed queries solved during set-up (the warm-up), outside
/// every measured list.
extern const char *const WarmUpQueries[2];

/// One line of postr-bench/instances.tsv.
struct Recorded {
  std::string Workload; ///< "solve-mix" (also serve-replay's pool),
                        ///< "position" or "deadline"
  std::string Family;   ///< a bench/workloads family, or "footnote10"
  uint32_t Seed = 0;
  uint32_t Index = 0;
  postr::Verdict Expected = postr::Verdict::Unknown;
  double DefineMs = 0; ///< answer time when the list was recorded
};

/// Reads the recorded lists; exits with a diagnostic on a malformed file.
std::vector<Recorded> readRecorded(const std::string &Path);

/// The queries of one recorded list, in file order, rendered as SMT-LIB
/// text; exits with a diagnostic when the list is empty or a generator
/// no longer reproduces a recorded verdict.
std::vector<Query> recordedQueries(const std::vector<Recorded> &All,
                                   const std::string &Workload);

/// The footnote-10 position generator: the first \p Count distinct
/// instances (by text) drawn from \p Seed, each with its verdict known
/// by construction.
std::vector<Query> positionQueries(uint64_t Seed, uint32_t Count);

/// Outcome of the correctness gate for one answered query.
struct GateResult {
  bool Ok = true;
  std::string Why;      ///< failure reason (empty when Ok)
  double EvalMs = 0;    ///< ConcreteEvaluator re-check of a Sat model
  double CheckMs = 0;   ///< proof::parse + checkCertificate
  uint64_t CertBytes = 0;
  uint32_t Refutations = 0;
  uint32_t TrustedRules = 0;
};

/// The gate every timed run applies: a determinate verdict must match
/// \p Q.Expected, an unknown is accepted only where one is expected and
/// only on the cap, every Sat model must satisfy the problem under the
/// bench's own evaluator, and with \p Certified (the solve ran with
/// CertifyUnsat) every Unsat must carry a certificate that passes the
/// independent checker kernel.
GateResult gate(const Query &Q, const postr::strings::Problem &P,
                const postr::solver::SolveResult &R, bool Certified);

/// Metric sink: prints the notes and a readable line per metric and,
/// last, the run's one-line JSON result. Only
/// metrics added with add() enter the JSON.
class Report {
public:
  void add(const std::string &Name, double Value, const std::string &Unit,
           const std::string &Note = "");
  /// Adds every per-layer metric of a traced run, in the order and with
  /// the units of LayerMetrics; a layer the workload does not reach
  /// reads 0.
  void addLayers(const std::map<std::string, double> &Values);
  /// Adds latency_p50_ms, latency_p90_ms and queries_per_s from the
  /// run's answer times \p Ms. Each answer is timed as the fastest answer
  /// of its key (\p Keys[I] names what answer I answered: a query, on
  /// serve-replay a query in one cache state). A run answers each key
  /// several times, on every CPU and at moments seconds apart; the
  /// fastest of them is the program's own time with the least of the
  /// host's interference in it. queries_per_s is the closed loop's rate
  /// by Little's law, \p Clients over the mean of those times. The
  /// times as measured and the rate over the timed wall \p WallS are
  /// noted beside the metrics.
  void addLatencies(const std::vector<double> &Ms,
                    const std::vector<size_t> &Keys, int Clients,
                    double WallS);
  /// A report-only line (sample counts, metrics that are 0 by design on
  /// some workloads and therefore cannot carry a bound).
  void note(const std::string &Line);
  /// Prints the report and the final result line to stdout.
  void print(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Metric {
    std::string Name, Unit, Note;
    double Value;
  };
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
};

/// Untraced passes a timed run makes: \p Seconds over the recorded
/// answer times of one pass (\p PassCostMs), rounded, and at least
/// MinPasses. The count follows from the recorded list alone, not from
/// the host's speed during the run, so every run of a comparison does
/// the same work and takes each key's fastest answer out of as many
/// (see Report::addLatencies).
int passesFor(double Seconds, double PassCostMs);

/// Linear-interpolated percentile (P in [0,1]) of \p V; 0 when empty.
double percentile(std::vector<double> V, double P);

/// Peak resident set size of this process or of its waited-for
/// descendants, in MiB.
double peakRssMiB(bool Children);

/// Command-line arguments of one benchmark run.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Instances; ///< path of instances.tsv
  std::string ServeBin;  ///< path of the postr_serve binary
};

/// Workload entry points: each prints its report and result line and
/// returns the exit code (non-zero only when the run could not be
/// carried out; failed queries are reported, not fatal).
int runSerial(const RunArgs &A);
int runServe(const RunArgs &A);
/// Definition-time selection and confirmation of the recorded lists.
int runDefine(const std::string &OutPath);

} // namespace pbench

#endif // POSTR_BENCH_SRC_BENCH_H
