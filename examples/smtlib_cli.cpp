//===- examples/smtlib_cli.cpp - SMT-LIB command line front-end -------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// A minimal `postr file.smt2` driver for the supported QF_S(LIA) subset.
// With no argument it solves a built-in demo problem, so the binary is
// runnable from the bench/examples sweep without fixtures. Exits 1 on a
// parse error, otherwise with solver::exitCodeFor's code.
//
//===----------------------------------------------------------------------===//

#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace postr;

/// With POSTR_PROOF_DIR set and a certificate in hand (certification on
/// and the verdict Unsat, or a rejected certificate kept as evidence),
/// writes it to `<dir>/<input-stem>.postrcert` for out-of-process
/// re-checking with `tools/postr_check`.
static void maybeWriteCert(const solver::SolveResult &R, const char *Input) {
  const char *Dir = std::getenv("POSTR_PROOF_DIR");
  if (!Dir || !*Dir || R.CertText.empty())
    return;
  std::string Stem = Input ? Input : "demo";
  if (size_t Slash = Stem.find_last_of('/'); Slash != std::string::npos)
    Stem = Stem.substr(Slash + 1);
  if (size_t Dot = Stem.rfind('.'); Dot != std::string::npos && Dot > 0)
    Stem = Stem.substr(0, Dot);
  std::string Path = std::string(Dir) + "/" + Stem + ".postrcert";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fwrite(R.CertText.data(), 1, R.CertText.size(), F);
    std::fclose(F);
    std::printf("; certificate written to %s\n", Path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write certificate to %s\n",
                 Path.c_str());
  }
}

static const char *Demo = R"((set-logic QF_S)
(declare-fun x () String)
(declare-fun y () String)
(assert (str.in_re x (re.* (re.++ (str.to_re "a") (str.to_re "b")))))
(assert (str.in_re y (re.union (str.to_re "a") (str.to_re "b"))))
(assert (not (= (str.++ x y) (str.++ y x))))
(assert (not (str.prefixof y x)))
(check-sat)
)";

int main(int Argc, char **Argv) {
  Result<strings::Problem> P =
      Argc > 1 ? smtlib::parseFile(Argv[1]) : smtlib::parseString(Demo);
  if (!P) {
    std::fprintf(stderr, "parse error: %s\n", P.error().c_str());
    return 1;
  }
  if (Argc == 1)
    std::printf("; solving the built-in demo (pass a .smt2 path to solve "
                "a file)\n%s", Demo);
  solver::SolveOptions Opts;
  // A scripted (set-option :timeout N) bounds the solve; the default
  // matches what the postr-serve daemon enforces as its per-request cap,
  // so one-shot and served behavior stay comparable.
  Opts.TimeoutMs =
      P->timeoutMs() ? P->timeoutMs() : solver::DefaultTimeoutMs;
  solver::SolveResult R = solver::solveProblem(*P, Opts);
  if (R.V == Verdict::Unknown)
    std::printf("unknown (%s)\n", solver::unknownReason(R));
  else
    std::printf("%s\n%s", verdictName(R.V),
                solver::modelLines(R, *P).c_str());
  if (R.Validation.Failed)
    std::printf("; validation failure: %s\n", R.Validation.Detail.c_str());
  // In-protocol answer to a scripted (get-info :reason-unknown): the
  // structured stop/validation/certification reason, not just exit codes
  // and the stats comment.
  if (P->wantsReasonUnknown()) {
    if (R.V != Verdict::Unknown)
      std::printf("(error \"reason-unknown: last check-sat was not "
                  "unknown\")\n");
    else
      std::printf("(:reason-unknown \"%s\")\n",
                  R.Validation.Failed ? R.Validation.Detail.c_str()
                                      : solver::unknownReason(R));
  }
  std::fputs(solver::statsLine(R).c_str(), stdout);
  maybeWriteCert(R, Argc > 1 ? Argv[1] : nullptr);
  return solver::exitCodeFor(R);
}
