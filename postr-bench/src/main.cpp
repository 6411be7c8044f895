//===- postr-bench/src/main.cpp - postr-bench command line ----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//   postr_bench --workload W --seed N --seconds S --trace 0|1
//               --instances postr-bench/instances.tsv
//               --serve-bin .bench_build/tools/postr_serve
//   postr_bench --define OUT
//
// run.py builds this binary and supplies the paths; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace pbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: postr_bench --workload solve-mix|position|"
               "serve-replay|deadline --seed N --seconds S --trace 0|1\n"
               "                   --instances FILE --serve-bin FILE\n"
               "       postr_bench --define OUT\n");
  return 64;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  std::string DefineOut;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    std::string V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V.c_str(), nullptr);
    else if (Flag == "--trace")
      A.Trace = V == "1";
    else if (Flag == "--instances")
      A.Instances = V;
    else if (Flag == "--serve-bin")
      A.ServeBin = V;
    else if (Flag == "--define")
      DefineOut = V;
    else
      return usage();
  }
  if (!DefineOut.empty())
    return runDefine(DefineOut);
  if (A.Instances.empty())
    return usage();
  if (A.Workload == "solve-mix" || A.Workload == "position" ||
      A.Workload == "deadline")
    return runSerial(A);
  if (A.Workload == "serve-replay" && !A.ServeBin.empty())
    return runServe(A);
  return usage();
}
