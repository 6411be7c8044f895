//===- bench/bench_ablation_copies.cpp - Sec. 5.3 encoding ablation --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The discovery behind the paper's NP bound (Sec. 5.3): a system of K
// disequalities needs only 2K+1 copies of A_◦ plus copy tags, where the
// straightforward approach enumerates all (2K)!/2^K mismatch orders.
// This bench (a) measures our polynomial encoding's size and solve time
// as K grows, and (b) prints the order-enumeration copy count the naive
// construction would need — the 2^Θ(K log K) blow-up the framework
// avoids.
//
//===----------------------------------------------------------------------===//

#include "regex/Regex.h"
#include "tagaut/MpSolver.h"

#include <benchmark/benchmark.h>

#include <cinttypes>

using namespace postr;
using namespace postr::tagaut;

namespace {

/// K disequalities over K+1 variables with shared mismatches possible.
struct System {
  Alphabet Sigma;
  std::map<VarId, automata::Nfa> Langs;
  std::vector<PosPredicate> Preds;
};

System makeSystem(uint32_t K) {
  System S;
  static const char *Pool[] = {"a|b", "(ab)*", "a*", "b|ab", "(ba)*"};
  for (VarId X = 0; X <= K; ++X) {
    Result<regex::NodePtr> R = regex::parse(Pool[X % 5]);
    regex::collectAlphabet(**R, S.Sigma);
    S.Langs[X] = regex::compile(**R, S.Sigma);
  }
  for (uint32_t D = 0; D < K; ++D)
    S.Preds.push_back(
        {PredKind::Diseq, {D, D + 1}, {D + 1, D}, {}});
  return S;
}

uint64_t naiveOrderCount(uint32_t K) {
  // (2K)! / 2^K: permutations of K ordered pairs of mismatch marks.
  uint64_t N = 1;
  for (uint32_t I = 2; I <= 2 * K; ++I)
    N *= I;
  return N >> K;
}

void BM_SystemEncodingSolve(benchmark::State &State) {
  uint32_t K = static_cast<uint32_t>(State.range(0));
  System S = makeSystem(K);
  for (auto _ : State) {
    MpResult R = solveMP(S.Langs, S.Preds, S.Sigma.size());
    benchmark::DoNotOptimize(R.V);
    if (R.V == Verdict::Unknown)
      State.SkipWithError("unexpected Unknown");
  }
  // BM_EncodeOnly/with_copies reports the encoding's lia_nodes.
  State.counters["naive_orders"] =
      static_cast<double>(naiveOrderCount(K));
}

void BM_EncodeOnly(benchmark::State &State, bool EmitCopies) {
  uint32_t K = static_cast<uint32_t>(State.range(0));
  System S = makeSystem(K);
  uint32_t Nodes = 0;
  for (auto _ : State) {
    lia::Arena A;
    EncoderOptions Opts;
    Opts.EmitCopies = EmitCopies;
    SystemEncoding Enc =
        encodeSystem(A, S.Langs, S.Preds, S.Sigma.size(), Opts);
    Nodes = A.numNodes();
    benchmark::DoNotOptimize(Enc.Outer);
  }
  State.counters["lia_nodes"] = Nodes;
}

} // namespace

BENCHMARK(BM_SystemEncodingSolve)->Arg(1)->Arg(2)->Arg(3);
BENCHMARK_CAPTURE(BM_EncodeOnly, with_copies, true)->Arg(1)->Arg(2)->Arg(3)->Arg(4);
BENCHMARK_CAPTURE(BM_EncodeOnly, no_copies, false)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

BENCHMARK_MAIN();
