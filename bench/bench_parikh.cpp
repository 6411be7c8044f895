//===- bench/bench_parikh.cpp - Parikh formula micro-benchmark -------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Appendix A substrate check: construction + satisfiability time of the
// Parikh formula PF(A) as the automaton grows, for both connectivity
// disciplines (eager φ_Span vs the lazy CEGAR cuts the MP solver uses).
// Supports the claim (docs/ARCHITECTURE.md, "Connectivity CEGAR") that
// the lazy discipline keeps the boolean abstraction near-conjunctive.
//
//===----------------------------------------------------------------------===//

#include "lia/Solver.h"
#include "tagaut/Parikh.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace postr;
using namespace postr::tagaut;

namespace {

/// Random trimmed NFA-like tag automaton with ~3 transitions per state.
TagAutomaton randomTa(uint32_t NumStates, uint32_t Seed, TagTable &Tags) {
  std::mt19937 Rng(Seed);
  TagAutomaton Ta;
  Ta.addStates(NumStates);
  Ta.markInitial(0);
  Ta.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q) {
    // A spine keeps every state reachable/co-reachable.
    Ta.addTransition({Q, Q + 1, 0, false,
                      {Tags.intern(Tag::symbol(Rng() % 2))}});
  }
  for (uint32_t E = 0; E < 2 * NumStates; ++E) {
    uint32_t From = Rng() % NumStates, To = Rng() % NumStates;
    Ta.addTransition({From, To, 0, false,
                      {Tags.intern(Tag::symbol(Rng() % 2))}});
  }
  return Ta;
}

void BM_ParikhSolve(benchmark::State &State, SpanMode Span) {
  uint32_t NumStates = static_cast<uint32_t>(State.range(0));
  for (auto _ : State) {
    TagTable Tags;
    TagAutomaton Ta = randomTa(NumStates, 42, Tags);
    lia::Arena A;
    ParikhFormula Pf = buildParikhFormula(Ta, A, "p.", Span);
    lia::FormulaId Goal = A.conj(
        {Pf.Formula, A.cmp(Pf.tagTerm(Tags.intern(Tag::symbol(0))),
                           lia::Cmp::Ge, lia::LinTerm(3))});
    lia::ModelRefiner Refine =
        [&](lia::Arena &Ar, const std::vector<int64_t> &Model)
        -> std::optional<lia::FormulaId> {
      if (Span == SpanMode::Eager)
        return std::nullopt;
      std::vector<uint32_t> Gap = connectedComponentGap(Ta, Pf, Model);
      if (Gap.empty())
        return std::nullopt;
      return connectivityCut(Ta, Pf, Ar, Gap);
    };
    lia::QfResult R = lia::solveQF(A, Goal, {}, Refine);
    benchmark::DoNotOptimize(R.V);
    if (R.V != Verdict::Sat)
      State.SkipWithError("expected Sat");
  }
}

} // namespace

BENCHMARK_CAPTURE(BM_ParikhSolve, eager_span, SpanMode::Eager)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);
BENCHMARK_CAPTURE(BM_ParikhSolve, lazy_cuts, SpanMode::Lazy)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);

BENCHMARK_MAIN();
