//===- tests/IncrementalTest.cpp - Incremental solver context tests --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Property tests for the PR-4 incrementality layer: IncrementalContext
// push/pop + solve-under-assumptions against scratch `solveQF` under
// randomized assertion/pop/solve sequences, MBQI incremental-vs-scratch
// (and both against a brute-force expansion of the quantified query),
// and a Sweep/* verdict-equality pass over the bench workload
// generators (compiled in directly so the suite does not depend on
// POSTR_BUILD_BENCH).
//
//===----------------------------------------------------------------------===//

#include "lia/Incremental.h"
#include "lia/Mbqi.h"
#include "solver/PositionSolver.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>

using namespace postr;
using namespace postr::lia;

namespace {

//===----------------------------------------------------------------------===
// Context push/pop + assumptions vs scratch solveQF
//===----------------------------------------------------------------------===

LinTerm randomAtomTerm(std::mt19937 &Rng, const std::vector<Var> &Vars) {
  LinTerm T(static_cast<int64_t>(Rng() % 9) - 4);
  for (Var V : Vars)
    T += LinTerm::variable(V, static_cast<int64_t>(Rng() % 5) - 2);
  return T;
}

FormulaId randomFormula(std::mt19937 &Rng, Arena &A,
                        const std::vector<Var> &Vars) {
  uint32_t NumAtoms = 1 + Rng() % 3;
  std::vector<FormulaId> Parts;
  for (uint32_t I = 0; I < NumAtoms; ++I) {
    Cmp Op = static_cast<Cmp>(Rng() % 6);
    FormulaId Atom = A.atom(randomAtomTerm(Rng, Vars), Op);
    if (Rng() % 3 == 0)
      Atom = A.neg(Atom);
    Parts.push_back(Atom);
  }
  FormulaId F = Parts[0];
  for (size_t I = 1; I < Parts.size(); ++I)
    F = (Rng() % 2) ? A.conj({F, Parts[I]}) : A.disj({F, Parts[I]});
  return F;
}

/// The central property: a context driven through an arbitrary
/// assert/push/pop/solve(assumptions) sequence answers every solve
/// exactly like a scratch `solveQF` over the currently active
/// conjunction, and its Sat models satisfy every active formula.
TEST(IncrementalContextTest, RandomOpsMatchScratchSolveQf) {
  std::mt19937 Rng(20260726);
  for (int Iter = 0; Iter < 40; ++Iter) {
    Arena A;
    std::vector<Var> Vars;
    uint32_t NumVars = 2 + Rng() % 2;
    for (uint32_t V = 0; V < NumVars; ++V)
      Vars.push_back(A.freshVar("v" + std::to_string(V), 0, 4));

    IncrementalContext Ctx(A);
    // Mirror of the context's visible state: one frame per open scope.
    std::vector<std::vector<FormulaId>> Frames{{}};
    uint32_t Solves = 0;

    for (int Op = 0; Op < 40; ++Op) {
      uint32_t Kind = Rng() % 8;
      if (Kind <= 2) {
        FormulaId F = randomFormula(Rng, A, Vars);
        Ctx.assertFormula(F);
        Frames.back().push_back(F);
      } else if (Kind == 3) {
        Ctx.push();
        Frames.emplace_back();
        ASSERT_EQ(Ctx.numScopes(), Frames.size() - 1);
      } else if (Kind == 4 && Frames.size() > 1) {
        Ctx.pop();
        Frames.pop_back();
        ASSERT_EQ(Ctx.numScopes(), Frames.size() - 1);
      } else {
        std::vector<FormulaId> Assumps;
        for (uint32_t I = Rng() % 3; I > 0; --I)
          Assumps.push_back(randomFormula(Rng, A, Vars));
        std::vector<FormulaId> Active;
        for (const std::vector<FormulaId> &Frame : Frames)
          Active.insert(Active.end(), Frame.begin(), Frame.end());
        std::vector<FormulaId> All = Active;
        All.insert(All.end(), Assumps.begin(), Assumps.end());
        QfResult Expected = solveQF(A, A.conj(All));
        QfResult Got = Ctx.solve(Assumps);
        ++Solves;
        ASSERT_EQ(Got.V, Expected.V)
            << "iteration " << Iter << " op " << Op;
        if (Got.V == Verdict::Sat) {
          ASSERT_EQ(Got.Model.size(), A.numVars());
          for (FormulaId F : Active)
            EXPECT_TRUE(A.eval(F, Got.Model))
                << "model violates active assertion; iteration " << Iter;
          for (FormulaId F : Assumps)
            EXPECT_TRUE(A.eval(F, Got.Model))
                << "model violates assumption; iteration " << Iter;
        } else if (Got.V == Verdict::Unsat && !Assumps.empty()) {
          // The blamed assumptions must be real indices, and the
          // context must refute them again when re-assumed alone with
          // the same assertions (core soundness) — unless the active
          // set is unsatisfiable on its own (empty core).
          std::vector<FormulaId> Core;
          for (uint32_t Idx : Ctx.unsatAssumptions()) {
            ASSERT_LT(Idx, Assumps.size());
            Core.push_back(Assumps[Idx]);
          }
          QfResult CoreR = Ctx.solve(Core);
          ++Solves;
          EXPECT_EQ(CoreR.V, Verdict::Unsat)
              << "assumption core is not itself refutable; iteration "
              << Iter;
        }
      }
    }
    EXPECT_GT(Solves, 0u);
  }
}

TEST(IncrementalContextTest, SurvivesUnsatUnderAssumptionsAndPop) {
  Arena A;
  Var X = A.freshVar("x", 0, 100);
  IncrementalContext Ctx(A);
  Ctx.assertFormula(A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(10)));

  // Compatible assumption: Sat, model respects both.
  QfResult R1 =
      Ctx.solve({A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(20))});
  ASSERT_EQ(R1.V, Verdict::Sat);
  EXPECT_GE(R1.Model[X], 10);
  EXPECT_LE(R1.Model[X], 20);

  // Clashing assumption: Unsat under assumptions, core names it, and the
  // context stays usable.
  QfResult R2 =
      Ctx.solve({A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(5))});
  ASSERT_EQ(R2.V, Verdict::Unsat);
  ASSERT_EQ(Ctx.unsatAssumptions().size(), 1u);
  EXPECT_EQ(Ctx.unsatAssumptions()[0], 0u);

  QfResult R3 = Ctx.solve();
  ASSERT_EQ(R3.V, Verdict::Sat);

  // Scoped assertion: Unsat while the scope is open, Sat again after pop.
  Ctx.push();
  Ctx.assertFormula(A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(5)));
  EXPECT_EQ(Ctx.solve().V, Verdict::Unsat);
  EXPECT_TRUE(Ctx.unsatAssumptions().empty());
  Ctx.pop();
  EXPECT_EQ(Ctx.solve().V, Verdict::Sat);

  // Permanent contradiction: Unsat with no assumptions to blame.
  Ctx.assertFormula(A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(5)));
  QfResult R4 = Ctx.solve();
  EXPECT_EQ(R4.V, Verdict::Unsat);
  EXPECT_TRUE(Ctx.unsatAssumptions().empty());
}

TEST(IncrementalContextTest, RefinerRunsInsideContext) {
  // A one-cut CEGAR loop through the context's refinement hook: first
  // model gets cut, the strengthened query stays Sat.
  Arena A;
  Var X = A.freshVar("x", 0, 10);
  IncrementalContext Ctx(A);
  Ctx.assertFormula(A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(0)));
  uint32_t Cuts = 0;
  ModelRefiner Refine =
      [&](Arena &Ar,
          const std::vector<int64_t> &Model) -> std::optional<FormulaId> {
    if (Cuts > 0 || Model[X] >= 7)
      return std::nullopt;
    ++Cuts;
    return Ar.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(7));
  };
  QfResult R = Ctx.solve({}, Refine);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_GE(R.Model[X], 7);
}

TEST(IncrementalContextTest, CancelFlagInBudgetStopsReusedContext) {
  // Cancellation reaches a context only through its Budget. A warm
  // context stopped that way answers Cancelled, and given a fresh budget
  // it re-solves to the scratch oracle's verdict.
  std::mt19937 Rng(977);
  Arena A;
  std::vector<Var> Vars;
  for (int I = 0; I < 3; ++I)
    Vars.push_back(A.freshVar("v" + std::to_string(I), -5, 5));
  FormulaId F =
      A.conj({randomFormula(Rng, A, Vars), randomFormula(Rng, A, Vars)});
  QfResult Oracle = solveQF(A, F);
  ASSERT_NE(Oracle.V, Verdict::Unknown);

  IncrementalContext Ctx(A);
  Ctx.assertFormula(F);
  ASSERT_EQ(Ctx.solve().V, Oracle.V);

  std::atomic<bool> Cancel{true};
  Budget Raised(Budget::Limits{0, 0, 0, &Cancel});
  QfOptions O;
  O.Budget = &Raised;
  Ctx.setOptions(O);
  QfResult R = Ctx.solve();
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);

  Budget Fresh;
  O.Budget = &Fresh;
  Ctx.setOptions(O);
  QfResult Again = Ctx.solve();
  EXPECT_EQ(Again.V, Oracle.V);
  EXPECT_EQ(Again.Stop, StopReason::None);
}

TEST(IncrementalContextTest, StopMidRegistrationResumesOnNextSolve) {
  // A context whose first solve is stopped while prepareTheory registers
  // atom rows must finish the registration on its next solve. The
  // verdict rests on the variables' intrinsic bounds (every atom is
  // satisfiable without them), so it also catches a stop that loses the
  // bounds of variables added before it.
  Arena A;
  Var X = A.freshVar("x", 0, 10), Y = A.freshVar("y", 0, 10);
  std::vector<FormulaId> Parts;
  for (int64_t K = 1; K <= 40; ++K) // x + k·y >= 11(k+1): false in the box
    Parts.push_back(A.atom(
        LinTerm::variable(X) + LinTerm::variable(Y, K) - LinTerm(11 * (K + 1)),
        Cmp::Ge));
  FormulaId F = A.disj(std::move(Parts));
  QfResult Oracle = solveQF(A, F);
  ASSERT_EQ(Oracle.V, Verdict::Unsat);

  IncrementalContext Ctx(A);
  Ctx.assertFormula(F); // no budget yet: encoded in full, no probes
  // One step for solve's own first probe, one for registration's probe
  // at atom 16; its probe at atom 32 trips, 8 atoms short of the end.
  Budget Tight(Budget::Limits{0, 0, /*StepLimit=*/2, nullptr});
  QfOptions O;
  O.Budget = &Tight;
  Ctx.setOptions(O);
  QfResult R = Ctx.solve();
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
  ASSERT_NE(Tight.tripSite(), nullptr);
  EXPECT_STREQ(Tight.tripSite(), "lia.simplex");

  Budget Fresh;
  O.Budget = &Fresh;
  Ctx.setOptions(O);
  QfResult Again = Ctx.solve();
  EXPECT_EQ(Again.V, Oracle.V);
  EXPECT_EQ(Again.Stop, StopReason::None);
}

TEST(IncrementalContextTest, StopMidEncodingResumesOnNextSolve) {
  // The same for the Tseitin encoding: assertFormula under a budget that
  // trips part-way leaves the rest of the formula queued, the next solve
  // under a fresh budget encodes it, and the verdict is the oracle's.
  Arena A;
  Var X = A.freshVar("x", 0, 10), Y = A.freshVar("y", 0, 10);
  std::vector<FormulaId> Parts;
  for (int64_t K = 1; K <= 200; ++K)
    Parts.push_back(A.atom(
        LinTerm::variable(X) + LinTerm::variable(Y, K) - LinTerm(11 * (K + 1)),
        Cmp::Ge));
  FormulaId F = A.disj(std::move(Parts));
  QfResult Oracle = solveQF(A, F);
  ASSERT_EQ(Oracle.V, Verdict::Unsat);

  Budget Tight(Budget::Limits{0, 0, /*StepLimit=*/1, nullptr});
  QfOptions O;
  O.Budget = &Tight;
  IncrementalContext Ctx(A, O);
  Ctx.assertFormula(F);
  ASSERT_NE(Tight.tripSite(), nullptr);
  EXPECT_STREQ(Tight.tripSite(), "lia.sat");
  QfResult R = Ctx.solve();
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);

  Budget Fresh;
  O.Budget = &Fresh;
  Ctx.setOptions(O);
  QfResult Again = Ctx.solve();
  EXPECT_EQ(Again.V, Oracle.V);
  EXPECT_EQ(Again.Stop, StopReason::None);
}

//===----------------------------------------------------------------------===
// MBQI: incremental vs scratch vs brute-force expansion
//===----------------------------------------------------------------------===

/// Brute-force decision of an MbqiQuery whose variables all live in the
/// box [0, Box]: enumerate outer assignments, and for each offset κ the
/// inner existentials. The oracle for both MBQI implementations.
Verdict bruteForceMbqi(Arena &A, const MbqiQuery &Q, int64_t Box,
                       int64_t MaxOffsets) {
  std::vector<int64_t> M(A.numVars(), 0);
  uint32_t NumOuter = static_cast<uint32_t>(Q.OuterVars.size());
  uint64_t OuterTotal = 1;
  for (uint32_t I = 0; I < NumOuter; ++I)
    OuterTotal *= static_cast<uint64_t>(Box + 1);
  for (uint64_t Code = 0; Code < OuterTotal; ++Code) {
    uint64_t C = Code;
    for (uint32_t I = 0; I < NumOuter; ++I) {
      M[Q.OuterVars[I]] = static_cast<int64_t>(C % (Box + 1));
      C /= static_cast<uint64_t>(Box + 1);
    }
    if (!A.eval(Q.Outer, M))
      continue;
    bool AllBlocksHold = true;
    for (const ForallBlock &B : Q.Blocks) {
      int64_t Upper = B.Upper.eval(M);
      if (Upper > MaxOffsets)
        Upper = MaxOffsets;
      for (int64_t K = 0; K <= Upper && AllBlocksHold; ++K) {
        M[B.Kappa] = K;
        bool Witness = false;
        uint64_t InnerTotal = 1;
        for (size_t I = 0; I < B.InnerVars.size(); ++I)
          InnerTotal *= static_cast<uint64_t>(Box + 1);
        for (uint64_t ICode = 0; ICode < InnerTotal && !Witness; ++ICode) {
          uint64_t IC = ICode;
          for (Var V : B.InnerVars) {
            M[V] = static_cast<int64_t>(IC % (Box + 1));
            IC /= static_cast<uint64_t>(Box + 1);
          }
          if (A.eval(B.Inner, M))
            Witness = true;
        }
        if (!Witness)
          AllBlocksHold = false;
      }
      if (!AllBlocksHold)
        break;
    }
    if (AllBlocksHold)
      return Verdict::Sat;
  }
  return Verdict::Unsat;
}

TEST(MbqiIncrementalTest, MatchesScratchAndBruteForce) {
  std::mt19937 Rng(4251);
  const int64_t Box = 3;
  int SatSeen = 0, UnsatSeen = 0;
  for (int Iter = 0; Iter < 50; ++Iter) {
    Arena A;
    MbqiQuery Q;
    uint32_t NumOuter = 1 + Rng() % 2;
    for (uint32_t I = 0; I < NumOuter; ++I)
      Q.OuterVars.push_back(A.freshVar("o" + std::to_string(I), 0, Box));
    Q.Outer = randomFormula(Rng, A, Q.OuterVars);

    uint32_t NumBlocks = 1 + Rng() % 2;
    for (uint32_t BI = 0; BI < NumBlocks; ++BI) {
      ForallBlock B;
      B.Kappa = A.freshVar("k" + std::to_string(BI), 0, Box);
      uint32_t NumInner = 1 + Rng() % 2;
      for (uint32_t I = 0; I < NumInner; ++I)
        B.InnerVars.push_back(
            A.freshVar("i" + std::to_string(BI) + "_" + std::to_string(I),
                       0, Box));
      B.Upper = LinTerm::variable(Q.OuterVars[Rng() % NumOuter]);
      if (Rng() % 2)
        B.Upper = B.Upper - LinTerm(static_cast<int64_t>(Rng() % 2));
      std::vector<Var> Scope = Q.OuterVars;
      Scope.push_back(B.Kappa);
      Scope.insert(Scope.end(), B.InnerVars.begin(), B.InnerVars.end());
      B.Inner = randomFormula(Rng, A, Scope);
      Q.Blocks.push_back(std::move(B));
    }

    Verdict Expected = bruteForceMbqi(A, Q, Box, /*MaxOffsets=*/4096);
    uint32_t QueryVars = A.numVars(); // both solvers mint lemma vars later

    MbqiOptions Inc;
    Inc.Incremental = true;
    std::vector<int64_t> IncModel;
    Verdict VInc = solveMbqi(A, Q, &IncModel, Inc);

    MbqiOptions Scratch;
    Scratch.Incremental = false;
    Verdict VScratch = solveMbqi(A, Q, nullptr, Scratch);

    ASSERT_EQ(VInc, Expected) << "incremental diverged, iteration " << Iter;
    ASSERT_EQ(VScratch, Expected) << "scratch diverged, iteration " << Iter;
    (Expected == Verdict::Sat ? SatSeen : UnsatSeen) += 1;

    if (VInc == Verdict::Sat) {
      // The incremental model must satisfy the outer part and survive
      // the brute-force ∀κ∃inner check for every block.
      ASSERT_GE(IncModel.size(), QueryVars);
      EXPECT_TRUE(A.eval(Q.Outer, IncModel));
      std::vector<int64_t> M = IncModel;
      M.resize(A.numVars(), 0);
      for (const ForallBlock &B : Q.Blocks) {
        int64_t Upper = B.Upper.eval(IncModel);
        for (int64_t K = 0; K <= Upper; ++K) {
          M[B.Kappa] = K;
          bool Witness = false;
          for (int64_t I0 = 0; I0 <= Box && !Witness; ++I0) {
            for (int64_t I1 = 0; I1 <= Box && !Witness; ++I1) {
              if (!B.InnerVars.empty())
                M[B.InnerVars[0]] = I0;
              if (B.InnerVars.size() > 1)
                M[B.InnerVars[1]] = I1;
              if (A.eval(B.Inner, M))
                Witness = true;
            }
          }
          EXPECT_TRUE(Witness)
              << "Sat model refuted at offset " << K << ", iteration "
              << Iter;
        }
      }
    }
  }
  // The generator must exercise both verdicts for the sweep to mean
  // anything.
  EXPECT_GT(SatSeen, 0);
  EXPECT_GT(UnsatSeen, 0);
}

TEST(MbqiIncrementalTest, StatsCountersAdvance) {
  // The UnsatWhenEveryModelRefuted shape: every candidate is refuted at
  // some offset, so candidates, inner queries, instantiation lemmas and
  // context reuses all move.
  Arena A;
  Var X = A.freshVar("x", 1, 3);
  Var K = A.freshVar("kappa");
  MbqiQuery Q;
  Q.Outer = A.trueF();
  Q.OuterVars = {X};
  ForallBlock B;
  B.Kappa = K;
  B.Upper = LinTerm::variable(X);
  B.Inner = A.cmp(LinTerm::variable(K), Cmp::Le, LinTerm(0));
  Q.Blocks.push_back(B);
  MbqiStats St;
  MbqiOptions Opts;
  Opts.Stats = &St;
  EXPECT_EQ(solveMbqi(A, Q, nullptr, Opts), Verdict::Unsat);
  EXPECT_GT(St.Candidates, 0u);
  EXPECT_GT(St.OuterSolves, St.Candidates - 1);
  EXPECT_GT(St.InnerQueries, 0u);
  EXPECT_GT(St.InstLemmas, 0u);
  EXPECT_GT(St.ContextReuses, 0u);
}

//===----------------------------------------------------------------------===
// Workload-generator sweep: incremental vs scratch through the full
// pipeline (slow — registered under the Sweep/* label)
//===----------------------------------------------------------------------===

struct WlParams {
  bench::Family F;
  uint32_t Seed;
  uint32_t Index;
};

class MbqiWorkloadSweep : public ::testing::TestWithParam<WlParams> {};

TEST_P(MbqiWorkloadSweep, IncrementalMatchesScratch) {
  WlParams P = GetParam();
  strings::Problem Prob = bench::generate(P.F, P.Seed, P.Index);

  solver::SolveOptions O;
  O.TimeoutMs = 30000;
  O.ValidateModels = false;

  O.Mp.Mbqi.Incremental = true;
  solver::SolveResult Inc = solver::solveProblem(Prob, O);

  O.Mp.Mbqi.Incremental = false;
  solver::SolveResult Scratch = solver::solveProblem(Prob, O);

  // Both are decision procedures over the same query: whenever both
  // decide, they must agree (resource-outs aside, which differ only in
  // where the budgets land).
  if (Inc.V != Verdict::Unknown && Scratch.V != Verdict::Unknown)
    EXPECT_EQ(Inc.V, Scratch.V)
        << bench::familyName(P.F) << " seed " << P.Seed << " index "
        << P.Index;
  EXPECT_NE(Inc.V, Verdict::Unknown)
      << "incremental path resource-out where the bench expects a verdict";
}

//===----------------------------------------------------------------------===
// Adaptive pivot-rule regression pins over the workload generators
// (workload-level solves — registered under the Sweep/* label like the
// other generator-driven tests, so the default ctest set stays fast and
// CI's unoptimized build can't flake on the deadlines; CI runs them in
// its slow pass)
//===----------------------------------------------------------------------===

struct AdaptivePinParams {
  bench::Family F;
  uint32_t Seed;
  uint32_t Index;
  /// Require a decided (non-Unknown) verdict: set on instances measured
  /// to decide well inside the deadline under Bland, so an
  /// adaptive-rule stall can't hide behind "both timed out".
  bool RequireDecided;
};

class AdaptivePivotRuleSweep
    : public ::testing::TestWithParam<AdaptivePinParams> {};

/// The per-family fence pins: the pivot-rule A/B measured SparsestRow
/// losing 37% end-to-end on the django prefix/suffix-dispatch shapes
/// (and Markowitz stalling the thefuck word equations), which is why
/// word-equation-heavy disjuncts start on Bland and the adaptive
/// machine degrades to Bland on a bad signal. Pin the default
/// (adaptive) configuration to the forced-Bland verdicts — if the
/// classification or the fence regresses, the verdicts (or a blown
/// deadline) catch it.
TEST_P(AdaptivePivotRuleSweep, AdaptiveMatchesBland) {
  // The env override is applied process-wide in the Simplex constructor,
  // so under POSTR_SIMPLEX_PIVOT_RULE both legs below would run the same
  // forced rule: the pin compares a rule against itself and the
  // RequireDecided deadlines may spuriously blow under a slow rule.
  if (std::getenv("POSTR_SIMPLEX_PIVOT_RULE"))
    GTEST_SKIP() << "POSTR_SIMPLEX_PIVOT_RULE forces both legs to one rule";
  AdaptivePinParams P = GetParam();
  strings::Problem Prob = bench::generate(P.F, P.Seed, P.Index);

  solver::SolveOptions O;
  O.TimeoutMs = 30000;
  O.ValidateModels = false;
  // Default: PivotRule::Adaptive with per-disjunct classification.
  solver::SolveResult Adaptive = solver::solveProblem(Prob, O);

  O.Mp.Qf.Pivot.Rule = lia::PivotRule::Bland;
  O.Mp.Mbqi.Qf.Pivot.Rule = lia::PivotRule::Bland;
  solver::SolveResult Bland = solver::solveProblem(Prob, O);

  EXPECT_EQ(Adaptive.V, Bland.V)
      << bench::familyName(P.F) << " seed " << P.Seed << " index "
      << P.Index << ": adaptive rule flipped a verdict vs Bland";
  if (P.RequireDecided)
    EXPECT_NE(Adaptive.V, Verdict::Unknown)
        << bench::familyName(P.F) << " seed " << P.Seed << " index "
        << P.Index << ": adaptive rule resource-out where Bland decides";
}

INSTANTIATE_TEST_SUITE_P(
    // Django indices chosen to decide well inside the deadline under
    // Bland (0–2 Sat in ~1–2 s, 5 Unsat; 3/4/6/7 are ≥10 s-hard under
    // *every* rule and only ever time out).
    Sweep, AdaptivePivotRuleSweep,
    ::testing::Values(
        AdaptivePinParams{bench::Family::Django, 97, 0, true},
        AdaptivePinParams{bench::Family::Django, 97, 1, true},
        AdaptivePinParams{bench::Family::Django, 97, 2, true},
        AdaptivePinParams{bench::Family::Django, 97, 5, true},
        AdaptivePinParams{bench::Family::Thefuck, 131, 0, false},
        AdaptivePinParams{bench::Family::Thefuck, 131, 1, false}),
    [](const ::testing::TestParamInfo<AdaptivePinParams> &Info) {
      std::string Name = bench::familyName(Info.param.F);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_s" + std::to_string(Info.param.Seed) + "_i" +
             std::to_string(Info.param.Index);
    });

INSTANTIATE_TEST_SUITE_P(
    Sweep, MbqiWorkloadSweep,
    ::testing::Values(WlParams{bench::Family::PositionHard, 97, 0},
                      WlParams{bench::Family::PositionHard, 97, 2},
                      WlParams{bench::Family::PositionHard, 131, 1},
                      WlParams{bench::Family::PositionHard, 131, 3},
                      WlParams{bench::Family::Biopython, 97, 0},
                      WlParams{bench::Family::Biopython, 97, 1},
                      WlParams{bench::Family::Django, 97, 2},
                      WlParams{bench::Family::Thefuck, 131, 0}),
    [](const ::testing::TestParamInfo<WlParams> &Info) {
      std::string Name = bench::familyName(Info.param.F);
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name + "_s" + std::to_string(Info.param.Seed) + "_i" +
             std::to_string(Info.param.Index);
    });

} // namespace
