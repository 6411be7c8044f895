//===- tests/IncrementalTest.cpp - Incremental solver context tests --------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Property tests for the PR-4 incrementality layer: IncrementalContext
// push/pop + solve-under-assumptions against scratch `solveQF` under
// randomized assertion/pop/solve sequences, MBQI against a brute-force
// expansion of the quantified query, and Sweep/* passes over the bench
// workload generators (compiled in directly so the suite does not depend
// on POSTR_BUILD_BENCH).
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
// MBQI vs brute-force expansion
//===----------------------------------------------------------------------===

/// Brute-force decision of an MbqiQuery whose variables all live in the
/// box [0, Box]: enumerate outer assignments, and for each offset κ the
/// inner existentials. The oracle for the MBQI loop.
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

TEST(MbqiIncrementalTest, MatchesBruteForce) {
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
    uint32_t QueryVars = A.numVars(); // the loop mints lemma vars later

    std::vector<int64_t> Model;
    Verdict V = solveMbqi(A, Q, &Model);
    ASSERT_EQ(V, Expected) << "MBQI diverged, iteration " << Iter;
    (Expected == Verdict::Sat ? SatSeen : UnsatSeen) += 1;

    if (V == Verdict::Sat) {
      // The model must satisfy the outer part and survive the
      // brute-force ∀κ∃inner check for every block.
      ASSERT_GE(Model.size(), QueryVars);
      EXPECT_TRUE(A.eval(Q.Outer, Model));
      std::vector<int64_t> M = Model;
      M.resize(A.numVars(), 0);
      for (const ForallBlock &B : Q.Blocks) {
        int64_t Upper = B.Upper.eval(Model);
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
// Workload-generator sweeps through the full pipeline (slow — registered
// under the Sweep/* label, so the default ctest set stays fast; CI runs
// them in its slow pass). Both run on a step limit, so a failure is
// changed behaviour, never host speed: steps are counted identically in
// every build type.
//===----------------------------------------------------------------------===

/// Step limit of one sweep solve: about 4x the most steps any pinned
/// instance below needs (204, on every Sat pin; the paranoid Unsat
/// cross-check runs on a budget of its own).
constexpr uint64_t SweepStepLimit = 800;

struct WlParams {
  bench::Family F;
  uint32_t Seed;
  uint32_t Index;
};

class MbqiWorkloadSweep : public ::testing::TestWithParam<WlParams> {};

/// Every pinned instance is decided, and both self-checks accept the
/// answer: a Sat model is evaluated against the concrete semantics, an
/// Unsat is cross-checked against the bounded enumeration oracle. Either
/// rejection would demote the verdict to Unknown with Validation set.
TEST_P(MbqiWorkloadSweep, DecidedAndSelfChecked) {
  WlParams P = GetParam();
  strings::Problem Prob = bench::generate(P.F, P.Seed, P.Index);

  solver::SolveOptions O;
  O.StepLimit = SweepStepLimit;
  O.ParanoidUnsatCheck = true;
  solver::SolveResult R = solver::solveProblem(Prob, O);

  std::string Where = std::string(bench::familyName(P.F)) + " seed " +
                      std::to_string(P.Seed) + " index " +
                      std::to_string(P.Index);
  EXPECT_FALSE(R.Validation.Failed) << Where << ": " << R.Validation.Detail;
  EXPECT_NE(R.V, Verdict::Unknown) << Where << ": resource-out";
}

//===----------------------------------------------------------------------===
// Pivot-selection pins over the workload generators
//===----------------------------------------------------------------------===

struct PivotPinParams {
  bench::Family F;
  uint32_t Seed;
  uint32_t Index;
  Verdict Want;
};

class PivotSelectionSweep : public ::testing::TestWithParam<PivotPinParams> {
};

/// tagaut/MpSolver runs a QF context with position predicates on Bland's
/// leaving order and every other one on SparsestRow. These position-hard
/// instances are decided in milliseconds under that split and are still
/// Unknown after 2 s with SparsestRow everywhere (docs/BENCH.md, pivot
/// A/B), so a lost split shows here as a resource-out.
TEST_P(PivotSelectionSweep, SplitDecides) {
  PivotPinParams P = GetParam();
  strings::Problem Prob = bench::generate(P.F, P.Seed, P.Index);

  solver::SolveOptions O;
  O.StepLimit = SweepStepLimit;
  solver::SolveResult R = solver::solveProblem(Prob, O);

  EXPECT_STREQ(verdictName(R.V), verdictName(P.Want))
      << bench::familyName(P.F) << " seed " << P.Seed << " index "
      << P.Index;
}

/// Test-name suffix of a generator instance.
template <typename Params>
std::string instanceName(const ::testing::TestParamInfo<Params> &Info) {
  std::string Name = bench::familyName(Info.param.F);
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return Name + "_s" + std::to_string(Info.param.Seed) + "_i" +
         std::to_string(Info.param.Index);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PivotSelectionSweep,
    ::testing::Values(
        PivotPinParams{bench::Family::PositionHard, 3, 65, Verdict::Sat},
        PivotPinParams{bench::Family::PositionHard, 3, 69, Verdict::Sat},
        PivotPinParams{bench::Family::PositionHard, 3, 71, Verdict::Sat},
        PivotPinParams{bench::Family::PositionHard, 11, 66, Verdict::Sat}),
    instanceName<PivotPinParams>);

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
    instanceName<WlParams>);

} // namespace
