//===- tests/SolverTest.cpp - End-to-end pipeline tests ----------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// End-to-end checks of the Z3-Noodler-pos pipeline (normalize →
// stabilize → tag/LIA), the baselines, and cross-solver agreement on the
// benchmark generators.
//
//===----------------------------------------------------------------------===//

#include "smtlib/Reader.h"
#include "solver/Baselines.h"
#include "solver/PositionSolver.h"
#include "strings/Eval.h"

#include <gtest/gtest.h>

#include <random>

using namespace postr;
using solver::SolveOptions;
using solver::SolveResult;
using strings::AssertKind;
using strings::IntTerm;
using strings::Problem;
using strings::StrElem;

namespace {

SolveResult solve(const Problem &P, uint64_t TimeoutMs = 20000) {
  SolveOptions Opts;
  Opts.TimeoutMs = TimeoutMs;
  return solver::solveProblem(P, Opts);
}

TEST(PipelineTest, LiteralDisequalitySat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,3}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  EXPECT_EQ(solve(P).V, Verdict::Sat);
}

TEST(PipelineTest, LiteralDisequalityUnsat) {
  // x forced to the single word "ab" and x != "ab".
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, EquationPlusDisequality) {
  // The paper's flagship combination: E ∧ R ∧ P. uv = vu forces sharing;
  // u != v remains satisfiable (different powers).
  Problem P;
  VarId U = P.strVar("u"), V = P.strVar("v");
  P.assertInRe(U, "a*");
  P.assertInRe(V, "a*");
  P.assertWordEq({StrElem::var(U), StrElem::var(V)},
                 {StrElem::var(V), StrElem::var(U)});
  P.assertDiseq({StrElem::var(U)}, {StrElem::var(V)});
  EXPECT_EQ(solve(P).V, Verdict::Sat);
}

TEST(PipelineTest, PositivePredicatesBecomeEquations) {
  // prefixof + suffixof sandwich: x starts with "ab" and ends with "ba"
  // within length 4 — e.g. "abba".
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){0,4}");
  P.assertPred(AssertKind::Prefixof, {StrElem::lit("ab")},
               {StrElem::var(X)});
  P.assertPred(AssertKind::Suffixof, {StrElem::lit("ba")},
               {StrElem::var(X)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  const Word &W = R.Words.at(X);
  EXPECT_GE(W.size(), 2u);
}

TEST(PipelineTest, LengthConstraintInteraction) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a*");
  P.assertInRe(Y, "b*");
  P.assertDiseq({StrElem::var(X)}, {StrElem::var(Y)});
  // Force |x| = |y| = 0: then x = y = ε and the disequality dies.
  P.assertIntAtom(IntTerm::lenOf(X) + IntTerm::lenOf(Y), lia::Cmp::Le,
                  IntTerm::constant(0));
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, StrAtThroughPipeline) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){3}");
  // x[1] = 'b' and x != "aba" and x[0] != 'b'.
  P.assertStrAt(true, StrElem::lit("b"), {StrElem::var(X)},
                IntTerm::constant(1));
  P.assertStrAt(false, StrElem::lit("b"), {StrElem::var(X)},
                IntTerm::constant(0));
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("aba")});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Words.at(X).size(), 3u);
}

TEST(PipelineTest, ModelValidatesAgainstConcreteSemantics) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab|ba)+");
  P.assertInRe(Y, "(a|b){2}");
  P.assertPred(AssertKind::NotPrefixof, {StrElem::var(Y)},
               {StrElem::var(X)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  // solveProblem(ValidateModels=true by default) already cross-checks;
  // re-validate explicitly through the public evaluator.
  strings::NormalForm N = strings::normalize(P);
  strings::ConcreteEvaluator Eval(P, N.Sigma);
  std::map<VarId, Word> Strs(R.Words.begin(), R.Words.end());
  std::map<strings::IntVarId, int64_t> Ints(R.Ints.begin(), R.Ints.end());
  EXPECT_TRUE(Eval.evalAll(Strs, Ints));
}

TEST(PipelineTest, CommutingPowersUnsatEndToEnd) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(abc)*");
  P.assertInRe(Y, "(abc)*");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)},
                {StrElem::var(Y), StrElem::var(X)});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

TEST(PipelineTest, NotContainsRotationUnsatEndToEnd) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ab)*");
  P.assertPred(AssertKind::NotContains,
               {StrElem::var(X), StrElem::var(Y)},
               {StrElem::var(Y), StrElem::var(X)});
  EXPECT_EQ(solve(P).V, Verdict::Unsat);
}

//===----------------------------------------------------------------------===
// Baselines
//===----------------------------------------------------------------------===

TEST(BaselineTest, EnumFindsEasySat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,2}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("a")});
  solver::EnumOptions O;
  O.TimeoutMs = 5000;
  EXPECT_EQ(solver::solveEnum(P, O).V, Verdict::Sat);
}

TEST(BaselineTest, EnumCannotProveUnboundedUnsat) {
  // Commuting powers again: enum has infinitely many assignments to try.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ab)*");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)},
                {StrElem::var(Y), StrElem::var(X)});
  solver::EnumOptions O;
  O.TimeoutMs = 1000;
  EXPECT_NE(solver::solveEnum(P, O).V, Verdict::Sat);
}

TEST(BaselineTest, EqReductionAgreesOnEasyCases) {
  for (int Case = 0; Case < 2; ++Case) {
    Problem P;
    VarId X = P.strVar("x");
    P.assertInRe(X, Case == 0 ? "ab" : "(a|b){1,2}");
    P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
    solver::EqReductionOptions O;
    O.TimeoutMs = 10000;
    Verdict Expect = Case == 0 ? Verdict::Unsat : Verdict::Sat;
    EXPECT_EQ(solver::solveEqReduction(P, O).V, Expect) << Case;
  }
}

//===----------------------------------------------------------------------===
// Cross-solver differential on small random pipelines
//===----------------------------------------------------------------------===

class PipelineDifferential : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PipelineDifferential, SolversNeverContradict) {
  std::mt19937 Rng(GetParam());
  static const char *Regexes[] = {"(a|b){0,2}", "a*", "ab|ba", "b{1,2}"};
  static const char *Lits[] = {"a", "b", "ab", "ba"};
  for (int Iter = 0; Iter < 8; ++Iter) {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, Regexes[Rng() % 4]);
    P.assertInRe(Y, Regexes[Rng() % 4]);
    for (int A = 0; A < 2; ++A) {
      const char *Lit = Lits[Rng() % 4];
      switch (Rng() % 4) {
      case 0:
        P.assertDiseq({StrElem::var(X)},
                      {StrElem::var(Y), StrElem::lit(Lit)});
        break;
      case 1:
        P.assertPred(AssertKind::NotPrefixof, {StrElem::lit(Lit)},
                     {StrElem::var(X)});
        break;
      case 2:
        P.assertWordEq({StrElem::var(X), StrElem::var(Y)},
                       {StrElem::var(Y), StrElem::lit(Lit)});
        break;
      default:
        P.assertPred(AssertKind::Suffixof, {StrElem::lit(Lit)},
                     {StrElem::var(Y)});
        break;
      }
    }
    SolveResult Ours = solve(P, 15000);
    solver::EnumOptions EO;
    EO.TimeoutMs = 3000;
    EO.MaxWordLen = 4;
    SolveResult Enum = solver::solveEnum(P, EO);
    // Never a hard contradiction; enum-Sat implies we cannot say Unsat,
    // and vice versa.
    if (Ours.V == Verdict::Sat)
      EXPECT_NE(Enum.V, Verdict::Unsat) << "iter " << Iter;
    if (Ours.V == Verdict::Unsat)
      EXPECT_NE(Enum.V, Verdict::Sat) << "iter " << Iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineDifferential,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

//===----------------------------------------------------------------------===
// Parallel disjunct pool
//===----------------------------------------------------------------------===

TEST(PipelineTest, ParallelPoolVerdictsMatchSerial) {
  // Word equations fan stabilization out into several disjuncts; the
  // pool must produce the same verdict as the serial loop at any thread
  // count (models may differ — any satisfied disjunct is a witness).
  // Three fixed shapes: multi-disjunct Sat, Unsat, and ε-heavy Sat.
  auto MkSat = [] {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, "a*");
    P.assertInRe(Y, "a*");
    P.assertWordEq({StrElem::var(X), StrElem::var(Y)},
                   {StrElem::var(Y), StrElem::var(X)});
    P.assertDiseq({StrElem::var(X)}, {StrElem::var(Y)});
    return P;
  };
  auto MkUnsat = [] {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, "ab");
    P.assertInRe(Y, "(a|b){0,2}");
    P.assertWordEq({StrElem::var(X)}, {StrElem::var(Y)});
    P.assertDiseq({StrElem::var(Y)}, {StrElem::lit("ab")});
    return P;
  };
  auto MkPred = [] {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, "ab|ba");
    P.assertInRe(Y, "(a|b){1,2}");
    P.assertWordEq({StrElem::var(X)}, {StrElem::var(Y)});
    P.assertPred(AssertKind::NotPrefixof, {StrElem::lit("a")},
                 {StrElem::var(Y)});
    return P;
  };
  int Case = 0;
  for (const Problem &P : {MkSat(), MkUnsat(), MkPred()}) {
    Verdict Serial = Verdict::Unknown;
    for (uint32_t Threads : {1u, 2u, 4u}) {
      SolveOptions Opts;
      Opts.TimeoutMs = 20000;
      Opts.Threads = Threads;
      SolveResult R = solver::solveProblem(P, Opts);
      if (Threads == 1)
        Serial = R.V;
      else
        EXPECT_EQ(R.V, Serial) << "case " << Case << " threads " << Threads;
    }
    EXPECT_NE(Serial, Verdict::Unknown) << "case " << Case;
    ++Case;
  }
}

TEST(SelfCheckTest, EmptySideEquationIsSat) {
  // Regression: `x = ""` substitutes every variable away, leaving a
  // zero-state system automaton whose Parikh formula must accept the
  // empty run (it used to demand "exactly one first state" over an empty
  // sum and answer Unsat). Found by the differential fuzzer.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertWordEq({}, {StrElem::var(X), StrElem::var(Y)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_TRUE(R.Words.at(X).empty());
  EXPECT_TRUE(R.Words.at(Y).empty());
}

TEST(SelfCheckTest, CleanSatModelIsCountedValidated) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,3}");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_FALSE(R.Validation.Failed);
  EXPECT_GE(R.Stats.ModelsValidated, 1u);
  EXPECT_EQ(R.Stats.ValidationFailures, 0u);
}

/// xy ≠ yx with x ∈ (ab)*, y ∈ a(ba)*: equal lengths always, so only the
/// one-counter mismatch search finds the Sat (x = ab, y = a).
Problem fastPathSatProblem() {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.intVar("n"); // declared, unconstrained
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "a(ba)*");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)},
                {StrElem::var(Y), StrElem::var(X)});
  return P;
}

TEST(SelfCheckTest, FastPathSatCarriesItsWalkAsTheModel) {
  // The fast path's Sat is the answer: no solveMP re-solve for a model,
  // and the walk it found is validated like every other Sat model.
  Problem P = fastPathSatProblem();
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.MpCalls, 0u);
  EXPECT_EQ(R.Stats.FastPathDecisions, 1u);
  EXPECT_EQ(R.Stats.ModelsValidated, 1u);
  EXPECT_EQ(R.Stats.ValidationFailures, 0u);
  EXPECT_EQ(R.Ints.at(0), 0);
  strings::NormalForm N = strings::normalize(P);
  strings::ConcreteEvaluator Eval(P, N.Sigma);
  EXPECT_TRUE(Eval.evalAll(R.Words, R.Ints));
}

TEST(SelfCheckTest, TamperedFastPathWitnessIsDemotedToUnknown) {
  // A fast-path witness goes through the same self-check: a corrupted
  // one is demoted, never returned as Sat.
  Problem P = fastPathSatProblem();
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.TamperModel = [](std::map<VarId, Word> &Words,
                        std::map<strings::IntVarId, int64_t> &) {
    Words.at(1) = Words.at(0); // y = x: xy = yx
  };
  SolveResult R = solver::solveProblem(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_TRUE(R.Validation.Failed);
  EXPECT_EQ(R.Stats.MpCalls, 0u);
  EXPECT_EQ(R.Stats.ValidationFailures, 1u);
}

TEST(SelfCheckTest, TamperedModelIsDemotedToUnknown) {
  // Corrupt every produced model through the test-only hook: the
  // always-on self-check must catch it and never let the Sat escape.
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.TamperModel = [](std::map<VarId, Word> &Words,
                        std::map<strings::IntVarId, int64_t> &) {
    for (auto &[V, W] : Words)
      W.clear(); // ε no longer matches "ab"
  };
  SolveResult R = solver::solveProblem(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unknown);
  ASSERT_TRUE(R.Validation.Failed);
  EXPECT_NE(R.Validation.Detail.find("falsifies"), std::string::npos);
  EXPECT_GE(R.Stats.ValidationFailures, 1u);
}

TEST(SelfCheckTest, ParanoidCrossCheckKeepsTrueUnsat) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.ParanoidUnsatCheck = true;
  SolveResult R = solver::solveProblem(P, Opts);
  EXPECT_EQ(R.V, Verdict::Unsat);
  EXPECT_FALSE(R.Validation.Failed);
  EXPECT_EQ(R.Stats.ParanoidChecks, 1u);
}

} // namespace
