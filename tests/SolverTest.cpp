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

#include "base/Budget.h"
#include "proof/Check.h"
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
using strings::StrSeq;

namespace {

/// Step cap for m3 (SolveReportTest): the full encoding's search runs
/// into it well before a second of work.
constexpr uint64_t M3Steps = 2000;

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

TEST(PipelineTest, StrAtOverConcatenationReachesEncoder) {
  // The twin of StrAtThroughPipeline whose haystack is x·y: no side is a
  // single variable, so nothing is lowered and the str.at predicates go
  // through the tag encoding. One-letter languages keep it well inside
  // the 20 s cap under Debug+ASan+UBSan.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a|b");
  P.assertInRe(Y, "a|b");
  StrSeq XY = {StrElem::var(X), StrElem::var(Y)};
  P.assertStrAt(true, StrElem::lit("b"), XY, IntTerm::constant(1));
  P.assertStrAt(false, StrElem::lit("b"), XY, IntTerm::constant(0));
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_GT(R.Stats.MpCalls, 0u);
  Word XYWord = R.Words.at(X);
  XYWord.insert(XYWord.end(), R.Words.at(Y).begin(), R.Words.at(Y).end());
  ASSERT_EQ(XYWord.size(), 2u);
  EXPECT_NE(XYWord[0], XYWord[1]);
}

TEST(PipelineTest, ProjectedVariableJoinsTheModel) {
  // x is only constrained by its language once suffixof("s", x) becomes
  // a membership, so it stays out of the solveMP call that decides y's
  // disequality; its word still rejoins the validated model. z is read
  // by a length term, so it stays encoded.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y"), Z = P.strVar("z");
  P.assertInRe(X, "(g|i|s){0,6}");
  P.assertInRe(Y, "(g|i|s){0,2}");
  P.assertInRe(Z, "g*");
  P.assertPred(AssertKind::Suffixof, {StrElem::lit("s")}, {StrElem::var(X)});
  StrSeq YY = {StrElem::var(Y), StrElem::var(Y)};
  P.assertDiseq(YY, {StrElem::lit("gp")});
  P.assertIntAtom(IntTerm::lenOf(Z), lia::Cmp::Eq, IntTerm::constant(2));
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.MpCalls, 1u);
  EXPECT_EQ(R.Stats.ModelsValidated, 1u);
  ASSERT_FALSE(R.Words.at(X).empty());
  strings::NormalForm N = strings::normalize(P);
  EXPECT_EQ(R.Words.at(X).back(), N.Sigma.lookup('s').value());
  EXPECT_EQ(R.Words.at(Z).size(), 2u);
}

TEST(PipelineTest, UnreadEmptyLanguageIsCertifiedUnsat) {
  // y is read by nothing, and its lowered language (a) ∩ ¬{a} is empty.
  // Stabilization refutes that before any disjunct exists, so the
  // certificate has zero disjuncts: one trusted front-end step.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "a");
  P.assertDiseq({StrElem::var(Y)}, {StrElem::lit("a")});
  P.assertDiseq({StrElem::var(X), StrElem::var(X)}, {StrElem::lit("ab")});
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.CertifyUnsat = true;
  SolveResult R = solver::solveProblem(P, Opts);
  ASSERT_EQ(R.V, Verdict::Unsat);
  EXPECT_EQ(R.Stats.Disjuncts, 0u);
  EXPECT_EQ(R.Stats.MpCalls, 0u);
  EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  Result<proof::Certificate> Parsed = proof::parse(R.CertText);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
  proof::CheckOutcome Out = proof::checkCertificate(*Parsed);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Stats.TrustedRules, 1u);
  EXPECT_EQ(Out.Stats.CheckedRefutations, 0u);
}

TEST(PipelineTest, LengthFirstDisequalityHoldsByLength) {
  // |x| ≥ 3 keeps the one-counter fast path out, and both ≠ hold by
  // length alone, so the length-first attempt answers with one QF solve.
  // The full tag encoding of the two ≠ does not finish in 60 s.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y"), Z = P.strVar("z");
  for (VarId V : {X, Y, Z})
    P.assertInRe(V, "(a|b|c){0,8}");
  StrSeq XYZ = {StrElem::var(X), StrElem::var(Y), StrElem::var(Z)};
  StrSeq ZYX = {StrElem::var(Z), StrElem::var(Y), StrElem::var(X)};
  P.assertDiseq(XYZ, {StrElem::lit("abcab")});
  P.assertDiseq(ZYX, {StrElem::lit("cabba")});
  P.assertIntAtom(IntTerm::lenOf(X), lia::Cmp::Ge, IntTerm::constant(3));
  SolveResult R = solve(P, 5000);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.MpCalls, 1u);
  EXPECT_EQ(R.Stats.Qf.Solves, 1u);
  EXPECT_EQ(R.Stats.ModelsValidated, 1u);
  EXPECT_GE(R.Words.at(X).size(), 3u);
}

TEST(PipelineTest, LengthFirstDisequalityNeedsNoIntSide) {
  // thefuck/11/81 (bench/workloads): two ≠ and no integer side. Two
  // predicates keep the one-counter fast path out; all-ε satisfies both
  // by length, so the attempt answers with one QF solve in under 300
  // budget steps. The full tag encoding alone needs over 10000.
  Problem P;
  VarId In0 = P.strVar("in0"), In1 = P.strVar("in1"), In2 = P.strVar("in2");
  for (VarId V : {In0, In1, In2})
    P.assertInRe(V, "(g|i|s){0,6}");
  P.assertDiseq({StrElem::var(In2)}, {StrElem::lit("st")});
  P.assertDiseq({StrElem::var(In2), StrElem::var(In0)}, {StrElem::lit("i")});
  P.assertDiseq({StrElem::var(In1), StrElem::var(In1)}, {StrElem::lit("pt")});
  SolveOptions Opts;
  Opts.StepLimit = 2000;
  SolveResult R = solver::solveProblem(P, Opts);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.Qf.Solves, 1u);
  EXPECT_EQ(R.Stats.ModelsValidated, 1u);
}

TEST(PipelineTest, LengthFirstDisequalityFallsThroughOnEqualLengths) {
  // |x| = |y| = 1 forces |x·y| = |"ab"|, so the attempt finds nothing and
  // the full encoding decides the mismatch: a second QF solve, in the
  // same solveMP call.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a|b");
  P.assertInRe(Y, "a|b");
  StrSeq XY = {StrElem::var(X), StrElem::var(Y)};
  P.assertDiseq(XY, {StrElem::lit("ab")});
  P.assertIntAtom(IntTerm::lenOf(X), lia::Cmp::Eq, IntTerm::constant(1));
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.MpCalls, 1u);
  EXPECT_EQ(R.Stats.Qf.Solves, 2u);
  ASSERT_EQ(R.Words.at(X).size(), 1u);
  ASSERT_EQ(R.Words.at(Y).size(), 1u);
  strings::NormalForm N = strings::normalize(P);
  EXPECT_FALSE(R.Words.at(X)[0] == N.Sigma.lookup('a').value() &&
               R.Words.at(Y)[0] == N.Sigma.lookup('b').value());
}

TEST(PipelineTest, LengthFirstDisequalityNeverRefutes) {
  // x·y can only spell "ab": the attempt's Unsat proves nothing, and the
  // Unsat with its certificate comes from the full encoding.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a");
  P.assertInRe(Y, "b");
  P.assertDiseq({StrElem::var(X), StrElem::var(Y)}, {StrElem::lit("ab")});
  P.assertIntAtom(IntTerm::lenOf(X), lia::Cmp::Eq, IntTerm::constant(1));
  SolveOptions Opts;
  Opts.TimeoutMs = 20000;
  Opts.CertifyUnsat = true;
  SolveResult R = solver::solveProblem(P, Opts);
  ASSERT_EQ(R.V, Verdict::Unsat);
  EXPECT_EQ(R.Stats.Qf.Solves, 2u);
  EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  Result<proof::Certificate> Parsed = proof::parse(R.CertText);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
  EXPECT_TRUE(proof::checkCertificate(*Parsed).Ok);
}

TEST(PipelineTest, LengthFirstDisequalityMatchesEnum) {
  // Seeded draws of one or two ≠ over concatenations of x, y against
  // words, the first 40 under a length atom and the last 20 without one,
  // all languages finite so that solveEnum is complete. Both outcomes of
  // the attempt must occur: a Sat by length alone (one QF solve) and a
  // fall-through to the full encoding (two).
  const char *Words[] = {"", "a", "ab", "ba", "abb"};
  const lia::Cmp Ops[] = {lia::Cmp::Eq, lia::Cmp::Ge, lia::Cmp::Le};
  std::mt19937 Rng(7);
  int ByLength = 0, FellThrough = 0;
  for (int Draw = 0; Draw < 60; ++Draw) {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y");
    P.assertInRe(X, Draw % 2 ? "(a|b){0,2}" : "a{0,2}");
    P.assertInRe(Y, "(a|b){0,2}");
    for (int K = 0; K < 1 + Draw % 2; ++K) {
      StrSeq Lhs = {StrElem::var(Rng() % 2 ? X : Y), StrElem::var(Y)};
      P.assertDiseq(Lhs, {StrElem::lit(Words[Rng() % 5])});
    }
    if (Draw < 40)
      P.assertIntAtom(IntTerm::lenOf(Rng() % 2 ? X : Y), Ops[Rng() % 3],
                      IntTerm::constant(Rng() % 3));
    SolveResult R = solve(P);
    solver::EnumOptions EO;
    EO.TimeoutMs = 5000;
    ASSERT_NE(R.V, Verdict::Unknown) << Draw;
    EXPECT_EQ(R.V, solver::solveEnum(P, EO).V) << Draw;
    if (R.V == Verdict::Sat)
      EXPECT_EQ(R.Stats.ModelsValidated, 1u) << Draw;
    ByLength += R.V == Verdict::Sat && R.Stats.Qf.Solves == 1;
    FellThrough += R.Stats.Qf.Solves == 2;
  }
  EXPECT_GT(ByLength, 0);
  EXPECT_GT(FellThrough, 0);
}

TEST(PipelineTest, LengthStageOrderMatchesEnum) {
  // Seeded draws of a mono-root ≠ (over x, z ∈ a-powers and a word of
  // a's) beside a mixed-root one (over x or y ∈ {a,b}-words and y), the
  // first 40 under a length atom and the last 20 without one, all
  // languages finite so that solveEnum is complete. solveMP's length
  // stage runs the bare-length abstraction, then length-first ≠, then the
  // encoding, one QF solve each, so Qf.Solves tells which decided: each
  // of the three must decide a draw.
  const char *AWords[] = {"", "a", "aa", "aaa"};
  const char *Words[] = {"", "a", "ab", "ba", "abb"};
  const lia::Cmp Ops[] = {lia::Cmp::Eq, lia::Cmp::Ge, lia::Cmp::Le};
  std::mt19937 Rng(11);
  int Decided[4] = {0, 0, 0, 0};
  for (int Draw = 0; Draw < 60; ++Draw) {
    Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y"), Z = P.strVar("z");
    P.assertInRe(X, "a{0,2}");
    P.assertInRe(Y, "(a|b){0,2}");
    P.assertInRe(Z, "(aa){0,1}");
    StrSeq XZ = {StrElem::var(X), StrElem::var(Z)};
    StrSeq ZX = {StrElem::var(Z), StrElem::var(X)};
    switch (Rng() % 3) {
    case 0:
      P.assertDiseq(XZ, ZX); // never holds
      break;
    case 1:
      P.assertDiseq(XZ, {StrElem::lit(AWords[Rng() % 4])});
      break;
    default:
      P.assertDiseq(XZ, {StrElem::var(Z), StrElem::lit("a")});
      break;
    }
    StrSeq Mixed = {StrElem::var(Rng() % 2 ? X : Y), StrElem::var(Y)};
    P.assertDiseq(Mixed, {StrElem::lit(Words[Rng() % 5])});
    if (Draw < 40) {
      VarId V = Rng() % 3 == 0 ? X : Rng() % 2 ? Y : Z;
      P.assertIntAtom(IntTerm::lenOf(V), Ops[Rng() % 3],
                      IntTerm::constant(Rng() % 3));
    }
    SolveResult R = solve(P);
    solver::EnumOptions EO;
    EO.TimeoutMs = 5000;
    ASSERT_NE(R.V, Verdict::Unknown) << Draw;
    EXPECT_EQ(R.V, solver::solveEnum(P, EO).V) << Draw;
    if (R.V == Verdict::Sat)
      EXPECT_EQ(R.Stats.ModelsValidated, 1u) << Draw;
    EXPECT_LE(R.Stats.MpCalls, 1u) << Draw;
    if (R.Stats.MpCalls == 1 && R.Stats.Qf.Solves <= 3)
      ++Decided[R.Stats.Qf.Solves];
  }
  EXPECT_GT(Decided[1], 0) << "abstraction";
  EXPECT_GT(Decided[2], 0) << "length-first";
  EXPECT_GT(Decided[3], 0) << "encoding";
}

TEST(PipelineTest, StrAtAfterWordEquationSplitMatchesEnum) {
  // Each word equation makes stabilization substitute the str.at
  // variable x by a concatenation x1·x2, so when |x| = 1 its letter may
  // sit in x2. The encoding must sample it from whichever part carries
  // it. Every language is finite, so the enumeration baseline decides
  // each case and serves as the oracle.
  const std::vector<std::pair<const char *, const char *>> Equations = {
      {"xxx", "xby"}, {"xx", "yab"}, {"xx", "yb"}, {"xx", "by"}};
  uint32_t Sat = 0, Unsat = 0;
  for (const auto &[L, R] : Equations)
    for (bool Positive : {true, false}) {
      Problem P;
      VarId X = P.strVar("x"), Y = P.strVar("y"), H = P.strVar("h");
      P.assertInRe(X, "(a|b){0,3}");
      P.assertInRe(Y, "(a|b){0,3}");
      P.assertInRe(H, "ab");
      auto Seq = [&](const char *Text) {
        strings::StrSeq Out;
        for (const char *C = Text; *C; ++C)
          Out.push_back(*C == 'x'   ? StrElem::var(X)
                        : *C == 'y' ? StrElem::var(Y)
                                    : StrElem::lit(std::string(1, *C)));
        return Out;
      };
      P.assertWordEq(Seq(L), Seq(R));
      P.assertStrAt(Positive, StrElem::var(X), {StrElem::var(H)},
                    IntTerm::constant(1));
      solver::EnumOptions EO;
      EO.TimeoutMs = 10000;
      EO.MaxWordLen = 4;
      Verdict Oracle = solver::solveEnum(P, EO).V;
      ASSERT_NE(Oracle, Verdict::Unknown) << L << " = " << R;
      EXPECT_EQ(solve(P).V, Oracle)
          << L << " = " << R << (Positive ? ", x = " : ", x != ")
          << "str.at(h, 1)";
      (Oracle == Verdict::Sat ? Sat : Unsat) += 1;
    }
  EXPECT_GT(Sat, 0u);
  EXPECT_GT(Unsat, 0u);
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
  // solveProblem already cross-checks every Sat model;
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

TEST(PipelineTest, NonFlatCoveringNotContainsIsSat) {
  // ¬contains(xy, yx) with x ∈ (a|b)+ non-flat: the needle yx covers the
  // haystack xy, so both have the same length and the predicate is
  // yx ≠ xy, which x = a, y = c satisfies. The |needle| > |haystack|
  // under-approximation could never hold here and answered Unknown.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)+");
  P.assertInRe(Y, "c+");
  P.assertPred(AssertKind::NotContains,
               {StrElem::var(Y), StrElem::var(X)},
               {StrElem::var(X), StrElem::var(Y)});
  SolveResult R = solve(P);
  EXPECT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.ModelsValidated, 1u);
  EXPECT_FALSE(R.Stats.UsedApproximation);
  EXPECT_FALSE(R.Stats.UsedMbqi);
}

TEST(PipelineTest, MonoRootRewriteMatchesEnumAndTheLiaPath) {
  // Near-mono-root languages for x, y, z: conjugate roots, a root beside
  // its square, r* beside r+, ε-only languages, one variable off the
  // root. Every predicate reads all three, so it is mono-root exactly
  // when the shape is. The default pipeline's verdict must agree with the
  // enumeration baseline (a Sat it finds is a certified model), and on a
  // mono-root predicate with the UseOcaFastPath = false path; a mono-root
  // Unsat must be a checked refutation with no trusted rule. Off-root
  // predicates take the one-counter walk or MBQI, which may not settle
  // within the step limit.
  struct Shape {
    const char *X, *Y, *Z;
    bool MonoRoot;
  };
  const Shape Shapes[] = {
      {"(ab)*", "(ba)*", "(ab)*", false},
      {"(abcbb)*", "(abcbbabcbb)*", "(abcbb)+", true},
      {"(ab)*", "(ab)+", "", true},
      {"", "", "", true},
      {"a*", "(aa)*", "a+", true},
      {"(ab)*", "(ab)+", "(ab)*a", false},
      {"(ab)*", "(ab)*", "(ab)*b(ab)*", false},
  };
  const std::pair<const char *, const char *> Sides[] = {
      {"xyz", "zyx"}, {"xy", "yxz"}, {"zx", "yzx"},
      {"yxx", "xyz"}, {"z", "xyz"},  {"xxz", "zy"},
  };
  const AssertKind Kinds[] = {AssertKind::Diseq, AssertKind::NotPrefixof,
                              AssertKind::NotSuffixof,
                              AssertKind::NotContains};
  uint32_t MonoSat = 0, MonoUnsat = 0, OffDecided = 0;
  for (const Shape &Sh : Shapes)
    for (const auto &[L, R] : Sides)
      for (AssertKind Kind : Kinds) {
        Problem P;
        VarId Vars[] = {P.strVar("x"), P.strVar("y"), P.strVar("z")};
        P.assertInRe(Vars[0], Sh.X);
        P.assertInRe(Vars[1], Sh.Y);
        P.assertInRe(Vars[2], Sh.Z);
        auto Seq = [&](const char *Text) {
          StrSeq Out;
          for (const char *C = Text; *C; ++C)
            Out.push_back(StrElem::var(Vars[*C - 'x']));
          return Out;
        };
        if (Kind == AssertKind::Diseq)
          P.assertDiseq(Seq(L), Seq(R));
        else
          P.assertPred(Kind, Seq(L), Seq(R));
        std::string Where = std::string(Sh.X) + " " + Sh.Y + " " + Sh.Z +
                            ": " + L + " / " + R + " kind " +
                            std::to_string(static_cast<int>(Kind));

        SolveOptions O;
        O.StepLimit = 5'000;
        O.CertifyUnsat = true;
        SolveResult Res = solver::solveProblem(P, O);
        if (Sh.MonoRoot) {
          ASSERT_NE(Res.V, Verdict::Unknown) << Where;
          EXPECT_FALSE(Res.Stats.UsedMbqi) << Where;
          EXPECT_EQ(Res.Stats.FastPathDecisions, 0u) << Where;
          SolveOptions Slow = O;
          Slow.UseOcaFastPath = false;
          EXPECT_EQ(solver::solveProblem(P, Slow).V, Res.V) << Where;
          ++(Res.V == Verdict::Sat ? MonoSat : MonoUnsat);
        } else if (Res.V != Verdict::Unknown) {
          ++OffDecided;
        } else {
          continue;
        }
        if (Res.V == Verdict::Unsat) {
          Result<proof::Certificate> C = proof::parse(Res.CertText);
          ASSERT_TRUE(static_cast<bool>(C)) << C.error();
          proof::CheckOutcome CO = proof::checkCertificate(*C);
          EXPECT_TRUE(CO.Ok) << Where << ": " << CO.Error;
          if (Sh.MonoRoot) {
            EXPECT_EQ(CO.Stats.TrustedRules, 0u) << Where;
            EXPECT_EQ(CO.Stats.MonoRootAtoms, 1u) << Where;
          }
        } else {
          EXPECT_EQ(Res.Stats.ModelsValidated, 1u) << Where;
        }
        solver::EnumOptions EO;
        EO.MaxWordLen = 4;
        EO.TimeoutMs = 5000;
        Verdict Enum = solver::solveEnum(P, EO).V;
        if (Enum == Verdict::Sat)
          EXPECT_EQ(Res.V, Verdict::Sat) << Where;
        if (Res.V == Verdict::Unsat)
          EXPECT_NE(Enum, Verdict::Sat) << Where;
      }
  EXPECT_GT(MonoSat, 0u);
  EXPECT_GT(MonoUnsat, 0u);
  EXPECT_GT(OffDecided, 0u);
}

TEST(PipelineTest, CoveringNotContainsMatchesEnumAndTheDiseq) {
  // A ¬contains whose needle covers its haystack (every variable occurs
  // in the needle at least as often) is not mono-root here, so it is
  // solved as the ≠ of its sides. It is decided without MBQI or the
  // |needle| > |haystack| under-approximation, its verdict is that of the
  // ≠ stated directly, and it never contradicts the enumeration baseline.
  // With |x| + |z| ≤ 0 every covering pair is Unsat (both sides are y). The
  // last side pair's haystack holds z, which its needle lacks, so it is
  // not rewritten: over a non-flat language it stays approximated.
  struct Shape {
    const char *X, *Y, *Z;
    bool Flat;
  };
  const Shape Shapes[] = {
      {"(ab)*", "(ba)*", "(ab)*", true},
      {"(a|b)+", "c+", "(ab)*", false},
      {"(ab)*", "(a|b)*", "b*", false},
      {"(ab|ba)*", "a", "(ab)+", false},
  };
  struct Sides {
    const char *Needle, *Hay;
    bool Covers;
  };
  const Sides Pairs[] = {
      {"xyz", "zy", true},
      {"yx", "xy", true},
      {"xyz", "zyx", true},
      {"yxx", "xy", true},
      {"xy", "yxz", false},
  };
  auto Build = [](const Shape &Sh, const Sides &S, bool Pinned,
                  bool AsDiseq) {
    Problem P;
    VarId Vars[] = {P.strVar("x"), P.strVar("y"), P.strVar("z")};
    P.assertInRe(Vars[0], Sh.X);
    P.assertInRe(Vars[1], Sh.Y);
    P.assertInRe(Vars[2], Sh.Z);
    auto Seq = [&](const char *Text) {
      StrSeq Out;
      for (const char *C = Text; *C; ++C)
        Out.push_back(StrElem::var(Vars[*C - 'x']));
      return Out;
    };
    if (AsDiseq)
      P.assertDiseq(Seq(S.Needle), Seq(S.Hay));
    else
      P.assertPred(AssertKind::NotContains, Seq(S.Needle), Seq(S.Hay));
    if (Pinned)
      P.assertIntAtom(IntTerm::lenOf(Vars[0]) + IntTerm::lenOf(Vars[2]),
                      lia::Cmp::Le, IntTerm::constant(0));
    return P;
  };
  uint32_t Sat = 0, Unsat = 0;
  for (const Shape &Sh : Shapes)
    for (const Sides &S : Pairs)
      for (bool Pinned : {false, true}) {
        std::string Where = std::string(Sh.X) + " " + Sh.Y + " " + Sh.Z +
                            ": " + S.Needle + " in " + S.Hay +
                            (Pinned ? " pinned" : "");
        SolveOptions O;
        O.StepLimit = 5'000;
        O.CertifyUnsat = true;
        Problem P = Build(Sh, S, Pinned, false);
        SolveResult Res = solver::solveProblem(P, O);
        if (!S.Covers) {
          EXPECT_EQ(Res.Stats.UsedApproximation, !Sh.Flat) << Where;
          continue;
        }
        ASSERT_NE(Res.V, Verdict::Unknown) << Where;
        EXPECT_FALSE(Res.Stats.UsedMbqi) << Where;
        EXPECT_FALSE(Res.Stats.UsedApproximation) << Where;
        EXPECT_EQ(solver::solveProblem(Build(Sh, S, Pinned, true), O).V,
                  Res.V)
            << Where;
        if (Res.V == Verdict::Unsat) {
          Result<proof::Certificate> C = proof::parse(Res.CertText);
          ASSERT_TRUE(static_cast<bool>(C)) << C.error();
          EXPECT_TRUE(proof::checkCertificate(*C).Ok) << Where;
          ++Unsat;
        } else {
          EXPECT_EQ(Res.Stats.ModelsValidated, 1u) << Where;
          ++Sat;
        }
        solver::EnumOptions EO;
        EO.MaxWordLen = 4;
        EO.TimeoutMs = 5000;
        Verdict Enum = solver::solveEnum(P, EO).V;
        if (Enum == Verdict::Sat)
          EXPECT_EQ(Res.V, Verdict::Sat) << Where;
        if (Res.V == Verdict::Unsat)
          EXPECT_NE(Enum, Verdict::Sat) << Where;
      }
  EXPECT_GT(Sat, 0u);
  EXPECT_GT(Unsat, 0u);
}

TEST(PipelineTest, MixedRootCoveringNotContainsUnsatIsChecked) {
  // ¬contains(xxy, xyx) with |x| ≤ 0 over conjugate roots: x = ε makes
  // both sides y, so it is Unsat. As the ≠ xyx ≠ xxy it takes
  // length-first ≠ and then solveMP's ≠ encoding, never MBQI, and its
  // refutation is a clause trace the kernel checks (through MBQI it was
  // a trusted `mbqi` rule).
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ba)*");
  P.assertIntAtom(IntTerm::lenOf(X), lia::Cmp::Le, IntTerm::constant(0));
  P.assertPred(AssertKind::NotContains,
               {StrElem::var(X), StrElem::var(Y), StrElem::var(X)},
               {StrElem::var(X), StrElem::var(X), StrElem::var(Y)});
  SolveOptions O;
  O.StepLimit = 20'000;
  O.CertifyUnsat = true;
  SolveResult R = solver::solveProblem(P, O);
  EXPECT_EQ(R.V, Verdict::Unsat);
  EXPECT_FALSE(R.Stats.UsedMbqi);
  EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  Result<proof::Certificate> C = proof::parse(R.CertText);
  ASSERT_TRUE(static_cast<bool>(C)) << C.error();
  proof::CheckOutcome CO = proof::checkCertificate(*C);
  EXPECT_TRUE(CO.Ok) << CO.Error;
  EXPECT_EQ(CO.Stats.CheckedRefutations, 1u);
  EXPECT_EQ(CO.Stats.TrustedRules, 0u);
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
    Budget Deadline(Budget::Limits{10000, 0, 0, nullptr});
    solver::EqReductionOptions O;
    O.Budget = &Deadline;
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

//===----------------------------------------------------------------------===
// The solve report: SolveStats::Qf and the writer
//===----------------------------------------------------------------------===

TEST(SolveReportTest, BothQfSolvesOfADisjunctAreCounted) {
  // m3: x, z ∈ (ab)*, y ∈ (ba)*, xyz ≠ zyx ∧ xy ≠ yz. Two predicates keep
  // the one-counter fast path out; in the one solveMP call the
  // length-first ≠ attempt (a bare length system, SparsestRow) cannot
  // hold, and the full encoding (the position predicates, on Bland's
  // order) runs until the step cap.
  Result<Problem> P = smtlib::parseString(R"(
    (declare-fun x () String)
    (declare-fun y () String)
    (declare-fun z () String)
    (assert (str.in_re x (re.* (str.to_re "ab"))))
    (assert (str.in_re z (re.* (str.to_re "ab"))))
    (assert (str.in_re y (re.* (str.to_re "ba"))))
    (assert (not (= (str.++ x y z) (str.++ z y x))))
    (assert (not (= (str.++ x y) (str.++ y z))))
    (check-sat))");
  ASSERT_TRUE(P) << P.error();
  SolveOptions Opts;
  Opts.StepLimit = M3Steps;
  SolveResult R = solver::solveProblem(*P, Opts);
  ASSERT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
  EXPECT_STREQ(solver::unknownReason(R), "stepbudget");
  EXPECT_EQ(R.Stats.MpCalls, 1u);
  EXPECT_EQ(R.Stats.Qf.Solves, 2u);
  EXPECT_EQ(R.Stats.Qf.BlandSolves, 1u);
  EXPECT_GT(R.Stats.Qf.Pivots, 0u);
  EXPECT_GT(R.Stats.Qf.Atoms, 0u);
  std::string Line = solver::statsLine(R);
  EXPECT_NE(Line.find("\"qf\": {\"solves\": 2, \"bland_solves\": 1, "),
            std::string::npos)
      << Line;
  // Step budgets make the counters deterministic.
  EXPECT_EQ(solver::statsLine(solver::solveProblem(*P, Opts)), Line);
}

TEST(SolveReportTest, MembershipAndLengthSolveIsNotOnBland) {
  // No position predicate: solveMP's QF context runs on SparsestRow.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(ab)*");
  P.assertInRe(Y, "(ba)*c");
  P.assertIntAtom(IntTerm::lenOf(X) + IntTerm::lenOf(Y), lia::Cmp::Eq,
                  IntTerm::constant(7));
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.Qf.Solves, 1u);
  EXPECT_EQ(R.Stats.Qf.BlandSolves, 0u);
}

TEST(SolveReportTest, UnknownWithoutAStopIsIncomplete) {
  // ¬contains(xy, x) over non-flat languages, whose needle lacks y: the
  // Sec. 8 under-approximation |x| > |xy| cannot hold, and its Unsat
  // proves nothing. That is incompleteness, not a resource stop: no stop
  // reason, exit code 2, reason "incomplete".
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|c)*");
  P.assertPred(AssertKind::NotContains, {StrElem::var(X)},
               {StrElem::var(X), StrElem::var(Y)});
  SolveResult R = solve(P);
  ASSERT_EQ(R.V, Verdict::Unknown);
  EXPECT_TRUE(R.Stats.UsedApproximation);
  EXPECT_EQ(R.Stop, StopReason::None);
  EXPECT_STREQ(solver::unknownReason(R), "incomplete");
  EXPECT_EQ(solver::exitCodeFor(R), 2);
  EXPECT_NE(solver::statsLine(R).find("\"stop_site\": null"),
            std::string::npos);
}

TEST(SolveReportTest, StabilizationFuelStopNamesItsSite) {
  // xyz = zyx ∧ xz ≠ zx over (a|b)*: twenty steps of stabilization fuel
  // do not finish the word equation's case split. The root budget never
  // trips, so the stop is stabilization's own, and the report says so.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y"), Z = P.strVar("z");
  for (VarId V : {X, Y, Z})
    P.assertInRe(V, "(a|b)*");
  P.assertWordEq({StrElem::var(X), StrElem::var(Y), StrElem::var(Z)},
                 {StrElem::var(Z), StrElem::var(Y), StrElem::var(X)});
  P.assertPred(AssertKind::Diseq, {StrElem::var(X), StrElem::var(Z)},
               {StrElem::var(Z), StrElem::var(X)});
  SolveOptions Opts;
  Opts.Stabilize.Fuel = 20;
  SolveResult R = solver::solveProblem(P, Opts);
  ASSERT_EQ(R.V, Verdict::Unknown);
  EXPECT_TRUE(R.Stats.StabilizationIncomplete);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
  EXPECT_EQ(R.StopSite, "eq.stabilize");
  std::string Line = solver::statsLine(R);
  EXPECT_NE(Line.find("\"stop_site\": \"eq.stabilize\""), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("\"stabilization_incomplete\": true"),
            std::string::npos)
      << Line;
}

} // namespace
