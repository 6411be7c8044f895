//===- tests/StringsTest.cpp - Normalization tests ----------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The Sec. 2 normal-form transformation: positive prefixof / suffixof /
// contains become word equations with fresh variables (step (i)),
// literals become singleton-language variables (footnote 3), every
// variable ends up with exactly one NFA (step (ii)), and an assertion
// between one variable and a word becomes a membership (step (v)).
//
//===----------------------------------------------------------------------===//

#include "strings/Eval.h"
#include "strings/Normalize.h"

#include <gtest/gtest.h>

using namespace postr;
using namespace postr::strings;

namespace {

TEST(NormalizeTest, EveryVariableGetsOneLanguage) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "a*");
  P.assertInRe(X, "(aa)*"); // two memberships must intersect
  NormalForm N = normalize(P);
  ASSERT_EQ(N.Langs.count(X), 1u);
  EXPECT_TRUE(N.Langs.at(X).accepts({}));
  Word Aa = {N.Sigma.lookup('a').value(), N.Sigma.lookup('a').value()};
  EXPECT_TRUE(N.Langs.at(X).accepts(Aa));
  Word A = {N.Sigma.lookup('a').value()};
  EXPECT_FALSE(N.Langs.at(X).accepts(A)) << "intersection not applied";
}

TEST(NormalizeTest, PositiveContainsBecomesEquation) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|b)*");
  P.assertPred(AssertKind::Contains, {StrElem::var(X)}, {StrElem::var(Y)});
  NormalForm N = normalize(P);
  // y = z·x·z′ for fresh z, z′ (Sec. 2 step (i)).
  ASSERT_EQ(N.Equations.size(), 1u);
  EXPECT_EQ(N.Equations[0].Lhs, (std::vector<VarId>{Y}));
  EXPECT_EQ(N.Equations[0].Rhs.size(), 3u);
  EXPECT_TRUE(N.Preds.empty());
}

TEST(NormalizeTest, NegativePredicatesStayInP) {
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "a*");
  P.assertInRe(Y, "b*");
  P.assertPred(AssertKind::NotPrefixof, {StrElem::var(X)},
               {StrElem::var(Y)});
  P.assertDiseq({StrElem::var(X)}, {StrElem::var(Y)});
  NormalForm N = normalize(P);
  EXPECT_TRUE(N.Equations.empty());
  ASSERT_EQ(N.Preds.size(), 2u);
  EXPECT_EQ(N.Preds[0].Kind, tagaut::PredKind::NotPrefix);
  EXPECT_EQ(N.Preds[1].Kind, tagaut::PredKind::Diseq);
}

TEST(NormalizeTest, LiteralsBecomeSingletonVariables) {
  // A literal inside a concatenation is not a constant side: it becomes
  // a fresh singleton-language variable (footnote 3).
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertDiseq({StrElem::var(X), StrElem::lit("ab")}, {StrElem::var(Y)});
  NormalForm N = normalize(P);
  ASSERT_EQ(N.Preds.size(), 1u);
  ASSERT_EQ(N.Preds[0].Lhs.size(), 2u);
  VarId LitVar = N.Preds[0].Lhs[1];
  EXPECT_NE(LitVar, X);
  EXPECT_NE(LitVar, Y);
  Word Ab = {N.Sigma.lookup('a').value(), N.Sigma.lookup('b').value()};
  EXPECT_TRUE(N.Langs.at(LitVar).accepts(Ab));
  EXPECT_FALSE(N.Langs.at(LitVar).accepts({}));
}

TEST(NormalizeTest, ConstantSidesBecomeMemberships) {
  // Step (v): one side a variable, the other a word. No predicate,
  // equation or literal variable is left; x's language carries it all.
  auto Lowered = [](auto Assert) {
    Problem P;
    VarId X = P.strVar("x");
    P.assertInRe(X, "(a|b|p|i)*");
    Assert(P, X);
    NormalForm N = normalize(P);
    EXPECT_TRUE(N.Preds.empty());
    EXPECT_TRUE(N.Equations.empty());
    EXPECT_EQ(N.Langs.size(), 1u) << "a literal variable was minted";
    return N;
  };
  NormalForm N = Lowered([](Problem &P, VarId X) {
    P.assertDiseq({StrElem::var(X)}, {StrElem::lit("a")});
  });
  Symbol A = N.Sigma.lookup('a').value();
  EXPECT_FALSE(N.Langs.at(0).accepts({A}));
  EXPECT_TRUE(N.Langs.at(0).accepts({A, A}));

  N = Lowered([](Problem &P, VarId X) {
    P.assertPred(AssertKind::NotSuffixof, {StrElem::lit("pi")},
                 {StrElem::var(X)});
  });
  Word Pi = N.Sigma.internWord("api"), Ip = N.Sigma.internWord("aip");
  EXPECT_FALSE(N.Langs.at(0).accepts(Pi));
  EXPECT_TRUE(N.Langs.at(0).accepts(Ip));

  N = Lowered([](Problem &P, VarId X) {
    P.assertStrAt(false, StrElem::lit("a"), {StrElem::var(X)},
                  IntTerm::constant(1));
  });
  EXPECT_FALSE(N.Langs.at(0).accepts(N.Sigma.internWord("pa")));
  EXPECT_TRUE(N.Langs.at(0).accepts(N.Sigma.internWord("ap")));
  EXPECT_TRUE(N.Langs.at(0).accepts(N.Sigma.internWord("p")));

  Lowered([](Problem &P, VarId X) {
    P.assertPred(AssertKind::Contains, {StrElem::var(X)},
                 {StrElem::lit(""), StrElem::lit("ab")});
  });
}

TEST(NormalizeTest, OtherShapesStayPredicates) {
  // Lowering needs exactly one variable on one side and only literals
  // on the other, and a numeral str.at index within the lowering bound.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  IntVarId K = P.intVar("k");
  P.assertDiseq({StrElem::var(X)}, {StrElem::var(Y)});
  P.assertDiseq({StrElem::var(X), StrElem::lit("a")}, {StrElem::lit("ab")});
  P.assertPred(AssertKind::NotPrefixof, {StrElem::lit("a")},
               {StrElem::var(X), StrElem::var(X)});
  P.assertStrAt(true, StrElem::lit("a"), {StrElem::var(X)},
                IntTerm::intVar(K));
  P.assertStrAt(true, StrElem::lit("a"), {StrElem::var(X), StrElem::var(Y)},
                IntTerm::constant(1));
  P.assertStrAt(false, StrElem::lit("a"), {StrElem::var(X)},
                IntTerm::constant(1'000'000));
  P.assertStrAt(true, StrElem::var(Y), {StrElem::var(X)},
                IntTerm::constant(0));
  NormalForm N = normalize(P);
  EXPECT_EQ(N.Preds.size(), 7u);
  // Positive predicates of the same shapes stay word equations.
  Problem Q;
  VarId U = Q.strVar("u"), V = Q.strVar("v");
  Q.assertWordEq({StrElem::var(U)}, {StrElem::var(V), StrElem::lit("a")});
  Q.assertPred(AssertKind::Prefixof, {StrElem::lit("a")},
               {StrElem::var(U), StrElem::var(V)});
  Q.assertWordEq({StrElem::lit("a")}, {StrElem::lit("a")});
  EXPECT_EQ(normalize(Q).Equations.size(), 3u);
}

TEST(NormalizeTest, LoweringAgreesWithEvaluator) {
  // Every lowered shape, both orientations, against the concrete
  // semantics on every word over {a, b, sentinel} up to length 5.
  const AssertKind Kinds[] = {
      AssertKind::WordEq,      AssertKind::Diseq,     AssertKind::Prefixof,
      AssertKind::NotPrefixof, AssertKind::Suffixof,  AssertKind::NotSuffixof,
      AssertKind::Contains,    AssertKind::NotContains,
      AssertKind::StrAtEq,     AssertKind::StrAtNe};
  uint32_t Cases = 0;
  for (AssertKind Kind : Kinds)
    for (bool VarLeft : {true, false})
      for (const char *W : {"", "a", "ab", "ba"})
        for (int64_t I : {-1, 0, 1, 3}) {
          bool IsAt = Kind == AssertKind::StrAtEq ||
                      Kind == AssertKind::StrAtNe;
          if (!IsAt && I != 0)
            continue; // the index only matters for str.at
          Problem P;
          VarId X = P.strVar("x"), Pad = P.strVar("pad");
          P.assertInRe(Pad, "a|b"); // closes the alphabet to {a, b}
          StrSeq Var = {StrElem::var(X)}, Lit = {StrElem::lit(W)};
          if (IsAt)
            P.assertStrAt(Kind == AssertKind::StrAtEq,
                          VarLeft ? StrElem::var(X) : StrElem::lit(W),
                          VarLeft ? Lit : Var, IntTerm::constant(I));
          else
            P.assertPred(Kind, VarLeft ? Var : Lit, VarLeft ? Lit : Var);
          NormalForm N = normalize(P);
          ASSERT_TRUE(N.Preds.empty() && N.Equations.empty());
          ASSERT_EQ(N.Sigma.size(), 3u);
          const automata::Nfa &L = N.Langs.at(X);
          ASSERT_FALSE(L.hasEpsilon());
          ConcreteEvaluator Eval(P, N.Sigma);
          std::vector<Word> Words = {{}};
          for (size_t Next = 0; Next < Words.size(); ++Next) {
            if (Words[Next].size() < 5)
              for (Symbol S = 0; S < 3; ++S) {
                Word Longer = Words[Next];
                Longer.push_back(S);
                Words.push_back(std::move(Longer));
              }
            bool Holds = Eval.evalOne(1, {{X, Words[Next]}, {Pad, {}}}, {});
            ASSERT_EQ(L.accepts(Words[Next]), Holds)
                << "kind " << static_cast<int>(Kind) << " var-left "
                << VarLeft << " w \"" << W << "\" i " << I << " word #"
                << Next;
          }
          ++Cases;
        }
  EXPECT_EQ(Cases, 8u * 2 * 4 + 2u * 2 * 4 * 4);
}
TEST(NormalizeTest, SentinelSymbolExtendsAlphabet) {
  // A disequality between variables over disjoint alphabets can only be
  // witnessed by length or by the letters themselves; the normal form
  // must keep the effective alphabet large enough for a fresh-letter
  // witness (strings/Normalize.h, step (iv): the sentinel symbol).
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "a");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("a")});
  NormalForm N = normalize(P);
  EXPECT_GE(N.Sigma.size(), 2u) << "no room for a witness symbol";
}

TEST(NormalizeTest, IntAtomsAndLenTerms) {
  Problem P;
  VarId X = P.strVar("x");
  IntVarId K = P.intVar("k");
  P.assertInRe(X, "a*");
  P.assertIntAtom(IntTerm::lenOf(X) + IntTerm::constant(1), lia::Cmp::Le,
                  IntTerm::intVar(K));
  NormalForm N = normalize(P);
  ASSERT_EQ(N.IntAtoms.size(), 1u);
  EXPECT_EQ(N.IntAtoms[0].Op, lia::Cmp::Le);
  EXPECT_EQ(N.NumIntVars, 1u);
}

TEST(EvaluatorTest, DirectSemanticsOfFig1) {
  // Spot-check the Fig. 1 semantics through the concrete evaluator.
  Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|b)*");
  P.assertPred(AssertKind::Prefixof, {StrElem::var(X)}, {StrElem::var(Y)});
  P.assertPred(AssertKind::NotContains, {StrElem::lit("bb")},
               {StrElem::var(Y)});
  NormalForm N = normalize(P);
  ConcreteEvaluator Eval(P, N.Sigma);
  Symbol A = N.Sigma.lookup('a').value(), B = N.Sigma.lookup('b').value();
  EXPECT_TRUE(Eval.evalAll({{X, {A}}, {Y, {A, B, A}}}, {}));
  EXPECT_FALSE(Eval.evalAll({{X, {B}}, {Y, {A, B, A}}}, {}));   // not prefix
  EXPECT_FALSE(Eval.evalAll({{X, {A}}, {Y, {A, B, B}}}, {}));   // contains bb
}

} // namespace
