//===- tests/TagautTest.cpp - Tag automaton & encoder tests -----------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The workhorse of the suite: every decision path of the MP solver is
// differential-tested against the brute-force enumeration oracle, and
// every Sat answer is validated against the direct semantics of Fig. 1.
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"
#include "counter/OneCounter.h"
#include "proof/Check.h"
#include "regex/Regex.h"
#include "solver/BruteForce.h"
#include "solver/Semantics.h"
#include "tagaut/MpSolver.h"
#include "tagaut/Parikh.h"

#include <gtest/gtest.h>

#include <random>
#include <set>

using namespace postr;
using namespace postr::tagaut;
using automata::Nfa;
using solver::BruteForceOptions;
using solver::BruteForceResult;
using solver::solveBruteForce;

namespace {

//===----------------------------------------------------------------------===
// Parikh formula tests (Appendix A)
//===----------------------------------------------------------------------===

/// Wraps an NFA as a tag automaton with per-transition symbol tags (no
/// levels), for Parikh-only testing.
TagAutomaton wrapNfa(const Nfa &A, TagTable &Tags) {
  TagAutomaton Ta;
  Ta.addStates(A.numStates());
  for (uint32_t Q = 0; Q < A.numStates(); ++Q) {
    if (A.isInitial(Q))
      Ta.markInitial(Q);
    if (A.isFinal(Q))
      Ta.markFinal(Q);
  }
  uint32_t Idx = 0;
  for (const automata::Transition &T : A.transitions())
    Ta.addTransition({T.From, T.To, Idx++, /*AtMostOnce=*/false,
                      {Tags.intern(Tag::symbol(T.Sym))}});
  return Ta;
}

TEST(ParikhTest, AbStarCountsMatch) {
  // (ab)*: any model must have #a == #b.
  Nfa A(2);
  uint32_t Q0 = A.addState(), Q1 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q0);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, 1, Q0);

  TagTable Tags;
  TagAutomaton Ta = wrapNfa(A, Tags);
  lia::Arena Arena;
  ParikhFormula Pf = buildParikhFormula(Ta, Arena, "t.");

  // Satisfiable alone.
  lia::QfResult R = lia::solveQF(Arena, Pf.Formula);
  ASSERT_EQ(R.V, Verdict::Sat);

  // Force 3 a's: then exactly 3 b's.
  lia::FormulaId F = Arena.conj(
      {Pf.Formula, Arena.cmp(Pf.tagTerm(Tags.intern(Tag::symbol(0))),
                             lia::Cmp::Eq, lia::LinTerm(3))});
  R = lia::solveQF(Arena, F);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(Pf.tagTerm(Tags.intern(Tag::symbol(1))).eval(R.Model), 3);

  // Unequal counts are impossible.
  lia::FormulaId G = Arena.conj(
      {Pf.Formula,
       Arena.cmp(Pf.tagTerm(Tags.intern(Tag::symbol(0))), lia::Cmp::Ne,
                 Pf.tagTerm(Tags.intern(Tag::symbol(1))))});
  EXPECT_EQ(lia::solveQF(Arena, G).V, Verdict::Unsat);
}

TEST(ParikhTest, ConnectivityRulesOutFloatingCycles) {
  // Two components: initial/final state P with no transitions, plus a
  // detached cycle Q0 -a-> Q1 -a-> Q0. Without φ_Span the detached cycle
  // could carry flow; the formula must force its counts to zero.
  Nfa A(1);
  uint32_t P = A.addState(), Q0 = A.addState(), Q1 = A.addState();
  A.markInitial(P);
  A.markFinal(P);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, 0, Q0);

  TagTable Tags;
  TagAutomaton Ta = wrapNfa(A, Tags);
  lia::Arena Arena;
  ParikhFormula Pf = buildParikhFormula(Ta, Arena, "t.");
  lia::FormulaId F = Arena.conj(
      {Pf.Formula, Arena.cmp(Pf.tagTerm(Tags.intern(Tag::symbol(0))),
                             lia::Cmp::Ge, lia::LinTerm(1))});
  EXPECT_EQ(lia::solveQF(Arena, F).V, Verdict::Unsat);
}

TEST(ParikhTest, DecodeRunRoundTrip) {
  std::mt19937 Rng(5150);
  for (int Iter = 0; Iter < 30; ++Iter) {
    // Random small NFA; solve Parikh with a "at least 2 transitions"
    // side constraint and replay the decoded run.
    Nfa A(2);
    uint32_t N = 2 + Rng() % 4;
    for (uint32_t I = 0; I < N; ++I)
      A.addState();
    for (uint32_t E = 0; E < N + 2; ++E)
      A.addTransition(Rng() % N, Rng() % 2, Rng() % N);
    A.markInitial(Rng() % N);
    A.markFinal(Rng() % N);

    TagTable Tags;
    TagAutomaton Ta = wrapNfa(A, Tags);
    lia::Arena Arena;
    ParikhFormula Pf = buildParikhFormula(Ta, Arena, "t.");
    lia::QfResult R = lia::solveQF(Arena, Pf.Formula);
    if (R.V != Verdict::Sat)
      continue; // empty language
    std::vector<uint32_t> Run = decodeRun(Ta, Pf, R.Model);
    // Replay: transitions must chain and end in a final state.
    if (!Run.empty()) {
      for (size_t I = 0; I + 1 < Run.size(); ++I)
        EXPECT_EQ(Ta.transitions()[Run[I]].To,
                  Ta.transitions()[Run[I + 1]].From);
      EXPECT_TRUE(Ta.isInitial(Ta.transitions()[Run.front()].From));
      EXPECT_TRUE(Ta.isFinal(Ta.transitions()[Run.back()].To));
    }
  }
}

//===----------------------------------------------------------------------===
// MP solver end-to-end on hand-crafted cases
//===----------------------------------------------------------------------===

/// Test fixture bundling an alphabet, variable languages from regexes,
/// and predicate construction.
struct Mp {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  std::vector<PosPredicate> Preds;
  VarId NextVar = 0;

  Mp() {
    // Pre-intern a couple of letters so single-letter tests have a
    // non-degenerate alphabet even before regexes are added.
    Sigma.intern('a');
    Sigma.intern('b');
  }

  VarId var(const std::string &Regex) {
    VarId X = NextVar++;
    Result<regex::NodePtr> R = regex::parse(Regex);
    assert(R && "bad regex in test");
    regex::collectAlphabet(**R, Sigma);
    PendingRegex.emplace_back(X, std::move(*R));
    return X;
  }

  void finalize() {
    for (auto &[X, Node] : PendingRegex)
      Langs[X] = regex::compile(*Node, Sigma);
    PendingRegex.clear();
  }

  MpResult solve(const MpOptions &Opts = {}) {
    finalize();
    MpResult R = solveMP(Langs, Preds, Sigma.size(), {}, Opts);
    if (R.V == Verdict::Sat) {
      // Every Sat answer must decode to a model of the direct semantics
      // and respect the regular constraints.
      EXPECT_TRUE(solver::evalSystem(Preds, R.Assignment));
      for (const auto &[X, Lang] : Langs)
        EXPECT_TRUE(Lang.accepts(R.Assignment.at(X)))
            << "variable x" << X << " got a word outside its language";
    }
    return R;
  }

  std::vector<std::pair<VarId, regex::NodePtr>> PendingRegex;
};

TEST(MpSolverTest, TwoVarDiseqSatByLength) {
  Mp M;
  VarId X = M.var("a*"), Y = M.var("b");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, TwoVarDiseqUnsatSingletons) {
  Mp M;
  VarId X = M.var("ab"), Y = M.var("ab");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, PaperFig2Languages) {
  // x ∈ (ab)*, y ∈ (ac)*: x ≠ y satisfiable (e.g. x=ab, y=ac or lengths).
  Mp M;
  VarId X = M.var("(ab)*"), Y = M.var("(ac)*");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, EqualLengthForcedMismatch) {
  // x, y single symbols from disjoint classes: always a mismatch.
  Mp M;
  VarId X = M.var("a"), Y = M.var("b");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, DiseqSameVarBothSides) {
  // x ≠ x is unsatisfiable.
  Mp M;
  VarId X = M.var("(a|b)*");
  M.Preds.push_back({PredKind::Diseq, {X}, {X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, PaperFootnote8Example) {
  // xy ≠ yx with x ∈ ab|a…, y ∈ a: footnote 8's mismatch-in-one-variable
  // case. With x=ab, y=a: xy=aba, yx=aab differ.
  Mp M;
  VarId X = M.var("ab"), Y = M.var("a");
  M.Preds.push_back({PredKind::Diseq, {X, Y}, {Y, X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, CommutingPowersUnsat) {
  // xy ≠ yx with x ∈ a{2}, y ∈ a{3}: both sides are a^5 — Unsat.
  Mp M;
  VarId X = M.var("aa"), Y = M.var("aaa");
  M.Preds.push_back({PredKind::Diseq, {X, Y}, {Y, X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, CommutingStarsUnsat) {
  // xy ≠ yx with x, y ∈ a*: words over a unary alphabet commute — Unsat.
  Mp M;
  VarId X = M.var("a*"), Y = M.var("a*");
  M.Preds.push_back({PredKind::Diseq, {X, Y}, {Y, X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, NotPrefixBasic) {
  Mp M;
  VarId X = M.var("a"), Y = M.var("ab*");
  // a IS a prefix of every word in ab*: ¬prefixof(x, y) is Unsat.
  M.Preds.push_back({PredKind::NotPrefix, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, NotPrefixSatByLongerLhs) {
  Mp M;
  VarId X = M.var("aa+"), Y = M.var("a");
  M.Preds.push_back({PredKind::NotPrefix, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, NotSuffixBasic) {
  Mp M;
  // b is a suffix of every word of (a|b)*b: Unsat.
  VarId X = M.var("b"), Y = M.var("(a|b)*b");
  M.Preds.push_back({PredKind::NotSuffix, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, NotSuffixSat) {
  Mp M;
  VarId X = M.var("a|b"), Y = M.var("(a|b)*b");
  // Choose x=a: a is not a suffix of ...b.
  MpResult R = M.solve();
  M.Preds.push_back({PredKind::NotSuffix, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, SystemOfTwoDiseqs) {
  // Fig. 4's system: x ≠ y ∧ x ≠ z, all single symbols — needs the copy
  // machinery when the mismatch in x is shared.
  Mp M;
  VarId X = M.var("a|b"), Y = M.var("a"), Z = M.var("b");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  M.Preds.push_back({PredKind::Diseq, {X}, {Z}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, SystemOfTwoDiseqsSat) {
  Mp M;
  VarId X = M.var("a|b|c"), Y = M.var("a"), Z = M.var("b");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  M.Preds.push_back({PredKind::Diseq, {X}, {Z}, {}});
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Assignment.at(X), Word{M.Sigma.lookup('c').value()});
}

TEST(MpSolverTest, ThreeSatStyleSystem) {
  // The Lemma 7.2 reduction shape: y1y2y3 ≠ 010 etc. encoded with 0/1
  // variables; here (y1 ∨ ¬y2) ∧ (¬y1 ∨ y2) — satisfiable.
  Mp M;
  VarId Y1 = M.var("a|b"), Y2 = M.var("a|b");
  VarId ZeroOne = M.var("ab"); // constant word "ab" ~ pattern 01
  VarId OneZero = M.var("ba");
  M.Preds.push_back({PredKind::Diseq, {Y1, Y2}, {ZeroOne}, {}});
  M.Preds.push_back({PredKind::Diseq, {Y1, Y2}, {OneZero}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(MpSolverTest, StrAtEqBasic) {
  // x = str.at(y, 1) with y ∈ ab|ba, x ∈ a: forces y = ba.
  Mp M;
  VarId X = M.var("a"), Y = M.var("ab|ba");
  PosPredicate P{PredKind::StrAtEq, {X}, {Y}, lia::LinTerm(1)};
  M.Preds.push_back(P);
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  Word Ba{M.Sigma.lookup('b').value(), M.Sigma.lookup('a').value()};
  EXPECT_EQ(R.Assignment.at(Y), Ba);
}

TEST(MpSolverTest, StrAtEqOutOfBoundsNeedsEpsilon) {
  // x = str.at(y, 5) with |y| <= 2: str.at yields ε, so x must be ε.
  Mp M;
  VarId X = M.var("a?"), Y = M.var("(a|b){0,2}");
  M.Preds.push_back({PredKind::StrAtEq, {X}, {Y}, lia::LinTerm(5)});
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_TRUE(R.Assignment.at(X).empty());
}

TEST(MpSolverTest, StrAtEqSharedVariable) {
  // x = str.at(x, 0) with x ∈ a|aa: both satisfiable only via |x| = 1.
  Mp M;
  VarId X = M.var("a|aa");
  M.Preds.push_back({PredKind::StrAtEq, {X}, {X}, lia::LinTerm(0)});
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Assignment.at(X).size(), 1u);
}

TEST(MpSolverTest, StrAtNeBasic) {
  // x ≠ str.at(y, 0), x ∈ a, y ∈ a|b: pick y = b.
  Mp M;
  VarId X = M.var("a"), Y = M.var("a|b");
  M.Preds.push_back({PredKind::StrAtNe, {X}, {Y}, lia::LinTerm(0)});
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Assignment.at(Y), Word{M.Sigma.lookup('b').value()});
}

TEST(MpSolverTest, StrAtNeUnsat) {
  // x ≠ str.at(y, 0) with x ∈ a, y ∈ a+ is Unsat: str.at(y,0) = a = x.
  Mp M;
  VarId X = M.var("a"), Y = M.var("a+");
  M.Preds.push_back({PredKind::StrAtNe, {X}, {Y}, lia::LinTerm(0)});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(MpSolverTest, LengthAtomsOfTheIntSide) {
  // x ≠ y with x,y ∈ a* and len(x) = len(y): only mismatches could help,
  // but the unary alphabet has none — Unsat. Handle g of the integer
  // side is variable NumInts + g = g.
  IntSide Ints;
  Ints.Atoms.push_back({lia::LinTerm::variable(0), lia::Cmp::Eq,
                        lia::LinTerm::variable(1)});
  Mp M;
  VarId X = M.var("a*"), Y = M.var("a*");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  M.finalize();
  Ints.Lens = {{X, {X}}, {Y, {Y}}};
  MpResult R = solveMP(M.Langs, M.Preds, M.Sigma.size(), Ints);
  EXPECT_EQ(R.V, Verdict::Unsat);

  // Same but over (a|b)* and |x| ≥ 2: now a mismatch exists.
  Ints.Atoms.push_back(
      {lia::LinTerm::variable(0), lia::Cmp::Ge, lia::LinTerm(2)});
  Mp M2;
  VarId X2 = M2.var("(a|b)*"), Y2 = M2.var("(a|b)*");
  M2.Preds.push_back({PredKind::Diseq, {X2}, {Y2}, {}});
  M2.finalize();
  Ints.Lens = {{X2, {X2}}, {Y2, {Y2}}};
  MpResult R2 = solveMP(M2.Langs, M2.Preds, M2.Sigma.size(), Ints);
  ASSERT_EQ(R2.V, Verdict::Sat);
  EXPECT_EQ(R2.Assignment.at(X2).size(), R2.Assignment.at(Y2).size());
  EXPECT_GE(R2.Assignment.at(X2).size(), 2u);
  EXPECT_NE(R2.Assignment.at(X2), R2.Assignment.at(Y2));
}

TEST(MpSolverTest, EmptyLanguageIsUnsat) {
  Mp M;
  VarId X = M.var("a"), Y = M.var("b");
  M.finalize();
  // Intersection trick: give X an empty language directly.
  M.Langs[X] = automata::intersect(M.Langs.at(X), M.Langs.at(Y));
  MpResult R = solveMP(M.Langs, M.Preds, M.Sigma.size());
  EXPECT_EQ(R.V, Verdict::Unsat);
}

TEST(MpSolverTest, NoPredicatesDecodesRegularModel) {
  Mp M;
  VarId X = M.var("(ab)+");
  MpResult R = M.solve();
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_TRUE(M.Langs.at(X).accepts(R.Assignment.at(X)));
  EXPECT_GE(R.Assignment.at(X).size(), 2u);
}

//===----------------------------------------------------------------------===
// ¬contains (Sec. 6.4)
//===----------------------------------------------------------------------===

TEST(NotContainsTest, TrivialByLength) {
  // ¬contains(x, y) with |x| forced above |y|: trivially Sat.
  Mp M;
  VarId X = M.var("aaa"), Y = M.var("b{0,2}");
  M.Preds.push_back({PredKind::NotContains, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(NotContainsTest, SimpleSat) {
  // ¬contains(x, y), x ∈ a|b, y ∈ (ab)*: choose x=b? No — b occurs in
  // ab. Choose y = ε: contains(x, ε) fails for any non-empty x. Sat.
  Mp M;
  VarId X = M.var("a|b"), Y = M.var("(ab)*");
  M.Preds.push_back({PredKind::NotContains, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(NotContainsTest, UnsatSingletonFactor) {
  // ¬contains(x, y) with x ∈ a, y ∈ aa: "a" occurs in "aa" — Unsat.
  Mp M;
  VarId X = M.var("a"), Y = M.var("aa");
  M.Preds.push_back({PredKind::NotContains, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(NotContainsTest, EpsilonNeedleUnsat) {
  // ε is contained in everything.
  Mp M;
  VarId X = M.var(""), Y = M.var("a*");
  M.Preds.push_back({PredKind::NotContains, {X}, {Y}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(NotContainsTest, PrimitiveWordStyle) {
  // The position-hard flavour (footnote 10): ¬contains(xy, yx) over
  // flat languages x ∈ a+, y ∈ b+. xy = a^n b^m, yx = b^m a^n; for
  // n=m=1: ab vs ba — ab does not occur in ba. Sat.
  Mp M;
  VarId X = M.var("a+"), Y = M.var("b+");
  M.Preds.push_back({PredKind::NotContains, {X, Y}, {Y, X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Sat);
}

TEST(NotContainsTest, ContainedPowersUnsat) {
  // ¬contains(x, xx): x always occurs in xx — Unsat (x ∈ a{1,2} keeps
  // the search space tiny).
  Mp M;
  VarId X = M.var("a{1,2}");
  M.Preds.push_back({PredKind::NotContains, {X}, {X, X}, {}});
  EXPECT_EQ(M.solve().V, Verdict::Unsat);
}

TEST(NotContainsTest, NonFlatReportsUnknown) {
  Mp M;
  VarId X = M.var("(a|b)*"), Y = M.var("a");
  M.Preds.push_back({PredKind::NotContains, {X}, {Y}, {}});
  M.finalize();
  MpResult R = solveMP(M.Langs, M.Preds, M.Sigma.size());
  EXPECT_EQ(R.V, Verdict::Unknown);
}

//===----------------------------------------------------------------------===
// Mono-root predicates: length atoms exactly where one root holds
//===----------------------------------------------------------------------===

/// Languages of x, y, z beside the roots they share, if any: conjugate
/// roots, a root beside its square, r* beside r+, ε-only languages, and
/// one variable off the root. A predicate over all three is mono-root
/// exactly when the shape is.
struct RootShape {
  const char *X, *Y, *Z;
  bool MonoRoot;
};
const RootShape RootShapes[] = {
    {"(ab)*", "(ba)*", "(ab)*", false},            // conjugates ab, ba
    {"(abcbb)*", "(abcbbabcbb)*", "(abcbb)+", true}, // r, r², r+
    {"(ab)*", "(ab)+", "", true},                  // r*, r+, ε only
    {"", "", "", true},                            // ε only
    {"a*", "(aa)*", "a+", true},                   // unary r, r², r+
    {"ab", "(ab)*", "ab", true},                   // x, z ∈ {ab}
    {"(ab)*", "(ab)+", "(ab)*a", false},           // z off the root
    {"(ab)*", "(ab)*", "(ab)*b(ab)*", false},      // z off the root
};
/// Sides over x = 0, y = 1, z = 2; each pair reads all three.
const std::pair<std::vector<VarId>, std::vector<VarId>> RootSides[] = {
    {{0, 1, 2}, {2, 1, 0}}, {{0, 1}, {1, 0, 2}},    {{2, 0}, {1, 2, 0}},
    {{1, 0, 0}, {0, 1, 2}}, {{2}, {0, 1, 2}},       {{0, 0, 2}, {2, 1}},
};
const PredKind RootKinds[] = {PredKind::Diseq, PredKind::NotPrefix,
                              PredKind::NotSuffix, PredKind::NotContains};

/// Kernel verdict on \p R's certificate after a round trip through the
/// text format, as the pipeline checks it.
proof::CheckOutcome checkedCert(const MpResult &R) {
  proof::Certificate C;
  C.Disjuncts.push_back(R.Cert);
  Result<proof::Certificate> Parsed = proof::parse(proof::serialize(C));
  if (!Parsed) {
    ADD_FAILURE() << Parsed.error();
    return {};
  }
  return proof::checkCertificate(*Parsed);
}

TEST(MonoRootTest, RewriteFiresExactlyOnOneRootAndAgreesWithOracles) {
  // Each shape, side pair and kind. The rewrite must fire exactly on the
  // mono-root shapes. A mono-root predicate must be decided (its length
  // atom is exact) without MBQI; every Sat model must satisfy it
  // (Mp::solve checks evalSystem), an Unsat must survive the brute-force
  // oracle and the kernel, and ≠ / ¬prefixof / ¬suffixof must agree with
  // the one-counter search wherever it decides. A mono-root Unsat is
  // refuted either by the length abstraction alone (one QF solve) or,
  // when the abstraction is Sat, by the Parikh encoding after it (two).
  // Off-root ¬contains goes through MBQI on a step limit, and its decided
  // verdicts face the same checks; off-root ≠ / ¬prefixof / ¬suffixof are
  // the one-counter fast path's, and the full encoding runs for seconds
  // on them.
  uint32_t MonoSat = 0, MonoUnsat = 0, OffDecided = 0;
  uint32_t ByAbstraction = 0, FellThrough = 0;
  for (const RootShape &Shape : RootShapes)
    for (const auto &[Lhs, Rhs] : RootSides)
      for (PredKind Kind : RootKinds) {
        Mp M;
        M.var(Shape.X);
        M.var(Shape.Y);
        M.var(Shape.Z);
        M.Preds.push_back({Kind, Lhs, Rhs, {}});
        M.finalize();
        std::string Where = std::string(Shape.X) + " " + Shape.Y + " " +
                            Shape.Z + " kind " +
                            std::to_string(static_cast<int>(Kind)) +
                            " sides " + std::to_string(Lhs.size()) + "/" +
                            std::to_string(Rhs.size());
        ASSERT_EQ(monoRoot(M.Langs, M.Preds[0]).has_value(), Shape.MonoRoot)
            << Where;
        if (!Shape.MonoRoot && Kind != PredKind::NotContains)
          continue;
        Budget Bud(Budget::Limits{0, 0, 10'000, nullptr});
        MpOptions Opts;
        Opts.Budget = &Bud;
        Opts.Certify = true;
        MpResult R = M.solve(Opts);
        if (Shape.MonoRoot) {
          ASSERT_NE(R.V, Verdict::Unknown) << Where;
          EXPECT_FALSE(R.UsedMbqi) << Where;
          ++(R.V == Verdict::Sat ? MonoSat : MonoUnsat);
        } else if (R.V != Verdict::Unknown) {
          ++OffDecided;
        }
        if (R.V == Verdict::Unsat) {
          BruteForceOptions BfOpts;
          BfOpts.MaxWordLen = 4;
          EXPECT_NE(solveBruteForce(M.Langs, M.Preds, BfOpts).V, Verdict::Sat)
              << Where;
          proof::CheckOutcome CO = checkedCert(R);
          EXPECT_TRUE(CO.Ok) << Where << ": " << CO.Error;
          if (Shape.MonoRoot) {
            EXPECT_EQ(CO.Stats.TrustedRules, 0u) << Where;
            EXPECT_EQ(CO.Stats.MonoRootAtoms, 1u) << Where;
            if (R.Qf.Solves == 1)
              ++ByAbstraction;
            else if (R.Qf.Solves == 2)
              ++FellThrough;
            else
              ADD_FAILURE() << Where << ": " << R.Qf.Solves << " QF solves";
          }
        }
        if (Kind != PredKind::NotContains) {
          counter::OneCounterOptions OcOpts;
          OcOpts.NodeBudget = 50'000;
          counter::OneCounterResult Oc = counter::decideSinglePredicate(
              M.Langs, M.Preds[0], M.Sigma.size(), OcOpts);
          if (Oc.V != Verdict::Unknown)
            EXPECT_EQ(Oc.V, R.V) << Where;
        }
      }
  EXPECT_GT(MonoSat, 0u);
  EXPECT_GT(MonoUnsat, 0u);
  EXPECT_GT(OffDecided, 0u);
  EXPECT_GT(ByAbstraction, 0u);
  EXPECT_GT(FellThrough, 0u);

  // x, y ∈ {ab} and x ≠ y: |x| ≠ |y| is Sat over bare lengths, so the
  // Parikh encoding refutes it, on an arena of its own: the trace
  // declares bounds (`v` records) only of variables it reads, so none of
  // the abstraction's bare lengths, and the rewrite record reads the
  // Parikh length terms.
  Mp M;
  VarId X = M.var("ab"), Y = M.var("ab");
  M.Preds.push_back({PredKind::Diseq, {X}, {Y}, {}});
  M.finalize();
  MpOptions Opts;
  Opts.Certify = true;
  MpResult R = solveMP(M.Langs, M.Preds, M.Sigma.size(), {}, Opts);
  ASSERT_EQ(R.V, Verdict::Unsat);
  EXPECT_EQ(R.Qf.Solves, 2u);
  ASSERT_TRUE(R.Cert.Rewrite.has_value());
  ASSERT_EQ(R.Cert.Rewrite->Lens.size(), 2u);
  std::set<uint32_t> Read;
  for (const proof::LinAtom &At : R.Cert.Proof.Atoms)
    for (const auto &[V, C] : At.Coeffs)
      Read.insert(V);
  for (const proof::LenDef &L : R.Cert.Rewrite->Lens) {
    ASSERT_FALSE(L.Coeffs.empty());
    for (const auto &[V, C] : L.Coeffs)
      EXPECT_TRUE(Read.count(V)) << "len of x" << L.StrVar << " reads " << V;
  }
  ASSERT_FALSE(R.Cert.Proof.Bounds.empty());
  for (const proof::VarBounds &B : R.Cert.Proof.Bounds)
    EXPECT_TRUE(Read.count(B.Var)) << "dead v " << B.Var;
  proof::CheckOutcome CO = checkedCert(R);
  EXPECT_TRUE(CO.Ok) << CO.Error;
  EXPECT_EQ(CO.Stats.TrustedRules, 0u);
  EXPECT_EQ(CO.Stats.MonoRootAtoms, 1u);
}

//===----------------------------------------------------------------------===
// Randomized differential suite against the brute-force oracle
//===----------------------------------------------------------------------===

struct DiffParams {
  uint32_t Seed;
  uint32_t NumPreds;
  bool WithNotContains;
};

class MpDifferentialTest : public ::testing::TestWithParam<DiffParams> {};

/// Step limit of one sweep iteration's solveMP: about 4x the most any
/// iteration of the seeds below needs.
constexpr uint64_t SweepStepLimit = 2'000'000;

/// Small regex pool over {a,b} whose languages are all flat, so that the
/// sweep can include ¬contains.
const char *FlatPool[] = {"a",  "b",      "ab",     "a*",      "b*",
                          "a+", "(ab)*",  "ab|ba",  "a|b",     "a{1,2}",
                          "",   "(ab)+b", "a?b",    "(ba)*a?", "b{2}"};
/// Pool with non-flat entries for the diseq-only sweeps.
const char *MixedPool[] = {"a",      "b",     "ab",   "(a|b)*", "a*",
                           "(ab)*",  "a|b",   "a+b*", "(a|b){0,2}",
                           "(ab|b)*", "b(a|b)*"};

TEST_P(MpDifferentialTest, AgreesWithBruteForce) {
  DiffParams Params = GetParam();
  std::mt19937 Rng(Params.Seed);
  int Rounds = Params.WithNotContains ? 12 : 30;

  for (int Iter = 0; Iter < Rounds; ++Iter) {
    Mp M;
    uint32_t NumVars = 1 + Rng() % 3;
    std::vector<VarId> Vars;
    for (uint32_t V = 0; V < NumVars; ++V) {
      const char *Pattern;
      if (Params.WithNotContains)
        Pattern = FlatPool[Rng() % (sizeof(FlatPool) / sizeof(char *))];
      else
        Pattern = MixedPool[Rng() % (sizeof(MixedPool) / sizeof(char *))];
      Vars.push_back(M.var(Pattern));
    }
    auto RandOccs = [&](uint32_t MaxLen) {
      std::vector<VarId> Occs;
      uint32_t Len = 1 + Rng() % MaxLen;
      for (uint32_t I = 0; I < Len; ++I)
        Occs.push_back(Vars[Rng() % Vars.size()]);
      return Occs;
    };
    for (uint32_t P = 0; P < Params.NumPreds; ++P) {
      uint32_t Kind = Rng() % (Params.WithNotContains ? 4 : 5);
      switch (Kind) {
      case 0:
        M.Preds.push_back({PredKind::Diseq, RandOccs(2), RandOccs(2), {}});
        break;
      case 1:
        M.Preds.push_back(
            {PredKind::NotPrefix, RandOccs(2), RandOccs(2), {}});
        break;
      case 2:
        M.Preds.push_back(
            {PredKind::NotSuffix, RandOccs(2), RandOccs(2), {}});
        break;
      case 3:
        if (Params.WithNotContains) {
          M.Preds.push_back(
              {PredKind::NotContains, RandOccs(2), RandOccs(2), {}});
        } else {
          M.Preds.push_back(
              {PredKind::StrAtNe,
               {Vars[Rng() % Vars.size()]},
               RandOccs(2),
               lia::LinTerm(static_cast<int64_t>(Rng() % 3))});
        }
        break;
      default:
        M.Preds.push_back({PredKind::StrAtEq,
                           {Vars[Rng() % Vars.size()]},
                           RandOccs(2),
                           lia::LinTerm(static_cast<int64_t>(Rng() % 3))});
        break;
      }
    }

    M.finalize();
    // A step limit, not a wall clock, so the outcome does not depend on
    // the build: the most any iteration takes is 514977 steps (seed 203),
    // and steps are counted identically in every build type.
    Budget Bud(Budget::Limits{0, 0, SweepStepLimit, nullptr});
    MpOptions Opts;
    Opts.Budget = &Bud;
    MpResult R = solveMP(M.Langs, M.Preds, M.Sigma.size(), {},
                         Opts);
    ASSERT_NE(R.V, Verdict::Unknown) << "seed " << Params.Seed << " iter "
                                     << Iter;

    BruteForceOptions BfOpts;
    BfOpts.MaxWordLen = 4;
    BruteForceResult Bf = solveBruteForce(M.Langs, M.Preds, BfOpts);

    if (R.V == Verdict::Sat) {
      // Validate the produced model directly — the strongest check.
      EXPECT_TRUE(solver::evalSystem(M.Preds, R.Assignment))
          << "seed " << Params.Seed << " iter " << Iter;
      for (const auto &[X, Lang] : M.Langs)
        EXPECT_TRUE(Lang.accepts(R.Assignment.at(X)));
      // And the oracle must not prove bounded-exhaustive absence when
      // our model is itself within the bound.
      bool WithinBound = true;
      for (const auto &[X, W] : R.Assignment)
        if (W.size() > BfOpts.MaxWordLen)
          WithinBound = false;
      if (WithinBound && Bf.V == Verdict::Unsat)
        ADD_FAILURE() << "oracle missed our in-bound model; seed "
                      << Params.Seed << " iter " << Iter;
    } else {
      EXPECT_NE(Bf.V, Verdict::Sat)
          << "solver said Unsat but oracle found a model; seed "
          << Params.Seed << " iter " << Iter;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpDifferentialTest,
    ::testing::Values(DiffParams{101, 1, false}, DiffParams{102, 1, false},
                      DiffParams{103, 2, false}, DiffParams{104, 2, false},
                      DiffParams{105, 3, false}, DiffParams{106, 3, false},
                      DiffParams{201, 1, true}, DiffParams{202, 1, true},
                      DiffParams{203, 2, true}),
    [](const ::testing::TestParamInfo<DiffParams> &Info) {
      return "seed" + std::to_string(Info.param.Seed) + "_preds" +
             std::to_string(Info.param.NumPreds) +
             (Info.param.WithNotContains ? "_nc" : "");
    });

} // namespace
