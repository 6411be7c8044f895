//===- tests/CounterTest.cpp - One-counter fast path tests ------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Differential-tests the PTime path of Theorem 7.1 against the NP
// tag-automaton/LIA path and against the brute-force oracle.
//
//===----------------------------------------------------------------------===//

#include "counter/OneCounter.h"
#include "proof/Check.h"
#include "regex/Regex.h"
#include "smtlib/Reader.h"
#include "solver/BruteForce.h"
#include "solver/PositionSolver.h"
#include "strings/Eval.h"
#include "strings/Normalize.h"
#include "tagaut/MpSolver.h"

#include <gtest/gtest.h>

#include <random>

using namespace postr;
using namespace postr::counter;
using namespace postr::tagaut;
using automata::Nfa;

namespace {

struct Fixture {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  VarId NextVar = 0;
  std::vector<std::pair<VarId, regex::NodePtr>> Pending;
  /// The same instance as a strings::Problem, for the witness check.
  strings::Problem P;

  Fixture() {
    Sigma.intern('a');
    Sigma.intern('b');
  }
  VarId var(const std::string &Regex) {
    VarId X = NextVar++;
    Result<regex::NodePtr> R = regex::parse(Regex);
    assert(R && "bad regex in test");
    regex::collectAlphabet(**R, Sigma);
    Pending.emplace_back(X, std::move(*R));
    VarId PX = P.strVar("x" + std::to_string(X));
    assert(PX == X && "fixture and problem variables diverged");
    P.assertInRe(PX, Regex);
    return X;
  }
  void finalize() {
    for (auto &[X, Node] : Pending)
      Langs[X] = regex::compile(*Node, Sigma);
    Pending.clear();
  }
  /// Decides \p Pred; every Sat must carry a witness the concrete
  /// evaluator accepts on the languages plus the predicate.
  Verdict decide(const PosPredicate &Pred, const OneCounterOptions &Opts = {}) {
    finalize();
    OneCounterResult R = decideSinglePredicate(Langs, Pred, Sigma.size(), Opts);
    EXPECT_EQ(R.Stop, StopReason::None);
    if (R.V == Verdict::Sat) {
      EXPECT_TRUE(R.Model.has_value()) << "Sat without a witness";
      if (R.Model)
        EXPECT_TRUE(witnessHolds(Pred, *R.Model)) << "witness rejected";
    }
    return R.V;
  }
  bool witnessHolds(const PosPredicate &Pred,
                    const std::map<VarId, Word> &Model) const {
    auto Seq = [](const std::vector<VarId> &Occs) {
      strings::StrSeq Out;
      for (VarId X : Occs)
        Out.push_back(strings::StrElem::var(X));
      return Out;
    };
    strings::Problem Q = P;
    strings::AssertKind K = Pred.Kind == PredKind::Diseq
                                ? strings::AssertKind::Diseq
                            : Pred.Kind == PredKind::NotPrefix
                                ? strings::AssertKind::NotPrefixof
                                : strings::AssertKind::NotSuffixof;
    Q.assertPred(K, Seq(Pred.Lhs), Seq(Pred.Rhs));
    return strings::ConcreteEvaluator(Q, Sigma).evalAll(Model, {});
  }
};

TEST(OneCounterTest, Eligibility) {
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("ab"), Lit = F.var("a|");
  F.finalize();
  PosPredicate D{PredKind::Diseq, {X}, {Y}, {}};
  PosPredicate C{PredKind::NotContains, {X}, {Y}, {}};
  EXPECT_TRUE(isEligible({D}, F.Langs));
  EXPECT_FALSE(isEligible({C}, F.Langs));
  EXPECT_FALSE(isEligible({D, D}, F.Langs));
  EXPECT_FALSE(isEligible({}, F.Langs));
  // str.at: a numeral index, and a compared variable with words of
  // length ≤ 1 that the haystack does not mention.
  EXPECT_TRUE(isEligible({{PredKind::StrAtEq, {Lit}, {X, Y, X}, 3}}, F.Langs));
  EXPECT_TRUE(isEligible({{PredKind::StrAtNe, {Lit}, {X}, -1}}, F.Langs));
  EXPECT_FALSE(isEligible({{PredKind::StrAtEq, {Y}, {X}, 0}}, F.Langs));
  EXPECT_FALSE(isEligible({{PredKind::StrAtEq, {Lit}, {X, Lit}, 0}}, F.Langs));
  EXPECT_FALSE(isEligible({{PredKind::StrAtEq, {Lit, Lit}, {X}, 0}}, F.Langs));
  lia::Arena A;
  lia::LinTerm AtVar = lia::LinTerm::variable(A.freshVar("i"));
  EXPECT_FALSE(isEligible({{PredKind::StrAtNe, {Lit}, {X}, AtVar}}, F.Langs));
}

TEST(OneCounterTest, DiseqByLength) {
  Fixture F;
  VarId X = F.var("a*"), Y = F.var("b");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {Y}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, DiseqUnsatIdentical) {
  Fixture F;
  VarId X = F.var("ab");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {X}, {}}), Verdict::Unsat);
}

TEST(OneCounterTest, DiseqMismatchOnly) {
  // x, y ∈ a|b, same length always; mismatch must be found.
  Fixture F;
  VarId X = F.var("a|b"), Y = F.var("a|b");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {Y}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, CommutingPowersUnsat) {
  Fixture F;
  VarId X = F.var("aa"), Y = F.var("aaa");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X, Y}, {Y, X}, {}}),
            Verdict::Unsat);
}

TEST(OneCounterTest, RepeatedVarMismatch) {
  // xy ≠ yx with x ∈ ab, y ∈ a (footnote 8 example) — Sat.
  Fixture F;
  VarId X = F.var("ab"), Y = F.var("a");
  EXPECT_EQ(F.decide({PredKind::Diseq, {X, Y}, {Y, X}, {}}), Verdict::Sat);
}

TEST(OneCounterTest, NotPrefixCases) {
  Fixture F;
  VarId X = F.var("a"), Y = F.var("ab*");
  EXPECT_EQ(F.decide({PredKind::NotPrefix, {X}, {Y}, {}}), Verdict::Unsat);

  Fixture F2;
  VarId X2 = F2.var("aa+"), Y2 = F2.var("a");
  EXPECT_EQ(F2.decide({PredKind::NotPrefix, {X2}, {Y2}, {}}),
            Verdict::Sat);
}

TEST(OneCounterTest, NotSuffixCases) {
  Fixture F;
  VarId X = F.var("b"), Y = F.var("(a|b)*b");
  EXPECT_EQ(F.decide({PredKind::NotSuffix, {X}, {Y}, {}}), Verdict::Unsat);

  Fixture F2;
  VarId X2 = F2.var("a|b"), Y2 = F2.var("(a|b)*b");
  EXPECT_EQ(F2.decide({PredKind::NotSuffix, {X2}, {Y2}, {}}),
            Verdict::Sat);
}

/// The key property: the PTime path agrees with the NP tag/LIA path and
/// the brute-force oracle on random single predicates.
TEST(OneCounterTest, DifferentialAgainstLiaPathAndOracle) {
  const char *Pool[] = {"a",      "b",  "ab",     "(a|b)*", "a*",
                        "(ab)*",  "a|b", "a+b*",  "ba|ab",  "a{1,3}",
                        "",       "b+",  "(ab)+", "(a|b){0,2}"};
  std::mt19937 Rng(31337);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Fixture F;
    uint32_t NumVars = 1 + Rng() % 3;
    std::vector<VarId> Vars;
    for (uint32_t V = 0; V < NumVars; ++V)
      Vars.push_back(F.var(Pool[Rng() % (sizeof(Pool) / sizeof(char *))]));
    auto RandOccs = [&] {
      std::vector<VarId> Occs;
      uint32_t Len = 1 + Rng() % 2;
      for (uint32_t I = 0; I < Len; ++I)
        Occs.push_back(Vars[Rng() % Vars.size()]);
      return Occs;
    };
    PredKind Kind = static_cast<PredKind>(Rng() % 3); // Diseq/NotPre/NotSuf
    PosPredicate Pred{Kind, RandOccs(), RandOccs(), {}};

    Verdict Fast = F.decide(Pred);
    ASSERT_NE(Fast, Verdict::Unknown) << "budget hit on tiny instance";

    lia::Arena A;
    MpResult Slow = solveMP(A, F.Langs, {Pred}, F.Sigma.size());
    ASSERT_NE(Slow.V, Verdict::Unknown);
    EXPECT_EQ(Fast, Slow.V) << "iteration " << Iter;

    solver::BruteForceOptions BfOpts;
    BfOpts.MaxWordLen = 4;
    solver::BruteForceResult Bf = solver::solveBruteForce(F.Langs, {Pred},
                                                          BfOpts);
    if (Bf.V == Verdict::Sat)
      EXPECT_EQ(Fast, Verdict::Sat) << "iteration " << Iter;
  }
}

/// Pins the walk search's expansion order: each instance needs exactly
/// its recorded number of expansions (NodeBudget) to reach its verdict,
/// and one fewer answers Unknown. A change to the discovery order or to
/// the budget accounting moves these counts. Only the mismatch pairs
/// expand states: the length branch is an exact Bellman–Ford pass that
/// takes none.
TEST(OneCounterTest, NodeBudgetPinsExpansionCount) {
  struct PinCase {
    const char *X, *Y;
    Verdict V;
    uint64_t Expansions;
  };
  // xy ≠ yx: commuting powers of ab (Unsat, every mismatch pair searched
  // to its end, so the round-robin order leaves the total as the
  // sequential one had it) and x ∈ (ab)*, y ∈ a(ba)* (Sat, found in a
  // pair's first slice).
  const PinCase Cases[] = {{"(ab)*", "(ab)*", Verdict::Unsat, 39962},
                           {"(ab)*", "a(ba)*", Verdict::Sat, 282}};
  for (const PinCase &C : Cases) {
    for (uint64_t Budget : {C.Expansions - 1, C.Expansions}) {
      Fixture F;
      VarId X = F.var(C.X), Y = F.var(C.Y);
      OneCounterOptions O;
      O.NodeBudget = Budget;
      Verdict V = F.decide({PredKind::Diseq, {X, Y}, {Y, X}, {}}, O);
      EXPECT_EQ(V, Budget == C.Expansions ? C.V : Verdict::Unknown)
          << C.X << ", " << C.Y << " at NodeBudget " << Budget;
    }
  }
}

/// A Sat whose only 0-weight walk lies in a late mismatch pair must not
/// pay for searching the earlier Unsat pairs to their end: postr-bench
/// position draw #57, ¬suffixof(x1x1x2, x1x2x1) with x1 ∈ (acc)+ and
/// x2 ∈ c+. Searched pair by pair it needed 114876 expansions; stepped
/// round-robin it is Sat in about a thousand, with a witness the
/// concrete evaluator accepts.
TEST(OneCounterTest, LatePairSatWithinASmallBudget) {
  Fixture F;
  VarId X1 = F.var("(acc)+"), X2 = F.var("c+");
  OneCounterOptions O;
  O.NodeBudget = 5000;
  EXPECT_EQ(F.decide({PredKind::NotSuffix, {X1, X1, X2}, {X1, X2, X1}, {}}, O),
            Verdict::Sat);
}

/// The length branch is exact and spends no NodeBudget, so it cannot run
/// out. x ∈ a|aa, y ∈ a: x ≠ y is Sat only by length, and every mismatch
/// graph lacks a start→finish walk. Even at NodeBudget 0 the answer is
/// Sat, with the heaviest walk as the witness: x = aa.
TEST(OneCounterTest, LengthBranchNeedsNoNodeBudget) {
  Fixture F;
  VarId X = F.var("a|aa"), Y = F.var("a");
  F.finalize();
  OneCounterOptions O;
  O.NodeBudget = 0;
  OneCounterResult R = decideSinglePredicate(
      F.Langs, {PredKind::Diseq, {X}, {Y}, {}}, F.Sigma.size(), O);
  ASSERT_EQ(R.V, Verdict::Sat);
  ASSERT_TRUE(R.Model);
  EXPECT_EQ(R.Model->at(X), (Word{0, 0}));
  EXPECT_EQ(R.Model->at(Y), Word{0});
}

/// The 0-weight search caps its quadratic excursion bound at 2^21. Once
/// the cap fires, a search that finds no walk may have been cut off, so it
/// must answer Unknown (the caller falls back to the LIA path), never
/// Unsat. x = y = a^n·b makes x ≠ y Unsat, with mismatch walks that
/// exist but never weigh 0. At n = 100 the bound stays under the cap and
/// the search proves Unsat; at n = 800 the cap fires.
TEST(OneCounterTest, CappedExcursionBoundAnswersUnknown) {
  for (auto [N, Want] : {std::pair{100, Verdict::Unsat},
                         std::pair{800, Verdict::Unknown}}) {
    Fixture F;
    std::string Word = std::string(N, 'a') + "b";
    VarId X = F.var(Word), Y = F.var(Word);
    EXPECT_EQ(F.decide({PredKind::Diseq, {X}, {Y}, {}}), Want) << "n = " << N;
  }
}

/// A tripped budget stops the walk search at its `counter.walk` probe
/// with the budget's reason, and names the site: for ≠ and for str.at.
TEST(OneCounterTest, BudgetTripStopsTheWalkSearch) {
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("(ab)*"), Lit = F.var("a");
  F.finalize();
  for (const PosPredicate &Pred :
       {PosPredicate{PredKind::Diseq, {X, Y}, {Y, X}, {}},
        PosPredicate{PredKind::StrAtEq, {Lit}, {X, Y}, 5}}) {
    std::atomic<bool> Cancel{true};
    Budget Bud(Budget::Limits{0, 0, 0, &Cancel});
    OneCounterOptions O;
    O.Budget = &Bud;
    OneCounterResult R =
        decideSinglePredicate(F.Langs, Pred, F.Sigma.size(), O);
    EXPECT_EQ(R.V, Verdict::Unknown);
    EXPECT_EQ(R.Stop, StopReason::Cancelled);
    ASSERT_NE(Bud.tripSite(), nullptr);
    EXPECT_STREQ(Bud.tripSite(), "counter.walk");
  }
}

/// The length branch's signed-cycle shortcut pumps its cycle into a
/// witness: x ∈ (ab)* must outgrow the 5-letter y.
TEST(OneCounterTest, PumpedCycleWitness) {
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("aabab");
  EXPECT_EQ(F.decide({PredKind::NotPrefix, {X}, {Y}, {}}), Verdict::Sat);
  Fixture F2;
  VarId X2 = F2.var("(ab)*"), Y2 = F2.var("abab(ab)*");
  EXPECT_EQ(F2.decide({PredKind::NotSuffix, {Y2}, {X2}, {}}), Verdict::Sat);
}

/// A random primitive-or-not root of length 1-4 over {a,b,c}.
std::string randomRoot(std::mt19937 &Rng) {
  std::string W(1 + Rng() % 4, 'a');
  for (char &C : W)
    C = "abc"[Rng() % 3];
  return W;
}

/// Numeral-index str.at / ¬str.at over a concatenation of flat
/// languages: the one-counter fast path against the tag/LIA path
/// (UseOcaFastPath = false), at every index −1..12 and every letter, with
/// and without a length bound |S| > k. Verdicts agree, every fast-path
/// Sat model passes the evaluator, and every Unsat certificate passes the
/// kernel as one checked refutation (a walk record when the fast path
/// decided it), with no trusted rule.
TEST(OneCounterTest, StrAtDifferentialAgainstLiaPath) {
  std::mt19937 Rng(4077);
  uint32_t Sats = 0, Unsats = 0, Bounded = 0;
  for (int Draw = 0; Draw < 6; ++Draw) {
    // 1-4 variables, all on one root (powers of one word) or each on its
    // own; r* or r+.
    const int K = 1 + Draw % 4;
    const bool OneRoot = (Draw % 2 == 0) != (Draw >= 4);
    const std::string Shared = randomRoot(Rng);
    std::string Decls;
    for (int V = 1; V <= K; ++V)
      Decls += "(declare-fun x" + std::to_string(V) + " () String)\n"
               "(assert (str.in_re x" + std::to_string(V) + " (re." +
               (Rng() % 2 ? "*" : "+") + " (str.to_re \"" +
               (OneRoot ? Shared : randomRoot(Rng)) + "\"))))\n";
    // Every variable once plus up to two repeats, shuffled; at least two
    // occurrences, since str.at of one variable is lowered to a
    // membership before any solver sees it.
    std::vector<int> Seq;
    for (int V = 1; V <= K; ++V)
      Seq.push_back(V);
    for (uint32_t E = K == 1 ? 1 + Rng() % 2 : Rng() % 3; E > 0; --E)
      Seq.push_back(1 + static_cast<int>(Rng() % K));
    std::shuffle(Seq.begin(), Seq.end(), Rng);
    std::string Hay = "(str.++";
    for (int V : Seq)
      Hay += " x" + std::to_string(V);
    Hay += ")";

    // Every index; the letter rotates, so each index meets every letter
    // over three consecutive draws.
    for (int64_t I = -1; I <= 12; ++I) {
      const char Letter = "abc"[(I + 1 + Draw) % 3];
        const bool Eq = Rng() % 2 == 0;
        // k ∈ [−2, i+1]: k = i+1 is a bound the fast path must refuse.
        std::optional<int64_t> Bound;
        if (Rng() % 2)
          Bound = -2 + static_cast<int64_t>(Rng() % (I + 4));
        std::string At = "(= (str.at " + Hay + " " + std::to_string(I) +
                         ") \"" + std::string(1, Letter) + "\")";
        std::string Text = Decls + "(assert " +
                           (Eq ? At : "(not " + At + ")") + ")\n";
        if (Bound)
          Text += "(assert (> (str.len " + Hay + ") " +
                  std::to_string(*Bound) + "))\n";
        Text += "(check-sat)\n";
        Result<strings::Problem> P = smtlib::parseString(Text);
        ASSERT_TRUE(P) << P.error();

        solver::SolveOptions FastO, SlowO;
        FastO.CertifyUnsat = true;
        SlowO.UseOcaFastPath = false;
        solver::SolveResult Fast = solver::solveProblem(*P, FastO);
        solver::SolveResult Slow = solver::solveProblem(*P, SlowO);
        ASSERT_NE(Slow.V, Verdict::Unknown) << Text;
        ASSERT_EQ(Fast.V, Slow.V) << Text;
        const bool Absorbed = !Bound || *Bound <= I;
        EXPECT_EQ(Fast.Stats.FastPathDecisions, Absorbed ? 1u : 0u) << Text;
        if (Absorbed)
          EXPECT_EQ(Fast.Stats.MpCalls, 0u) << Text;
        Bounded += Bound.has_value();
        if (Fast.V == Verdict::Sat) {
          ++Sats;
          // The evaluator keeps a reference to the alphabet.
          const strings::NormalForm NF = strings::normalize(*P);
          strings::ConcreteEvaluator E(*P, NF.Sigma);
          EXPECT_TRUE(E.evalAll(Fast.Words, Fast.Ints)) << Text;
          continue;
        }
        ++Unsats;
        Result<proof::Certificate> C = proof::parse(Fast.CertText);
        ASSERT_TRUE(C) << C.error() << "\n" << Text;
        proof::CheckOutcome CO = proof::checkCertificate(*C);
        EXPECT_TRUE(CO.Ok) << CO.Error << "\n" << Text;
        EXPECT_EQ(CO.Stats.TrustedRules, 0u) << Text;
        EXPECT_EQ(CO.Stats.CheckedRefutations, 1u) << Text;
      }
  }
  // Both verdicts and both bound variants occur.
  EXPECT_GE(Sats, 20u);
  EXPECT_GE(Unsats, 20u);
  EXPECT_GE(Bounded, 20u);
}

/// The integer side the str.at fast path absorbs: numeral lower bounds
/// on the whole haystack in any orientation. A bound on part of it, an
/// equality, or a bound above i keeps the disjunct on solveMP.
TEST(OneCounterTest, StrAtAbsorbsOnlyHaystackLowerBounds) {
  const std::string Decls = R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (assert (str.in_re x1 (re.* (str.to_re "ab"))))
    (assert (str.in_re x2 (re.* (str.to_re "ab"))))
    (assert (not (= (str.at (str.++ x1 x2 x1) 3) "b"))))";
  const std::string H = "(str.++ x1 x2 x1)";
  const struct {
    std::string Atom;
    bool Absorbed;
  } Cases[] = {
      {"(> (str.len " + H + ") 2)", true},
      {"(>= (str.len " + H + ") 3)", true},
      {"(< 2 (str.len " + H + "))", true},
      {"(<= 4 (str.len " + H + "))", true},
      {"(> (str.len " + H + ") 4)", false}, // k > i
      {"(> (str.len x1) 2)", false},
      {"(= (str.len " + H + ") 4)", false},
  };
  for (const auto &C : Cases) {
    std::string Text = Decls + "\n(assert " + C.Atom + ")\n(check-sat)\n";
    Result<strings::Problem> P = smtlib::parseString(Text);
    ASSERT_TRUE(P) << P.error();
    solver::SolveOptions FastO, SlowO;
    SlowO.UseOcaFastPath = false;
    solver::SolveResult Fast = solver::solveProblem(*P, FastO);
    solver::SolveResult Slow = solver::solveProblem(*P, SlowO);
    EXPECT_EQ(Fast.V, Slow.V) << C.Atom;
    EXPECT_EQ(Fast.Stats.FastPathDecisions, C.Absorbed ? 1u : 0u) << C.Atom;
  }
}

/// A walk refutation's graph, start and targets are what the kernel
/// re-decides: y = str.at(x·x, 1) with x ∈ (ab)* and y ∈ {b} is Sat, and
/// with y ∈ {a} it is Unsat with a walk certificate.
TEST(OneCounterTest, StrAtWalkCertificate) {
  for (const char *Y : {"b", "a"}) {
    Fixture F;
    VarId X = F.var("(ab)*"), Lit = F.var(Y);
    F.finalize();
    OneCounterOptions O;
    O.Certify = true;
    OneCounterResult R = decideSinglePredicate(
        F.Langs, {PredKind::StrAtEq, {Lit}, {X, X}, 1}, F.Sigma.size(), O);
    if (std::string(Y) == "b") {
      ASSERT_EQ(R.V, Verdict::Sat);
      ASSERT_TRUE(R.Model);
      EXPECT_EQ(R.Model->at(Lit), Word{1});
      EXPECT_FALSE(R.Cert);
      continue;
    }
    ASSERT_EQ(R.V, Verdict::Unsat);
    ASSERT_TRUE(R.Cert);
    EXPECT_EQ(R.Cert->StartNode, 0u);
    EXPECT_EQ(R.Cert->StartValue, 1);
    EXPECT_EQ(R.Cert->Bound, 1);
    proof::Certificate C;
    C.Disjuncts.emplace_back().Walk = *R.Cert;
    proof::CheckOutcome CO = proof::checkCertificate(C);
    EXPECT_TRUE(CO.Ok) << CO.Error;
    EXPECT_EQ(CO.Stats.CheckedRefutations, 1u);
    EXPECT_GT(CO.Stats.WalkStates, 0u);
  }
}

} // namespace
