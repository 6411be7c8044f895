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
#include "regex/Regex.h"
#include "solver/BruteForce.h"
#include "strings/Eval.h"
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
  PosPredicate D{PredKind::Diseq, {0}, {1}, {}};
  PosPredicate C{PredKind::NotContains, {0}, {1}, {}};
  EXPECT_TRUE(isEligible({D}));
  EXPECT_FALSE(isEligible({C}));
  EXPECT_FALSE(isEligible({D, D}));
  EXPECT_FALSE(isEligible({}));
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
/// the budget accounting moves these counts.
TEST(OneCounterTest, NodeBudgetPinsExpansionCount) {
  struct PinCase {
    const char *X, *Y;
    Verdict V;
    uint64_t Expansions;
  };
  // xy ≠ yx: commuting powers of ab (Unsat, the whole mismatch branch
  // searched) and x ∈ (ab)*, y ∈ a(ba)* (Sat, found mid-search).
  const PinCase Cases[] = {{"(ab)*", "(ab)*", Verdict::Unsat, 39974},
                           {"(ab)*", "a(ba)*", Verdict::Sat, 16648}};
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

/// A tripped budget stops the walk search at its `counter.walk` probe
/// with the budget's reason, and names the site.
TEST(OneCounterTest, BudgetTripStopsTheWalkSearch) {
  Fixture F;
  VarId X = F.var("(ab)*"), Y = F.var("(ab)*");
  F.finalize();
  std::atomic<bool> Cancel{true};
  Budget Bud(Budget::Limits{0, 0, 0, &Cancel});
  OneCounterOptions O;
  O.Budget = &Bud;
  OneCounterResult R = decideSinglePredicate(
      F.Langs, {PredKind::Diseq, {X, Y}, {Y, X}, {}}, F.Sigma.size(), O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
  ASSERT_NE(Bud.tripSite(), nullptr);
  EXPECT_STREQ(Bud.tripSite(), "counter.walk");
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

} // namespace
