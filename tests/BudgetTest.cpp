//===- tests/BudgetTest.cpp - Resource governance & fault injection ---------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The shared Budget token (base/Budget.h) and the deterministic fault
// injector. The sweep test arms every registered probe site in turn and
// asserts the property the whole robustness layer exists for: a trip at
// any site unwinds cleanly into a *reasoned* Unknown and never flips a
// determinate verdict.
//
//===----------------------------------------------------------------------===//

#include "base/Budget.h"

#include "eq/Stabilize.h"
#include "lia/Incremental.h"
#include "regex/Regex.h"
#include "smtlib/Reader.h"
#include "solver/Baselines.h"
#include "solver/BruteForce.h"
#include "solver/PositionSolver.h"
#include "tagaut/Encoder.h"
#include "tagaut/Parikh.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <thread>

using namespace postr;
using automata::Nfa;

namespace {

//===----------------------------------------------------------------------===
// Budget unit tests
//===----------------------------------------------------------------------===

TEST(BudgetTest, UnlimitedBudgetNeverTrips) {
  Budget B;
  for (int I = 0; I < 1000; ++I)
    EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_FALSE(B.exceeded());
  EXPECT_EQ(B.reason(), StopReason::None);
  EXPECT_EQ(B.remainingMs(), ~0ull);
}

TEST(BudgetTest, StepLimitTripsDeterministically) {
  Budget B(Budget::Limits{0, 0, 5, nullptr});
  int Allowed = 0;
  while (B.checkpoint("lia.sat"))
    ++Allowed;
  EXPECT_EQ(Allowed, 5);
  EXPECT_EQ(B.reason(), StopReason::StepBudget);
  // Sticky: later probes keep refusing.
  EXPECT_FALSE(B.checkpoint("lia.sat"));
}

TEST(BudgetTest, MemCapTrips) {
  Budget B(Budget::Limits{0, 1024, 0, nullptr});
  EXPECT_TRUE(B.chargeMem(512));
  EXPECT_TRUE(B.chargeMem(512)); // exactly at the cap: still fine
  EXPECT_FALSE(B.chargeMem(1));
  EXPECT_EQ(B.reason(), StopReason::MemOut);
  EXPECT_EQ(B.memCharged(), 1025u);
  EXPECT_FALSE(B.checkpoint("nfa.intersect"));
}

TEST(BudgetTest, CancelFlagTrips) {
  std::atomic<bool> Cancel{false};
  Budget B(Budget::Limits{0, 0, 0, &Cancel});
  EXPECT_TRUE(B.checkpoint("eq.stabilize"));
  Cancel.store(true);
  EXPECT_FALSE(B.checkpoint("eq.stabilize"));
  EXPECT_EQ(B.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, DeadlineTrips) {
  Budget B(Budget::Limits{1, 0, 0, nullptr});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  // The first probe after expiry trips, and names its site.
  EXPECT_FALSE(B.checkpoint("lia.sat"));
  EXPECT_EQ(B.reason(), StopReason::Timeout);
  EXPECT_STREQ(B.tripSite(), "lia.sat");
  EXPECT_EQ(B.remainingMs(), 0u);
}

TEST(BudgetTest, TripSiteIsTheFirstProbeThatStopped) {
  Budget B;
  EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_EQ(B.tripSite(), nullptr);
  // A trip outside a probe (a growth site's chargeMem) is named by the
  // first probe that notices it; later probes keep the first name.
  B.trip(StopReason::MemOut);
  EXPECT_EQ(B.tripSite(), nullptr);
  EXPECT_FALSE(B.checkpoint("lia.simplex"));
  EXPECT_FALSE(B.checkpoint("lia.sat"));
  EXPECT_STREQ(B.tripSite(), "lia.simplex");
}

TEST(BudgetTest, ChildOfExpiredOrTrippedParentIsBornTripped) {
  // A parent whose deadline has passed hands its child no fresh
  // allowance: the child starts tripped, on Timeout.
  Budget Expired(Budget::Limits{1, 0, 0, nullptr});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Budget Late(Expired.childLimits());
  EXPECT_TRUE(Late.exceeded());
  EXPECT_EQ(Late.reason(), StopReason::Timeout);
  EXPECT_FALSE(Late.checkpoint("solver.disjunct"));

  // A tripped parent passes its own reason on, deadline or not.
  Budget Root(Budget::Limits{60000, 0, 0, nullptr});
  Root.trip(StopReason::MemOut);
  Budget Child(Root.childLimits());
  EXPECT_EQ(Child.reason(), StopReason::MemOut);

  // A live parent's child is live.
  Budget Live(Budget::Limits{60000, 0, 0, nullptr});
  Budget Kid(Live.childLimits());
  EXPECT_FALSE(Kid.exceeded());
  EXPECT_TRUE(Kid.checkpoint("solver.disjunct"));
}

TEST(BudgetTest, FirstReasonWins) {
  Budget B;
  EXPECT_EQ(B.trip(StopReason::MemOut), StopReason::MemOut);
  EXPECT_EQ(B.trip(StopReason::Timeout), StopReason::MemOut);
  EXPECT_EQ(B.reason(), StopReason::MemOut);
}

TEST(BudgetTest, ChildLimitsInheritDeadlineAndLimits) {
  // Parent with a deadline: the child gets the remaining time, never 0
  // (0 would mean "no deadline" and unbound the child).
  Budget P(Budget::Limits{10000, 100, 1000, nullptr});
  Budget::Limits Child = P.childLimits();
  EXPECT_GT(Child.TimeoutMs, 0u);
  EXPECT_LE(Child.TimeoutMs, 10000u);
  EXPECT_EQ(Child.Parent, &P);
  // Mem/step limits: inherited by default, tighter-of-the-two when
  // overridden.
  EXPECT_EQ(Child.MemLimitBytes, 100u);
  EXPECT_EQ(Child.StepLimit, 1000u);
  EXPECT_EQ(P.childLimits(50, 2000).MemLimitBytes, 50u);
  EXPECT_EQ(P.childLimits(500, 2000).MemLimitBytes, 100u);
  EXPECT_EQ(P.childLimits(0, 10).StepLimit, 10u);
  EXPECT_EQ(P.childLimits(0, 5000).StepLimit, 1000u);
  // Parent without a deadline: neither has the child.
  Budget Free;
  EXPECT_EQ(Free.childLimits().TimeoutMs, 0u);
}

TEST(BudgetTest, NestedChildrenFirstReasonWins) {
  // A trip anywhere up the chain reaches every descendant at its next
  // probe, carrying the ancestor's reason.
  Budget Root;
  Budget Mid(Root.childLimits());
  Budget Leaf(Mid.childLimits());
  EXPECT_TRUE(Leaf.checkpoint("lia.sat"));
  Root.trip(StopReason::MemOut);
  EXPECT_FALSE(Leaf.checkpoint("lia.sat"));
  EXPECT_EQ(Leaf.reason(), StopReason::MemOut);
  EXPECT_FALSE(Mid.checkpoint("lia.sat"));
  EXPECT_EQ(Mid.reason(), StopReason::MemOut);

  // A child that already tripped locally keeps its own first reason even
  // when an ancestor trips with a different one afterwards — and its own
  // descendants inherit the child's reason, not the ancestor's.
  Budget Root2;
  Budget Mid2(Root2.childLimits());
  Mid2.trip(StopReason::StepBudget);
  Budget Leaf2(Mid2.childLimits());
  Root2.trip(StopReason::Timeout);
  EXPECT_FALSE(Leaf2.checkpoint("lia.sat"));
  EXPECT_EQ(Leaf2.reason(), StopReason::StepBudget);
  EXPECT_FALSE(Mid2.checkpoint("lia.sat"));
  EXPECT_EQ(Mid2.reason(), StopReason::StepBudget);
}

TEST(BudgetTest, CancelledRootStopsGrandchildAtNextProbe) {
  // The cancel flag sits on the root only. A grandchild must trip with
  // Cancelled at its next probe, without the root or the middle budget
  // probing first, and a child derived afterwards is born cancelled.
  std::atomic<bool> Cancel{false};
  Budget Root(Budget::Limits{0, 0, 0, &Cancel});
  Budget Mid(Root.childLimits());
  Budget Leaf(Mid.childLimits());
  EXPECT_TRUE(Leaf.checkpoint("lia.simplex"));
  Cancel.store(true);
  EXPECT_FALSE(Leaf.checkpoint("lia.simplex"));
  EXPECT_EQ(Leaf.reason(), StopReason::Cancelled);
  EXPECT_STREQ(Leaf.tripSite(), "lia.simplex");
  EXPECT_FALSE(Mid.exceeded());
  Budget Late(Mid.childLimits());
  EXPECT_EQ(Late.reason(), StopReason::Cancelled);
}

TEST(BudgetTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(stopReasonName(StopReason::None), "none");
  EXPECT_STREQ(stopReasonName(StopReason::Timeout), "timeout");
  EXPECT_STREQ(stopReasonName(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(stopReasonName(StopReason::MemOut), "memout");
  EXPECT_STREQ(stopReasonName(StopReason::StepBudget), "stepbudget");
}

//===----------------------------------------------------------------------===
// Fault injector plumbing
//===----------------------------------------------------------------------===

/// Arms a process-wide injector for one scope and always disarms on the
/// way out, so a failing assertion cannot poison later tests.
struct ArmGuard {
  FaultInjector I;
  ArmGuard(const char *Site, uint64_t Nth, uint64_t Seed) : I(Site, Nth, Seed) {
    FaultInjector::arm(&I);
  }
  ~ArmGuard() { FaultInjector::arm(nullptr); }
};

TEST(FaultInjectTest, FiresExactlyOnNthProbe) {
  ArmGuard G("lia.sat", 3, 0);
  Budget B;
  EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_TRUE(B.checkpoint("nfa.intersect")); // other sites don't count
  EXPECT_TRUE(B.checkpoint("lia.sat"));
  EXPECT_FALSE(B.checkpoint("lia.sat")); // third hit trips
  EXPECT_EQ(G.I.fired(), 1u);
  EXPECT_EQ(G.I.hits(), 3u);
  EXPECT_EQ(B.reason(), G.I.reason());
  // One-shot: a fresh budget sails past the already-spent injector.
  Budget B2;
  EXPECT_TRUE(B2.checkpoint("lia.sat"));
}

TEST(FaultInjectTest, EnvSpecParses) {
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "lia.mbqi:2:7", 1), 0);
  FaultInjector *I = faultInjectorFromEnv();
  ASSERT_NE(I, nullptr);
  EXPECT_EQ(FaultInjector::armed(), I);
  Budget B;
  EXPECT_TRUE(B.checkpoint("lia.mbqi"));
  EXPECT_FALSE(B.checkpoint("lia.mbqi"));
  EXPECT_EQ(B.reason(), I->reason());
  FaultInjector::arm(nullptr);
  unsetenv("POSTR_FAULT_INJECT");
}

TEST(FaultInjectTest, BadEnvSpecIsRejected) {
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "no.such.site:1", 1), 0);
  EXPECT_EQ(faultInjectorFromEnv(), nullptr);
  ASSERT_EQ(setenv("POSTR_FAULT_INJECT", "missing-colon", 1), 0);
  EXPECT_EQ(faultInjectorFromEnv(), nullptr);
  unsetenv("POSTR_FAULT_INJECT");
  FaultInjector::arm(nullptr);
}

//===----------------------------------------------------------------------===
// Per-site workloads for the sweep
//===----------------------------------------------------------------------===

/// Random ε-free NFA with a spine (the gate's product shape, smaller).
Nfa randomNfa(uint32_t NumStates, uint32_t Sigma, uint32_t ExtraEdges,
              uint32_t Seed) {
  std::mt19937 Rng(Seed);
  Nfa A(Sigma);
  A.addStates(NumStates);
  A.markInitial(0);
  A.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    A.addTransition(Q, Rng() % Sigma, Q + 1);
  for (uint32_t E = 0; E < ExtraEdges; ++E)
    A.addTransition(Rng() % NumStates, Rng() % Sigma, Rng() % NumStates);
  return A;
}

/// Random tag automaton with real Parikh/Simplex load (the gate's solve
/// stage, smaller).
tagaut::TagAutomaton randomTa(tagaut::TagTable &Tags, uint32_t NumStates,
                              uint32_t Seed) {
  std::mt19937 Rng(Seed);
  tagaut::TagAutomaton Ta;
  Ta.addStates(NumStates);
  Ta.markInitial(0);
  Ta.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    Ta.addTransition({Q, Q + 1, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  for (uint32_t E = 0; E < 2 * NumStates; ++E)
    Ta.addTransition({static_cast<uint32_t>(Rng() % NumStates),
                      static_cast<uint32_t>(Rng() % NumStates), 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  return Ta;
}

Verdict liaDriver() {
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta = randomTa(Tags, 20, 4711);
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "b.", tagaut::SpanMode::Eager);
  Budget Bud;
  lia::QfOptions O;
  O.Budget = &Bud;
  lia::QfResult R = lia::solveQF(A, Pf.Formula, O);
  if (R.V == Verdict::Unknown)
    EXPECT_NE(R.Stop, StopReason::None);
  return R.V;
}

Verdict mpDriver(std::vector<tagaut::PosPredicate> Preds,
                 std::map<VarId, std::string> Regexes) {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  for (const auto &[X, Re] : Regexes)
    Langs[X] = regex::compileString(Re, Sigma);
  lia::Arena A;
  Budget Bud;
  tagaut::MpOptions O;
  O.Budget = &Bud;
  tagaut::MpResult R =
      solveMP(A, Langs, Preds, Sigma.size(), nullptr, O);
  if (R.V == Verdict::Unknown)
    EXPECT_NE(R.Stop, StopReason::None);
  return R.V;
}

struct SiteCase {
  const char *Site;
  std::function<Verdict()> Run;
};

std::vector<SiteCase> siteCases() {
  std::vector<SiteCase> Cases;

  Cases.push_back({"nfa.intersect", [] {
    Nfa A = randomNfa(24, 3, 48, 101), B = randomNfa(24, 3, 48, 202);
    Budget Bud;
    Nfa P = automata::intersect(A, B, &Bud);
    if (Bud.exceeded())
      return Verdict::Unknown; // partial product: discarded
    return P.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"nfa.determinize", [] {
    Nfa A = randomNfa(16, 3, 32, 303);
    Budget Bud;
    Nfa D = automata::determinize(A, &Bud);
    if (Bud.exceeded())
      return Verdict::Unknown;
    return D.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"nfa.epsilon", [] {
    // Concatenation introduces ε-links, so removal has real work.
    Nfa C = automata::concatenate(randomNfa(12, 3, 24, 404),
                                  randomNfa(12, 3, 24, 505));
    Budget Bud;
    Nfa E = C.removeEpsilon(&Bud);
    if (Bud.exceeded())
      return Verdict::Unknown;
    return E.isEmpty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"eq.stabilize", [] {
    // xy = z with z fixed: completes (EqTest's ConcatenationSplit shape).
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("(a|b)*", Sigma);
    Langs[1] = regex::compileString("(a|b)*", Sigma);
    Langs[2] = regex::compileString("abab", Sigma);
    std::vector<eq::WordEquation> Eqs = {{{0, 1}, {2}}};
    VarId Fresh = 100;
    Budget Bud;
    eq::StabilizeOptions O;
    O.Budget = &Bud;
    eq::StabilizeResult R = eq::stabilize(Langs, Eqs, Fresh, O);
    if (!R.Complete) {
      EXPECT_NE(R.Stop, StopReason::None);
      return Verdict::Unknown;
    }
    return R.Disjuncts.empty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"tagaut.encode", [] {
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("a{1,2}", Sigma);
    Langs[1] = regex::compileString("b{1,2}", Sigma);
    std::vector<tagaut::PosPredicate> Preds = {
        {tagaut::PredKind::Diseq, {0}, {1}, {}}};
    lia::Arena A;
    Budget Bud;
    tagaut::EncoderOptions EO;
    EO.Budget = &Bud;
    tagaut::SystemEncoding Enc =
        encodeSystem(A, Langs, Preds, Sigma.size(), EO);
    if (Bud.exceeded())
      return Verdict::Unknown; // partial encoding: discarded
    return Enc.Ta.transitions().empty() ? Verdict::Unsat : Verdict::Sat;
  }});

  Cases.push_back({"tagaut.parikh", [] {
    tagaut::TagTable Tags;
    tagaut::TagAutomaton Ta = randomTa(Tags, 10, 606);
    lia::Arena A;
    Budget Bud;
    buildParikhFormula(Ta, A, "t.", tagaut::SpanMode::Eager, &Bud);
    return Bud.exceeded() ? Verdict::Unknown : Verdict::Sat;
  }});

  Cases.push_back({"counter.walk", [] {
    // xyz ≠ yxz with x, y ∈ (ab)*, z ∈ c*: Unsat (xy and yx are powers
    // of ab, so equal), but z puts a second root on both sides, so the
    // predicate is not mono-root and the one-counter fast path decides it.
    strings::Problem P;
    VarId X = P.strVar("x"), Y = P.strVar("y"), Z = P.strVar("z");
    P.assertInRe(X, "(ab)*");
    P.assertInRe(Y, "(ab)*");
    P.assertInRe(Z, "c*");
    P.assertDiseq({strings::StrElem::var(X), strings::StrElem::var(Y),
                   strings::StrElem::var(Z)},
                  {strings::StrElem::var(Y), strings::StrElem::var(X),
                   strings::StrElem::var(Z)});
    solver::SolveResult R = solver::solveProblem(P);
    if (R.V == Verdict::Unknown) {
      EXPECT_NE(R.Stop, StopReason::None);
      EXPECT_EQ(R.StopSite, "counter.walk");
      EXPECT_EQ(R.Stats.MpCalls, 0u);
    } else {
      EXPECT_EQ(R.Stats.FastPathDecisions, 1u);
    }
    return R.V;
  }});

  Cases.push_back({"lia.sat", liaDriver});
  Cases.push_back({"lia.simplex", liaDriver});

  Cases.push_back({"lia.mbqi", [] {
    // ¬contains(x, y), x ∈ a, y ∈ ab: "a" occurs in "ab", Unsat — and no
    // pre-MBQI short-circuit applies (distinct vars, and no single root
    // for a and ab, so no mono-root length atom), so the verdict comes
    // from the MBQI refutation loop.
    return mpDriver({{tagaut::PredKind::NotContains, {0}, {1}, {}}},
                    {{0, "a"}, {1, "ab"}});
  }});

  Cases.push_back({"solver.disjunct", [] {
    strings::Problem P;
    VarId U = P.strVar("u"), V = P.strVar("v");
    P.assertInRe(U, "a*");
    P.assertInRe(V, "a*");
    P.assertWordEq({strings::StrElem::var(U), strings::StrElem::var(V)},
                   {strings::StrElem::var(V), strings::StrElem::var(U)});
    P.assertDiseq({strings::StrElem::var(U)}, {strings::StrElem::var(V)});
    solver::SolveOptions O;
    O.TimeoutMs = 20000;
    solver::SolveResult R = solver::solveProblem(P, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  Cases.push_back({"solver.enum", [] {
    strings::Problem P;
    VarId X = P.strVar("x");
    P.assertInRe(X, "(a|b){1,2}");
    P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::lit("a")});
    solver::EnumOptions O;
    O.TimeoutMs = 20000;
    solver::SolveResult R = solver::solveEnum(P, O);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  Cases.push_back({"solver.bruteforce", [] {
    Alphabet Sigma;
    std::map<VarId, Nfa> Langs;
    Langs[0] = regex::compileString("a|b", Sigma);
    Langs[1] = regex::compileString("a", Sigma);
    std::vector<tagaut::PosPredicate> Preds = {
        {tagaut::PredKind::Diseq, {0}, {1}, {}}};
    solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds);
    if (R.V == Verdict::Unknown)
      EXPECT_NE(R.Stop, StopReason::None);
    return R.V;
  }});

  return Cases;
}

//===----------------------------------------------------------------------===
// The sweep: every registered site trips cleanly and never flips
//===----------------------------------------------------------------------===

TEST(FaultSweepTest, EverySiteRegisteredAndCovered) {
  std::vector<SiteCase> Cases = siteCases();
  const std::vector<const char *> &Names = faultSiteNames();
  ASSERT_EQ(Cases.size(), Names.size());
  for (const SiteCase &C : Cases) {
    bool Known = false;
    for (const char *N : Names)
      Known = Known || std::strcmp(N, C.Site) == 0;
    EXPECT_TRUE(Known) << "driver for unregistered site " << C.Site;
  }
}

TEST(FaultSweepTest, TripsUnwindCleanlyWithoutVerdictFlips) {
  for (const SiteCase &C : siteCases()) {
    FaultInjector::arm(nullptr);
    Verdict Oracle = C.Run();
    ASSERT_NE(Oracle, Verdict::Unknown)
        << C.Site << ": oracle workload must be determinate";
    for (uint64_t Nth : {1ull, 3ull}) {
      ArmGuard G(C.Site, Nth, /*Seed=*/Nth * 97 + 13);
      Verdict V = C.Run();
      if (Nth == 1)
        EXPECT_GE(G.I.fired(), 1u)
            << C.Site << ": workload never probes its own site";
      if (G.I.fired())
        EXPECT_TRUE(V == Verdict::Unknown || V == Oracle)
            << C.Site << ": injected " << stopReasonName(G.I.reason())
            << " flipped " << static_cast<int>(Oracle) << " to "
            << static_cast<int>(V);
      else
        EXPECT_EQ(V, Oracle) << C.Site;
    }
  }
}

//===----------------------------------------------------------------------===
// Tripped contexts stay reusable
//===----------------------------------------------------------------------===

TEST(FaultSweepTest, TrippedIncrementalContextIsReusable) {
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta = randomTa(Tags, 14, 777);
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "t.", tagaut::SpanMode::Eager);

  lia::QfResult Oracle = lia::solveQF(A, Pf.Formula);
  ASSERT_NE(Oracle.V, Verdict::Unknown);

  lia::IncrementalContext IC(A);
  IC.assertFormula(Pf.Formula);
  {
    ArmGuard G("lia.sat", 1, 5);
    lia::QfResult R = IC.solve();
    EXPECT_EQ(G.I.fired(), 1u);
    EXPECT_EQ(R.V, Verdict::Unknown);
    EXPECT_NE(R.Stop, StopReason::None);
  }
  // The context must survive the mid-solve unwind: re-solving with the
  // injector disarmed matches the one-shot oracle.
  lia::QfResult R2 = IC.solve();
  EXPECT_EQ(R2.V, Oracle.V);
  EXPECT_EQ(R2.Stop, StopReason::None);
}

TEST(FaultSweepTest, TrippedSolveRetriesOnFreshBudget) {
  // End-to-end flavour of the same property: a solve stopped by a step
  // budget answers Unknown with the reason, and the identical problem
  // solved again without the cap gives the real verdict.
  strings::Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(ab)*");
  P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::lit("ab")});

  solver::SolveOptions Full;
  Full.TimeoutMs = 20000;
  solver::SolveResult Oracle = solver::solveProblem(P, Full);
  ASSERT_NE(Oracle.V, Verdict::Unknown);

  solver::SolveOptions Tiny = Full;
  Tiny.StepLimit = 1;
  solver::SolveResult R = solver::solveProblem(P, Tiny);
  ASSERT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);

  solver::SolveResult Again = solver::solveProblem(P, Full);
  EXPECT_EQ(Again.V, Oracle.V);
  EXPECT_EQ(Again.Stop, StopReason::None);
}

TEST(BudgetTest, ExpiredCallerBudgetStartsNoDisjunct) {
  // A caller budget whose deadline passed before the call: the pipeline
  // answers Unknown on Timeout without starting a single solveMP, on a
  // problem that stabilizes into several disjuncts.
  strings::Problem P;
  VarId U = P.strVar("u"), V = P.strVar("v");
  P.assertInRe(U, "a*");
  P.assertInRe(V, "a*");
  P.assertWordEq({strings::StrElem::var(U), strings::StrElem::var(V)},
                 {strings::StrElem::var(V), strings::StrElem::var(U)});
  P.assertDiseq({strings::StrElem::var(U)}, {strings::StrElem::var(V)});
  solver::SolveResult Free = solver::solveProblem(P);
  ASSERT_GT(Free.Stats.Disjuncts, 1u);
  // Unexpired, a disjunct is decided (by the one-counter fast path).
  ASSERT_GT(Free.Stats.MpCalls + Free.Stats.FastPathDecisions, 0u);

  Budget Expired(Budget::Limits{1, 0, 0, nullptr});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  solver::SolveOptions O;
  O.Budget = &Expired;
  solver::SolveResult R = solver::solveProblem(P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
  EXPECT_EQ(R.Stats.MpCalls, 0u);
  EXPECT_EQ(R.Stats.FastPathDecisions, 0u);
  EXPECT_FALSE(R.StopSite.empty());
  EXPECT_EQ(solver::exitCodeFor(R), 3);
}

TEST(BudgetTest, CancelMidDisjunctStopsTheSolve) {
  // The deadline instance tests/deadline/notcontains_mixed_root.smt2
  // (without its 5 s cap): its one disjunct runs MBQI far past any cap.
  // The caller's budget carries a 20 s deadline and a cancel flag raised
  // 200 ms in; the disjunct's child budget must see the flag at its next
  // probe, so the solve answers Cancelled long before the deadline.
  Result<strings::Problem> P = smtlib::parseString(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun z () String)
    (assert (str.in_re x1 (re.* (str.to_re "ab"))))
    (assert (str.in_re x2 (re.* (str.to_re "ab"))))
    (assert (str.in_re z (re.* (str.to_re "c"))))
    (assert (not (str.contains (str.++ z x2 x1 x1 x2) (str.++ x1 x2 x2))))
    (check-sat))");
  ASSERT_TRUE(P) << P.error();
  std::atomic<bool> Cancel{false};
  Budget Root(Budget::Limits{20000, 0, 0, &Cancel});
  solver::SolveOptions O;
  O.Budget = &Root;
  auto T0 = std::chrono::steady_clock::now();
  std::thread Raiser([&Cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Cancel.store(true);
  });
  solver::SolveResult R = solver::solveProblem(*P, O);
  Raiser.join();
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Cancelled);
  EXPECT_EQ(solver::exitCodeFor(R), 4);
  EXPECT_LT(Ms, 5000) << "cancel raised at 200 ms, answered at " << Ms
                      << " ms (" << R.StopSite << ")";
}

/// x1x2x3x4z ≠ x4x3x2x1z with x_i ∈ (abcbb)* and z ∈ c*
/// (tests/deadline/counter_walk.smt2): not mono-root, so the fast path
/// takes it, and the solve is still undecided after 30 s.
strings::Problem counterWalkProblem() {
  strings::Problem P;
  strings::StrSeq L, R;
  for (int I = 1; I <= 4; ++I) {
    VarId X = P.strVar("x" + std::to_string(I));
    P.assertInRe(X, "(abcbb)*");
    L.push_back(strings::StrElem::var(X));
  }
  R.assign(L.rbegin(), L.rend());
  VarId Z = P.strVar("z");
  P.assertInRe(Z, "c*");
  L.push_back(strings::StrElem::var(Z));
  R.push_back(strings::StrElem::var(Z));
  P.assertDiseq(L, R);
  return P;
}

TEST(BudgetTest, DeadlineStopsTheOneCounterWalk) {
  // Under a 10 ms cap the walk search's own probe notices the deadline,
  // and no solveMP starts. An unlimited shared Budget beside the cap must
  // not lift it (it used to replace the cap's root budget).
  strings::Problem P = counterWalkProblem();
  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  for (Budget *Shared : {static_cast<Budget *>(nullptr), &Unlimited}) {
    solver::SolveOptions O;
    O.TimeoutMs = 10;
    O.Budget = Shared;
    solver::SolveResult Res = solver::solveProblem(P, O);
    EXPECT_EQ(Res.V, Verdict::Unknown) << "shared: " << !!Shared;
    EXPECT_EQ(Res.Stop, StopReason::Timeout) << "shared: " << !!Shared;
    EXPECT_EQ(Res.StopSite, "counter.walk") << "shared: " << !!Shared;
    EXPECT_EQ(Res.Stats.MpCalls, 0u);
    EXPECT_EQ(Res.Stats.FastPathDecisions, 0u);
  }
}

TEST(BudgetTest, MemCapStopsTheOneCounterWalk) {
  // The walk search charges its pair graphs, FIFOs and visited sets to
  // the disjunct's budget, so an 8 MiB cap stops it at its own probe as a
  // memory stop, well before the 3 s deadline or the NodeBudget hands the
  // disjunct to solveMP (which would stop in lia.simplex on the deadline).
  solver::SolveOptions O;
  O.TimeoutMs = 3000;
  O.MemLimitBytes = 8u << 20;
  solver::SolveResult Res = solver::solveProblem(counterWalkProblem(), O);
  EXPECT_EQ(Res.V, Verdict::Unknown);
  EXPECT_EQ(Res.Stop, StopReason::MemOut);
  EXPECT_EQ(solver::exitCodeFor(Res), 5);
  EXPECT_EQ(Res.StopSite, "counter.walk");
  EXPECT_EQ(Res.Stats.MpCalls, 0u);
}

//===----------------------------------------------------------------------===
// Cancellation carried only by the Budget
//===----------------------------------------------------------------------===

enum class RaiseCancel { Never, BeforeCall, InBuilder };

/// solveMP under a budget carrying a cancel flag, raised before the call
/// or from the int-constraint builder. The builder runs after solveMP's
/// last own probe, so then only the QF/MBQI engine's probes can see it.
tagaut::MpResult mpWithCancel(const std::vector<tagaut::PosPredicate> &Preds,
                              const std::map<VarId, std::string> &Regexes,
                              RaiseCancel When) {
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  for (const auto &[X, Re] : Regexes)
    Langs[X] = regex::compileString(Re, Sigma);
  std::atomic<bool> Cancel{When == RaiseCancel::BeforeCall};
  Budget Bud(Budget::Limits{0, 0, 0, &Cancel});
  tagaut::MpOptions O;
  O.Budget = &Bud;
  tagaut::IntConstraintBuilder Builder =
      [&Cancel, When](lia::Arena &Ar, const std::map<VarId, lia::LinTerm> &) {
        if (When == RaiseCancel::InBuilder)
          Cancel.store(true);
        return Ar.trueF();
      };
  lia::Arena A;
  return solveMP(A, Langs, Preds, Sigma.size(), Builder, O);
}

TEST(BudgetTest, CancelFlagInBudgetStopsMpOnBothPaths) {
  struct PathCase {
    const char *Path;
    std::vector<tagaut::PosPredicate> Preds;
    std::map<VarId, std::string> Regexes;
    Verdict Oracle;
  };
  const PathCase Cases[] = {
      // x ≠ y over a{1,2} / b{1,2}: no short-circuit applies, QF decides.
      {"QF", {{tagaut::PredKind::Diseq, {0}, {1}, {}}},
       {{0, "a{1,2}"}, {1, "b{1,2}"}}, Verdict::Sat},
      // ¬contains(x, y), x ∈ a, y ∈ aa: the MBQI loop refutes it.
      {"MBQI", {{tagaut::PredKind::NotContains, {0}, {1}, {}}},
       {{0, "a"}, {1, "aa"}}, Verdict::Unsat},
  };
  for (const PathCase &C : Cases) {
    tagaut::MpResult Free = mpWithCancel(C.Preds, C.Regexes,
                                         RaiseCancel::Never);
    EXPECT_EQ(Free.V, C.Oracle) << C.Path;
    for (RaiseCancel When : {RaiseCancel::BeforeCall, RaiseCancel::InBuilder}) {
      tagaut::MpResult R = mpWithCancel(C.Preds, C.Regexes, When);
      EXPECT_EQ(R.V, Verdict::Unknown)
          << C.Path << ", raised " << static_cast<int>(When);
      EXPECT_EQ(R.Stop, StopReason::Cancelled)
          << C.Path << ", raised " << static_cast<int>(When);
    }
  }
}

TEST(BudgetTest, BruteForceTimeoutComposesWithSharedBudget) {
  // Regression: a caller-supplied Budget used to silently replace the
  // legacy TimeoutMs deadline in solveBruteForce — an unlimited shared
  // budget turned a 1 ms deadline into minutes of enumeration. Both are
  // probed now; the tighter limit wins.
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  Langs[0] = regex::compileString("(a|b)*", Sigma);
  Langs[1] = regex::compileString("(a|b)*", Sigma);
  // x != x never holds, so enumeration can only stop on a limit.
  std::vector<tagaut::PosPredicate> Preds = {
      {tagaut::PredKind::Diseq, {0}, {0}, {}}};

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  solver::BruteForceOptions O;
  O.MaxWordLen = 12;
  O.TimeoutMs = 1;
  O.Budget = &Unlimited;
  solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
}

TEST(BudgetTest, BruteForceSharedBudgetComposesWithTimeout) {
  // The other direction: a step-limited shared budget must still trip
  // under a generous TimeoutMs.
  Alphabet Sigma;
  std::map<VarId, Nfa> Langs;
  Langs[0] = regex::compileString("(a|b)*", Sigma);
  std::vector<tagaut::PosPredicate> Preds = {
      {tagaut::PredKind::Diseq, {0}, {0}, {}}};

  Budget Stepped(Budget::Limits{0, 0, 1, nullptr});
  solver::BruteForceOptions O;
  O.MaxWordLen = 12;
  O.TimeoutMs = 20000;
  O.Budget = &Stepped;
  solver::BruteForceResult R = solver::solveBruteForce(Langs, Preds, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
}

TEST(BudgetTest, EnumTimeoutComposesWithSharedBudget) {
  strings::Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|b)*");
  P.assertDiseq({strings::StrElem::var(X)}, {strings::StrElem::var(X)});

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  solver::EnumOptions O;
  O.MaxWordLen = 12;
  O.TimeoutMs = 1;
  O.Budget = &Unlimited;
  solver::SolveResult R = solver::solveEnum(P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
}

TEST(BudgetTest, EqReductionTimeoutComposesWithSharedBudget) {
  // Regression: a caller-supplied Budget used to replace TimeoutMs in
  // solveEqReduction. xy ≠ yx over (a|b)* takes the reduction over a
  // second to answer Sat, so only the 1 ms deadline can stop it early.
  strings::Problem P;
  VarId X = P.strVar("x"), Y = P.strVar("y");
  P.assertInRe(X, "(a|b)*");
  P.assertInRe(Y, "(a|b)*");
  P.assertDiseq({strings::StrElem::var(X), strings::StrElem::var(Y)},
                {strings::StrElem::var(Y), strings::StrElem::var(X)});

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  solver::EqReductionOptions O;
  O.TimeoutMs = 1;
  O.Budget = &Unlimited;
  solver::SolveResult R = solver::solveEqReduction(P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::Timeout);
}

TEST(BudgetTest, StepLimitGovernsStabilizationBesideItsOwnBudget) {
  // Regression: a Budget set in SolveOptions::Stabilize, or a shared
  // SolveOptions::Budget, used to replace the root budget for
  // stabilization, so StepLimit (and TimeoutMs) no longer reached it.
  // The pipeline now always hands stabilization its own root budget.
  // Steps are counted deterministically: the first seven go to the first
  // branch node and its automata products, so an 8-step limit stops the
  // search at its branch probe.
  strings::Problem P;
  VarId U = P.strVar("u"), V = P.strVar("v");
  P.assertInRe(U, "a*");
  P.assertInRe(V, "a*");
  P.assertWordEq({strings::StrElem::var(U), strings::StrElem::var(V)},
                 {strings::StrElem::var(V), strings::StrElem::var(U)});
  P.assertDiseq({strings::StrElem::var(U)}, {strings::StrElem::var(V)});

  Budget Unlimited(Budget::Limits{0, 0, 0, nullptr});
  for (bool Shared : {false, true}) {
    solver::SolveOptions O;
    O.StepLimit = 8;
    (Shared ? O.Budget : O.Stabilize.Budget) = &Unlimited;
    solver::SolveResult R = solver::solveProblem(P, O);
    EXPECT_EQ(R.V, Verdict::Unknown) << "shared: " << Shared;
    EXPECT_EQ(R.Stop, StopReason::StepBudget) << "shared: " << Shared;
    EXPECT_EQ(R.StopSite, "eq.stabilize") << "shared: " << Shared;
    EXPECT_TRUE(R.Stats.StabilizationIncomplete) << "shared: " << Shared;
  }
}

} // namespace
