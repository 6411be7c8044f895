//===- tests/GateTest.cpp - Deterministic verdict and effort gate ----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Pins exact values of fixed-seed workloads over the hot path: the sizes
// the automata and Parikh constructions build, the verdicts and search
// counters of the DPLL(T)+Simplex core, the end-to-end verdicts of the
// pipeline on the bench workload generators, the pipeline's search
// counters on one step-capped full tag encoding, and two footnote-10
// ¬contains draws that reach the MBQI loop. Every limit is a step
// budget, never a wall-clock cap, so no pinned value depends on the
// host's speed. Every solve must finish without tripping it, except the
// one whose search counters are pinned at the point its cap stops it.
//
// A changed value means changed behaviour, not noise. A change that
// alters the search on purpose updates the constants here, in the same
// commit, and says why (docs/BENCH.md, "The gate").
//
//===----------------------------------------------------------------------===//

#include "automata/Nfa.h"
#include "lia/Mbqi.h"
#include "lia/Solver.h"
#include "proof/Check.h"
#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"
#include "tagaut/Encoder.h"
#include "tagaut/Parikh.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <random>

using namespace postr;
using automata::Nfa;

namespace {

/// Far above what any gated solve probes; tripping it is a failure.
constexpr uint64_t StepCap = 50'000'000;

/// Random ε-free NFA with a guaranteed non-empty language: a spine
/// 0 → 1 → ... → N-1 plus random extra edges.
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

/// Sum of \p Rep(R) over R = 0..\p Last.
template <typename Fn> uint64_t sumReps(uint32_t Last, Fn &&Rep) {
  uint64_t Sum = 0;
  for (uint32_t R = 0; R <= Last; ++R)
    Sum += Rep(R);
  return Sum;
}

uint64_t productRep(uint32_t Rep) {
  Nfa P = intersect(randomNfa(160, 6, 3 * 160, 1000 + Rep),
                    randomNfa(160, 6, 3 * 160, 2000 + Rep));
  return P.numStates() + P.numTransitions();
}

uint64_t determinizeRep(uint32_t Rep) {
  Nfa D = determinize(randomNfa(56, 4, 2 * 56, 3000 + Rep));
  return D.numStates() + D.numTransitions();
}

uint64_t parikhEncodeRep(uint32_t Rep) {
  std::map<VarId, Nfa> Langs;
  Langs[0] = randomNfa(10, 4, 12, 4000 + Rep).trim();
  Langs[1] = randomNfa(10, 4, 12, 5000 + Rep).trim();
  Langs[2] = randomNfa(10, 4, 12, 6000 + Rep).trim();
  std::vector<tagaut::PosPredicate> Preds;
  Preds.push_back({tagaut::PredKind::Diseq, {0, 1}, {1, 2}, {}});
  Preds.push_back({tagaut::PredKind::NotPrefix, {0}, {2, 1}, {}});
  lia::Arena A;
  tagaut::SystemEncoding Enc = tagaut::encodeSystem(A, Langs, Preds, 4);
  return A.numNodes() + Enc.Ta.transitions().size();
}

TEST(GateTest, ConstructionChecksums) {
  // States plus transitions (product, determinize) and formula nodes plus
  // tag transitions (Parikh encoding), summed over reps 0..12.
  EXPECT_EQ(sumReps(12, productRep), 806261u);
  EXPECT_EQ(sumReps(12, determinizeRep), 311480u);
  EXPECT_EQ(sumReps(12, parikhEncodeRep), 35445u);
}

/// PF(A) satisfiability on a random tag automaton with eager φ_Span: the
/// DPLL(T)+Simplex load with no encoder in the way.
lia::QfResult solveRep(uint32_t Rep) {
  std::mt19937 Rng(7000 + Rep);
  tagaut::TagTable Tags;
  tagaut::TagAutomaton Ta;
  uint32_t NumStates = 28;
  Ta.addStates(NumStates);
  Ta.markInitial(0);
  Ta.markFinal(NumStates - 1);
  for (uint32_t Q = 0; Q + 1 < NumStates; ++Q)
    Ta.addTransition({Q, Q + 1, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  for (uint32_t E = 0; E < 2 * NumStates; ++E) {
    uint32_t From = static_cast<uint32_t>(Rng() % NumStates);
    uint32_t To = static_cast<uint32_t>(Rng() % NumStates);
    Ta.addTransition({From, To, 0, false,
                      {Tags.intern(tagaut::Tag::symbol(Rng() % 2))}});
  }
  lia::Arena A;
  tagaut::ParikhFormula Pf =
      buildParikhFormula(Ta, A, "b.", tagaut::SpanMode::Eager);
  Budget Bud(Budget::Limits{0, 0, StepCap, nullptr});
  lia::QfOptions Opts;
  Opts.Budget = &Bud;
  return lia::solveQF(A, Pf.Formula, Opts);
}

TEST(GateTest, SolveVerdictsAndSearchCounters) {
  // Exact counters: a search change moves them in either direction, and
  // either direction needs an explanation.
  lia::QfSearchStats S;
  for (uint32_t Rep = 0; Rep <= 3; ++Rep) {
    lia::QfResult R = solveRep(Rep);
    EXPECT_EQ(R.V, Verdict::Sat) << "rep " << Rep;
    EXPECT_EQ(R.Stop, StopReason::None) << "rep " << Rep;
    S += R.Stats;
  }
  EXPECT_EQ(S.Conflicts, 988u);
  EXPECT_EQ(S.Propagations, 145256u);
  EXPECT_EQ(S.Decisions, 40897u);
  EXPECT_EQ(S.Pivots, 2104u);
  EXPECT_EQ(S.Checks, 33593u);
  EXPECT_EQ(S.TheoryConflicts, 1052u);
  EXPECT_EQ(S.RowFillIn, 206729u);
  EXPECT_EQ(S.MaxRowNnz, 98u);
  EXPECT_EQ(S.RowsEliminated, 45964u);
  EXPECT_EQ(S.EntriesMerged, 923582u);
}

TEST(GateTest, PipelineVerdicts) {
  // generate(F, 97, Rep) for Rep = 0..3, one row per family. No instance
  // is Unknown, so no cap can move a verdict.
  using bench::Family;
  constexpr Verdict S = Verdict::Sat, U = Verdict::Unsat;
  const struct {
    Family F;
    Verdict Want[4];
  } Rows[] = {
      {Family::Django, {S, S, S, S}},
      {Family::Thefuck, {S, U, U, U}},
      {Family::PositionHard, {U, U, U, U}},
  };
  lia::QfSearchStats Qf;
  for (const auto &Row : Rows)
    for (uint32_t Rep = 0; Rep <= 3; ++Rep) {
      solver::SolveOptions O;
      O.StepLimit = StepCap;
      solver::SolveResult R =
          solver::solveProblem(bench::generate(Row.F, 97, Rep), O);
      EXPECT_STREQ(verdictName(R.V), verdictName(Row.Want[Rep]))
          << bench::familyName(Row.F) << " rep " << Rep;
      EXPECT_EQ(R.Stop, StopReason::None)
          << bench::familyName(Row.F) << " rep " << Rep;
      Qf += R.Stats.Qf;
    }
  // The QF solves' summed counters (SolveStats::Qf).
  EXPECT_EQ(Qf.Solves, 5u);
  EXPECT_EQ(Qf.BlandSolves, 0u);
  EXPECT_EQ(Qf.Atoms, 43u);
  EXPECT_EQ(Qf.Conflicts, 0u);
  EXPECT_EQ(Qf.Propagations, 0u);
  EXPECT_EQ(Qf.Decisions, 0u);
  EXPECT_EQ(Qf.TheoryConflicts, 0u);
  EXPECT_EQ(Qf.Pivots, 2u);
  EXPECT_EQ(Qf.Checks, 2u);
  EXPECT_EQ(Qf.RowFillIn, 3u);
  EXPECT_EQ(Qf.MaxRowNnz, 49u);
  EXPECT_EQ(Qf.RowsEliminated, 3u);
  EXPECT_EQ(Qf.EntriesMerged, 22u);
  EXPECT_EQ(Qf.DenNormalizations, 0u);
}

TEST(GateTest, FullEncodingSearchCountersUnderAStepCap) {
  // m3: x, z ∈ (ab)*, y ∈ (ba)*, xyz ≠ zyx ∧ xy ≠ yz. Two predicates keep
  // the one-counter fast path out, and the lone length-first ≠ attempt
  // cannot hold, so the full tag encoding runs CDCL and Simplex until
  // the cap of 2000 steps stops it. PipelineVerdicts' instances barely
  // reach the QF layer; this one pins the pipeline's search there.
  Result<strings::Problem> P = smtlib::parseString(R"(
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
  solver::SolveOptions O;
  O.StepLimit = 2000;
  solver::SolveResult R = solver::solveProblem(*P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StepBudget);
  EXPECT_EQ(R.Stats.MpCalls, 2u);
  const lia::QfSearchStats &Qf = R.Stats.Qf;
  EXPECT_EQ(Qf.Solves, 2u);
  EXPECT_EQ(Qf.BlandSolves, 1u);
  EXPECT_EQ(Qf.Atoms, 539u);
  EXPECT_EQ(Qf.Conflicts, 66u);
  EXPECT_EQ(Qf.Propagations, 6136u);
  EXPECT_EQ(Qf.Decisions, 1824u);
  EXPECT_EQ(Qf.Restarts, 0u);
  EXPECT_EQ(Qf.Reductions, 0u);
  EXPECT_EQ(Qf.ClausesDeleted, 0u);
  EXPECT_EQ(Qf.TheoryConflicts, 69u);
  EXPECT_EQ(Qf.Pivots, 344u);
  EXPECT_EQ(Qf.Checks, 1302u);
  EXPECT_EQ(Qf.RowFillIn, 362136u);
  EXPECT_EQ(Qf.MaxRowNnz, 326u);
  EXPECT_EQ(Qf.RowsEliminated, 10881u);
  EXPECT_EQ(Qf.EntriesMerged, 2472095u);
  EXPECT_EQ(Qf.DenNormalizations, 740u);
  EXPECT_EQ(Qf.BudgetTrips, 1u);
}

/// Solves \p Smt2 under the step cap, accumulating MBQI counters in \p St.
solver::SolveResult solveCounted(const char *Smt2, lia::MbqiStats &St) {
  Result<strings::Problem> P = smtlib::parseString(Smt2);
  EXPECT_TRUE(P) << P.error();
  solver::SolveOptions O;
  O.StepLimit = StepCap;
  O.Mp.Mbqi.Stats = &St;
  return P ? solver::solveProblem(*P, O) : solver::SolveResult();
}

TEST(GateTest, MbqiDecidesFootnote10Draws) {
  // Two ¬contains queries whose sides stay flat but do not share one
  // primitive root, so the MBQI loop decides them. The Unsat one is
  // footnote-10 draw #18 of postr-bench position seed 11 with z ∈ b*
  // appended to the haystack; the Sat one is draw #70 of the same seed
  // with z ∈ c* appended to the haystack. Without z, #70's needle covers
  // its haystack and the ¬contains is a ≠ that never reaches MBQI
  // (CoveringNotContainsTakesTheDiseqFastPath).
  lia::MbqiStats UnsatSt;
  solver::SolveResult Unsat = solveCounted(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (declare-fun z () String)
    (assert (str.in_re x1 (re.* (str.to_re "a"))))
    (assert (str.in_re x2 (re.* (str.to_re "a"))))
    (assert (str.in_re x3 (re.* (str.to_re "a"))))
    (assert (str.in_re z (re.* (str.to_re "b"))))
    (assert (not (str.contains (str.++ x1 x2 x2 x3 x1 z) (str.++ x3 x1 x1 x2))))
    (check-sat))",
                                           UnsatSt);
  EXPECT_EQ(Unsat.V, Verdict::Unsat);
  EXPECT_EQ(Unsat.Stop, StopReason::None);
  EXPECT_TRUE(Unsat.Stats.UsedMbqi);
  EXPECT_GT(UnsatSt.OuterSolves, 0u);
  EXPECT_GT(UnsatSt.InstLemmas, 0u);
  EXPECT_GT(UnsatSt.ContextReuses, 0u);

  lia::MbqiStats SatSt;
  solver::SolveResult Sat = solveCounted(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (declare-fun z () String)
    (assert (str.in_re x1 (re.+ (str.to_re "bcb"))))
    (assert (str.in_re x2 (re.+ (str.to_re "bbc"))))
    (assert (str.in_re x3 (re.+ (str.to_re "a"))))
    (assert (str.in_re z (re.* (str.to_re "c"))))
    (assert (not (str.contains (str.++ x3 x1 x2 z) (str.++ x2 x3 x1))))
    (check-sat))",
                                         SatSt);
  EXPECT_EQ(Sat.V, Verdict::Sat);
  EXPECT_EQ(Sat.Stop, StopReason::None);
  EXPECT_TRUE(Sat.Stats.UsedMbqi);
  EXPECT_GT(SatSt.OuterSolves, 0u);
}

TEST(GateTest, CoveringNotContainsTakesTheDiseqFastPath) {
  // Draws #70 and #108 of postr-bench position seed 11 as recorded: the
  // needle is a permutation of the haystack, so both sides always have
  // the same length and ¬contains(h, n) is n ≠ h. The lone ≠ is decided
  // by the one-counter walk search, whose walk is the model; neither
  // solveMP nor MBQI runs.
  const char *Draws[] = {R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (assert (str.in_re x1 (re.+ (str.to_re "bcb"))))
    (assert (str.in_re x2 (re.+ (str.to_re "bbc"))))
    (assert (str.in_re x3 (re.+ (str.to_re "a"))))
    (assert (not (str.contains (str.++ x3 x1 x2) (str.++ x2 x3 x1))))
    (check-sat))",
                         R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (assert (str.in_re x1 (re.+ (str.to_re "cbac"))))
    (assert (str.in_re x2 (re.+ (str.to_re "c"))))
    (assert (str.in_re x3 (re.+ (str.to_re "ac"))))
    (assert (not (str.contains (str.++ x1 x3 x2) (str.++ x3 x2 x1))))
    (check-sat))"};
  for (const char *Draw : Draws) {
    lia::MbqiStats St;
    solver::SolveResult R = solveCounted(Draw, St);
    EXPECT_EQ(R.V, Verdict::Sat) << Draw;
    EXPECT_EQ(R.Stats.FastPathDecisions, 1u) << Draw;
    EXPECT_EQ(R.Stats.MpCalls, 0u) << Draw;
    EXPECT_EQ(R.Stats.ModelsValidated, 1u) << Draw;
    EXPECT_FALSE(R.Stats.UsedMbqi) << Draw;
    EXPECT_EQ(St.OuterSolves, 0u) << Draw;
  }
}

/// Solves \p Smt2 under the step cap with certification on.
solver::SolveResult solveCertified(const char *Smt2) {
  Result<strings::Problem> P = smtlib::parseString(Smt2);
  EXPECT_TRUE(P) << P.error();
  solver::SolveOptions O;
  O.StepLimit = StepCap;
  O.CertifyUnsat = true;
  return P ? solver::solveProblem(*P, O) : solver::SolveResult();
}

/// Expects \p R to be an Unsat that never reached MBQI, whose
/// certificate the kernel accepts as one checked refutation resting on
/// one rewritten predicate and no trusted rule.
void expectMonoRootUnsat(const solver::SolveResult &R) {
  EXPECT_EQ(R.V, Verdict::Unsat);
  EXPECT_FALSE(R.Stats.UsedMbqi);
  EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  Result<proof::Certificate> C = proof::parse(R.CertText);
  ASSERT_TRUE(C) << C.error();
  proof::CheckOutcome CO = proof::checkCertificate(*C);
  EXPECT_TRUE(CO.Ok) << CO.Error;
  EXPECT_EQ(CO.Stats.CheckedRefutations, 1u);
  EXPECT_EQ(CO.Stats.TrustedRules, 0u);
  EXPECT_EQ(CO.Stats.MonoRootAtoms, 1u);
}

TEST(GateTest, MonoRootFootnote10DrawsAreCheckedLengthAtoms) {
  // Draw #18 of postr-bench position seed 11 as recorded: every variable
  // ranges over a*, so the ¬contains becomes |needle| > |haystack| and
  // never reaches MBQI; its Unsat is a clause trace the kernel checks.
  solver::SolveResult Draw18 = solveCertified(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (assert (str.in_re x1 (re.* (str.to_re "a"))))
    (assert (str.in_re x2 (re.* (str.to_re "a"))))
    (assert (str.in_re x3 (re.* (str.to_re "a"))))
    (assert (not (str.contains (str.++ x1 x2 x2 x3 x1) (str.++ x3 x1 x1 x2))))
    (check-sat))");
  expectMonoRootUnsat(Draw18);
  EXPECT_EQ(Draw18.Stats.MpCalls, 1u);

  // Draw #103 of seed 12: the deadline fixture
  // tests/deadline/notcontains_mixed_root.smt2 without its z.
  solver::SolveResult Draw103 = solveCertified(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (assert (str.in_re x1 (re.* (str.to_re "ab"))))
    (assert (str.in_re x2 (re.* (str.to_re "ab"))))
    (assert (not (str.contains (str.++ x2 x1 x1 x2) (str.++ x1 x2 x2))))
    (check-sat))");
  expectMonoRootUnsat(Draw103);
}

TEST(GateTest, StrAtFootnote10DrawsTakeTheWalkSearch) {
  // Two footnote-10 str.at draws (postr-bench position, seed 11, draws 5
  // and 46): a numeral index over a concatenation is decided by the
  // one-counter walk search, never by solveMP, and the Unsat ¬str.at,
  // which carries its length bound, is a checked walk refutation.
  solver::SolveResult Unsat = solveCertified(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (declare-fun x4 () String)
    (assert (str.in_re x1 (re.* (str.to_re "ac"))))
    (assert (str.in_re x2 (re.* (str.to_re "ac"))))
    (assert (str.in_re x3 (re.* (str.to_re "ac"))))
    (assert (str.in_re x4 (re.* (str.to_re "ac"))))
    (assert (> (str.len (str.++ x3 x1 x4 x2)) 1))
    (assert (not (= (str.at (str.++ x3 x1 x4 x2) 1) "c")))
    (check-sat))");
  EXPECT_EQ(Unsat.V, Verdict::Unsat);
  EXPECT_EQ(Unsat.Stats.FastPathDecisions, 1u);
  EXPECT_EQ(Unsat.Stats.MpCalls, 0u);
  EXPECT_EQ(Unsat.Stats.UnsatsCertified, 1u);
  Result<proof::Certificate> C = proof::parse(Unsat.CertText);
  ASSERT_TRUE(C) << C.error();
  proof::CheckOutcome CO = proof::checkCertificate(*C);
  EXPECT_TRUE(CO.Ok) << CO.Error;
  EXPECT_EQ(CO.Stats.CheckedRefutations, 1u);
  EXPECT_EQ(CO.Stats.TrustedRules, 0u);

  solver::SolveResult Sat = solveCertified(R"(
    (declare-fun x1 () String)
    (declare-fun x2 () String)
    (declare-fun x3 () String)
    (declare-fun x4 () String)
    (assert (str.in_re x1 (re.+ (str.to_re "ba"))))
    (assert (str.in_re x2 (re.+ (str.to_re "a"))))
    (assert (str.in_re x3 (re.+ (str.to_re "bc"))))
    (assert (str.in_re x4 (re.+ (str.to_re "c"))))
    (assert (= (str.at (str.++ x1 x4 x2 x3) 3) "a"))
    (check-sat))");
  EXPECT_EQ(Sat.V, Verdict::Sat);
  EXPECT_EQ(Sat.Stats.FastPathDecisions, 1u);
  EXPECT_EQ(Sat.Stats.MpCalls, 0u);
  EXPECT_EQ(Sat.Stats.ModelsValidated, 1u);
}

} // namespace
