//===- tests/LiaTest.cpp - LIA solver tests ---------------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Mbqi.h"
#include "lia/Sat.h"
#include "lia/Simplex.h"
#include "lia/Solver.h"

#include <gtest/gtest.h>

#include <random>

using namespace postr;
using namespace postr::lia;

namespace {

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ((Half + Third), Rational(5, 6));
  EXPECT_EQ((Half - Third), Rational(1, 6));
  EXPECT_EQ((Half * Third), Rational(1, 6));
  EXPECT_EQ((Half / Third), Rational(3, 2));
  EXPECT_TRUE(Third < Half);
  EXPECT_EQ(Rational(-7, 2).floor(), Rational(-4));
  EXPECT_EQ(Rational(-7, 2).ceil(), Rational(-3));
  EXPECT_EQ(Rational(7, 2).floor(), Rational(3));
  EXPECT_EQ(Rational(7, 2).ceil(), Rational(4));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(4, 2).asInt64(), 2);
}

TEST(LinTermTest, AlgebraAndEval) {
  LinTerm X = LinTerm::variable(0), Y = LinTerm::variable(1);
  LinTerm T = X * 2 + Y - LinTerm(3);
  std::vector<int64_t> Model{5, 1};
  EXPECT_EQ(T.eval(Model), 8);
  LinTerm Zero = T - T;
  EXPECT_TRUE(Zero.isConstant());
  EXPECT_EQ(Zero.constant(), 0);
  EXPECT_EQ(((X + Y) - X).coeffs().size(), 1u);
}

TEST(RationalTest, IntegerFastPathComparisons) {
  // Den==1 comparisons short-circuit; mixed ones still cross-multiply.
  EXPECT_TRUE(Rational(2) < Rational(3));
  EXPECT_TRUE(Rational(-3) <= Rational(-3));
  EXPECT_FALSE(Rational(3) < Rational(3));
  EXPECT_TRUE(Rational(1, 2) < Rational(1));
  EXPECT_TRUE(Rational(1) < Rational(3, 2));
  EXPECT_EQ(Rational(5).floor(), Rational(5));
  EXPECT_EQ(Rational(-5).ceil(), Rational(-5));
}

/// Reference merge with the pre-optimization copy semantics of
/// LinTerm::operator+ (merge-and-reallocate), used as the oracle for the
/// in-place fast paths.
LinTerm refAdd(const LinTerm &A, const LinTerm &B, int64_t Sign = 1) {
  std::map<Var, int64_t> Acc;
  for (auto [V, C] : A.coeffs())
    Acc[V] += C;
  for (auto [V, C] : B.coeffs())
    Acc[V] += Sign * C;
  LinTerm R(A.constant() + Sign * B.constant());
  for (auto [V, C] : Acc)
    if (C != 0)
      R += LinTerm::variable(V, C);
  return R;
}

LinTerm randomTerm(std::mt19937 &Rng, uint32_t MaxVars) {
  std::uniform_int_distribution<int64_t> CoeffDist(-3, 3);
  std::uniform_int_distribution<uint32_t> VarDist(0, MaxVars - 1);
  std::uniform_int_distribution<uint32_t> LenDist(0, MaxVars);
  LinTerm T(CoeffDist(Rng));
  for (uint32_t I = LenDist(Rng); I > 0; --I)
    T += LinTerm::variable(VarDist(Rng), CoeffDist(Rng));
  return T;
}

// Regression: the in-place sorted-merge += / -= match the old
// copy-and-merge semantics, including cancellation to zero.
TEST(LinTermTest, InPlaceAddSubMatchesCopySemantics) {
  std::mt19937 Rng(99);
  for (int Iter = 0; Iter < 500; ++Iter) {
    LinTerm A = randomTerm(Rng, 8), B = randomTerm(Rng, 8);
    LinTerm Sum = A;
    Sum += B;
    EXPECT_EQ(Sum, refAdd(A, B, 1)) << A.str() << " += " << B.str();
    LinTerm Diff = A;
    Diff -= B;
    EXPECT_EQ(Diff, refAdd(A, B, -1)) << A.str() << " -= " << B.str();
    // No zero coefficients may survive.
    for (auto [V, C] : Sum.coeffs())
      EXPECT_NE(C, 0);
    LinTerm Zero = A;
    Zero -= A;
    EXPECT_TRUE(Zero.isConstant());
    EXPECT_EQ(Zero.constant(), 0);
    // Self-aliasing: t += t doubles, t -= t cancels to zero.
    LinTerm Doubled = A;
    Doubled += Doubled;
    EXPECT_EQ(Doubled, refAdd(A, A, 1));
    LinTerm SelfZero = A;
    SelfZero -= SelfZero;
    EXPECT_TRUE(SelfZero.isConstant());
    EXPECT_EQ(SelfZero.constant(), 0);
  }
}

TEST(LinTermTest, AddMonomialMatchesVariableAdd) {
  std::mt19937 Rng(1234);
  for (int Iter = 0; Iter < 200; ++Iter) {
    LinTerm A = randomTerm(Rng, 6);
    LinTerm ViaMonomial = A, ViaAdd = A;
    std::uniform_int_distribution<int64_t> CoeffDist(-2, 2);
    for (Var V = 0; V < 10; ++V) {
      int64_t C = CoeffDist(Rng);
      ViaMonomial.addMonomial(V, C);
      ViaAdd += LinTerm::variable(V, C);
    }
    EXPECT_EQ(ViaMonomial, ViaAdd);
  }
}

TEST(LinTermTest, SumBuilderCollapsesRepeats) {
  // sum() over an unsorted list with repeats equals iterated addition.
  std::vector<Var> Vars{5, 1, 3, 1, 5, 5, 0};
  LinTerm ViaSum = LinTerm::sum(Vars);
  LinTerm ViaAdd;
  for (Var V : Vars)
    ViaAdd += LinTerm::variable(V);
  EXPECT_EQ(ViaSum, ViaAdd);
  EXPECT_EQ(ViaSum.coeffs().size(), 4u);
  EXPECT_TRUE(LinTerm::sum({}).isConstant());
}

TEST(SatTest, TrivialSatUnsat) {
  SatSolver S;
  uint32_t A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  S.addClause({Lit(A, true)});
  EXPECT_EQ(S.solve(), SatSolver::Res::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  S.addClause({Lit(B, true)});
  EXPECT_EQ(S.solve(), SatSolver::Res::Unsat);
}

TEST(SatTest, PigeonHole3Into2IsUnsat) {
  // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
  SatSolver S;
  uint32_t P[3][2];
  for (auto &Row : P)
    for (uint32_t &V : Row)
      V = S.newVar();
  for (int I = 0; I < 3; ++I)
    S.addClause({Lit(P[I][0], false), Lit(P[I][1], false)});
  for (int J = 0; J < 2; ++J)
    for (int I1 = 0; I1 < 3; ++I1)
      for (int I2 = I1 + 1; I2 < 3; ++I2)
        S.addClause({Lit(P[I1][J], true), Lit(P[I2][J], true)});
  EXPECT_EQ(S.solve(), SatSolver::Res::Unsat);
}

/// Brute-force SAT check by enumeration, used as a differential oracle.
bool bruteForceSat(uint32_t NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  assert(NumVars <= 20);
  for (uint32_t M = 0; M < (1u << NumVars); ++M) {
    bool All = true;
    for (const std::vector<Lit> &C : Clauses) {
      bool Any = false;
      for (Lit L : C)
        if (((M >> L.var()) & 1) != (L.negated() ? 1u : 0u))
          Any = true;
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// True when the model stored in \p S satisfies every clause.
bool modelSatisfies(const SatSolver &S,
                    const std::vector<std::vector<Lit>> &Clauses) {
  for (const std::vector<Lit> &C : Clauses) {
    bool Any = false;
    for (Lit L : C)
      if (S.modelValue(L.var()) != L.negated())
        Any = true;
    if (!Any)
      return false;
  }
  return true;
}

TEST(SatTest, RandomDifferentialAgainstBruteForce) {
  std::mt19937 Rng(777);
  for (int Iter = 0; Iter < 200; ++Iter) {
    uint32_t NumVars = 3 + Rng() % 8;
    uint32_t NumClauses = 1 + Rng() % (3 * NumVars);
    std::vector<std::vector<Lit>> Clauses;
    for (uint32_t C = 0; C < NumClauses; ++C) {
      uint32_t Len = 1 + Rng() % 3;
      std::vector<Lit> Clause;
      for (uint32_t K = 0; K < Len; ++K)
        Clause.push_back(Lit(Rng() % NumVars, Rng() % 2));
      Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    for (uint32_t V = 0; V < NumVars; ++V)
      S.newVar();
    for (const std::vector<Lit> &C : Clauses)
      S.addClause(C);
    bool Expected = bruteForceSat(NumVars, Clauses);
    bool GotSat = S.solve() == SatSolver::Res::Sat;
    EXPECT_EQ(GotSat, Expected) << "iteration " << Iter;
    if (GotSat)
      EXPECT_TRUE(modelSatisfies(S, Clauses)) << "iteration " << Iter;
  }
}

TEST(SatTest, ClauseReductionStressAgainstOracle) {
  // A near-degenerate reduction schedule forces clause-DB reductions on
  // tiny instances, with clauses added incrementally between solve()
  // calls (the DPLL(T) usage pattern). Verdicts and models must still
  // agree with the truth-table oracle.
  std::mt19937 Rng(4711);
  uint64_t TotalDeleted = 0, TotalReductions = 0;
  for (int Iter = 0; Iter < 40; ++Iter) {
    uint32_t NumVars = 10 + Rng() % 5;
    uint32_t NumClauses = 4 * NumVars + Rng() % (2 * NumVars);
    std::vector<std::vector<Lit>> Clauses;
    for (uint32_t C = 0; C < NumClauses; ++C) {
      uint32_t Len = 3 + Rng() % 2;
      std::vector<Lit> Clause;
      for (uint32_t K = 0; K < Len; ++K)
        Clause.push_back(Lit(Rng() % NumVars, Rng() % 2));
      Clauses.push_back(std::move(Clause));
    }
    SatSolver S;
    S.setReduceSchedule(1, 0);
    for (uint32_t V = 0; V < NumVars; ++V)
      S.newVar();
    // First batch, solve, then the rest — learnt clauses and level-0
    // assignments carry over into the incremental continuation.
    size_t Half = Clauses.size() / 2;
    for (size_t C = 0; C < Half; ++C)
      S.addClause(Clauses[C]);
    S.solve();
    for (size_t C = Half; C < Clauses.size(); ++C)
      S.addClause(Clauses[C]);
    bool Expected = bruteForceSat(NumVars, Clauses);
    bool GotSat = S.solve() == SatSolver::Res::Sat;
    EXPECT_EQ(GotSat, Expected) << "iteration " << Iter;
    if (GotSat)
      EXPECT_TRUE(modelSatisfies(S, Clauses)) << "iteration " << Iter;
    TotalDeleted += S.stats().ClausesDeleted;
    TotalReductions += S.stats().Reductions;
  }
  // The schedule above must actually have exercised the reduction path.
  EXPECT_GT(TotalReductions, 0u);
  EXPECT_GT(TotalDeleted, 0u);
}

TEST(SatTest, ReductionNeverDropsReasonClauses) {
  // Pigeonhole 6-into-5 with a reduce-after-every-conflict schedule:
  // reductions constantly fire while asserted literals hold learnt
  // reason clauses. reduceDB must keep locked clauses (a debug assert
  // backs this; in release the Unsat verdict would be corrupted if a
  // reason vanished), and the run must still refute the instance.
  SatSolver S;
  S.setReduceSchedule(1, 0);
  constexpr int NP = 6, NH = 5;
  uint32_t P[NP][NH];
  for (auto &Row : P)
    for (uint32_t &V : Row)
      V = S.newVar();
  for (int I = 0; I < NP; ++I) {
    std::vector<Lit> AtLeastOne;
    for (int J = 0; J < NH; ++J)
      AtLeastOne.push_back(Lit(P[I][J], false));
    S.addClause(AtLeastOne);
  }
  for (int J = 0; J < NH; ++J)
    for (int I1 = 0; I1 < NP; ++I1)
      for (int I2 = I1 + 1; I2 < NP; ++I2)
        S.addClause({Lit(P[I1][J], true), Lit(P[I2][J], true)});
  EXPECT_EQ(S.solve(), SatSolver::Res::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
  EXPECT_GT(S.stats().Reductions, 0u);
  EXPECT_GT(S.stats().ClausesDeleted, 0u);
}

TEST(SatTest, StatsCountersAdvance) {
  // A satisfiable chain with forced conflicts: decisions, propagations
  // and learnt-literal minimization all show up in the counters.
  SatSolver S;
  std::vector<uint32_t> V;
  for (int I = 0; I < 24; ++I)
    V.push_back(S.newVar());
  for (int I = 0; I + 1 < 24; ++I)
    S.addClause({Lit(V[I], true), Lit(V[I + 1], false)});
  S.addClause({Lit(V[0], false), Lit(V[23], false)});
  EXPECT_EQ(S.solve(), SatSolver::Res::Sat);
  const SatStats &St = S.stats();
  EXPECT_GT(St.Decisions, 0u);
  EXPECT_GT(St.Propagations, 0u);
}

TEST(SimplexTest, FeasibleSystem) {
  // x + y <= 4, x - y <= 1, x >= 0, y >= 0.
  Simplex S(2);
  S.setIntrinsicBounds(0, 0, INT64_MAX);
  S.setIntrinsicBounds(1, 0, INT64_MAX);
  uint32_t R1 = S.rowFor(LinTerm::variable(0) + LinTerm::variable(1));
  uint32_t R2 = S.rowFor(LinTerm::variable(0) - LinTerm::variable(1));
  EXPECT_TRUE(S.assertUpper(R1, Rational(4)));
  EXPECT_TRUE(S.assertUpper(R2, Rational(1)));
  EXPECT_TRUE(S.checkRational());
  EXPECT_LE(S.value(R1), Rational(4));
  EXPECT_LE(S.value(R2), Rational(1));
  EXPECT_GE(S.value(0), Rational(0));
  EXPECT_GE(S.value(1), Rational(0));
}

TEST(SimplexTest, InfeasibleSystem) {
  // x >= 3 and x <= 2.
  Simplex S(1);
  EXPECT_TRUE(S.assertLower(0, Rational(3)));
  EXPECT_FALSE(S.assertUpper(0, Rational(2)));
}

/// Dense reference tableau with the pre-sparse-rewrite representation
/// (one `vector<Rational>` per row, per-entry normalization) and fixed
/// selection rules: Bland's smallest violated basic leaving,
/// fewest-column-nonzeros entering with smaller-index tie-break, Bland
/// fallback past 256 pivots. The production Simplex runs on Bland's
/// order for this comparison (SparsestRow legitimately pivots
/// differently and is covered by SparsestRowStaysSound); identical rules
/// + exact arithmetic means the pivot sequences coincide, so the sparse
/// implementation must reproduce the reference β exactly, not just the
/// feasibility verdict.
class DenseRefSimplex {
public:
  static constexpr uint32_t NoReason = ~0u;

  explicit DenseRefSimplex(uint32_t NumProblemVars)
      : NumVars(NumProblemVars), RowOf(NumProblemVars, ~0u),
        Beta(NumProblemVars), Lo(NumProblemVars), Hi(NumProblemVars),
        LoReason(NumProblemVars, NoReason),
        HiReason(NumProblemVars, NoReason) {}

  uint32_t rowFor(const LinTerm &T) {
    if (T.coeffs().size() == 1 && T.coeffs().front().second == 1)
      return T.coeffs().front().first;
    auto It = TermToVar.find(T.coeffs());
    if (It != TermToVar.end())
      return It->second;
    uint32_t Slack = NumVars++;
    RowOf.push_back(static_cast<uint32_t>(Tableau.size()));
    Lo.push_back(std::nullopt);
    Hi.push_back(std::nullopt);
    LoReason.push_back(NoReason);
    HiReason.push_back(NoReason);
    for (std::vector<Rational> &Row : Tableau)
      Row.push_back(Rational::zero());
    std::vector<Rational> Row(NumVars, Rational::zero());
    Rational Value = Rational::zero();
    for (auto [V, C] : T.coeffs()) {
      Rational Coef(C);
      if (RowOf[V] == ~0u) {
        Row[V] += Coef;
      } else {
        const std::vector<Rational> &Sub = Tableau[RowOf[V]];
        for (uint32_t X = 0; X < NumVars; ++X)
          Row[X] += Coef * Sub[X];
      }
      Value += Coef * Beta[V];
    }
    Row[Slack] = Rational::zero();
    Tableau.push_back(std::move(Row));
    BasicVar.push_back(Slack);
    Beta.push_back(Value);
    TermToVar.emplace(T.coeffs(), Slack);
    return Slack;
  }

  bool assertUpper(uint32_t X, const Rational &U, uint32_t Reason) {
    if (Hi[X] && *Hi[X] <= U)
      return true;
    if (Lo[X] && U < *Lo[X]) {
      Conflict.clear();
      if (Reason != NoReason)
        Conflict.push_back(Reason);
      if (LoReason[X] != NoReason)
        Conflict.push_back(LoReason[X]);
      return false;
    }
    Trail.push_back({X, true, Hi[X], HiReason[X]});
    Hi[X] = U;
    HiReason[X] = Reason;
    if (RowOf[X] == ~0u && Beta[X] > U)
      updateNonbasic(X, U);
    return true;
  }

  bool assertLower(uint32_t X, const Rational &L, uint32_t Reason) {
    if (Lo[X] && *Lo[X] >= L)
      return true;
    if (Hi[X] && *Hi[X] < L) {
      Conflict.clear();
      if (Reason != NoReason)
        Conflict.push_back(Reason);
      if (HiReason[X] != NoReason)
        Conflict.push_back(HiReason[X]);
      return false;
    }
    Trail.push_back({X, false, Lo[X], LoReason[X]});
    Lo[X] = L;
    LoReason[X] = Reason;
    if (RowOf[X] == ~0u && Beta[X] < L)
      updateNonbasic(X, L);
    return true;
  }

  size_t mark() const { return Trail.size(); }

  void rollback(size_t Mark) {
    while (Trail.size() > Mark) {
      const Undo &U = Trail.back();
      if (U.Upper) {
        Hi[U.X] = U.Old;
        HiReason[U.X] = U.OldReason;
      } else {
        Lo[U.X] = U.Old;
        LoReason[U.X] = U.OldReason;
      }
      Trail.pop_back();
    }
  }

  bool checkRational() {
    uint64_t Pivots = 0;
    const uint64_t BlandThreshold = 256;
    for (;;) {
      bool Bland = Pivots >= BlandThreshold;
      uint32_t B = ~0u;
      bool NeedIncrease = false;
      for (uint32_t X = 0; X < NumVars && B == ~0u; ++X) {
        if (RowOf[X] == ~0u)
          continue;
        if (Lo[X] && Beta[X] < *Lo[X]) {
          B = X;
          NeedIncrease = true;
        } else if (Hi[X] && Beta[X] > *Hi[X]) {
          B = X;
          NeedIncrease = false;
        }
      }
      if (B == ~0u)
        return true;
      ++Pivots;
      const std::vector<Rational> &Row = Tableau[RowOf[B]];
      uint32_t N = ~0u;
      for (uint32_t X = 0; X < NumVars; ++X) {
        if (X == B || RowOf[X] != ~0u || Row[X].isZero())
          continue;
        const Rational &A = Row[X];
        bool CanUse;
        if (NeedIncrease)
          CanUse = (A > Rational::zero() && (!Hi[X] || Beta[X] < *Hi[X])) ||
                   (A < Rational::zero() && (!Lo[X] || Beta[X] > *Lo[X]));
        else
          CanUse = (A < Rational::zero() && (!Hi[X] || Beta[X] < *Hi[X])) ||
                   (A > Rational::zero() && (!Lo[X] || Beta[X] > *Lo[X]));
        if (!CanUse)
          continue;
        if (N == ~0u ||
            (Bland ? X < N
                   : colCount(X) < colCount(N) ||
                         (colCount(X) == colCount(N) && X < N)))
          N = X;
      }
      if (N == ~0u) {
        Conflict.clear();
        uint32_t BReason = NeedIncrease ? LoReason[B] : HiReason[B];
        if (BReason != NoReason)
          Conflict.push_back(BReason);
        for (uint32_t X = 0; X < NumVars; ++X) {
          if (X == B || RowOf[X] != ~0u || Row[X].isZero())
            continue;
          bool StuckAtHi = NeedIncrease ? (Row[X] > Rational::zero())
                                        : (Row[X] < Rational::zero());
          uint32_t R = StuckAtHi ? HiReason[X] : LoReason[X];
          if (R != NoReason)
            Conflict.push_back(R);
        }
        std::sort(Conflict.begin(), Conflict.end());
        Conflict.erase(std::unique(Conflict.begin(), Conflict.end()),
                       Conflict.end());
        return false;
      }
      pivotAndUpdate(B, N, NeedIncrease ? *Lo[B] : *Hi[B]);
    }
  }

  const Rational &value(uint32_t X) const { return Beta[X]; }
  uint32_t numVars() const { return NumVars; }
  const std::vector<uint32_t> &conflictReasons() const { return Conflict; }

private:
  size_t colCount(uint32_t X) const {
    size_t C = 0;
    for (const std::vector<Rational> &Row : Tableau)
      if (!Row[X].isZero())
        ++C;
    return C;
  }

  void updateNonbasic(uint32_t N, const Rational &V) {
    Rational Delta = V - Beta[N];
    if (Delta.isZero())
      return;
    for (size_t R = 0; R < Tableau.size(); ++R)
      if (!Tableau[R][N].isZero())
        Beta[BasicVar[R]] += Tableau[R][N] * Delta;
    Beta[N] = V;
  }

  void pivotAndUpdate(uint32_t B, uint32_t N, const Rational &V) {
    uint32_t R = RowOf[B];
    Rational A = Tableau[R][N];
    Rational Theta = (V - Beta[B]) / A;
    Beta[B] = V;
    Beta[N] += Theta;
    for (size_t R2 = 0; R2 < Tableau.size(); ++R2)
      if (R2 != R && !Tableau[R2][N].isZero())
        Beta[BasicVar[R2]] += Tableau[R2][N] * Theta;
    pivot(B, N);
  }

  void pivot(uint32_t B, uint32_t N) {
    uint32_t R = RowOf[B];
    std::vector<Rational> &Row = Tableau[R];
    Rational InvA = Rational::one() / Row[N];
    for (uint32_t X = 0; X < NumVars; ++X) {
      if (X == N)
        Row[X] = Rational::zero();
      else if (!Row[X].isZero())
        Row[X] = -Row[X] * InvA;
    }
    Row[B] = InvA;
    BasicVar[R] = N;
    RowOf[N] = R;
    RowOf[B] = ~0u;
    for (size_t R2 = 0; R2 < Tableau.size(); ++R2) {
      if (R2 == R)
        continue;
      std::vector<Rational> &Other = Tableau[R2];
      if (Other[N].isZero())
        continue;
      Rational C = Other[N];
      Other[N] = Rational::zero();
      for (uint32_t X = 0; X < NumVars; ++X)
        if (!Row[X].isZero())
          Other[X] += C * Row[X];
    }
  }

  struct Undo {
    uint32_t X;
    bool Upper;
    std::optional<Rational> Old;
    uint32_t OldReason;
  };

  uint32_t NumVars;
  std::vector<std::vector<Rational>> Tableau;
  std::vector<uint32_t> RowOf, BasicVar;
  std::vector<Rational> Beta;
  std::vector<std::optional<Rational>> Lo, Hi;
  std::vector<uint32_t> LoReason, HiReason;
  std::vector<Undo> Trail;
  std::vector<uint32_t> Conflict;
  std::map<std::vector<std::pair<Var, int64_t>>, uint32_t> TermToVar;
};

std::vector<uint32_t> sortedReasons(const std::vector<uint32_t> &Rs) {
  std::vector<uint32_t> S = Rs;
  std::sort(S.begin(), S.end());
  S.erase(std::unique(S.begin(), S.end()), S.end());
  return S;
}

TEST(SimplexTest, TableauStatsCountersAdvance) {
  // Constructed so that eliminating x from the second row leaves every
  // numerator and the merged denominator sharing a factor of 2: pivoting
  // s1's row solves x = (s1 - 2y)/2, and substituting into s2 = 2x + y
  // gives {s1: 2, y: -2} over denominator 2 — exactly one row-gcd
  // normalization. Fill-in and max-nnz move along the way.
  Simplex S(2);
  uint32_t S1 = S.rowFor(LinTerm::variable(0, 2) + LinTerm::variable(1, 2));
  uint32_t S2 = S.rowFor(LinTerm::variable(0, 2) + LinTerm::variable(1));
  ASSERT_NE(S1, S2);
  EXPECT_TRUE(S.assertLower(S1, Rational(1)));
  EXPECT_TRUE(S.checkRational());
  const SimplexStats &St = S.stats();
  EXPECT_GT(St.Pivots, 0u);
  EXPECT_GT(St.Checks, 0u);
  EXPECT_GT(St.RowFillIn, 0u);
  EXPECT_GE(St.MaxRowNnz, 2u);
  EXPECT_GT(St.DenNormalizations, 0u);
}

TEST(SimplexTest, SparseMatchesDenseReferenceExactly) {
  std::mt19937 Rng(20250726);
  for (int Iter = 0; Iter < 60; ++Iter) {
    const uint32_t K = 5;
    Simplex Sparse(K, /*BlandPivots=*/true);
    DenseRefSimplex Dense(K);
    std::vector<std::pair<size_t, size_t>> Marks; // (sparse, dense)
    uint32_t NextReason = 100;

    // Register a few multi-variable rows up front and some lazily below,
    // interleaved with the bound assertions (the DPLL(T) usage pattern
    // registers everything up front; the CEGAR loop adds rows late).
    std::vector<uint32_t> Handles;
    auto Register = [&] {
      LinTerm T;
      uint32_t Width = 1 + Rng() % 4;
      for (uint32_t I = 0; I < Width; ++I)
        T += LinTerm::variable(Rng() % K, static_cast<int64_t>(Rng() % 7) - 3);
      if (T.coeffs().empty())
        T += LinTerm::variable(Rng() % K);
      uint32_t HS = Sparse.rowFor(T);
      uint32_t HD = Dense.rowFor(T);
      ASSERT_EQ(HS, HD) << "slack allocation diverged, iteration " << Iter;
      Handles.push_back(HS);
    };
    for (int I = 0; I < 4; ++I)
      Register();

    for (int Op = 0; Op < 120; ++Op) {
      uint32_t Kind = Rng() % 16;
      if (Kind == 0 && Handles.size() < 12) {
        Register();
      } else if (Kind == 1) {
        Marks.push_back({Sparse.mark(), Dense.mark()});
      } else if (Kind == 2 && !Marks.empty()) {
        size_t I = Rng() % Marks.size();
        Sparse.rollback(Marks[I].first);
        Dense.rollback(Marks[I].second);
        Marks.resize(I + 1);
      } else {
        uint32_t X = Handles[Rng() % Handles.size()];
        // Mostly integral bounds with occasional halves, wide enough to
        // keep a healthy feasible/infeasible mix.
        Rational V(static_cast<int64_t>(Rng() % 41) - 20,
                   (Rng() % 4 == 0) ? 2 : 1);
        uint32_t Reason = (Rng() % 8 == 0) ? Simplex::NoReason : NextReason++;
        bool Upper = Rng() % 2;
        bool OkS = Upper ? Sparse.assertUpper(X, V, Reason)
                         : Sparse.assertLower(X, V, Reason);
        bool OkD = Upper ? Dense.assertUpper(X, V, Reason)
                         : Dense.assertLower(X, V, Reason);
        ASSERT_EQ(OkS, OkD) << "assert verdict diverged, iteration " << Iter;
        if (!OkS) {
          EXPECT_EQ(sortedReasons(Sparse.conflictReasons()),
                    sortedReasons(Dense.conflictReasons()))
              << "assert conflict reasons diverged, iteration " << Iter;
          continue;
        }
      }
      if (Op % 5 == 4) {
        bool FeasS = Sparse.checkRational();
        bool FeasD = Dense.checkRational();
        ASSERT_EQ(FeasS, FeasD)
            << "feasibility verdict diverged, iteration " << Iter;
        if (FeasS) {
          for (uint32_t X = 0; X < Dense.numVars(); ++X)
            ASSERT_EQ(Sparse.value(X), Dense.value(X))
                << "beta diverged at var " << X << ", iteration " << Iter;
        } else {
          EXPECT_EQ(sortedReasons(Sparse.conflictReasons()),
                    sortedReasons(Dense.conflictReasons()))
              << "conflict reason sets diverged, iteration " << Iter;
          // Loosen back to the last mark so the run can continue.
          if (!Marks.empty()) {
            Sparse.rollback(Marks.front().first);
            Dense.rollback(Marks.front().second);
            Marks.resize(1);
          }
        }
      }
    }
  }
}

TEST(SimplexTest, SparsestRowStaysSound) {
  // SparsestRow (the default selection) changes the pivot sequence, so β
  // may legitimately differ from the Bland reference — but feasibility
  // verdicts are representation- and rule-independent, and any feasible
  // β must satisfy every asserted bound and every registered row
  // definition.
  std::mt19937 Rng(779);
  for (int Iter = 0; Iter < 40; ++Iter) {
    const uint32_t K = 5;
    Simplex Sparse(K);
    DenseRefSimplex Dense(K);
    std::vector<std::pair<LinTerm, uint32_t>> Rows;
    auto Register = [&] {
      LinTerm T;
      uint32_t Width = 1 + Rng() % 4;
      for (uint32_t I = 0; I < Width; ++I)
        T += LinTerm::variable(Rng() % K, static_cast<int64_t>(Rng() % 7) - 3);
      if (T.coeffs().empty())
        T += LinTerm::variable(Rng() % K);
      uint32_t H = Sparse.rowFor(T);
      ASSERT_EQ(H, Dense.rowFor(T));
      Rows.push_back({T, H});
    };
    for (int I = 0; I < 5; ++I)
      Register();
    std::map<uint32_t, Rational> LoB, HiB; // tightest asserted bounds
    uint32_t NextReason = 100;
    for (int Op = 0; Op < 80; ++Op) {
      uint32_t X = Rows[Rng() % Rows.size()].second;
      Rational V(static_cast<int64_t>(Rng() % 31) - 15,
                 (Rng() % 4 == 0) ? 2 : 1);
      uint32_t Reason = NextReason++;
      bool Upper = Rng() % 2;
      bool OkS = Upper ? Sparse.assertUpper(X, V, Reason)
                       : Sparse.assertLower(X, V, Reason);
      bool OkD = Upper ? Dense.assertUpper(X, V, Reason)
                       : Dense.assertLower(X, V, Reason);
      ASSERT_EQ(OkS, OkD);
      if (!OkS)
        break;
      if (Upper && (!HiB.count(X) || V < HiB[X]))
        HiB[X] = V;
      if (!Upper && (!LoB.count(X) || LoB[X] < V))
        LoB[X] = V;
      if (Op % 4 == 3) {
        bool FeasS = Sparse.checkRational();
        ASSERT_EQ(FeasS, Dense.checkRational()) << "iteration " << Iter;
        if (!FeasS)
          break;
        for (const auto &[T, H] : Rows) {
          Rational Sum;
          for (auto [Var, C] : T.coeffs())
            Sum += Rational(C) * Sparse.value(Var);
          ASSERT_EQ(Sum, Sparse.value(H))
              << "row definition violated, iteration " << Iter;
        }
        for (const auto &[Y, L] : LoB)
          ASSERT_FALSE(Sparse.value(Y) < L)
              << "lower bound violated, iteration " << Iter;
        for (const auto &[Y, U] : HiB)
          ASSERT_FALSE(U < Sparse.value(Y))
              << "upper bound violated, iteration " << Iter;
      }
    }
  }
}

TEST(SolveQfTest, SimpleConjunction) {
  Arena A;
  Var X = A.freshVar("x"), Y = A.freshVar("y");
  FormulaId F = A.conj({
      A.cmp(LinTerm::variable(X) + LinTerm::variable(Y), Cmp::Eq,
            LinTerm(10)),
      A.cmp(LinTerm::variable(X) - LinTerm::variable(Y), Cmp::Ge,
            LinTerm(4)),
      A.cmp(LinTerm::variable(Y), Cmp::Ge, LinTerm(1)),
  });
  QfResult R = solveQF(A, F);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Model[X] + R.Model[Y], 10);
  EXPECT_GE(R.Model[X] - R.Model[Y], 4);
}

TEST(SolveQfTest, UnsatConjunction) {
  Arena A;
  Var X = A.freshVar("x");
  FormulaId F = A.conj({
      A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(5)),
      A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(4)),
  });
  EXPECT_EQ(solveQF(A, F).V, Verdict::Unsat);
}

TEST(SolveQfTest, DisjunctionNeedsTheoryConflicts) {
  Arena A;
  Var X = A.freshVar("x", 0, INT64_MAX);
  // (x <= 2 or x >= 10) and x = 5 -> unsat.
  FormulaId F = A.conj({
      A.disj({A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(2)),
              A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(10))}),
      A.cmp(LinTerm::variable(X), Cmp::Eq, LinTerm(5)),
  });
  EXPECT_EQ(solveQF(A, F).V, Verdict::Unsat);

  // (x <= 2 or x >= 10) and x >= 6 -> sat with x >= 10.
  FormulaId G = A.conj({
      A.disj({A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(2)),
              A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(10))}),
      A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(6)),
  });
  QfResult R = solveQF(A, G);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_GE(R.Model[X], 10);
}

TEST(SolveQfTest, NotEqualLowering) {
  Arena A;
  Var X = A.freshVar("x", 0, 1);
  Var Y = A.freshVar("y", 0, 1);
  FormulaId F = A.conj({
      A.cmp(LinTerm::variable(X), Cmp::Ne, LinTerm::variable(Y)),
      A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(0)),
  });
  QfResult R = solveQF(A, F);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Model[X], 0);
  EXPECT_EQ(R.Model[Y], 1);
}

TEST(SolveQfTest, IntrinsicBoundsRespected) {
  Arena A;
  Var X = A.freshVar("x", 3, 7);
  FormulaId F = A.cmp(LinTerm::variable(X), Cmp::Le, LinTerm(100));
  QfResult R = solveQF(A, F);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_GE(R.Model[X], 3);
  EXPECT_LE(R.Model[X], 7);
  FormulaId G = A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(8));
  EXPECT_EQ(solveQF(A, G).V, Verdict::Unsat);
}

TEST(SolveQfTest, IntegralityConflictIsUnsat) {
  // 2x = 1 (x free): rationally feasible, integrally infeasible. The
  // vertex x = 1/2 is split on demand; both branches fail rationally.
  Arena A;
  Var X = A.freshVar("x");
  FormulaId F = A.cmp(LinTerm::variable(X) * 2, Cmp::Eq, LinTerm(1));
  QfResult R = solveQF(A, F);
  EXPECT_EQ(R.V, Verdict::Unsat);
  EXPECT_GE(R.Stats.TheoryConflicts, 1u);
}

TEST(SolveQfTest, IntegerModelInABox) {
  // x + y <= 4, x - y <= 1, 3x + 3y >= 7 over x, y >= 0: the vertices the
  // rational search can land on include fractional ones, the model must
  // be integral. 3z = 6 pins z = 2 exactly.
  Arena A;
  Var X = A.freshVar("x", 0, INT64_MAX), Y = A.freshVar("y", 0, INT64_MAX);
  Var Z = A.freshVar("z");
  LinTerm TX = LinTerm::variable(X), TY = LinTerm::variable(Y);
  FormulaId F = A.conj({
      A.cmp(TX + TY, Cmp::Le, LinTerm(4)),
      A.cmp(TX - TY, Cmp::Le, LinTerm(1)),
      A.cmp(TX * 3 + TY * 3, Cmp::Ge, LinTerm(7)),
      A.cmp(LinTerm::variable(Z) * 3, Cmp::Eq, LinTerm(6)),
  });
  QfResult R = solveQF(A, F);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_LE(R.Model[X] + R.Model[Y], 4);
  EXPECT_LE(R.Model[X] - R.Model[Y], 1);
  EXPECT_GE(R.Model[X] + R.Model[Y], 3);
  EXPECT_EQ(R.Model[Z], 2);
}

/// Differential test: random small formulae vs brute-force enumeration of
/// variable values in a small box.
TEST(SolveQfTest, RandomDifferentialAgainstEnumeration) {
  std::mt19937 Rng(4242);
  for (int Iter = 0; Iter < 120; ++Iter) {
    Arena A;
    uint32_t NumVars = 2 + Rng() % 2;
    std::vector<Var> Vars;
    for (uint32_t V = 0; V < NumVars; ++V)
      Vars.push_back(A.freshVar("v" + std::to_string(V), 0, 4));

    auto RandTerm = [&] {
      LinTerm T(static_cast<int64_t>(Rng() % 9) - 4);
      for (Var V : Vars)
        T += LinTerm::variable(V, static_cast<int64_t>(Rng() % 5) - 2);
      return T;
    };
    std::vector<FormulaId> Parts;
    uint32_t NumAtoms = 2 + Rng() % 4;
    for (uint32_t I = 0; I < NumAtoms; ++I) {
      Cmp Op = static_cast<Cmp>(Rng() % 6);
      FormulaId Atom = A.atom(RandTerm(), Op);
      if (Rng() % 3 == 0)
        Atom = A.neg(Atom);
      Parts.push_back(Atom);
    }
    // Random and/or tree: pair up parts.
    FormulaId F = Parts[0];
    for (size_t I = 1; I < Parts.size(); ++I)
      F = (Rng() % 2) ? A.conj({F, Parts[I]}) : A.disj({F, Parts[I]});

    // Brute force over the box [0,4]^n.
    bool Expected = false;
    std::vector<int64_t> M(NumVars, 0);
    uint32_t Total = 1;
    for (uint32_t V = 0; V < NumVars; ++V)
      Total *= 5;
    for (uint32_t Code = 0; Code < Total && !Expected; ++Code) {
      uint32_t C = Code;
      for (uint32_t V = 0; V < NumVars; ++V) {
        M[V] = C % 5;
        C /= 5;
      }
      if (A.eval(F, M))
        Expected = true;
    }

    QfResult R = solveQF(A, F);
    ASSERT_NE(R.V, Verdict::Unknown) << "iteration " << Iter;
    EXPECT_EQ(R.V == Verdict::Sat, Expected)
        << "iteration " << Iter << ": " << A.str(F);
  }
}

TEST(MbqiTest, NoBlocksBehavesLikeQf) {
  Arena A;
  Var X = A.freshVar("x", 0, 10);
  MbqiQuery Q;
  Q.Outer = A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(3));
  Q.OuterVars = {X};
  std::vector<int64_t> Model;
  EXPECT_EQ(solveMbqi(A, Q, &Model), Verdict::Sat);
  EXPECT_GE(Model[X], 3);
}

TEST(MbqiTest, ForallBlockFiltersModels) {
  // ∃x ∈ [0,4] ∀κ ∈ [0,x] ∃y: y = κ ∧ y ≤ 2 ∧ x ≥ 2.
  // For x ∈ {3,4} the offset κ=3 fails; x=2 works.
  Arena A;
  Var X = A.freshVar("x", 0, 4);
  Var K = A.freshVar("kappa");
  Var Y = A.freshVar("y");
  MbqiQuery Q;
  Q.Outer = A.cmp(LinTerm::variable(X), Cmp::Ge, LinTerm(2));
  Q.OuterVars = {X};
  ForallBlock B;
  B.Kappa = K;
  B.Upper = LinTerm::variable(X);
  B.Inner = A.conj({
      A.cmp(LinTerm::variable(Y), Cmp::Eq, LinTerm::variable(K)),
      A.cmp(LinTerm::variable(Y), Cmp::Le, LinTerm(2)),
  });
  Q.Blocks.push_back(B);
  std::vector<int64_t> Model;
  ASSERT_EQ(solveMbqi(A, Q, &Model), Verdict::Sat);
  EXPECT_EQ(Model[X], 2);
}

TEST(MbqiTest, UnsatWhenEveryModelRefuted) {
  // ∃x ∈ [1,3] ∀κ ∈ [0,x] : κ <= 0 — fails for every x >= 1.
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
  EXPECT_EQ(solveMbqi(A, Q), Verdict::Unsat);
}

TEST(ArenaTest, EvalAndLowerAgree) {
  std::mt19937 Rng(99);
  for (int Iter = 0; Iter < 100; ++Iter) {
    Arena A;
    Var X = A.freshVar("x"), Y = A.freshVar("y");
    LinTerm T = LinTerm::variable(X, static_cast<int64_t>(Rng() % 5) - 2) +
                LinTerm::variable(Y, static_cast<int64_t>(Rng() % 5) - 2) +
                LinTerm(static_cast<int64_t>(Rng() % 7) - 3);
    Cmp Op = static_cast<Cmp>(Rng() % 6);
    FormulaId F = A.atom(T, Op);
    if (Rng() % 2)
      F = A.neg(F);
    FormulaId L = A.lower(F);
    for (int64_t XV = -2; XV <= 2; ++XV)
      for (int64_t YV = -2; YV <= 2; ++YV) {
        std::vector<int64_t> M{XV, YV};
        EXPECT_EQ(A.eval(F, M), A.eval(L, M))
            << A.str(F) << " vs " << A.str(L);
      }
  }
}

} // namespace
