//===- lia/Simplex.cpp - General simplex with branch-and-bound -----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Simplex.h"

#include "base/Budget.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

using namespace postr;
using namespace postr::lia;

namespace {

using Int = Rational::Int;

Int lcmInt(Int A, Int B) { return A / Rational::gcdInt(A, B) * B; }

/// Process-wide rule override for A/B runs; nullopt when the variable is
/// unset and each context's own PivotPolicy applies (the default —
/// effectively `adaptive`).
std::optional<PivotRule> ruleFromEnv() {
  const char *E = std::getenv("POSTR_SIMPLEX_PIVOT_RULE");
  if (!E)
    return std::nullopt;
  if (!std::strcmp(E, "adaptive"))
    return PivotRule::Adaptive;
  if (!std::strcmp(E, "bland"))
    return PivotRule::Bland;
  if (!std::strcmp(E, "markowitz"))
    return PivotRule::Markowitz;
  if (!std::strcmp(E, "sparsest") || !std::strcmp(E, "sparsest-row"))
    return PivotRule::SparsestRow;
  if (!std::strcmp(E, "violated") || !std::strcmp(E, "most-violated"))
    return PivotRule::MostViolated;
  // A typo must not silently record default-policy numbers under another
  // rule's name in an A/B table.
  std::fprintf(stderr,
               "postr: unrecognized POSTR_SIMPLEX_PIVOT_RULE '%s', "
               "using the context policy (adaptive)\n",
               E);
  return std::nullopt;
}

/// Read once per process: the Simplex constructor is on the per-disjunct
/// setup path and the flag is an inter-process A/B knob, not something
/// that changes mid-run.
PivotRule applyEnvOverride(PivotRule FromPolicy) {
  static const std::optional<PivotRule> Env = ruleFromEnv();
  return Env ? *Env : FromPolicy;
}

} // namespace

size_t Simplex::SparseRow::find(uint32_t X) const {
  auto It = std::lower_bound(Cols.begin(), Cols.end(), X);
  if (It == Cols.end() || *It != X)
    return SIZE_MAX;
  return static_cast<size_t>(It - Cols.begin());
}

Simplex::Simplex(uint32_t NumProblemVars, const PivotPolicy &Policy)
    : NumProblemVars(NumProblemVars), NumVars(NumProblemVars),
      RowOf(NumProblemVars, ~0u), Beta(NumProblemVars),
      Lo(NumProblemVars), Hi(NumProblemVars),
      LoReason(NumProblemVars, NoReason), HiReason(NumProblemVars, NoReason),
      Policy(Policy), Rule(applyEnvOverride(Policy.Rule)),
      InViolQueue(NumProblemVars, 0), ColCount(NumProblemVars, 0) {
  ColNz.resize(NumProblemVars);
  InColNz.resize(NumProblemVars);
  Integral.resize(NumProblemVars);
  for (uint32_t V = 0; V < NumProblemVars; ++V)
    Integral[V] = V;
}

uint32_t Simplex::addProblemVar(int64_t LoV, int64_t HiV) {
  uint32_t X = NumVars++;
  RowOf.push_back(~0u);
  Beta.push_back(Rational::zero());
  Lo.push_back(std::nullopt);
  Hi.push_back(std::nullopt);
  LoReason.push_back(NoReason);
  HiReason.push_back(NoReason);
  InViolQueue.push_back(0);
  ColCount.push_back(0);
  ColNz.emplace_back();
  InColNz.emplace_back();
  Integral.push_back(X);
  // The new variable is nonbasic with β = 0 and appears in no row, so
  // the basis and every row value stay valid. Intrinsic bounds may move
  // β off 0 (updateNonbasic), which keeps the rows consistent too.
  if (LoV != INT64_MIN) {
    bool Ok = assertLower(X, Rational(LoV));
    assert(Ok && "conflicting intrinsic lower bound");
    (void)Ok;
  }
  if (HiV != INT64_MAX) {
    bool Ok = assertUpper(X, Rational(HiV));
    assert(Ok && "conflicting intrinsic upper bound");
    (void)Ok;
  }
  return X;
}

void Simplex::setIntrinsicBounds(Var V, int64_t LoV, int64_t HiV) {
  assert(V < NumProblemVars && "intrinsic bounds on slack variable");
  if (LoV != INT64_MIN) {
    bool Ok = assertLower(V, Rational(LoV));
    assert(Ok && "conflicting intrinsic lower bound");
    (void)Ok;
  }
  if (HiV != INT64_MAX) {
    bool Ok = assertUpper(V, Rational(HiV));
    assert(Ok && "conflicting intrinsic upper bound");
    (void)Ok;
  }
}

void Simplex::normalizeRow(SparseRow &Row) {
  if (Row.Cols.size() > Stats.MaxRowNnz)
    Stats.MaxRowNnz = Row.Cols.size();
  if (Row.Nums.empty()) {
    Row.Den = 1;
    return;
  }
  // Den > 0 and gcd-reduced rows are canonical; integral rows (Den == 1)
  // need no pass at all, which is the overwhelmingly common case in the
  // ±1-coefficient Parikh/position tableaus.
  if (Row.Den == 1)
    return;
  Int G = Row.Den;
  for (Int N : Row.Nums) {
    G = Rational::gcdInt(G, N);
    if (G == 1)
      return;
  }
  for (Int &N : Row.Nums)
    N /= G;
  Row.Den /= G;
  ++Stats.DenNormalizations;
}

Rational Simplex::rowCoeff(uint32_t R, uint32_t X) const {
  const SparseRow &Row = Tableau[R];
  size_t I = Row.find(X);
  if (I == SIZE_MAX)
    return Rational::zero();
  return Rational(Row.Nums[I], Row.Den);
}

uint32_t Simplex::rowFor(const LinTerm &T) { return rowFor(T.coeffs()); }

uint32_t Simplex::rowFor(const std::vector<std::pair<Var, int64_t>> &Coeffs) {
  // A single-variable unit term needs no slack row.
  if (Coeffs.size() == 1 && Coeffs.front().second == 1)
    return Coeffs.front().first;
  auto It = TermToVar.find(Coeffs);
  if (It != TermToVar.end())
    return It->second;

  uint32_t Slack = NumVars++;
  uint32_t NewRow = static_cast<uint32_t>(Tableau.size());
  RowOf.push_back(NewRow);
  Lo.push_back(std::nullopt);
  Hi.push_back(std::nullopt);
  LoReason.push_back(NoReason);
  HiReason.push_back(NoReason);
  InViolQueue.push_back(0);
  ColCount.push_back(0);
  ColNz.emplace_back();
  InColNz.emplace_back();

  // New row: Slack = Σ ci·xi, with any basic xi substituted by its row so
  // the tableau stays in solved form (rows range over nonbasic vars
  // only). Accumulate into the dense rational scratch, then emit the
  // sparse row over one common denominator.
  if (DenseScratch.size() < NumVars) {
    DenseScratch.resize(NumVars, Rational::zero());
    DenseMark.resize(NumVars, 0);
  }
  DenseTouched.clear();
  auto Add = [&](uint32_t X, const Rational &V) {
    if (!DenseMark[X]) {
      DenseMark[X] = 1;
      DenseTouched.push_back(X);
    }
    DenseScratch[X] += V;
  };
  Rational Value = Rational::zero();
  for (auto [V, C] : Coeffs) {
    Rational Coef(C);
    if (!isBasic(V)) {
      Add(V, Coef);
    } else {
      const SparseRow &Sub = Tableau[RowOf[V]];
      for (size_t I = 0; I < Sub.size(); ++I)
        Add(Sub.Cols[I], Coef * Rational(Sub.Nums[I], Sub.Den));
    }
    Value += Coef * Beta[V];
  }
  std::sort(DenseTouched.begin(), DenseTouched.end());
  SparseRow Row;
  Int L = 1;
  for (uint32_t X : DenseTouched)
    if (!DenseScratch[X].isZero())
      L = lcmInt(L, DenseScratch[X].den());
  for (uint32_t X : DenseTouched) {
    const Rational &V = DenseScratch[X];
    if (!V.isZero()) {
      Row.Cols.push_back(X);
      Row.Nums.push_back(V.num() * (L / V.den()));
      ++ColCount[X];
    }
    DenseScratch[X] = Rational::zero();
    DenseMark[X] = 0;
  }
  Row.Den = L;
  normalizeRow(Row);
  Tableau.push_back(std::move(Row));
  for (uint32_t X : Tableau.back().Cols)
    noteColNonzero(NewRow, X);
  BasicVar.push_back(Slack);
  Beta.push_back(Value);
  TermToVar.emplace(Coeffs, Slack);
  if (Bud)
    // Row storage plus the per-variable bookkeeping (bounds, reasons,
    // column-support vectors, interning key). A MemOut trip here is
    // noticed at the owner's next checkpoint/interrupt poll.
    Bud->chargeMem(Tableau.back().size() *
                       (sizeof(uint32_t) + sizeof(Int) + sizeof(uint32_t)) +
                   128);
  return Slack;
}

bool Simplex::assertUpper(uint32_t X, const Rational &U, uint32_t Reason) {
  if (Hi[X] && *Hi[X] <= U)
    return true;
  if (Lo[X] && U < *Lo[X]) {
    Conflict.clear();
    if (isLemmaReason(Reason))
      Conflict.push_back(Reason);
    if (isLemmaReason(LoReason[X]))
      Conflict.push_back(LoReason[X]);
    if (CertOn)
      recordClashLeaf(X, Reason, /*NewUpper=*/true);
    return false;
  }
  AssertTrail.push_back({X, /*Upper=*/true, Hi[X], HiReason[X]});
  Hi[X] = U;
  HiReason[X] = Reason;
  if (isBasic(X))
    touchBasic(X);
  else if (Beta[X] > U)
    updateNonbasic(X, U);
  return true;
}

bool Simplex::assertLower(uint32_t X, const Rational &L, uint32_t Reason) {
  if (Lo[X] && *Lo[X] >= L)
    return true;
  if (Hi[X] && *Hi[X] < L) {
    Conflict.clear();
    if (isLemmaReason(Reason))
      Conflict.push_back(Reason);
    if (isLemmaReason(HiReason[X]))
      Conflict.push_back(HiReason[X]);
    if (CertOn)
      recordClashLeaf(X, Reason, /*NewUpper=*/false);
    return false;
  }
  AssertTrail.push_back({X, /*Upper=*/false, Lo[X], LoReason[X]});
  Lo[X] = L;
  LoReason[X] = Reason;
  if (isBasic(X))
    touchBasic(X);
  else if (Beta[X] < L)
    updateNonbasic(X, L);
  return true;
}

void Simplex::rollback(size_t Mark) {
  while (AssertTrail.size() > Mark) {
    const BoundUndo &U = AssertTrail.back();
    if (U.Upper) {
      Hi[U.X] = U.Old;
      HiReason[U.X] = U.OldReason;
    } else {
      Lo[U.X] = U.Old;
      LoReason[U.X] = U.OldReason;
    }
    AssertTrail.pop_back();
  }
}

void Simplex::markBaseline() {
  BaseLo = Lo;
  BaseHi = Hi;
  BaseLoReason = LoReason;
  BaseHiReason = HiReason;
  // The baseline bounds are never rolled back; drop their undo records.
  AssertTrail.clear();
}

void Simplex::resetToBaseline() {
  for (uint32_t X = 0; X < NumVars; ++X) {
    if (X < BaseLo.size()) {
      Lo[X] = BaseLo[X];
      Hi[X] = BaseHi[X];
      LoReason[X] = BaseLoReason[X];
      HiReason[X] = BaseHiReason[X];
    } else {
      Lo[X] = std::nullopt;
      Hi[X] = std::nullopt;
      LoReason[X] = NoReason;
      HiReason[X] = NoReason;
    }
  }
  AssertTrail.clear();
  // Bounds only got looser and β is untouched, so rows stay satisfied;
  // conservatively requeue the basics for the next feasibility check.
  for (uint32_t X : BasicVar)
    touchBasic(X);
}

void Simplex::updateNonbasic(uint32_t N, const Rational &V) {
  Rational Delta = V - Beta[N];
  if (Delta.isZero())
    return;
  // One pass over the column support: drop stale rows and push the delta
  // through the genuine entries (a single binary search per row serves
  // both the staleness test and the coefficient).
  std::vector<uint32_t> &Nz = ColNz[N];
  std::vector<uint8_t> &In = InColNz[N];
  size_t Keep = 0;
  for (uint32_t R : Nz) {
    const SparseRow &Row = Tableau[R];
    size_t I = Row.find(N);
    if (I == SIZE_MAX) {
      In[R] = 0;
      continue;
    }
    Nz[Keep++] = R;
    Beta[BasicVar[R]] += Rational(Row.Nums[I], Row.Den) * Delta;
    touchBasic(BasicVar[R]);
  }
  Nz.resize(Keep);
  Beta[N] = V;
}

const std::vector<uint32_t> &Simplex::compactCol(uint32_t X) {
  std::vector<uint32_t> &Nz = ColNz[X];
  std::vector<uint8_t> &In = InColNz[X];
  size_t Keep = 0;
  for (uint32_t R : Nz) {
    if (!Tableau[R].contains(X))
      In[R] = 0;
    else
      Nz[Keep++] = R;
  }
  Nz.resize(Keep);
  return Nz;
}

void Simplex::pivot(uint32_t B, uint32_t N) {
  ++Stats.Pivots;
  uint32_t R = RowOf[B];
  SparseRow &Row = Tableau[R];
  size_t IN = Row.find(N);
  assert(IN != SIZE_MAX && "pivot on zero coefficient");
  Int NN = Row.Nums[IN];
  bool Neg = NN < 0;

  // Solve the row B = ... + (NN/Den)·N for N in place:
  //   N = (Den·B − Σ_{X≠N} Num_X·X) / NN,
  // sign-adjusted so the denominator stays positive. Same support minus
  // N plus B, so fill-in can only come from the elimination below.
  Row.Cols.erase(Row.Cols.begin() + static_cast<ptrdiff_t>(IN));
  Row.Nums.erase(Row.Nums.begin() + static_cast<ptrdiff_t>(IN));
  --ColCount[N];
  for (Int &Num : Row.Nums)
    Num = Neg ? Num : -Num;
  Int BNum = Neg ? -Row.Den : Row.Den;
  size_t IB = static_cast<size_t>(
      std::lower_bound(Row.Cols.begin(), Row.Cols.end(), B) -
      Row.Cols.begin());
  Row.Cols.insert(Row.Cols.begin() + static_cast<ptrdiff_t>(IB), B);
  Row.Nums.insert(Row.Nums.begin() + static_cast<ptrdiff_t>(IB), BNum);
  ++ColCount[B];
  Row.Den = Neg ? -NN : NN;
  normalizeRow(Row);
  noteColNonzero(R, B);
  BasicVar[R] = N;
  RowOf[N] = R;
  RowOf[B] = ~0u;

  // Substitute N out of every other row with a genuine N entry, walking
  // the transposed support: Other += (m_N/e)·Piv with the N column
  // dropped, computed as an integer sorted-merge over the common
  // denominator e·q and gcd-normalized once per row.
  const SparseRow &Piv = Tableau[R];
  Int Q = Piv.Den;
  for (uint32_t R2 : compactCol(N)) {
    assert(R2 != R && "pivot row still lists its own entering column");
    SparseRow &Other = Tableau[R2];
    size_t J = Other.find(N);
    assert(J != SIZE_MAX && "compacted column lists a zero entry");
    Int MN = Other.Nums[J];
    Int E = Other.Den;
    MergeScratch.Cols.clear();
    MergeScratch.Nums.clear();
    MergeScratch.Cols.reserve(Other.size() + Piv.size());
    MergeScratch.Nums.reserve(Other.size() + Piv.size());
    size_t I1 = 0, I2 = 0, N1 = Other.size(), N2 = Piv.size();
    while (I1 < N1 || I2 < N2) {
      if (I1 == J) {
        ++I1;
        continue;
      }
      uint32_t C1 = I1 < N1 ? Other.Cols[I1] : UINT32_MAX;
      uint32_t C2 = I2 < N2 ? Piv.Cols[I2] : UINT32_MAX;
      if (C1 < C2) {
        MergeScratch.Cols.push_back(C1);
        MergeScratch.Nums.push_back(Other.Nums[I1] * Q);
        ++I1;
      } else if (C2 < C1) {
        // Fill-in: the pivot row contributes a column Other lacked.
        MergeScratch.Cols.push_back(C2);
        MergeScratch.Nums.push_back(MN * Piv.Nums[I2]);
        ++ColCount[C2];
        noteColNonzero(R2, C2);
        ++Stats.RowFillIn;
        ++I2;
      } else {
        Int S = Other.Nums[I1] * Q + MN * Piv.Nums[I2];
        if (S == 0)
          --ColCount[C1]; // cancelled; ColNz keeps a stale entry
        else {
          MergeScratch.Cols.push_back(C1);
          MergeScratch.Nums.push_back(S);
        }
        ++I1;
        ++I2;
      }
    }
    MergeScratch.Den = E * Q;
    normalizeRow(MergeScratch);
    std::swap(Other.Cols, MergeScratch.Cols);
    std::swap(Other.Nums, MergeScratch.Nums);
    Other.Den = MergeScratch.Den;
    --ColCount[N];
  }
  // No row contains N anymore (it is basic): reset its column support.
  for (uint32_t R2 : ColNz[N])
    InColNz[N][R2] = 0;
  ColNz[N].clear();
}

bool Simplex::pivotAndUpdate(uint32_t B, uint32_t N, const Rational &V) {
  uint32_t R = RowOf[B];
  Rational A = rowCoeff(R, N);
  Rational Theta = (V - Beta[B]) / A;
  Beta[B] = V;
  Beta[N] += Theta;
  for (uint32_t R2 : compactCol(N)) {
    if (R2 == R)
      continue;
    Beta[BasicVar[R2]] += rowCoeff(R2, N) * Theta;
    touchBasic(BasicVar[R2]);
  }
  pivot(B, N);
  touchBasic(N);
  return true;
}

uint32_t Simplex::selectEntering(uint32_t B, bool NeedIncrease,
                                 bool Bland) const {
  const SparseRow &Row = Tableau[RowOf[B]];
  uint32_t N = ~0u;
  for (size_t I = 0; I < Row.size(); ++I) {
    uint32_t X = Row.Cols[I];
    if (X == B || isBasic(X))
      continue;
    bool Pos = Row.Nums[I] > 0; // Den > 0: numerator sign = coeff sign
    bool CanUse;
    if (NeedIncrease)
      CanUse = (Pos && (!Hi[X] || Beta[X] < *Hi[X])) ||
               (!Pos && (!Lo[X] || Beta[X] > *Lo[X]));
    else
      CanUse = (!Pos && (!Hi[X] || Beta[X] < *Hi[X])) ||
               (Pos && (!Lo[X] || Beta[X] > *Lo[X]));
    if (!CanUse)
      continue;
    if (N == ~0u ||
        (Bland ? X < N : ColCount[X] < ColCount[N] ||
                             (ColCount[X] == ColCount[N] && X < N)))
      N = X;
  }
  return N;
}

PivotRule Simplex::activeRule() const {
  if (Rule != PivotRule::Adaptive)
    return Rule;
  if (Degraded)
    return PivotRule::Bland;
  // Family start rules, from the ab_pivot_rules.sh measurements (table
  // in ROADMAP): SparsestRow halves elimination fill-in on the wide
  // Parikh/length tableaus and wins the solve/mbqi stages at identical
  // verdicts, so Parikh-heavy — and unclassified — contexts start there
  // with the degradation fence underneath. Both word-equation
  // subfamilies (the django/thefuck pipeline shapes) start on Bland: the
  // post-split ab_pivot_rules.sh re-run still has Bland winning the
  // pipeline stage (sparsest −25%, markowitz/violated flip verdicts),
  // and no per-subfamily divergence has shown up yet — the split keeps
  // the two shapes separately classifiable so a future A/B can tell
  // them apart without re-plumbing.
  return Policy.Family == InstanceFamily::WordEqDiseq ||
                 Policy.Family == InstanceFamily::WordEqPosition
             ? PivotRule::Bland
             : PivotRule::SparsestRow;
}

void Simplex::noteCheckDone(uint64_t PivotsThisCheck) {
  if (Rule != PivotRule::Adaptive)
    return;
  if (Degraded) {
    // Probation: a fenced context re-earns its family start rule after a
    // long window of near-idle checks. The bar is deliberately stricter
    // than the degrade trigger (default one pivot per check over 8x the
    // degrade window), so a tableau that keeps wandering never recovers,
    // while one that degraded on a single bad episode stops paying the
    // Bland tax for the rest of its (possibly long) incremental life.
    if (Policy.RecoveryWindowChecks == 0)
      return;
    RecoveryPivots += PivotsThisCheck;
    if (++RecoveryChecks >= Policy.RecoveryWindowChecks) {
      if (RecoveryPivots <=
          static_cast<uint64_t>(Policy.RecoveryPivotsPerCheck) *
              RecoveryChecks) {
        Degraded = false;
        ++Stats.FenceRecoveries;
        WindowChecks = WindowPivots = 0; // degrade window restarts clean
      }
      RecoveryChecks = RecoveryPivots = 0;
    }
    return;
  }
  if (activeRule() == PivotRule::Bland)
    return;
  // Immediate trigger: the restoration ran into the in-check Bland
  // fallback — the preferred rule failed to converge on its own and
  // every later check on this tableau is likely to repeat that.
  if (PivotsThisCheck >= Policy.DegradeRestorationLen) {
    Degraded = true;
    ++Stats.RuleSwitches;
    return;
  }
  // Windowed trigger: a sustained pivots-per-check average far above the
  // healthy baseline (well under one on the tag workloads) means the
  // rule is thrashing short of the hard fallback — fence it too.
  WindowPivots += PivotsThisCheck;
  if (++WindowChecks >= Policy.DegradeWindowChecks) {
    if (WindowPivots >
        static_cast<uint64_t>(Policy.DegradeWindowPivotsPerCheck) *
            WindowChecks) {
      Degraded = true;
      ++Stats.RuleSwitches;
    }
    WindowChecks = WindowPivots = 0;
  }
}

bool Simplex::checkRational() {
  ++Stats.Checks;
  // Leaving variable: latched once per check from the context policy
  // (PivotRule::Adaptive resolves through the family start rule and the
  // degradation fence — see activeRule()), with POSTR_SIMPLEX_PIVOT_RULE
  // forcing a fixed rule process-wide for A/B runs (each concrete rule
  // wins somewhere and blows up somewhere else — A/B over
  // bench/workloads with bench/ab_pivot_rules.sh before changing the
  // family start rules; see ROADMAP and docs/BENCH.md). Rule changes
  // only ever take effect here, at a check boundary — never inside the
  // pivot loop below. Entering variable: the eligible column with the
  // fewest tableau nonzeros (anti-fill-in) while the run is short. Past
  // the threshold every selection falls back to Bland's smallest-index —
  // which terminates unconditionally.
  const PivotRule Active = activeRule();
  uint64_t PivotsThisCheck = 0;
  const uint64_t BlandThreshold = Policy.DegradeRestorationLen;
  // The Markowitz selection has no anti-cycling guarantee and its free
  // choice among violated rows can wander on degenerate vertices, so it
  // only steers the first pivots of a restoration — where the fill-in
  // damage is done — before handing over to Bland's convergent order.
  const uint64_t MarkowitzThreshold = 24;
  for (;;) {
    // A single feasibility restoration can pivot for a long time on
    // adversarial tableaus; poll the interrupt and bail out claiming
    // feasibility. The interrupt predicate is sticky (deadline/cancel),
    // and every caller that would trust a model re-checks it first, so
    // the white lie only ever leads to an Abort/Unknown. Every 16th pivot,
    // not every one: the clock read is cheap now, but each poll charges
    // a budget step, and polling per pivot (and at every check's entry)
    // cut FuzzDiffTest's step-limited smoke sweep from 207 determinate
    // answers to 189, below its floor of 200.
    if (Interrupt && (PivotsThisCheck & 15) == 15 && Interrupt()) {
      noteCheckDone(PivotsThisCheck);
      return true;
    }
    bool Bland = PivotsThisCheck >= BlandThreshold;
    // Compact the lazy queue: verify entries, drop the feasible ones.
    size_t Keep = 0;
    for (size_t I = 0; I < ViolQueue.size(); ++I) {
      uint32_t X = ViolQueue[I];
      bool ViolLo = isBasic(X) && Lo[X] && Beta[X] < *Lo[X];
      bool ViolHi = isBasic(X) && Hi[X] && Beta[X] > *Hi[X];
      if (!ViolLo && !ViolHi) {
        InViolQueue[X] = 0;
        continue;
      }
      ViolQueue[Keep++] = X;
    }
    ViolQueue.resize(Keep);
    if (Keep == 0) {
      noteCheckDone(PivotsThisCheck);
      return true;
    }

    uint32_t B = ~0u;
    bool NeedIncrease = false;
    uint32_t MarkowitzN = ~0u; ///< entering pick when Markowitz chose B
    // The Markowitz rule exercises leaving-choice freedom only where it
    // genuinely exists — several rows violated at once (bound bursts,
    // warm-start restorations) and early in the restoration. The
    // single-violation DPLL(T) step and long degenerate runs stay on
    // Bland's convergent order (free choice has no anti-cycling
    // guarantee and was observed wandering on degenerate vertices).
    bool Markowitz = !Bland && Active == PivotRule::Markowitz && Keep >= 2 &&
                     PivotsThisCheck < MarkowitzThreshold;
    /// Concrete rule this iteration's selection runs under, for the
    /// per-rule pivot attribution.
    PivotRule Chose = Active;
    if (Bland || Active == PivotRule::Bland ||
        (Active == PivotRule::Markowitz && !Markowitz)) {
      Chose = PivotRule::Bland;
      for (uint32_t X : ViolQueue)
        if (B == ~0u || X < B)
          B = X;
    } else if (Markowitz) {
      uint64_t BestCost = 0;
      for (uint32_t X : ViolQueue) {
        bool ViolLo = Lo[X] && Beta[X] < *Lo[X];
        // A violated row with no eligible entering column certifies
        // infeasibility — take it immediately (cost "-1", smallest index
        // on ties) so the conflict path below fires deterministically.
        uint32_t NX = selectEntering(X, ViolLo, /*Bland=*/false);
        uint64_t Cost =
            NX == ~0u
                ? 0
                : 1 + static_cast<uint64_t>(Tableau[RowOf[X]].size() - 1) *
                          (ColCount[NX] > 0 ? ColCount[NX] - 1 : 0);
        if (B == ~0u || Cost < BestCost || (Cost == BestCost && X < B)) {
          BestCost = Cost;
          MarkowitzN = NX;
          B = X;
          NeedIncrease = ViolLo;
        }
      }
    } else if (Active == PivotRule::SparsestRow) {
      size_t BestNnz = 0;
      for (uint32_t X : ViolQueue) {
        size_t Nnz = Tableau[RowOf[X]].size();
        if (B == ~0u || Nnz < BestNnz || (Nnz == BestNnz && X < B)) {
          BestNnz = Nnz;
          B = X;
        }
      }
    } else { // PivotRule::MostViolated
      Rational BestViol;
      for (uint32_t X : ViolQueue) {
        bool ViolLo = Lo[X] && Beta[X] < *Lo[X];
        Rational V = ViolLo ? *Lo[X] - Beta[X] : Beta[X] - *Hi[X];
        if (B == ~0u || BestViol < V || (!(V < BestViol) && X < B)) {
          BestViol = V;
          B = X;
        }
      }
    }
    if (!Markowitz)
      NeedIncrease = Lo[B] && Beta[B] < *Lo[B];
    ++PivotsThisCheck;

    uint32_t N =
        Markowitz ? MarkowitzN : selectEntering(B, NeedIncrease, Bland);
    if (N == ~0u) {
      const SparseRow &Row = Tableau[RowOf[B]];
      // The row of B certifies infeasibility: B's violated bound plus the
      // bound every nonbasic row variable is stuck at.
      Conflict.clear();
      uint32_t BReason = NeedIncrease ? LoReason[B] : HiReason[B];
      if (isLemmaReason(BReason))
        Conflict.push_back(BReason);
      for (size_t I = 0; I < Row.size(); ++I) {
        uint32_t X = Row.Cols[I];
        if (X == B || isBasic(X))
          continue;
        bool StuckAtHi = NeedIncrease ? (Row.Nums[I] > 0)
                                      : (Row.Nums[I] < 0);
        uint32_t RR = StuckAtHi ? HiReason[X] : LoReason[X];
        if (isLemmaReason(RR))
          Conflict.push_back(RR);
      }
      std::sort(Conflict.begin(), Conflict.end());
      Conflict.erase(std::unique(Conflict.begin(), Conflict.end()),
                     Conflict.end());
      if (CertOn)
        recordRowLeaf(B, NeedIncrease);
      noteCheckDone(PivotsThisCheck);
      return false;
    }
    ++Stats.PivotsByRule[static_cast<size_t>(Chose)];
    pivotAndUpdate(B, N, NeedIncrease ? *Lo[B] : *Hi[B]);
  }
}

int32_t Simplex::recordClashLeaf(uint32_t X, uint32_t NewReason,
                                 bool NewUpper) {
  if (!InBranch)
    Cert = ConflictCert();
  FarkasLeafRec Leaf;
  // New bound against the existing opposite bound, unit multipliers:
  // (X <= U) + (X >= L) with U < L sums to 0 <= U - L < 0.
  Leaf.Terms.push_back({NewReason, X, NewUpper, Rational::one()});
  Leaf.Terms.push_back({NewUpper ? LoReason[X] : HiReason[X], X, !NewUpper,
                        Rational::one()});
  Cert.Leaves.push_back(std::move(Leaf));
  Cert.Nodes.push_back(
      {static_cast<int32_t>(Cert.Leaves.size() - 1), 0, 0, -1, -1});
  int32_t Node = static_cast<int32_t>(Cert.Nodes.size() - 1);
  if (!InBranch)
    Cert.Root = Node;
  return Node;
}

int32_t Simplex::recordRowLeaf(uint32_t B, bool NeedIncrease) {
  if (!InBranch)
    Cert = ConflictCert();
  const SparseRow &Row = Tableau[RowOf[B]];
  FarkasLeafRec Leaf;
  // The row identity value(B) = Σ (Nums[i]/Den)·Cols[i] turns the stuck
  // bounds into a bound on B that contradicts B's violated bound:
  //   NeedIncrease:  -B <= -Lo[B], plus  a_i·X_i <= a_i·Hi_i (a_i > 0)
  //                  and -a_i·X_i <= -a_i·Lo_i (a_i < 0);
  // the variable parts cancel through the row identity and the constant
  // is (max achievable B) - Lo[B] < 0. Mirrored for the upper side.
  Leaf.Terms.push_back({NeedIncrease ? LoReason[B] : HiReason[B], B,
                        /*Upper=*/!NeedIncrease, Rational::one()});
  for (size_t I = 0; I < Row.size(); ++I) {
    uint32_t X = Row.Cols[I];
    if (X == B || isBasic(X))
      continue;
    bool StuckAtHi = NeedIncrease ? (Row.Nums[I] > 0) : (Row.Nums[I] < 0);
    Int Num = Row.Nums[I];
    Rational Mult(Num < 0 ? -Num : Num, Row.Den);
    Leaf.Terms.push_back(
        {StuckAtHi ? HiReason[X] : LoReason[X], X, StuckAtHi, Mult});
  }
  Cert.Leaves.push_back(std::move(Leaf));
  Cert.Nodes.push_back(
      {static_cast<int32_t>(Cert.Leaves.size() - 1), 0, 0, -1, -1});
  int32_t Node = static_cast<int32_t>(Cert.Nodes.size() - 1);
  if (!InBranch)
    Cert.Root = Node;
  return Node;
}

Simplex::Snapshot Simplex::save() const { return {Lo, Hi, Beta}; }

void Simplex::restore(const Snapshot &S) {
  assert(S.Beta.size() == NumVars &&
         "rows must be registered before the first snapshot");
  Lo = S.Lo;
  Hi = S.Hi;
  Beta = S.Beta;
  // Wholesale state change: conservatively requeue every basic variable.
  for (uint32_t X : BasicVar)
    touchBasic(X);
}

TheoryResult Simplex::checkInteger(std::vector<int64_t> &ModelOut,
                                   uint64_t NodeBudget) {
  uint64_t Budget = NodeBudget;
  IntegerCore.clear();
  int32_t Root = -1;
  if (CertOn) {
    Cert = ConflictCert();
    InBranch = true;
  }
  TheoryResult R = branch(ModelOut, Budget, /*Depth=*/0, Root);
  InBranch = false;
  if (R == TheoryResult::Unsat) {
    std::sort(IntegerCore.begin(), IntegerCore.end());
    IntegerCore.erase(std::unique(IntegerCore.begin(), IntegerCore.end()),
                      IntegerCore.end());
    Conflict = IntegerCore;
    if (CertOn)
      Cert.Root = Root;
  } else if (CertOn) {
    Cert = ConflictCert(); // no refutation to certify
  }
  return R;
}

TheoryResult Simplex::branch(std::vector<int64_t> &ModelOut,
                             uint64_t &Budget, uint32_t Depth,
                             int32_t &NodeOut) {
  NodeOut = -1;
  if (Budget == 0)
    return TheoryResult::Unknown;
  if (Interrupt && Interrupt())
    return TheoryResult::Unknown;
  --Budget;
  if (!checkRational()) {
    // Leaf of the refutation tree: fold its explanation into the core.
    // checkRational just recorded the leaf node (when recording is on).
    IntegerCore.insert(IntegerCore.end(), Conflict.begin(), Conflict.end());
    if (CertOn)
      NodeOut = static_cast<int32_t>(Cert.Nodes.size() - 1);
    return TheoryResult::Unsat;
  }

  // Find a problem variable with a fractional value. Slack variables
  // are integer combinations of problem vars, so they need no branching.
  uint32_t Frac = ~0u;
  for (uint32_t V : Integral)
    if (!Beta[V].isInteger()) {
      Frac = V;
      break;
    }
  if (Frac == ~0u) {
    // An interrupted checkRational above may have claimed feasibility
    // spuriously; never hand out a model without re-checking.
    if (Interrupt && Interrupt())
      return TheoryResult::Unknown;
    ModelOut.resize(Integral.size());
    for (size_t Ord = 0; Ord < Integral.size(); ++Ord)
      ModelOut[Ord] = Beta[Integral[Ord]].asInt64();
    return TheoryResult::Sat;
  }

  Rational Floor = Beta[Frac].floor();
  bool SawUnknown = false;
  // Split bounds get the path-depth reason code while recording, so a
  // leaf can cite the split that constrained it; with recording off the
  // split carries NoReason exactly as before.
  const uint32_t SplitReason = CertOn ? SplitBase + Depth : NoReason;
  int32_t DownNode = -1, UpNode = -1;

  size_t M = mark();
  if (assertUpper(Frac, Floor, SplitReason)) {
    TheoryResult R = branch(ModelOut, Budget, Depth + 1, DownNode);
    if (R == TheoryResult::Sat)
      return R;
    if (R == TheoryResult::Unknown)
      SawUnknown = true;
  } else {
    // The split bound clashed with an asserted bound: that bound is part
    // of the refutation (the split itself resolves away).
    IntegerCore.insert(IntegerCore.end(), Conflict.begin(), Conflict.end());
    if (CertOn)
      DownNode = static_cast<int32_t>(Cert.Nodes.size() - 1);
  }
  rollback(M);
  if (assertLower(Frac, Floor + Rational::one(), SplitReason)) {
    TheoryResult R = branch(ModelOut, Budget, Depth + 1, UpNode);
    if (R == TheoryResult::Sat)
      return R;
    if (R == TheoryResult::Unknown)
      SawUnknown = true;
  } else {
    IntegerCore.insert(IntegerCore.end(), Conflict.begin(), Conflict.end());
    if (CertOn)
      UpNode = static_cast<int32_t>(Cert.Nodes.size() - 1);
  }
  rollback(M);
  if (SawUnknown)
    return TheoryResult::Unknown;
  if (CertOn) {
    Cert.Nodes.push_back(
        {-1, Frac, Floor.asInt64(), DownNode, UpNode});
    NodeOut = static_cast<int32_t>(Cert.Nodes.size() - 1);
  }
  return TheoryResult::Unsat;
}
