//===- lia/Simplex.cpp - General simplex over exact rationals -------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "lia/Simplex.h"

#include "base/Budget.h"

#include <algorithm>
#include <optional>

using namespace postr;
using namespace postr::lia;

namespace {

using Int = Rational::Int;

Int lcmInt(Int A, Int B) { return A / Rational::gcdInt(A, B) * B; }

/// Pivots a single feasibility check may take under its own selection
/// before every choice falls back to Bland's smallest-index order, which
/// terminates unconditionally.
constexpr uint64_t BlandFallbackPivots = 256;

} // namespace

size_t Simplex::SparseRow::find(uint32_t X) const {
  auto It = std::lower_bound(Cols.begin(), Cols.end(), X);
  if (It == Cols.end() || *It != X)
    return SIZE_MAX;
  return static_cast<size_t>(It - Cols.begin());
}

Simplex::Simplex(uint32_t NumProblemVars, bool BlandPivots)
    : NumProblemVars(NumProblemVars), NumVars(NumProblemVars),
      RowOf(NumProblemVars, ~0u), Beta(NumProblemVars),
      Lo(NumProblemVars), Hi(NumProblemVars),
      LoReason(NumProblemVars, NoReason), HiReason(NumProblemVars, NoReason),
      BlandPivots(BlandPivots), InViolQueue(NumProblemVars, 0),
      ColCount(NumProblemVars, 0) {
  ColNz.resize(NumProblemVars);
  InColNz.resize(NumProblemVars);
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
    // noticed at the next budget probe.
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
      recordClashCert(X, Reason, /*NewUpper=*/true);
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
      recordClashCert(X, Reason, /*NewUpper=*/false);
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
    ++Stats.RowsEliminated;
    Stats.EntriesMerged += N1 + N2;
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

bool Simplex::checkRational() {
  ++Stats.Checks;
  // Leaving variable: the violated basic with the fewest row nonzeros
  // (SparsestRow), or the smallest violated index on a Bland-order
  // tableau (position-predicate contexts; docs/BENCH.md has the A/B
  // behind the split). Entering variable: the eligible column with the
  // fewest tableau nonzeros (anti-fill-in) while the run is short. Past
  // BlandFallbackPivots every selection falls back to Bland's
  // smallest-index order, which terminates unconditionally.
  uint64_t PivotsThisCheck = 0;
  for (;;) {
    // A single feasibility restoration can pivot for a long time on
    // adversarial tableaus; probe the budget and bail out claiming
    // feasibility. A trip is sticky, and every caller that would trust a
    // model checks the budget first, so the white lie only ever leads to
    // an Abort/Unknown. Every 16th pivot, not every one: each probe
    // charges a budget step, and probing per pivot (and at every check's
    // entry) cut FuzzDiffTest's step-limited smoke sweep from 207
    // determinate answers to 189, below its floor of 200.
    if (Bud && (PivotsThisCheck & 15) == 15 &&
        !Bud->checkpoint("lia.simplex"))
      return true;
    bool Bland = PivotsThisCheck >= BlandFallbackPivots;
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
    if (Keep == 0)
      return true;

    uint32_t B = ~0u;
    if (Bland || BlandPivots) {
      for (uint32_t X : ViolQueue)
        if (B == ~0u || X < B)
          B = X;
    } else {
      size_t BestNnz = 0;
      for (uint32_t X : ViolQueue) {
        size_t Nnz = Tableau[RowOf[X]].size();
        if (B == ~0u || Nnz < BestNnz || (Nnz == BestNnz && X < B)) {
          BestNnz = Nnz;
          B = X;
        }
      }
    }
    bool NeedIncrease = Lo[B] && Beta[B] < *Lo[B];
    ++PivotsThisCheck;

    uint32_t N = selectEntering(B, NeedIncrease, Bland);
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
        recordRowCert(B, NeedIncrease);
      return false;
    }
    pivotAndUpdate(B, N, NeedIncrease ? *Lo[B] : *Hi[B]);
  }
}

void Simplex::recordClashCert(uint32_t X, uint32_t NewReason,
                              bool NewUpper) {
  // New bound against the existing opposite bound, unit multipliers:
  // (X <= U) + (X >= L) with U < L sums to 0 <= U - L < 0.
  Cert.clear();
  Cert.push_back({NewReason, X, NewUpper, Rational::one()});
  Cert.push_back(
      {NewUpper ? LoReason[X] : HiReason[X], X, !NewUpper, Rational::one()});
}

void Simplex::recordRowCert(uint32_t B, bool NeedIncrease) {
  const SparseRow &Row = Tableau[RowOf[B]];
  // The row identity value(B) = Σ (Nums[i]/Den)·Cols[i] turns the stuck
  // bounds into a bound on B that contradicts B's violated bound:
  //   NeedIncrease:  -B <= -Lo[B], plus  a_i·X_i <= a_i·Hi_i (a_i > 0)
  //                  and -a_i·X_i <= -a_i·Lo_i (a_i < 0);
  // the variable parts cancel through the row identity and the constant
  // is (max achievable B) - Lo[B] < 0. Mirrored for the upper side.
  Cert.clear();
  Cert.push_back({NeedIncrease ? LoReason[B] : HiReason[B], B,
                  /*Upper=*/!NeedIncrease, Rational::one()});
  for (size_t I = 0; I < Row.size(); ++I) {
    uint32_t X = Row.Cols[I];
    if (X == B || isBasic(X))
      continue;
    bool StuckAtHi = NeedIncrease ? (Row.Nums[I] > 0) : (Row.Nums[I] < 0);
    Int Num = Row.Nums[I];
    Rational Mult(Num < 0 ? -Num : Num, Row.Den);
    Cert.push_back(
        {StuckAtHi ? HiReason[X] : LoReason[X], X, StuckAtHi, Mult});
  }
}
