//===- lia/Simplex.h - General simplex over exact rationals -----*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The theory back-end of the DPLL(T) LIA solver: a Dutertre–de Moura
/// style general simplex over exact rationals. It decides rational
/// feasibility of the asserted bounds and explains every infeasibility
/// as a Farkas combination. Integrality is not settled here: the
/// DPLL(T) engine (`lia/Incremental.cpp`) splits on demand, minting an
/// `x <= floor(beta)` atom for a fractional vertex coordinate and
/// leaving the case split to the CDCL core. Together they play the role
/// of the "Simplex method extended with a branch-and-cut strategy" that
/// the paper's implementation delegates to Z3 for (Sec. 8).
///
/// The tableau maintains one row per registered linear term (a slack
/// variable); asserted literals become bounds on original or slack
/// variables. Bounds are backtracked along an assertion trail
/// (`mark`/`rollback`) and reset wholesale to a baseline between solves.
///
/// Rows are sparse: sorted column indices with integer numerators over
/// one common denominator per row. The Parikh/position encoders emit
/// length- and span-sum terms 1000+ monomials wide, so pivots are bound
/// by actual support, the per-entry rational normalization of a dense
/// `vector<Rational>` tableau collapses into a single gcd pass per row,
/// and registering a variable no longer extends every existing row.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_LIA_SIMPLEX_H
#define POSTR_LIA_SIMPLEX_H

#include "base/Hash.h"
#include "lia/Lia.h"
#include "lia/Rational.h"

#include <optional>
#include <unordered_map>
#include <vector>

namespace postr {

class Budget;

namespace lia {

/// Cumulative tableau counters (perf triage; tests/GateTest.cpp pins them
/// on a fixed workload).
struct SimplexStats {
  uint64_t Pivots = 0;   ///< basis changes
  uint64_t Checks = 0;   ///< feasibility scans (checkRational calls)
  uint64_t RowFillIn = 0; ///< entries created by pivot elimination
  uint64_t MaxRowNnz = 0; ///< widest row ever produced
  /// Rows the entering column was substituted out of, over all pivots.
  uint64_t RowsEliminated = 0;
  /// Entries the elimination merges visited (both operand rows): the
  /// deterministic work measure of a pivot.
  uint64_t EntriesMerged = 0;
  uint64_t DenNormalizations = 0; ///< row gcd passes that actually reduced
};

class Simplex {
public:
  /// \p NumProblemVars original integer variables; indices [0,
  /// NumProblemVars) coincide with `Arena` variables. The leaving variable
  /// of each pivot is the violated basic with the fewest row nonzeros
  /// (SparsestRow), or the smallest violated index when \p BlandPivots
  /// is set (Bland's order; see checkRational).
  explicit Simplex(uint32_t NumProblemVars, bool BlandPivots = false);

  /// Sets an intrinsic bound on an original variable (e.g. Parikh
  /// counters are >= 0). INT64_MIN / INT64_MAX mean unbounded.
  void setIntrinsicBounds(Var V, int64_t Lo, int64_t Hi);

  /// Appends a fresh *problem* (integer) variable after construction and
  /// returns its extended index. This is how incremental contexts grow
  /// the tableau when the arena mints variables between solves: the new
  /// variable starts nonbasic at 0 with the given intrinsic bounds, no
  /// existing row is touched, and the current basis stays valid. Note the
  /// returned index is in the *extended* numbering (it lands after any
  /// slack already registered), so callers maintain their own arena-var →
  /// extended-var map.
  uint32_t addProblemVar(int64_t Lo = INT64_MIN, int64_t Hi = INT64_MAX);

  /// Registers the linear part of \p T (its constant is ignored) and
  /// returns the index of the extended variable carrying its value.
  /// Duplicate terms share one slack variable.
  uint32_t rowFor(const LinTerm &T);
  /// Same, over an explicit (sorted, zero-free) coefficient vector in
  /// *extended*-variable space — the incremental context uses this after
  /// translating arena variables through its own map.
  uint32_t rowFor(const std::vector<std::pair<Var, int64_t>> &Coeffs);

  /// Opaque token attached to an asserted bound; conflict explanations
  /// report the tokens of the bounds involved. NoReason-tagged bounds
  /// (intrinsic bounds) are omitted from explanations.
  static constexpr uint32_t NoReason = ~0u;

  /// One term of a recorded Farkas combination: `Mult` (strictly
  /// positive) times the `Upper` or lower bound of extended variable
  /// `ExtVar`, where `Reason` identifies the bound's origin — the
  /// asserting literal code, or NoReason for an intrinsic bound.
  struct FarkasTerm {
    uint32_t Reason = NoReason;
    uint32_t ExtVar = 0;
    bool Upper = false;
    Rational Mult;
  };

  /// Enables Farkas-certificate recording: every subsequent conflict
  /// (failed assert, failed checkRational) leaves its justification in
  /// `conflictCert()`. Off by default — recording never changes search
  /// decisions, but allocation is not free.
  void setCertRecording(bool On) { CertOn = On; }
  /// Farkas combination of the most recent conflict (an immediate bound
  /// clash or an infeasible row); valid immediately after a false
  /// assertUpper/assertLower or checkRational while recording is on.
  const std::vector<FarkasTerm> &conflictCert() const { return Cert; }

  /// Asserts value(X) <= U / >= L. Returns false on an immediate bound
  /// conflict, with `conflictReasons()` filled (the caller then reports
  /// a theory conflict). Tightened bounds are recorded on an assertion
  /// trail for `rollback`.
  bool assertUpper(uint32_t X, const Rational &U, uint32_t Reason = NoReason);
  bool assertLower(uint32_t X, const Rational &L, uint32_t Reason = NoReason);

  /// Assertion-trail position, for backtracking with `rollback`.
  size_t mark() const { return AssertTrail.size(); }
  /// Undoes every bound asserted after \p Mark. The tableau and the
  /// current assignment stay as they are (both remain valid; feasibility
  /// can only improve when bounds get looser).
  void rollback(size_t Mark);

  /// Declares the current bound set the *baseline* (typically right after
  /// the intrinsic bounds). `resetToBaseline` then restores it wholesale
  /// — O(vars) instead of walking a long assertion trail one bound at a
  /// time — while keeping the tableau basis and the current assignment,
  /// which warm-starts the next CEGAR episode from the last vertex.
  void markBaseline();
  /// Restores the baseline bounds. Variables registered after
  /// markBaseline() become unbounded. The assertion trail is cleared
  /// (mark() == 0 afterwards).
  void resetToBaseline();

  /// Rational feasibility of the current bounds. On infeasibility,
  /// `conflictReasons()` holds the reasons of an inconsistent bound set
  /// (the violated basic bound plus the blocking nonbasic bounds — the
  /// standard Dutertre–de Moura explanation). Probes the budget every
  /// 16th pivot; a stopped probe returns true with the vertex possibly
  /// infeasible, so a caller that reads a model off it first checks
  /// that the budget has not tripped.
  bool checkRational();

  /// Reasons explaining the most recent assertUpper/assertLower/
  /// checkRational failure, deduplicated, NoReason entries dropped.
  const std::vector<uint32_t> &conflictReasons() const { return Conflict; }

  /// Current assignment of extended variable \p X (valid after a
  /// successful checkRational()).
  const Rational &value(uint32_t X) const { return Beta[X]; }

  /// Cumulative tableau counters (perf triage).
  const SimplexStats &stats() const { return Stats; }

  /// True when this tableau picks leaving variables in Bland's order.
  bool blandPivots() const { return BlandPivots; }

  /// Attaches a shared resource budget: tableau-row growth (rowFor) is
  /// charged against its memory cap, and checkRational probes it
  /// ("lia.simplex") every 16th pivot.
  void setBudget(Budget *B) { Bud = B; }

private:
  using Int = Rational::Int;

  /// One tableau row: value(BasicVar) = Σ (Nums[i]/Den)·Cols[i]. Cols is
  /// sorted ascending and zero-free — it doubles as the row's exact
  /// support list — and Den > 0 with gcd(Den, Nums...) == 1 (one
  /// normalization pass per mutation, not one per entry).
  struct SparseRow {
    std::vector<uint32_t> Cols;
    std::vector<Int> Nums;
    Int Den = 1;

    size_t size() const { return Cols.size(); }
    /// Index of column \p X, or SIZE_MAX when absent (binary search).
    size_t find(uint32_t X) const;
    bool contains(uint32_t X) const { return find(X) != SIZE_MAX; }
  };

  bool isBasic(uint32_t X) const { return RowOf[X] != ~0u; }
  /// Best entering column for leaving variable \p B (violated on its
  /// lower bound when \p NeedIncrease): fewest tableau nonzeros, smaller
  /// index on ties; plain smallest index under \p Bland. ~0u when no
  /// column is eligible — B's row then certifies infeasibility.
  uint32_t selectEntering(uint32_t B, bool NeedIncrease, bool Bland) const;
  void pivot(uint32_t B, uint32_t N);
  void updateNonbasic(uint32_t N, const Rational &V);
  bool pivotAndUpdate(uint32_t B, uint32_t N, const Rational &V);

  /// Divides the row's numerators and denominator by their common gcd
  /// and records the row's width in the fill statistics.
  void normalizeRow(SparseRow &Row);
  /// Entry (R, X) as a normalized rational (zero when absent).
  Rational rowCoeff(uint32_t R, uint32_t X) const;

  /// True when \p R should appear in a conflict explanation (lemma).
  static bool isLemmaReason(uint32_t R) { return R != NoReason; }
  /// Records the Farkas combination of the immediate clash of a new
  /// bound (\p NewReason, \p NewUpper) on \p X against the existing
  /// opposite bound.
  void recordClashCert(uint32_t X, uint32_t NewReason, bool NewUpper);
  /// Records the Farkas combination read off the infeasible row of
  /// basic \p B.
  void recordRowCert(uint32_t B, bool NeedIncrease);

  struct BoundUndo {
    uint32_t X;
    bool Upper;
    std::optional<Rational> Old;
    uint32_t OldReason;
  };

  uint32_t NumProblemVars;
  uint32_t NumVars; ///< original + slack

  /// Rows: for each basic variable B, Beta[B] == value of row RowOf[B]
  /// under the nonbasic assignment. Sparse — see SparseRow.
  std::vector<SparseRow> Tableau;

  /// Transposed support: for each column X, the rows where X may be
  /// nonzero — stale-tolerant (rows whose entry cancelled to zero linger
  /// until the next walk compacts them), kept duplicate-free via InColNz
  /// — so updateNonbasic/pivotAndUpdate/pivot touch O(col nnz) rows
  /// instead of scanning the whole tableau per column. The per-row
  /// support needs no such scheme: a SparseRow's Cols is exact.
  void noteColNonzero(uint32_t R, uint32_t X) {
    std::vector<uint8_t> &In = InColNz[X];
    if (In.size() <= R)
      In.resize(Tableau.size() + 1, 0);
    if (!In[R]) {
      In[R] = 1;
      ColNz[X].push_back(R);
    }
  }
  /// Compacts ColNz[X] (drops rows whose entry went back to zero) and
  /// returns a reference.
  const std::vector<uint32_t> &compactCol(uint32_t X);
  std::vector<std::vector<uint32_t>> ColNz;  ///< per extended variable
  std::vector<std::vector<uint8_t>> InColNz; ///< per extended variable
  std::vector<uint32_t> RowOf;     ///< var -> row index or ~0u
  std::vector<uint32_t> BasicVar;  ///< row index -> var
  std::vector<Rational> Beta;      ///< current assignment
  std::vector<std::optional<Rational>> Lo, Hi;
  std::vector<uint32_t> LoReason, HiReason; ///< per extended variable

  std::vector<BoundUndo> AssertTrail;
  /// Baseline bound set captured by markBaseline() (sized to the
  /// variable count at capture time; later variables reset to unbounded).
  std::vector<std::optional<Rational>> BaseLo, BaseHi;
  std::vector<uint32_t> BaseLoReason, BaseHiReason;
  std::vector<uint32_t> Conflict;
  bool CertOn = false;
  std::vector<FarkasTerm> Cert;
  SimplexStats Stats;
  bool BlandPivots;
  Budget *Bud = nullptr;

  /// Lazily maintained superset of the basic variables whose β may be
  /// outside their bounds. Every code path that moves a basic β or
  /// tightens a basic bound enqueues the variable; checkRational verifies
  /// entries lazily, making the (dominant) all-feasible check O(queue)
  /// instead of O(rows).
  void touchBasic(uint32_t X) {
    if (!InViolQueue[X]) {
      InViolQueue[X] = true;
      ViolQueue.push_back(X);
    }
  }
  std::vector<uint32_t> ViolQueue;
  std::vector<uint8_t> InViolQueue;

  /// Per-column nonzero count across the tableau, maintained by pivot()
  /// and rowFor(). The entering-variable heuristic prefers sparse
  /// columns, which is the main defence against fill-in.
  std::vector<uint32_t> ColCount;

  /// Reused scratch: dense rational accumulator for rowFor's basic-row
  /// substitution (with its touched-marks), and the merge target of
  /// pivot elimination.
  std::vector<Rational> DenseScratch;
  std::vector<uint8_t> DenseMark;
  std::vector<uint32_t> DenseTouched;
  SparseRow MergeScratch;

  /// Slack interning: canonical (sorted, zero-free) coefficient vector →
  /// extended variable. Hashed — term registration is on the DPLL(T)
  /// setup hot path, one lookup per distinct atom.
  std::unordered_map<std::vector<std::pair<Var, int64_t>>, uint32_t,
                     TermKeyHash>
      TermToVar;
};

} // namespace lia
} // namespace postr

#endif // POSTR_LIA_SIMPLEX_H
