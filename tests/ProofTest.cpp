//===- tests/ProofTest.cpp - Unsat certification tests ------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
//
// The certification stack, bottom to top: hand-built certificates
// through the checker kernel (positive and tampered-negative), solver
// traces from solveQF, assumption-core refutation properties of the
// CDCL core, and the whole pipeline's certify/demote behaviour
// (CertifyUnsat, TamperCert). The tamper tests mirror the TamperModel
// pattern: corruption must be *rejected*, never silently accepted.
//
//===----------------------------------------------------------------------===//

#include "lia/Sat.h"
#include "lia/Solver.h"
#include "proof/Check.h"
#include "proof/Proof.h"
#include "smtlib/Reader.h"
#include "solver/PositionSolver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

using namespace postr;
using strings::Problem;
using strings::StrElem;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built certificates: full control over every byte the kernel sees.
//===----------------------------------------------------------------------===//

/// The smallest real Farkas refutation: atoms a0 ⇔ x0 ≤ 0 and
/// a1 ⇔ 1 − x0 ≤ 0 (i.e. x0 ≥ 1), both asserted as units, refuted by
/// the theory lemma {¬a0, ¬a1} whose certificate is 1·(x0 ≤ 0) +
/// 1·(x0 ≥ 1): the variable parts cancel and the constants sum to −1.
proof::QfProof tinyFarkasProof() {
  proof::QfProof P;
  P.Atoms.push_back({0, 0, {{0, 1}}});
  P.Atoms.push_back({1, 1, {{0, -1}}});
  proof::FarkasLeaf L;
  L.Entries.push_back({proof::FarkasEntry::Kind::Lit, 0, false, {1, 1}});
  L.Entries.push_back({proof::FarkasEntry::Kind::Lit, 2, false, {1, 1}});
  P.Certs.push_back(std::move(L));
  P.Steps.push_back({proof::ClauseStep::Kind::Input, {0}, -1});
  P.Steps.push_back({proof::ClauseStep::Kind::Input, {2}, -1});
  P.Steps.push_back({proof::ClauseStep::Kind::Theory, {1, 3}, 0});
  P.Steps.push_back({proof::ClauseStep::Kind::Final, {}, -1});
  return P;
}

proof::Certificate wrap(proof::QfProof P) {
  proof::Certificate C;
  C.Disjuncts.push_back({false, "", std::move(P)});
  return C;
}

TEST(ProofCheckTest, HandBuiltFarkasRefutationVerifies) {
  proof::CheckOutcome Out = proof::checkCertificate(wrap(tinyFarkasProof()));
  EXPECT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Stats.CheckedRefutations, 1u);
  EXPECT_EQ(Out.Stats.FarkasLeaves, 1u);
}

TEST(ProofCheckTest, TrustedRuleDisjunctsAreCountedNotDerived) {
  proof::Certificate C;
  C.Disjuncts.push_back({true, "one-counter", {}});
  C.Disjuncts.push_back({false, "", tinyFarkasProof()});
  proof::CheckOutcome Out = proof::checkCertificate(C);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  // Rule disjuncts are counted as trusted, never as checked refutations:
  // the two stats partition the disjuncts, so a consumer can tell how
  // much of the certificate rests on axiomatized metatheory.
  EXPECT_EQ(Out.Stats.TrustedRules, 1u);
  EXPECT_EQ(Out.Stats.CheckedRefutations, 1u);
}

TEST(ProofCheckTest, ZeroDisjunctCertificateIsOneTrustedStep) {
  // A complete stabilization that left no disjunct refuted the problem
  // in the front-end (for instance an empty normal-form language): the
  // kernel accepts it and counts that step as trusted.
  proof::CheckOutcome Out = proof::checkCertificate(proof::Certificate{});
  EXPECT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Stats.TrustedRules, 1u);
  EXPECT_EQ(Out.Stats.CheckedRefutations, 0u);
}

TEST(ProofCheckTest, IncompleteStabilizationCertifiesNothing) {
  proof::Certificate C = wrap(tinyFarkasProof());
  C.Complete = false;
  EXPECT_FALSE(proof::checkCertificate(C).Ok);
}

// The four mandated tamper shapes. Each starts from a certificate the
// kernel accepts and applies one corruption; all must be rejected.

TEST(ProofCheckTest, TamperDroppedFarkasTermRejected) {
  proof::QfProof P = tinyFarkasProof();
  P.Certs[0].Entries.pop_back(); // sum no longer cancels x0
  EXPECT_FALSE(proof::checkCertificate(wrap(std::move(P))).Ok);
}

TEST(ProofCheckTest, TamperPerturbedCoefficientRejected) {
  proof::QfProof P = tinyFarkasProof();
  P.Certs[0].Entries[0].Mult = {2, 1}; // +2x0 − x0 ≠ 0
  EXPECT_FALSE(proof::checkCertificate(wrap(std::move(P))).Ok);
}

TEST(ProofCheckTest, TamperUseAfterDeleteRejected) {
  // Delete a clause the later RUP derivation needs: the learnt unit
  // {a0} is no longer reverse-unit-propagatable from the live DB.
  // (Deleting a clause never retracts trail literals it already forced
  // — the standard DRUP-checker convention for unit deletions — so the
  // deleted clause here is a non-unit that has forced nothing yet.)
  auto Build = [] {
    proof::QfProof P;
    P.Atoms.push_back({0, 0, {{0, 1}}});
    P.Atoms.push_back({1, 0, {{1, 1}}});
    // (a0 ∨ a1) (a0 ∨ ¬a1) (¬a0 ∨ a1) (¬a0 ∨ ¬a1): propositionally unsat.
    P.Steps.push_back({proof::ClauseStep::Kind::Input, {0, 2}, -1});
    P.Steps.push_back({proof::ClauseStep::Kind::Input, {0, 3}, -1});
    P.Steps.push_back({proof::ClauseStep::Kind::Input, {1, 2}, -1});
    P.Steps.push_back({proof::ClauseStep::Kind::Input, {1, 3}, -1});
    P.Steps.push_back({proof::ClauseStep::Kind::Learnt, {0}, -1});
    P.Steps.push_back({proof::ClauseStep::Kind::Final, {}, -1});
    return P;
  };
  ASSERT_TRUE(proof::checkCertificate(wrap(Build())).Ok);
  proof::QfProof P = Build();
  // Drop (a0 ∨ ¬a1) before the learnt step that propagates through it.
  P.Steps.insert(P.Steps.begin() + 4,
                 {proof::ClauseStep::Kind::Delete, {0, 3}, -1});
  proof::CheckOutcome Out = proof::checkCertificate(wrap(std::move(P)));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("not RUP"), std::string::npos) << Out.Error;
}

TEST(ProofCheckTest, TamperCertlessTheoryLemmaRejected) {
  // A theory step without a certificate is accepted only as a
  // propositional tautology (an integer split over a fresh atom) that
  // reverse unit propagation confirms. Dropping the Farkas certificate
  // of the tiny refutation's lemma {¬a0, ¬a1} leaves a clause RUP cannot
  // derive from the two unit inputs.
  proof::QfProof P = tinyFarkasProof();
  P.Steps[2].Cert = -1;
  proof::CheckOutcome Out = proof::checkCertificate(wrap(std::move(P)));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("certless theory lemma at step 2 is not RUP"),
            std::string::npos)
      << Out.Error;
}

TEST(ProofCheckTest, TamperTruncatedTraceRejected) {
  proof::QfProof P = tinyFarkasProof();
  P.Steps.pop_back(); // no Final refutation event
  EXPECT_FALSE(proof::checkCertificate(wrap(std::move(P))).Ok);
}

TEST(ProofCheckTest, SerializationRoundTripsByteForByte) {
  proof::Certificate C;
  C.Disjuncts.push_back({true, "empty-language", {}});
  C.Disjuncts.push_back({false, "", tinyFarkasProof()});
  std::string Text = proof::serialize(C);
  Result<proof::Certificate> Parsed = proof::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
  EXPECT_EQ(proof::serialize(*Parsed), Text);
  EXPECT_TRUE(proof::checkCertificate(*Parsed).Ok);
}

TEST(ProofCheckTest, GarbageTextRejectedWithLineInfo) {
  EXPECT_FALSE(static_cast<bool>(proof::parse("not a certificate")));
  const std::string Good = proof::serialize(wrap(tinyFarkasProof()));
  ASSERT_TRUE(static_cast<bool>(proof::parse(Good)));
  auto ExpectRejectedAtLine = [](const std::string &Text) {
    Result<proof::Certificate> R = proof::parse(Text);
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_EQ(R.error().rfind("line ", 0), 0u) << R.error();
  };
  std::string Text = Good;
  Text.resize(Text.size() / 2); // mid-record truncation
  ExpectRejectedAtLine(Text);
  // Another format version is rejected.
  Text = Good;
  Text.replace(0, Text.find('\n'), "postr-cert 1");
  ExpectRejectedAtLine(Text);
  // So is a Farkas entry of unknown kind.
  Text = Good;
  size_t Entry = Text.find(" L 0 1");
  ASSERT_NE(Entry, std::string::npos) << Text;
  Text.replace(Entry, 6, " S 0 1");
  ExpectRejectedAtLine(Text);
}

//===----------------------------------------------------------------------===//
// Walk refutations: bounded counter reachability.
//===----------------------------------------------------------------------===//

/// Start (0, 3). 0 → 1 costs 2, so node 1 holds 1; 1 → 2 costs 2 and
/// would take the counter below 0, so target (2, 0) stays out of reach;
/// 1 → 3 costs 1 and reaches (3, 0), which is no target.
proof::WalkProof tinyWalkProof() {
  proof::WalkProof W;
  W.NumNodes = 4;
  W.Edges = {{0, 1, 2}, {1, 2, 2}, {1, 3, 1}, {3, 3, 0}};
  W.StartNode = 0;
  W.StartValue = 3;
  W.Bound = 3;
  W.Targets = {{2, 0, 0}, {3, 1, 3}};
  return W;
}

proof::Certificate wrapWalk(proof::WalkProof W) {
  proof::Certificate C;
  C.Disjuncts.emplace_back().Walk = std::move(W);
  return C;
}

TEST(ProofWalkTest, RoundTripVerifiesAsCheckedRefutation) {
  std::string Text = proof::serialize(wrapWalk(tinyWalkProof()));
  EXPECT_NE(Text.find("disjunct 0 walk\nwalk 4 4 2 0 3 3\n"),
            std::string::npos)
      << Text;
  Result<proof::Certificate> Parsed = proof::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
  EXPECT_EQ(proof::serialize(*Parsed), Text);
  proof::CheckOutcome Out = proof::checkCertificate(*Parsed);
  EXPECT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.Stats.CheckedRefutations, 1u);
  EXPECT_EQ(Out.Stats.TrustedRules, 0u);
  EXPECT_EQ(Out.Stats.WalkStates, 3u); // (0,3) (1,1) (3,0)
}

TEST(ProofWalkTest, ReachableTargetRejected) {
  proof::WalkProof W = tinyWalkProof();
  W.Targets.push_back({3, 0, 0});
  proof::CheckOutcome Out = proof::checkCertificate(wrapWalk(std::move(W)));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("reachable"), std::string::npos) << Out.Error;
}

TEST(ProofWalkTest, NegativeWeightRejected) {
  // A weight of −1 would let the search climb back to (1, 2) and on to
  // the target (2, 0): the kernel refuses such graphs outright.
  proof::WalkProof W = tinyWalkProof();
  W.Edges.push_back({1, 1, -1});
  proof::CheckOutcome Out = proof::checkCertificate(wrapWalk(std::move(W)));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("negative"), std::string::npos) << Out.Error;
}

TEST(ProofWalkTest, StartPastBoundRejected) {
  proof::WalkProof W = tinyWalkProof();
  W.StartValue = 4; // values above Bound would go unsearched
  proof::CheckOutcome Out = proof::checkCertificate(wrapWalk(std::move(W)));
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("bound"), std::string::npos) << Out.Error;
}

TEST(ProofWalkTest, TruncatedRecordRejected) {
  std::string Text = proof::serialize(wrapWalk(tinyWalkProof()));
  // Drop the last edge line: the header still announces four edges.
  size_t Cut = Text.find("e 3 3 0\n");
  ASSERT_NE(Cut, std::string::npos) << Text;
  std::string Short = Text;
  Short.erase(Cut, std::string("e 3 3 0\n").size());
  EXPECT_FALSE(static_cast<bool>(proof::parse(Short)));
  // And a record cut off mid-way.
  Short = Text.substr(0, Text.find("t 2 0 0"));
  EXPECT_FALSE(static_cast<bool>(proof::parse(Short)));
}

//===----------------------------------------------------------------------===//
// Mono-root rewrites: a predicate over powers of one primitive word
// became a length atom, and the trace refutes the disjunct with it.
//===----------------------------------------------------------------------===//

/// The parsed certificate of \p Smt2, an Unsat the pipeline refutes
/// through one mono-root rewrite.
proof::Certificate monoRootCert(const char *Smt2) {
  Result<Problem> P = smtlib::parseString(Smt2);
  EXPECT_TRUE(static_cast<bool>(P)) << P.error();
  solver::SolveOptions O;
  O.TimeoutMs = 20000;
  O.CertifyUnsat = true;
  solver::SolveResult R = solver::solveProblem(*P, O);
  EXPECT_EQ(R.V, Verdict::Unsat);
  Result<proof::Certificate> C = proof::parse(R.CertText);
  EXPECT_TRUE(static_cast<bool>(C)) << C.error();
  EXPECT_TRUE(C && C->Disjuncts.size() == 1 &&
              C->Disjuncts[0].Rewrite.has_value())
      << R.CertText;
  return C ? *C : proof::Certificate();
}

/// ¬prefixof(x·y, y·x·x) over (ab)*: |x·y| > |y·x·x| is −|x| > 0.
const char *NotPrefixMonoRoot = R"(
  (declare-fun x () String)
  (declare-fun y () String)
  (assert (str.in_re x (re.* (str.to_re "ab"))))
  (assert (str.in_re y (re.* (str.to_re "ab"))))
  (assert (not (str.prefixof (str.++ x y) (str.++ y x x))))
  (check-sat))";

/// x·x ≠ y·y over a* with |x| = |y|: 2|x| − 2|y| ≠ 0 clashes with it.
const char *DiseqMonoRoot = R"(
  (declare-fun x () String)
  (declare-fun y () String)
  (assert (str.in_re x (re.* (str.to_re "a"))))
  (assert (str.in_re y (re.* (str.to_re "a"))))
  (assert (= (str.len x) (str.len y)))
  (assert (not (= (str.++ x x) (str.++ y y))))
  (check-sat))";

proof::MonoRootAtom &onlyAtom(proof::Certificate &C) {
  return C.Disjuncts[0].Rewrite->Atoms.at(0);
}

TEST(ProofMonoRootTest, RewriteRoundTripsAndVerifies) {
  for (const char *Smt2 : {NotPrefixMonoRoot, DiseqMonoRoot}) {
    proof::Certificate C = monoRootCert(Smt2);
    ASSERT_EQ(C.Disjuncts.size(), 1u);
    std::string Text = proof::serialize(C);
    EXPECT_NE(Text.find("\nmono "), std::string::npos) << Text;
    EXPECT_NE(Text.find("\nlen "), std::string::npos) << Text;
    Result<proof::Certificate> Parsed = proof::parse(Text);
    ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
    EXPECT_EQ(proof::serialize(*Parsed), Text);
    proof::CheckOutcome Out = proof::checkCertificate(*Parsed);
    EXPECT_TRUE(Out.Ok) << Out.Error;
    EXPECT_EQ(Out.Stats.CheckedRefutations, 1u);
    EXPECT_EQ(Out.Stats.TrustedRules, 0u);
    EXPECT_EQ(Out.Stats.MonoRootAtoms, 1u);
  }
}

TEST(ProofMonoRootTest, GoalFoldedToFalseCertifies) {
  // Two shapes whose LIA goal folds to false before any atom is defined:
  // a false integer atom beside a mono-root ¬prefixof, and a ground-false
  // mono-root ¬contains(s, s) beside a mono-root ≠ whose atom is not
  // ground. Only atoms that folded may then be in the rewrite record.
  for (const char *Smt2 : {R"(
         (declare-fun s () String)
         (declare-fun n () Int)
         (assert (not (str.prefixof "" (str.++ s s))))
         (assert (= (+ (* 2 n) (* -2 n)) -2))
         (check-sat))",
                           R"(
         (declare-fun s () String)
         (assert (not (= "b" (str.++ s s))))
         (assert (str.in_re s (str.to_re "")))
         (assert (not (str.contains s s)))
         (check-sat))"}) {
    Result<Problem> P = smtlib::parseString(Smt2);
    ASSERT_TRUE(static_cast<bool>(P)) << P.error();
    solver::SolveOptions O;
    O.TimeoutMs = 20000;
    O.CertifyUnsat = true;
    solver::SolveResult R = solver::solveProblem(*P, O);
    EXPECT_EQ(R.V, Verdict::Unsat) << R.Validation.Detail;
    EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  }
}

TEST(ProofMonoRootTest, NotPrefixMappedToGeRejected) {
  proof::Certificate C = monoRootCert(NotPrefixMonoRoot);
  ASSERT_EQ(C.Disjuncts.size(), 1u);
  ASSERT_EQ(onlyAtom(C).K, proof::MonoRootAtom::Kind::NotPrefix);
  onlyAtom(C).Cmp = proof::MonoRootAtom::Op::Ge;
  proof::CheckOutcome Out = proof::checkCertificate(C);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("comparison"), std::string::npos) << Out.Error;
}

TEST(ProofMonoRootTest, DiseqMappedToGtRejected) {
  proof::Certificate C = monoRootCert(DiseqMonoRoot);
  ASSERT_EQ(C.Disjuncts.size(), 1u);
  ASSERT_EQ(onlyAtom(C).K, proof::MonoRootAtom::Kind::Diseq);
  onlyAtom(C).Cmp = proof::MonoRootAtom::Op::Gt;
  proof::CheckOutcome Out = proof::checkCertificate(C);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("comparison"), std::string::npos) << Out.Error;
}

TEST(ProofMonoRootTest, RootThatIsNotPrimitiveRejected) {
  proof::Certificate C = monoRootCert(NotPrefixMonoRoot);
  ASSERT_EQ(C.Disjuncts.size(), 1u);
  std::vector<uint32_t> &Root = onlyAtom(C).Root;
  ASSERT_EQ(Root.size(), 2u);
  Root.insert(Root.end(), Root.begin(), Root.end()); // (ab)(ab)
  proof::CheckOutcome Out = proof::checkCertificate(C);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("primitive"), std::string::npos) << Out.Error;
}

TEST(ProofMonoRootTest, AtomOffItsPredicateOrTraceRejected) {
  // Coefficients that are not occurrence counts of the sides.
  proof::Certificate C = monoRootCert(NotPrefixMonoRoot);
  ASSERT_EQ(C.Disjuncts.size(), 1u);
  onlyAtom(C).Coeffs.at(0).second += 1;
  proof::CheckOutcome Out = proof::checkCertificate(C);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("image"), std::string::npos) << Out.Error;

  // A length term under which the atom is not the trace's.
  C = monoRootCert(NotPrefixMonoRoot);
  ASSERT_EQ(C.Disjuncts.size(), 1u);
  C.Disjuncts[0].Rewrite->Lens.at(0).Coeffs.at(0).second += 1;
  Out = proof::checkCertificate(C);
  EXPECT_FALSE(Out.Ok);
  EXPECT_NE(Out.Error.find("trace"), std::string::npos) << Out.Error;
}

TEST(ProofParseTest, TrailingTokenRejected) {
  // Every record ends after its counted fields: one token more, on a
  // Farkas line, a length term, a mono-root atom or a walk edge, is
  // rejected at its line rather than dropped unread.
  auto ExpectTrailingRejected = [](std::string Text, const std::string &Rec,
                                   const std::string &Extra) {
    size_t At = Text.find(Rec);
    ASSERT_NE(At, std::string::npos) << Rec << " in " << Text;
    size_t Eol = Text.find('\n', At + 1);
    Text.insert(Eol, Extra);
    size_t Line = 1 + std::count(Text.begin(), Text.begin() + Eol, '\n');
    Result<proof::Certificate> R = proof::parse(Text);
    ASSERT_FALSE(static_cast<bool>(R)) << Text;
    EXPECT_EQ(R.error(), "line " + std::to_string(Line) + ": trailing token")
        << Text;
  };
  ExpectTrailingRejected(proof::serialize(wrap(tinyFarkasProof())), "\nc 0 ",
                         " L 99 7");
  std::string Mono = proof::serialize(monoRootCert(NotPrefixMonoRoot));
  ExpectTrailingRejected(Mono, "\nlen ", " 0");
  ExpectTrailingRejected(Mono, "\nmono ", " 0");
  ExpectTrailingRejected(proof::serialize(wrapWalk(tinyWalkProof())),
                         "\ne 0 1 2", " 5");
}

//===----------------------------------------------------------------------===//
// Solver-produced traces: solveQF with a QfTraceBuilder attached.
//===----------------------------------------------------------------------===//

/// Solves \p F with a trace attached, expects Unsat, and returns the
/// kernel's verdict on the trace after a round trip through the text
/// format, exactly like the pipeline does.
proof::CheckOutcome qfUnsatChecked(lia::Arena &A, lia::FormulaId F) {
  proof::QfTraceBuilder B;
  lia::QfOptions O;
  O.Proof = &B;
  lia::QfResult R = lia::solveQF(A, F, O);
  EXPECT_EQ(R.V, Verdict::Unsat);
  std::string Text = proof::serialize(wrap(B.P));
  Result<proof::Certificate> Parsed = proof::parse(Text);
  if (!Parsed) {
    ADD_FAILURE() << Parsed.error();
    return {};
  }
  return proof::checkCertificate(*Parsed);
}

void expectQfUnsatCertified(lia::Arena &A, lia::FormulaId F) {
  proof::CheckOutcome Out = qfUnsatChecked(A, F);
  EXPECT_TRUE(Out.Ok) << Out.Error;
}

TEST(ProofQfTest, BoundClashCertified) {
  lia::Arena A;
  lia::Var X = A.freshVar("x");
  expectQfUnsatCertified(
      A, A.conj({A.cmp(lia::LinTerm::variable(X), lia::Cmp::Le,
                       lia::LinTerm(1)),
                 A.cmp(lia::LinTerm::variable(X), lia::Cmp::Ge,
                       lia::LinTerm(3))}));
}

TEST(ProofQfTest, RowConflictCertified) {
  lia::Arena A;
  lia::Var X = A.freshVar("x"), Y = A.freshVar("y");
  expectQfUnsatCertified(
      A, A.conj({A.cmp(lia::LinTerm::variable(X) + lia::LinTerm::variable(Y),
                       lia::Cmp::Le, lia::LinTerm(1)),
                 A.cmp(lia::LinTerm::variable(X), lia::Cmp::Ge,
                       lia::LinTerm(1)),
                 A.cmp(lia::LinTerm::variable(Y), lia::Cmp::Ge,
                       lia::LinTerm(1))}));
}

TEST(ProofQfTest, IntegralityConflictCertified) {
  // 3x − 3y = 1 inside a box: no single rational Farkas combination
  // refutes it. The search splits on demand, so the trace holds certless
  // split steps (checked by RUP) beside the Farkas-certified lemmas that
  // close each branch, and no trusted rule.
  lia::Arena A;
  lia::Var X = A.freshVar("x", 0, 100), Y = A.freshVar("y", 0, 100);
  proof::CheckOutcome Out = qfUnsatChecked(
      A, A.cmp(lia::LinTerm::variable(X) * 3 - lia::LinTerm::variable(Y) * 3,
               lia::Cmp::Eq, lia::LinTerm(1)));
  EXPECT_TRUE(Out.Ok) << Out.Error;
  EXPECT_GE(Out.Stats.RupChecks, 1u);
  EXPECT_GE(Out.Stats.FarkasLeaves, 2u);
  EXPECT_EQ(Out.Stats.TrustedRules, 0u);
  EXPECT_EQ(Out.Stats.CheckedRefutations, 1u);
}

TEST(ProofQfTest, BooleanTheoryMixCertified) {
  // Disjunctions force CDCL learning, so the trace carries RUP-checked
  // learnt clauses alongside the Farkas-certified theory lemmas.
  lia::Arena A;
  lia::Var X = A.freshVar("x", 0, 10), Y = A.freshVar("y", 0, 10);
  lia::LinTerm TX = lia::LinTerm::variable(X), TY = lia::LinTerm::variable(Y);
  expectQfUnsatCertified(
      A, A.conj({A.disj({A.cmp(TX, lia::Cmp::Ge, lia::LinTerm(5)),
                         A.cmp(TY, lia::Cmp::Ge, lia::LinTerm(5))}),
                 A.cmp(TX + TY, lia::Cmp::Le, lia::LinTerm(3)),
                 A.disj({A.cmp(TX, lia::Cmp::Ge, lia::LinTerm(2)),
                         A.cmp(TY, lia::Cmp::Ge, lia::LinTerm(2))})}));
}

//===----------------------------------------------------------------------===//
// Assumption cores: the refuting-subset contract behind Final events.
//===----------------------------------------------------------------------===//

TEST(SatCoreTest, AssumptionCoreIsGenuinelyRefuting) {
  // Property: re-solving with only the returned core assumptions stays
  // Unsat (the core really is refuting), and across a randomized sweep
  // dropping a single core element can flip the answer to Sat — a
  // minimality smoke, not an exactness claim (the core is the negation
  // of the final conflict clause, not a minimum hitting set).
  std::mt19937 Rng(20250808);
  uint32_t CoresSeen = 0, SingleDropFlips = 0;
  for (int Iter = 0; Iter < 300; ++Iter) {
    lia::SatSolver S;
    const uint32_t N = 6;
    for (uint32_t V = 0; V < N; ++V)
      S.newVar();
    for (int C = 0; C < 15; ++C) {
      std::vector<lia::Lit> Clause;
      for (int K = 0; K < 3; ++K)
        Clause.push_back(lia::Lit(Rng() % N, Rng() % 2 != 0));
      S.addClause(Clause);
    }
    if (S.solve(nullptr) != lia::SatSolver::Res::Sat)
      continue; // globally unsat instances have no assumption cores
    std::vector<lia::Lit> Assumps;
    for (uint32_t V = 0; V < 4; ++V)
      Assumps.push_back(lia::Lit(Rng() % N, Rng() % 2 != 0));
    if (S.solve(nullptr, Assumps) != lia::SatSolver::Res::Unsat)
      continue;
    ASSERT_FALSE(S.globallyUnsat());
    std::vector<lia::Lit> Core = S.assumptionCore();
    ASSERT_FALSE(Core.empty());
    for (lia::Lit L : Core)
      EXPECT_TRUE(std::find(Assumps.begin(), Assumps.end(), L) !=
                  Assumps.end())
          << "core literal is not an assumption";
    // The core must still refute on its own.
    EXPECT_EQ(S.solve(nullptr, Core), lia::SatSolver::Res::Unsat);
    ++CoresSeen;
    for (size_t Drop = 0; Drop < Core.size(); ++Drop) {
      std::vector<lia::Lit> Sub;
      for (size_t I = 0; I < Core.size(); ++I)
        if (I != Drop)
          Sub.push_back(Core[I]);
      if (S.solve(nullptr, Sub) == lia::SatSolver::Res::Sat)
        ++SingleDropFlips;
    }
  }
  // The sweep must actually exercise the property, and minimality must
  // bite somewhere: at least one single-element drop flips to Sat.
  EXPECT_GT(CoresSeen, 10u);
  EXPECT_GT(SingleDropFlips, 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline-level certification: CertifyUnsat and the TamperCert hook.
//===----------------------------------------------------------------------===//

TEST(PipelineCertifyTest, UnsatIsCertifiedEndToEnd) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "a*");
  P.assertIntAtom(strings::IntTerm::lenOf(X), lia::Cmp::Ge,
                  strings::IntTerm::constant(2));
  P.assertIntAtom(strings::IntTerm::lenOf(X), lia::Cmp::Le,
                  strings::IntTerm::constant(1));
  solver::SolveOptions O;
  O.TimeoutMs = 20000;
  O.CertifyUnsat = true;
  solver::SolveResult R = solver::solveProblem(P, O);
  ASSERT_EQ(R.V, Verdict::Unsat);
  EXPECT_EQ(R.Stats.UnsatsCertified, 1u);
  EXPECT_EQ(R.Stats.CertificationFailures, 0u);
  ASSERT_FALSE(R.CertText.empty());
  // The returned text is independently re-checkable, the postr_check way.
  Result<proof::Certificate> Parsed = proof::parse(R.CertText);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.error();
  EXPECT_TRUE(proof::checkCertificate(*Parsed).Ok);
}

TEST(PipelineCertifyTest, SatProducesNoCertificate) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "(a|b){1,3}");
  solver::SolveOptions O;
  O.TimeoutMs = 20000;
  O.CertifyUnsat = true;
  solver::SolveResult R = solver::solveProblem(P, O);
  ASSERT_EQ(R.V, Verdict::Sat);
  EXPECT_EQ(R.Stats.UnsatsCertified, 0u);
  EXPECT_TRUE(R.CertText.empty());
}

TEST(PipelineCertifyTest, TamperedCertificateDemotesToUnknown) {
  Problem P;
  VarId X = P.strVar("x");
  P.assertInRe(X, "ab");
  P.assertDiseq({StrElem::var(X)}, {StrElem::lit("ab")});
  solver::SolveOptions O;
  O.TimeoutMs = 20000;
  O.CertifyUnsat = true;
  O.TamperCert = [](proof::Certificate &C) {
    for (proof::DisjunctCert &D : C.Disjuncts)
      if (!D.IsRule && !D.Proof.Steps.empty()) {
        D.Proof.Steps.pop_back();
        return;
      }
    C.Complete = false; // rule-only certificates: break completeness
  };
  solver::SolveResult R = solver::solveProblem(P, O);
  EXPECT_EQ(R.V, Verdict::Unknown);
  EXPECT_EQ(R.Stats.CertificationFailures, 1u);
  EXPECT_TRUE(R.Validation.Failed);
  EXPECT_EQ(R.Validation.Detail.rfind("certification failure:", 0), 0u)
      << R.Validation.Detail;
  // The rejected certificate is kept as evidence.
  EXPECT_FALSE(R.CertText.empty());
}

} // namespace
