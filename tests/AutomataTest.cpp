//===- tests/AutomataTest.cpp - NFA algorithm tests -------------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "automata/Nfa.h"

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>

using namespace postr;
using namespace postr::automata;

namespace {

/// Builds an NFA for (ab)* over symbols {0=a, 1=b}.
Nfa abStar() {
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q0);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, 1, Q0);
  return A;
}

/// Random NFA generator for property tests.
Nfa randomNfa(std::mt19937 &Rng, uint32_t MaxStates, uint32_t Sigma) {
  std::uniform_int_distribution<uint32_t> StateCount(1, MaxStates);
  uint32_t N = StateCount(Rng);
  Nfa A(Sigma);
  A.addStates(N);
  std::uniform_int_distribution<uint32_t> StateDist(0, N - 1);
  std::uniform_int_distribution<uint32_t> SymDist(0, Sigma - 1);
  std::uniform_int_distribution<uint32_t> EdgeCount(0, 2 * N);
  uint32_t E = EdgeCount(Rng);
  for (uint32_t I = 0; I < E; ++I)
    A.addTransition(StateDist(Rng), SymDist(Rng), StateDist(Rng));
  A.markInitial(StateDist(Rng));
  A.markFinal(StateDist(Rng));
  if (Rng() % 2)
    A.markFinal(StateDist(Rng));
  return A;
}

TEST(NfaTest, EmptyAndEpsilonLanguages) {
  Nfa E = Nfa::emptyLanguage(2);
  EXPECT_TRUE(E.isEmpty());
  EXPECT_FALSE(E.accepts({}));

  Nfa Eps = Nfa::epsilonLanguage(2);
  EXPECT_FALSE(Eps.isEmpty());
  EXPECT_TRUE(Eps.accepts({}));
  EXPECT_FALSE(Eps.accepts({0}));
}

TEST(NfaTest, FromWordAcceptsExactlyThatWord) {
  Word W{0, 1, 1, 0};
  Nfa A = Nfa::fromWord(2, W);
  EXPECT_TRUE(A.accepts(W));
  EXPECT_FALSE(A.accepts({0, 1, 1}));
  EXPECT_FALSE(A.accepts({0, 1, 1, 1}));
  EXPECT_EQ(A.enumerateWords(5).size(), 1u);
}

TEST(NfaTest, AbStarMembership) {
  Nfa A = abStar();
  EXPECT_TRUE(A.accepts({}));
  EXPECT_TRUE(A.accepts({0, 1}));
  EXPECT_TRUE(A.accepts({0, 1, 0, 1}));
  EXPECT_FALSE(A.accepts({0}));
  EXPECT_FALSE(A.accepts({1, 0}));
}

TEST(NfaTest, EnumerateWordsMatchesMembership) {
  Nfa A = abStar();
  std::vector<Word> Words = A.enumerateWords(6);
  EXPECT_EQ(Words.size(), 4u); // eps, ab, abab, ababab
  for (const Word &W : Words)
    EXPECT_TRUE(A.accepts(W));
}

TEST(NfaTest, RemoveEpsilonPreservesLanguage) {
  // a then eps then b.
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState(), Q2 = A.addState(),
        Q3 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q3);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, Nfa::Epsilon, Q2);
  A.addTransition(Q2, 1, Q3);
  Nfa B = A.removeEpsilon();
  EXPECT_FALSE(B.hasEpsilon());
  EXPECT_TRUE(B.accepts({0, 1}));
  EXPECT_FALSE(B.accepts({0}));
  EXPECT_FALSE(B.accepts({1}));
}

TEST(NfaTest, IntersectUniteConcatenate) {
  Nfa A = abStar();
  Nfa AllB(2); // b*
  State Q = AllB.addState();
  AllB.markInitial(Q);
  AllB.markFinal(Q);
  AllB.addTransition(Q, 1, Q);

  Nfa I = intersect(A, AllB);
  // (ab)* ∩ b* = {eps}
  EXPECT_TRUE(I.accepts({}));
  EXPECT_EQ(I.enumerateWords(6).size(), 1u);

  Nfa U = unite(A, AllB);
  EXPECT_TRUE(U.accepts({0, 1}));
  EXPECT_TRUE(U.accepts({1, 1}));
  EXPECT_FALSE(U.accepts({0}));

  Nfa C = concatenate(A, AllB).removeEpsilon();
  EXPECT_TRUE(C.accepts({0, 1, 1, 1}));
  EXPECT_TRUE(C.accepts({1}));
  EXPECT_FALSE(C.accepts({0}));
}

TEST(NfaTest, DeterminizeComplementAgreeWithMembership) {
  std::mt19937 Rng(12345);
  for (int Iter = 0; Iter < 50; ++Iter) {
    Nfa A = randomNfa(Rng, 5, 2);
    Nfa D = determinize(A);
    Nfa C = complement(A);
    for (const Word &W : Nfa::universal(2).enumerateWords(5)) {
      EXPECT_EQ(A.accepts(W), D.accepts(W)) << A.debugString();
      EXPECT_EQ(A.accepts(W), !C.accepts(W)) << A.debugString();
    }
  }
}

TEST(NfaTest, ReverseReversesLanguage) {
  Nfa A = Nfa::fromWord(2, {0, 0, 1});
  Nfa R = reverse(A);
  EXPECT_TRUE(R.accepts({1, 0, 0}));
  EXPECT_FALSE(R.accepts({0, 0, 1}));
}

TEST(NfaTest, EquivalentOnSyntacticVariants) {
  Nfa A = abStar();
  // Another (ab)* with redundant states.
  Nfa B(2);
  State Q0 = B.addState(), Q1 = B.addState(), Dead = B.addState();
  B.markInitial(Q0);
  B.markFinal(Q0);
  B.addTransition(Q0, 0, Q1);
  B.addTransition(Q1, 1, Q0);
  B.addTransition(Dead, 0, Dead);
  EXPECT_TRUE(equivalent(A, B));
  Nfa C = Nfa::universal(2);
  EXPECT_FALSE(equivalent(A, C));
}

TEST(NfaTest, ShortestWord) {
  Nfa A = abStar();
  ASSERT_TRUE(A.shortestWordLength().has_value());
  EXPECT_EQ(*A.shortestWordLength(), 0u);

  Nfa B = Nfa::fromWord(2, {0, 1, 0});
  ASSERT_TRUE(B.someWord().has_value());
  EXPECT_EQ(*B.someWord(), (Word{0, 1, 0}));

  EXPECT_FALSE(Nfa::emptyLanguage(2).someWord().has_value());
}

TEST(FlatnessTest, FlatExamplesFromPaper) {
  // (ab)*c((ab)* + (ba)*) is flat (Sec. 2).
  // Build it by hand: loop1 -c-> branch to loop2 or loop3.
  Nfa A(3); // 0=a,1=b,2=c
  State L0 = A.addState(), L1 = A.addState();
  State M0 = A.addState(), M1 = A.addState();
  State N0 = A.addState(), N1 = A.addState();
  A.markInitial(L0);
  A.addTransition(L0, 0, L1);
  A.addTransition(L1, 1, L0);
  A.addTransition(L0, 2, M0);
  A.addTransition(L0, 2, N0);
  A.markFinal(M0);
  A.markFinal(N0);
  A.addTransition(M0, 0, M1);
  A.addTransition(M1, 1, M0);
  A.addTransition(N0, 1, N1);
  A.addTransition(N1, 0, N0);
  EXPECT_TRUE(A.isFlat());
}

TEST(FlatnessTest, NonFlatTwoSelfLoops) {
  // (a+b)* is not flat (Sec. 2 example): two self-loops on one state.
  Nfa A(2);
  State Q = A.addState();
  A.markInitial(Q);
  A.markFinal(Q);
  A.addTransition(Q, 0, Q);
  A.addTransition(Q, 1, Q);
  EXPECT_FALSE(A.isFlat());
}

TEST(FlatnessTest, NestedLoopsNotFlat) {
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q0);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, 1, Q0);
  A.addTransition(Q1, 0, Q1); // nested self-loop
  EXPECT_FALSE(A.isFlat());
}

TEST(FlatnessTest, WordAutomatonIsFlat) {
  EXPECT_TRUE(Nfa::fromWord(2, {0, 1, 0}).isFlat());
  EXPECT_TRUE(Nfa::epsilonLanguage(2).isFlat());
}

TEST(FlatnessTest, SingleSelfLoopIsFlat) {
  // a* is flat.
  Nfa A(2);
  State Q = A.addState();
  A.markInitial(Q);
  A.markFinal(Q);
  A.addTransition(Q, 0, Q);
  EXPECT_TRUE(A.isFlat());
}

/// Random NFA that may also carry ε-transitions.
Nfa randomNfaEps(std::mt19937 &Rng, uint32_t MaxStates, uint32_t Sigma,
                 uint32_t EpsEdges) {
  Nfa A = randomNfa(Rng, MaxStates, Sigma);
  uint32_t N = A.numStates();
  std::uniform_int_distribution<uint32_t> StateDist(0, N - 1);
  for (uint32_t I = 0; I < EpsEdges; ++I)
    A.addTransition(StateDist(Rng), Nfa::Epsilon, StateDist(Rng));
  return A;
}

TEST(NfaTest, HasEpsilonFlag) {
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q1);
  EXPECT_FALSE(A.hasEpsilon());
  A.addTransition(Q0, 0, Q1);
  EXPECT_FALSE(A.hasEpsilon());
  A.addTransition(Q0, Nfa::Epsilon, Q1);
  EXPECT_TRUE(A.hasEpsilon());
  EXPECT_FALSE(A.removeEpsilon().hasEpsilon());
}

// Property: the hashed-interning determinization is language-equivalent
// to the source NFA under the bounded word-enumeration oracle, including
// on inputs with ε-transitions (and the result is a complete DFA).
TEST(NfaTest, DeterminizeMatchesEnumerationOracle) {
  std::mt19937 Rng(777);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Nfa A = randomNfaEps(Rng, 6, 2, Iter % 3);
    Nfa D = determinize(A);
    EXPECT_FALSE(D.hasEpsilon());
    EXPECT_EQ(A.enumerateWords(5), D.enumerateWords(5)) << A.debugString();
    // Completeness: every state has exactly Sigma out-transitions.
    for (State Q = 0; Q < D.numStates(); ++Q) {
      auto [Begin, End] = D.outgoing(Q);
      EXPECT_EQ(static_cast<uint32_t>(End - Begin), D.alphabetSize());
    }
  }
}

// Property: the hashed-interning product accepts exactly the
// intersection of the two languages (brute-force oracle).
TEST(NfaTest, IntersectMatchesEnumerationOracle) {
  std::mt19937 Rng(4242);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Nfa A = randomNfaEps(Rng, 5, 2, Iter % 2).removeEpsilon();
    Nfa B = randomNfaEps(Rng, 5, 2, Iter % 2).removeEpsilon();
    Nfa P = intersect(A, B);
    std::vector<Word> Expect;
    for (const Word &W : A.enumerateWords(5))
      if (B.accepts(W))
        Expect.push_back(W);
    EXPECT_EQ(P.enumerateWords(5), Expect)
        << A.debugString() << " x " << B.debugString();
  }
}

// Property: the SCC-memoized ε-removal preserves the language, also
// through ε-cycles and ε-chains.
TEST(NfaTest, RemoveEpsilonMatchesEnumerationOracle) {
  std::mt19937 Rng(31337);
  for (int Iter = 0; Iter < 60; ++Iter) {
    Nfa A = randomNfaEps(Rng, 6, 2, 1 + Iter % 4);
    Nfa B = A.removeEpsilon();
    EXPECT_FALSE(B.hasEpsilon());
    EXPECT_EQ(A.enumerateWords(5), B.enumerateWords(5)) << A.debugString();
  }
}

TEST(NfaTest, RemoveEpsilonHandlesEpsilonCycle) {
  // Q0 -ε-> Q1 -ε-> Q2 -ε-> Q0 cycle with exits: accepts {a, b}.
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState(), Q2 = A.addState(),
        QF = A.addState();
  A.markInitial(Q0);
  A.markFinal(QF);
  A.addTransition(Q0, Nfa::Epsilon, Q1);
  A.addTransition(Q1, Nfa::Epsilon, Q2);
  A.addTransition(Q2, Nfa::Epsilon, Q0);
  A.addTransition(Q1, 0, QF);
  A.addTransition(Q2, 1, QF);
  Nfa B = A.removeEpsilon();
  EXPECT_TRUE(B.accepts({0}));
  EXPECT_TRUE(B.accepts({1}));
  EXPECT_FALSE(B.accepts({}));
  EXPECT_FALSE(B.accepts({0, 1}));
}

TEST(NfaTest, TrimDropsUnreachableAndDead) {
  Nfa A(2);
  State Q0 = A.addState(), Q1 = A.addState(), Q2 = A.addState(),
        Q3 = A.addState();
  A.markInitial(Q0);
  A.markFinal(Q1);
  A.addTransition(Q0, 0, Q1);
  A.addTransition(Q1, 0, Q2); // dead: Q2 cannot reach final
  A.addTransition(Q3, 1, Q1); // unreachable
  Nfa T = A.trim();
  EXPECT_EQ(T.numStates(), 2u);
  EXPECT_TRUE(T.accepts({0}));
}

/// Logs the hook calls as a string: 'L' per lookup, 'S' per stage.
class LoggingHook : public NfaOpHook {
public:
  std::string Log;
  std::optional<Nfa> lookup(NfaOp, const Nfa &, const Nfa *) override {
    Log += 'L';
    return std::nullopt;
  }
  void stage(NfaOp, const Nfa &, const Nfa *, const Nfa &) override {
    Log += 'S';
  }
};

TEST(NfaTest, OpHookSeesEachOpOnlyInsideItsScope) {
  // postr-bench's automata.* metrics count a lookup followed by a stage
  // as one completed op; outside the scope the hook sees nothing.
  LoggingHook H;
  Nfa A = abStar();
  {
    NfaOpHookScope Scope(&H);
    intersect(A, A);
    determinize(A);
  }
  intersect(A, A);
  EXPECT_EQ(H.Log, "LSLS");
}

} // namespace
