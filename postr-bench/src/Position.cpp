//===- postr-bench/src/Position.cpp - Footnote-10 position generator ------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// The paper's position-hard class (footnote 10): one position predicate
// over concatenations of 2-4 variables with repetition, each variable
// confined to a flat language r* over a primitive root r of length 1-4.
// The predicate is one of ≠, ¬prefixof, ¬suffixof, ¬contains, str.at and
// ¬str.at. The verdict is known by construction:
//
//  - Unsat variants give every variable the same root, so any two
//    concatenations of the same variables denote powers of one word:
//    equal when the occurrence multisets agree, prefix/suffix/factor of
//    each other when one multiset contains the other, and carrying the
//    letter r[i mod |r|] at every in-range position i.
//  - Sat variants give every variable its own root (distinct primitive
//    words) and a non-empty language r+, and are kept only when the
//    assignment x_j = r_j witnesses the predicate.
//
// Text is written directly as SMT-LIB; the program sees nothing else.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <random>
#include <set>

using namespace pbench;
using postr::Verdict;

namespace {

const char Letters[] = "abc";

/// Cap on the letters one side of the predicate spells under the
/// witness assignment x_j = r_j (the sum of the root lengths over its
/// occurrences). The solver's work grows steeply with it: without the
/// cap 42 of 360 draws ran into the generous cap, with it 4 of 240 did;
/// the recorded list keeps only the draws decided well under the cap.
constexpr size_t MaxWeight = 8;

bool isPrimitive(const std::string &W) {
  return (W + W).find(W, 1) == W.size();
}

std::string randomRoot(std::mt19937_64 &Rng) {
  for (;;) {
    std::string W(1 + Rng() % 4, 'a');
    for (char &C : W)
      C = Letters[Rng() % 3];
    if (isPrimitive(W))
      return W;
  }
}

/// A string term over variables x1..xk.
std::string term(const std::vector<int> &Seq) {
  if (Seq.size() == 1)
    return "x" + std::to_string(Seq[0] + 1);
  std::string Out = "(str.++";
  for (int V : Seq)
    Out += " x" + std::to_string(V + 1);
  return Out + ")";
}

std::string value(const std::vector<int> &Seq,
                  const std::vector<std::string> &Vals) {
  std::string Out;
  for (int V : Seq)
    Out += Vals[V];
  return Out;
}

/// A permutation of \p Seq that differs from it as a sequence.
std::vector<int> otherOrder(std::vector<int> Seq, std::mt19937_64 &Rng) {
  std::vector<int> Out = Seq;
  while (Out == Seq)
    std::shuffle(Out.begin(), Out.end(), Rng);
  return Out;
}

enum PredKind { Diseq, NotPrefix, NotSuffix, NotContains, At, NotAt };
const char *PredNames[] = {"diseq",        "notprefix", "notsuffix",
                           "notcontains", "at",        "notat"};

/// Draws one instance; returns false when a Sat draw's witness fails
/// (the caller redraws).
bool drawOne(std::mt19937_64 &Rng, Query &Out) {
  const int K = 2 + static_cast<int>(Rng() % 3);
  const PredKind Pred = static_cast<PredKind>(Rng() % 6);
  const bool Sat = Rng() % 3 == 0;

  std::vector<std::string> Roots;
  if (Sat) {
    std::set<std::string> Seen;
    while (static_cast<int>(Roots.size()) < K) {
      std::string R = randomRoot(Rng);
      if (Seen.insert(R).second)
        Roots.push_back(R);
    }
  } else {
    Roots.assign(K, randomRoot(Rng));
  }

  // Occurrence sequence: every variable once, plus up to two repeats.
  std::vector<int> S;
  for (int V = 0; V < K; ++V)
    S.push_back(V);
  for (uint64_t E = Rng() % 3; E > 0; --E)
    S.push_back(static_cast<int>(Rng() % K));
  std::shuffle(S.begin(), S.end(), Rng);

  std::string Text = "(set-logic QF_SLIA)\n";
  for (int V = 1; V <= K; ++V)
    Text += "(declare-fun x" + std::to_string(V) + " () String)\n";
  for (int V = 0; V < K; ++V)
    Text += "(assert (str.in_re x" + std::to_string(V + 1) + " (re." +
            (Sat ? "+" : "*") + " (str.to_re \"" + Roots[V] + "\"))))\n";

  const std::vector<std::string> &Witness = Roots; // x_j = r_j
  std::string Assert;
  switch (Pred) {
  case Diseq:
  case NotPrefix:
  case NotSuffix:
  case NotContains: {
    std::vector<int> Other = otherOrder(S, Rng);
    std::vector<int> Lhs = S, Rhs = Other;
    if (!Sat && Pred != Diseq && Rng() % 2 == 0) {
      // A longer haystack: the needle's multiset stays inside it.
      Rhs.insert(Rhs.begin() + static_cast<long>(Rng() % (Rhs.size() + 1)),
                 static_cast<int>(Rng() % K));
    }
    // Sat: equal-length sides differ under the witness, so neither is a
    // prefix, suffix or factor of the other.
    if ((Sat && value(Lhs, Witness) == value(Rhs, Witness)) ||
        value(Rhs, Witness).size() > MaxWeight)
      return false;
    const std::string L = term(Lhs), R = term(Rhs);
    if (Pred == Diseq)
      Assert = "(not (= " + L + " " + R + "))";
    else if (Pred == NotPrefix)
      Assert = "(not (str.prefixof " + L + " " + R + "))";
    else if (Pred == NotSuffix)
      Assert = "(not (str.suffixof " + L + " " + R + "))";
    else
      Assert = "(not (str.contains " + R + " " + L + "))";
    break;
  }
  case At:
  case NotAt: {
    const std::string T = value(S, Witness);
    if (T.size() > MaxWeight)
      return false;
    uint64_t I = Sat ? Rng() % T.size() : Rng() % 8;
    char D;
    if (Sat) {
      // The witness carries T[I] at I: str.at holds, ¬str.at needs
      // another letter there.
      D = T[I];
      if (Pred == NotAt)
        D = Letters[(D - 'a' + 1 + Rng() % 2) % 3];
    } else {
      // Every in-range position I of a power of r carries r[I mod |r|].
      char Forced = Roots[0][I % Roots[0].size()];
      D = Pred == NotAt ? Forced
                        : Letters[(Forced - 'a' + 1 + Rng() % 2) % 3];
    }
    Assert = "(= (str.at " + term(S) + " " + std::to_string(I) + ") \"" +
             std::string(1, D) + "\")";
    if (Pred == NotAt) {
      Assert = "(not " + Assert + ")";
      if (!Sat) // keep I in range, else str.at is "" and ≠ holds
        Text += "(assert (> (str.len " + term(S) + ") " + std::to_string(I) +
                "))\n";
    }
    break;
  }
  }
  Text += "(assert " + Assert + ")\n(check-sat)\n";

  Out.Text = std::move(Text);
  Out.Expected = Sat ? Verdict::Sat : Verdict::Unsat;
  Out.Label = std::string("pos/") + PredNames[Pred] + "/" +
              (Sat ? "sat" : "unsat") + "/k" + std::to_string(K) + "/r" +
              std::to_string(Roots[0].size());
  return true;
}

} // namespace

std::vector<Query> pbench::positionQueries(uint64_t Seed, uint32_t Count) {
  std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull + 0x5eed);
  std::vector<Query> Out;
  std::set<std::string> Seen;
  while (Out.size() < Count) {
    Query Q;
    if (drawOne(Rng, Q) && Seen.insert(Q.Text).second)
      Out.push_back(std::move(Q));
  }
  return Out;
}
