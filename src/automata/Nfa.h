//===- automata/Nfa.h - Nondeterministic finite automata --------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact NFA representation and the algorithms the position-constraint
/// framework needs: ε-removal, trimming, product intersection, union,
/// concatenation, determinization, complementation, emptiness/membership,
/// bounded word enumeration (for the test oracles), and the structural
/// flatness check from Sec. 2 of the paper (DAGs of simple, non-nested
/// loops), which gates the ¬contains encoding of Sec. 6.4.
///
/// This module plays the role of the Mata automata library [29] in the
/// paper's implementation.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_AUTOMATA_NFA_H
#define POSTR_AUTOMATA_NFA_H

#include "base/Base.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace postr {

class Budget;

namespace automata {

/// State index inside one automaton.
using State = uint32_t;

/// A labelled transition. `Sym == Nfa::Epsilon` marks an ε-transition.
struct Transition {
  State From;
  Symbol Sym;
  State To;

  friend bool operator==(const Transition &A, const Transition &B) {
    return A.From == B.From && A.Sym == B.Sym && A.To == B.To;
  }
  friend auto operator<=>(const Transition &A, const Transition &B) = default;
};

/// A nondeterministic finite automaton over a dense symbol alphabet
/// {0, ..., AlphabetSize-1}, with optional ε-transitions.
///
/// The representation favours the constructions in this code base: a flat,
/// sorted transition vector (deterministic iteration order; the Parikh and
/// tag-automaton builders index transitions by position) plus a CSR-style
/// per-state row index rebuilt once per normalize() and cached until the
/// next mutation.
class Nfa {
public:
  /// Reserved symbol value denoting an ε-transition.
  static constexpr Symbol Epsilon = ~Symbol(0);

  Nfa() = default;
  explicit Nfa(uint32_t AlphabetSize) : AlphabetSz(AlphabetSize) {}

  /// Adds a fresh state and returns its index.
  State addState() {
    IsInitial.push_back(false);
    IsFinal.push_back(false);
    return static_cast<State>(IsInitial.size() - 1);
  }

  /// Adds \p N fresh states, returning the index of the first.
  State addStates(uint32_t N) {
    State First = numStates();
    IsInitial.resize(IsInitial.size() + N, false);
    IsFinal.resize(IsFinal.size() + N, false);
    return First;
  }

  void addTransition(State From, Symbol Sym, State To) {
    assert(From < numStates() && To < numStates() && "state out of range");
    assert((Sym == Epsilon || Sym < AlphabetSz) && "symbol out of range");
    Delta.push_back({From, Sym, To});
    Dirty = true;
    HasEps |= Sym == Epsilon;
  }

  void markInitial(State Q) { IsInitial[Q] = true; }
  void markFinal(State Q) { IsFinal[Q] = true; }

  uint32_t numStates() const { return static_cast<uint32_t>(IsInitial.size()); }
  uint32_t numTransitions() const {
    return static_cast<uint32_t>(Delta.size());
  }
  uint32_t alphabetSize() const { return AlphabetSz; }
  void setAlphabetSize(uint32_t N) { AlphabetSz = N; }

  bool isInitial(State Q) const { return IsInitial[Q]; }
  bool isFinal(State Q) const { return IsFinal[Q]; }

  /// All transitions, sorted by (From, Sym, To) and deduplicated.
  const std::vector<Transition> &transitions() const {
    normalize();
    return Delta;
  }

  /// Transitions leaving \p Q (sorted). Valid until the next mutation.
  std::pair<const Transition *, const Transition *> outgoing(State Q) const;

  /// Transitions leaving \p Q labelled exactly \p Sym (binary search in
  /// the sorted per-state range). Valid until the next mutation.
  std::pair<const Transition *, const Transition *>
  outgoingSym(State Q, Symbol Sym) const;

  std::vector<State> initialStates() const;
  std::vector<State> finalStates() const;

  /// True if the automaton has at least one ε-transition. O(1): the flag
  /// is maintained by addTransition (transitions are never removed from a
  /// live automaton; the construction algorithms build fresh ones).
  bool hasEpsilon() const { return HasEps; }

  //===--------------------------------------------------------------------===
  // Algorithms. All are pure (return new automata) unless stated otherwise.
  //===--------------------------------------------------------------------===

  /// Returns an equivalent ε-free automaton (forward ε-closure folding).
  /// When \p B is supplied and trips mid-construction, the (partial) result
  /// is returned and the caller must check `B->exceeded()` before using it.
  Nfa removeEpsilon(Budget *B = nullptr) const;

  /// Removes states that are unreachable or cannot reach a final state.
  /// ε-transitions are preserved.
  Nfa trim() const;

  /// Language emptiness. Works with ε-transitions present.
  bool isEmpty() const;

  /// Does the automaton accept \p W? Works with ε-transitions present.
  bool accepts(const Word &W) const;

  /// Length of some shortest accepted word, if the language is non-empty.
  std::optional<uint32_t> shortestWordLength() const;

  /// Some shortest accepted word, if the language is non-empty.
  std::optional<Word> someWord() const;

  /// All accepted words of length <= \p MaxLen, lexicographically sorted.
  /// Intended for the brute-force test oracles; exponential in MaxLen.
  std::vector<Word> enumerateWords(uint32_t MaxLen) const;

  /// Structural flatness check (Sec. 2): after trimming, every SCC must be
  /// either a singleton without a self-loop or a single simple cycle in
  /// which each state has exactly one intra-SCC outgoing transition.
  /// Flat automata are exactly those whose runs are determined by their
  /// Parikh images, the property the ¬contains encoding relies on.
  bool isFlat() const;

  /// Renders the automaton in a compact one-line debug format.
  std::string debugString() const;

  //===--------------------------------------------------------------------===
  // Constructors for common languages.
  //===--------------------------------------------------------------------===

  /// The singleton language {W}.
  static Nfa fromWord(uint32_t AlphabetSize, const Word &W);

  /// The language of all words over the alphabet (universal language).
  static Nfa universal(uint32_t AlphabetSize);

  /// The empty language.
  static Nfa emptyLanguage(uint32_t AlphabetSize);

  /// The language {ε}.
  static Nfa epsilonLanguage(uint32_t AlphabetSize);

private:
  friend Nfa intersect(const Nfa &, const Nfa &, Budget *);
  friend Nfa unite(const Nfa &, const Nfa &);
  friend Nfa concatenate(const Nfa &, const Nfa &);
  friend Nfa determinize(const Nfa &, Budget *);
  friend Nfa complement(const Nfa &, Budget *);
  friend Nfa reverse(const Nfa &);

  /// Sorts and deduplicates the transition vector and rebuilds the
  /// per-state index. Logically const; caches are mutable.
  void normalize() const;

  /// ε-closure of a set of states (expects normalized Delta).
  std::vector<State> epsClosure(const std::vector<State> &Set) const;

  /// Scratch-buffer ε-closure: grows \p Set in place with every state
  /// ε-reachable from it. \p Mark is a caller-owned stamp buffer of size
  /// numStates(); entries equal to \p Stamp are treated as already in the
  /// set (states of \p Set must be pre-stamped by the caller). Avoids the
  /// per-call O(numStates) allocation of `epsClosure`; the result is NOT
  /// sorted.
  void epsClosureGrow(std::vector<State> &Set, std::vector<uint32_t> &Mark,
                      uint32_t Stamp) const;

  uint32_t AlphabetSz = 0;
  mutable std::vector<Transition> Delta;
  /// Index of the first transition of each state in Delta (size
  /// numStates()+1), valid when !Dirty.
  mutable std::vector<uint32_t> RowBegin;
  mutable bool Dirty = false;
  bool HasEps = false;
  std::vector<bool> IsInitial;
  std::vector<bool> IsFinal;
};

/// Product-construction intersection of two ε-free automata (call
/// removeEpsilon() first if needed; asserts on ε-transitions). These are
/// the exponential-blowup stages, so each takes an optional cooperative
/// `Budget`: probes run at worklist pops (sites "nfa.intersect",
/// "nfa.determinize", "nfa.epsilon") and output growth is charged against
/// the memory cap. On a trip the partial automaton is returned; callers
/// must check `Bud->exceeded()` before trusting the result.
Nfa intersect(const Nfa &A, const Nfa &B, Budget *Bud = nullptr);

/// Disjoint union (language union).
Nfa unite(const Nfa &A, const Nfa &B);

/// Language concatenation via ε-linking of final to initial states.
Nfa concatenate(const Nfa &A, const Nfa &B);

/// Subset construction; the result is a complete DFA (with an explicit
/// sink state) whose initial state is state 0.
Nfa determinize(const Nfa &A, Budget *Bud = nullptr);

/// Complement over the automaton's alphabet (determinize + flip).
Nfa complement(const Nfa &A, Budget *Bud = nullptr);

/// Reverses the language (transitions flipped, initial/final swapped).
Nfa reverse(const Nfa &A);

/// Language equivalence through complement/intersection emptiness.
/// Exponential in the worst case; intended for tests.
bool equivalent(const Nfa &A, const Nfa &B);

//===----------------------------------------------------------------------===//
// Operation hook
//===----------------------------------------------------------------------===//

/// The hooked operations. Both are deterministic functions of their
/// operands, so a hook that answered a lookup with a stored result would
/// replay exactly what recomputation gives.
enum class NfaOp : uint8_t { Intersect, Determinize };

/// Optional per-thread observer consulted by intersect() and
/// determinize() before computing and offered the full (never
/// budget-tripped partial) result afterwards. Its one user is
/// postr-bench's `CountingHook` (postr-bench/src/Serial.cpp), which never
/// answers a lookup and times the op between lookup and stage for the
/// `automata.*` layer metrics. With no hook installed the cost is one
/// thread-local read.
class NfaOpHook {
public:
  virtual ~NfaOpHook() = default;
  /// Returns a stored result for (O, A, B), or nullopt. B is null for
  /// unary ops.
  virtual std::optional<Nfa> lookup(NfaOp O, const Nfa &A, const Nfa *B) = 0;
  /// Offers a freshly computed complete result for keeping.
  virtual void stage(NfaOp O, const Nfa &A, const Nfa *B, const Nfa &Out) = 0;
};

/// The hook installed for the current thread, if any.
NfaOpHook *activeNfaOpHook();

/// RAII installation of \p H as the current thread's hook; restores the
/// previous hook on destruction (scopes nest).
class NfaOpHookScope {
public:
  explicit NfaOpHookScope(NfaOpHook *H);
  ~NfaOpHookScope();
  NfaOpHookScope(const NfaOpHookScope &) = delete;
  NfaOpHookScope &operator=(const NfaOpHookScope &) = delete;

private:
  NfaOpHook *Prev;
};

} // namespace automata
} // namespace postr

#endif // POSTR_AUTOMATA_NFA_H
