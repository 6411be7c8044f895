//===- serve/Cache.h - Validated cross-query caches --------------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two cross-query cache tiers behind the postr-serve daemon. Real
/// traffic (django route dispatch, biopython alphabet checks) repeats
/// the same normalized structures massively; today's memoization lives
/// only within one query, so a resident server wins exactly where a
/// one-shot CLI cannot.
///
/// Tier 1 — `ResultCache` (daemon-wide, shared by all workers): whole
/// queries keyed by the *canonical print* of the parsed problem
/// (`smtlib::printProblem`), which normalizes away whitespace, comments,
/// command order noise, and assertion sugar. Collision-proof by
/// construction (the full canonical text is the key; the hash only
/// buckets it). Values are the complete reply (verdict, reason, model
/// comments), so a warm hit is byte-identical to the original reply.
///
/// Tier 2 — `NfaOpCache` (per worker session): the expensive automata
/// ops — product intersection and subset-construction determinization —
/// keyed by the structural hash of the operand automata, with a full
/// structural-equality check against the stored operands before a hit is
/// served (a hash collision must degrade to a miss, never to a wrong
/// automaton). Because the ops are deterministic functions of their
/// operands, a verified hit is bit-identical to recomputation. Consulted
/// from `automata::intersect`/`automata::determinize` through a
/// thread-local installation scope: zero overhead (one relaxed TLS read)
/// for every non-serve caller, so the gate's construction checksums
/// (tests/GateTest.cpp) are untouched.
///
/// Both tiers insert through a *validated* path: results computed during
/// a query are staged, and published only after the whole query
/// completes with a determinate verdict, a passing self-check, no budget
/// trip, and no injected fault — a poisoned query contributes nothing to
/// future queries. `ServeOptions::ParanoidHits` additionally re-derives
/// every Tier-1 hit from scratch and compares (test mode).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SERVE_CACHE_H
#define POSTR_SERVE_CACHE_H

#include "automata/Nfa.h"

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace postr {
namespace serve {

//===----------------------------------------------------------------------===//
// Tier 1: whole-query result cache
//===----------------------------------------------------------------------===//

/// The cacheable part of a solve reply. Replaying it must be
/// byte-identical to the fresh reply, so everything the client sees is
/// here.
struct CachedReply {
  std::string Verdict; ///< "sat" | "unsat"
  std::string Reason;  ///< empty for determinate verdicts
  int ExitCode = 0;
  std::string Body;    ///< model comment lines
};

struct ResultCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  /// Publishes vetoed by the validation gate (failed self-check,
  /// budget trip, injected fault, indeterminate verdict).
  uint64_t PoisonedRejects = 0;
  /// Paranoid-mode hits whose fresh recomputation disagreed (each one
  /// is a bug; the entry is dropped and the fresh result served).
  uint64_t ParanoidMismatches = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

/// LRU + byte-capped map from canonical problem text to replies.
/// Thread-safe; the daemon's session threads all consult it.
class ResultCache {
public:
  explicit ResultCache(uint64_t MaxBytes) : MaxBytes(MaxBytes) {}

  /// Returns the cached reply and refreshes LRU recency. Counts a hit
  /// or miss.
  std::optional<CachedReply> lookup(const std::string &Key);

  /// Validated insertion: call only after the producing query passed
  /// every gate (see `publishable` logic in Server.cpp). Evicts LRU
  /// entries until the byte cap holds. Re-publishing an existing key
  /// overwrites (the replies are equal by determinism anyway).
  void publish(const std::string &Key, CachedReply Reply);

  /// Records a vetoed publish (for the poisoned counter).
  void rejectPoisoned();

  /// Drops one entry (paranoid-mismatch handling).
  void erase(const std::string &Key);

  ResultCacheStats stats() const;

private:
  uint64_t entryBytes(const std::string &Key, const CachedReply &R) const;
  void evictUntilFits();

  struct Entry {
    CachedReply Reply;
    std::list<std::string>::iterator LruIt;
    uint64_t Bytes = 0;
  };

  mutable std::mutex Mu;
  uint64_t MaxBytes;
  uint64_t UsedBytes = 0;
  std::unordered_map<std::string, Entry> Map;
  /// Most-recent first; holds the keys.
  std::list<std::string> Lru;
  ResultCacheStats St;
};

//===----------------------------------------------------------------------===//
// Tier 2: automata-operation cache
//===----------------------------------------------------------------------===//

/// Structural 64-bit hash of an automaton: alphabet size, state count,
/// initial/final sets, and the normalized (sorted, deduplicated)
/// transition list. Equal automata hash equal; the cache never trusts
/// the converse (see `structurallyEqual`).
uint64_t structuralHash(const automata::Nfa &A);

/// Exact structural equality over the same normalized view.
bool structurallyEqual(const automata::Nfa &A, const automata::Nfa &B);

struct NfaOpCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t StagedDropped = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0;
};

/// Per-worker-session cache of intersect/determinize results,
/// implementing the `automata::NfaOpHook` consulted by those algorithms.
/// NOT thread-safe: one worker session owns it and installs it (via
/// `automata::NfaOpHookScope`) only while that session's thread solves.
/// Quarantining a worker destroys the whole object — a rebuilt worker
/// starts cold by design.
class NfaOpCache final : public automata::NfaOpHook {
public:
  using Op = automata::NfaOp;

  explicit NfaOpCache(uint64_t MaxBytes) : MaxBytes(MaxBytes) {}

  /// Published-or-staged lookup with the structural-equality guard.
  /// Returns a copy of the stored result automaton.
  std::optional<automata::Nfa> lookup(Op O, const automata::Nfa &A,
                                      const automata::Nfa *B) override;

  /// Stages a computed result for the current query. The Nfa.cpp hook
  /// sites only offer complete (never budget-tripped partial) results.
  void stage(Op O, const automata::Nfa &A, const automata::Nfa *B,
             const automata::Nfa &Out) override;

  /// Publishes everything staged since the last publish/drop: the query
  /// completed and passed validation. Evicts LRU entries to the byte
  /// cap.
  void publishStaged();

  /// Discards the staged entries: the query tripped, crashed, or failed
  /// its self-check.
  void dropStaged();

  NfaOpCacheStats stats() const { return St; }

private:
  struct Key {
    Op O;
    uint64_t HashA = 0, HashB = 0;
    bool operator==(const Key &K) const {
      return O == K.O && HashA == K.HashA && HashB == K.HashB;
    }
  };
  struct KeyHash {
    size_t operator()(const Key &K) const {
      return static_cast<size_t>(
          hashCombine(hashCombine(K.HashA, K.HashB),
                      static_cast<uint64_t>(K.O)));
    }
  };
  struct Entry {
    /// Stored operands for the equality guard (B unused for unary ops).
    automata::Nfa A, B;
    bool HasB = false;
    automata::Nfa Out;
    std::list<Key>::iterator LruIt;
    uint64_t Bytes = 0;
  };

  uint64_t nfaBytes(const automata::Nfa &N) const;
  void evictUntilFits();

  uint64_t MaxBytes;
  uint64_t UsedBytes = 0;
  std::unordered_map<Key, Entry, KeyHash> Map;
  std::list<Key> Lru;
  /// Entries computed by the in-flight query, searched after Map and
  /// published or dropped wholesale at query end.
  std::vector<std::pair<Key, Entry>> Staged;
  NfaOpCacheStats St;
};

/// RAII installation of a worker's NfaOpCache for the current thread
/// while it solves (see automata::NfaOpHookScope).
using NfaCacheScope = automata::NfaOpHookScope;

} // namespace serve
} // namespace postr

#endif // POSTR_SERVE_CACHE_H
