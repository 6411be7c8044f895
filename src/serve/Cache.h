//===- serve/Cache.h - The validated cross-query result cache ---*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-query result cache behind the postr-serve daemon. Real
/// traffic (django route dispatch, biopython alphabet checks) repeats
/// whole queries; a resident server answers a repeat from memory where a
/// one-shot CLI must solve it again.
///
/// `ResultCache` (daemon-wide, shared by all workers) holds whole
/// queries keyed by the *canonical print* of the parsed problem
/// (`smtlib::printProblem`), which normalizes away whitespace, comments,
/// command order noise, and assertion sugar. Collision-proof by
/// construction (the full canonical text is the key; the hash only
/// buckets it). Values are the complete reply (verdict, reason, model
/// comments), so a warm hit is byte-identical to the original reply.
///
/// Insertion is *validated*: a reply is published only after its query
/// completed with a determinate verdict, a passing self-check, and no
/// injected fault (`Response::Publishable`), so a poisoned query
/// contributes nothing to future queries. `ServeOptions::ParanoidHits`
/// additionally re-derives every hit from scratch and compares (test
/// mode).
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_SERVE_CACHE_H
#define POSTR_SERVE_CACHE_H

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace postr {
namespace serve {

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

} // namespace serve
} // namespace postr

#endif // POSTR_SERVE_CACHE_H
