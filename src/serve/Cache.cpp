//===- serve/Cache.cpp - The validated cross-query result cache -----------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//

#include "serve/Cache.h"

namespace postr {
namespace serve {

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

std::optional<CachedReply> ResultCache::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    ++St.Misses;
    return std::nullopt;
  }
  ++St.Hits;
  Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  return It->second.Reply;
}

void ResultCache::publish(const std::string &Key, CachedReply Reply) {
  std::lock_guard<std::mutex> Lock(Mu);
  uint64_t Bytes = entryBytes(Key, Reply);
  // An entry bigger than the whole cache would evict everything and
  // still not fit; refuse it outright.
  if (Bytes > MaxBytes)
    return;
  auto It = Map.find(Key);
  if (It != Map.end()) {
    UsedBytes -= It->second.Bytes;
    It->second.Reply = std::move(Reply);
    It->second.Bytes = Bytes;
    UsedBytes += Bytes;
    Lru.splice(Lru.begin(), Lru, It->second.LruIt);
  } else {
    Lru.push_front(Key);
    Entry E;
    E.Reply = std::move(Reply);
    E.LruIt = Lru.begin();
    E.Bytes = Bytes;
    Map.emplace(Key, std::move(E));
    UsedBytes += Bytes;
  }
  evictUntilFits();
  St.Entries = Map.size();
  St.Bytes = UsedBytes;
}

void ResultCache::rejectPoisoned() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++St.PoisonedRejects;
}

void ResultCache::erase(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end())
    return;
  ++St.ParanoidMismatches;
  UsedBytes -= It->second.Bytes;
  Lru.erase(It->second.LruIt);
  Map.erase(It);
  St.Entries = Map.size();
  St.Bytes = UsedBytes;
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

uint64_t ResultCache::entryBytes(const std::string &Key,
                                 const CachedReply &R) const {
  // Approximate footprint: the strings dominate; the constant covers the
  // node, iterator, and bookkeeping.
  return Key.size() + R.Verdict.size() + R.Reason.size() + R.Body.size() + 128;
}

void ResultCache::evictUntilFits() {
  while (UsedBytes > MaxBytes && !Lru.empty()) {
    auto It = Map.find(Lru.back());
    UsedBytes -= It->second.Bytes;
    Map.erase(It);
    Lru.pop_back();
    ++St.Evictions;
  }
}

} // namespace serve
} // namespace postr
