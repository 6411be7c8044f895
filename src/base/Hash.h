//===- base/Hash.h - Hash functors for interning tables ----------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash functors used by the interning tables on the automata and LIA hot
/// paths (product/determinize state maps, Simplex slack-term map, DPLL(T)
/// atom map). All are built on a single splitmix64-style mixer, which is
/// cheap, statelessly seedable, and good enough for the dense integer
/// keys these tables see.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BASE_HASH_H
#define POSTR_BASE_HASH_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace postr {

/// splitmix64 finalizer: a fast full-avalanche 64-bit mixer.
inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Hash functor for std::vector of a 32-bit integral type (determinize
/// subset keys).
struct U32VecHash {
  size_t operator()(const std::vector<uint32_t> &V) const {
    uint64_t H = mix64(V.size());
    for (uint32_t X : V)
      H = mix64(H ^ X);
    return static_cast<size_t>(H);
  }
};

/// Hash functor for the canonical linear-term key used by the Simplex
/// slack interning and the DPLL(T) atom map: a sorted, zero-free
/// (variable, coefficient) vector.
struct TermKeyHash {
  size_t operator()(const std::vector<std::pair<uint32_t, int64_t>> &V) const {
    uint64_t H = mix64(V.size());
    for (const auto &[Var, Coeff] : V) {
      H = mix64(H ^ Var);
      H = mix64(H ^ static_cast<uint64_t>(Coeff));
    }
    return static_cast<size_t>(H);
  }
};

/// Hash functor for (term key, constant) pairs — the atom identity of the
/// DPLL(T) engine.
struct AtomKeyHash {
  size_t operator()(
      const std::pair<std::vector<std::pair<uint32_t, int64_t>>, int64_t> &K)
      const {
    return static_cast<size_t>(
        mix64(TermKeyHash()(K.first) ^ static_cast<uint64_t>(K.second)));
  }
};

} // namespace postr

#endif // POSTR_BASE_HASH_H
