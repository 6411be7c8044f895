//===- base/Base.h - Common types and small utilities ----------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared primitive types used across the PosTr library: alphabet symbols,
/// string-variable identifiers, and a tiny fallible-result helper used by
/// the exception-free parsers and solvers.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BASE_BASE_H
#define POSTR_BASE_BASE_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace postr {

/// An alphabet symbol. Symbols are small dense integers; the frontend maps
/// source characters onto them and keeps a table for printing.
using Symbol = uint32_t;

/// Identifier of a string variable, dense per-problem.
using VarId = uint32_t;

/// Sentinel for "no variable".
inline constexpr VarId InvalidVar = ~VarId(0);

/// A word over the effective alphabet.
using Word = std::vector<Symbol>;

/// Three-valued solver verdict. `Unknown` is reported when an incomplete
/// path (e.g. non-flat ¬contains under-approximation) gives up, mirroring
/// the behaviour the paper reports for Z3-Noodler.
enum class Verdict { Sat, Unsat, Unknown };

/// Returns a printable name for a verdict.
inline const char *verdictName(Verdict V) {
  switch (V) {
  case Verdict::Sat:
    return "sat";
  case Verdict::Unsat:
    return "unsat";
  case Verdict::Unknown:
    return "unknown";
  }
  assert(false && "invalid verdict");
  return "?";
}

/// One JSON object in the `{"key": value, ...}` layout of the solve
/// stats line and the daemon's counters. Keys and strings are written as
/// given (callers pass identifiers), so nothing is escaped.
class JsonObject {
public:
  JsonObject &num(const char *Key, uint64_t V) {
    return field(Key, std::to_string(V));
  }
  /// A string field, or null when \p V is null.
  JsonObject &str(const char *Key, const char *V) {
    return field(Key, V ? '"' + std::string(V) + '"' : "null");
  }
  JsonObject &flag(const char *Key, bool V) {
    return field(Key, V ? "true" : "false");
  }
  /// Opens a nested object under \p Key; close() ends it.
  JsonObject &open(const char *Key) {
    field(Key, "{");
    First = true;
    return *this;
  }
  JsonObject &close() {
    Out += '}';
    First = false;
    return *this;
  }
  /// The text, with the outermost object closed.
  std::string text() const { return Out + '}'; }

private:
  JsonObject &field(const char *Key, const std::string &V) {
    Out += (First ? "\"" : ", \"") + std::string(Key) + "\": " + V;
    First = false;
    return *this;
  }
  std::string Out = "{";
  bool First = true;
};

/// Minimal fallible result: either a value or a human-readable error.
/// PosTr library code does not use exceptions, so parsers and fallible
/// constructors return `Result<T>`.
template <typename T> class Result {
public:
  /// Constructs a success value.
  static Result success(T Value) {
    Result R;
    R.HasValue = true;
    R.Value = std::move(Value);
    return R;
  }

  /// Constructs a failure carrying a diagnostic message.
  static Result failure(std::string Message) {
    Result R;
    R.HasValue = false;
    R.Message = std::move(Message);
    return R;
  }

  explicit operator bool() const { return HasValue; }

  const T &operator*() const {
    assert(HasValue && "dereferencing failed Result");
    return Value;
  }
  T &operator*() {
    assert(HasValue && "dereferencing failed Result");
    return Value;
  }
  const T *operator->() const { return &operator*(); }
  T *operator->() { return &operator*(); }

  /// Moves the contained value out; only valid on success.
  T take() {
    assert(HasValue && "taking from failed Result");
    return std::move(Value);
  }

  /// The diagnostic message; only valid on failure.
  const std::string &error() const {
    assert(!HasValue && "error() on successful Result");
    return Message;
  }

private:
  Result() = default;
  bool HasValue = false;
  T Value{};
  std::string Message;
};

/// Deterministic 64-bit mix suitable for seeding per-instance RNGs from
/// (family, index) pairs in the benchmark generators.
inline uint64_t hashCombine(uint64_t A, uint64_t B) {
  A ^= B + 0x9e3779b97f4a7c15ULL + (A << 6) + (A >> 2);
  return A;
}

} // namespace postr

#endif // POSTR_BASE_BASE_H
