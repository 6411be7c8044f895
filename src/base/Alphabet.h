//===- base/Alphabet.h - Character-to-symbol interning ----------*- C++ -*-===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effective alphabet Γ of a problem instance. Source characters are
/// interned into dense `Symbol` values; the solver additionally reserves
/// fresh sentinel symbols that occur in no input constraint, which is what
/// makes disequalities over "all mentioned characters" satisfiable the way
/// SMT-LIB string semantics require, and what implements the padding
/// symbol □ of Lemma B.1.
///
//===----------------------------------------------------------------------===//

#ifndef POSTR_BASE_ALPHABET_H
#define POSTR_BASE_ALPHABET_H

#include "base/Base.h"

#include <array>
#include <optional>
#include <string_view>

namespace postr {

/// Interns characters as dense symbols; also mints nameless fresh symbols.
class Alphabet {
public:
  Alphabet() { CharToSym.fill(~Symbol(0)); }

  /// Interns \p C, returning its symbol (stable across calls).
  Symbol intern(char C) {
    unsigned char U = static_cast<unsigned char>(C);
    if (CharToSym[U] != ~Symbol(0))
      return CharToSym[U];
    Symbol S = static_cast<Symbol>(SymToChar.size());
    CharToSym[U] = S;
    SymToChar.push_back(static_cast<int>(U));
    return S;
  }

  /// Interns every character of \p Text and returns the resulting word.
  Word internWord(std::string_view Text) {
    Word W;
    W.reserve(Text.size());
    for (char C : Text)
      W.push_back(intern(C));
    return W;
  }

  /// Mints a symbol with no character representation. Used for the
  /// disequality-witness sentinel and the Lemma B.1 padding symbol.
  Symbol freshSymbol() {
    Symbol S = static_cast<Symbol>(SymToChar.size());
    SymToChar.push_back(-1);
    return S;
  }

  /// Looks up the symbol of \p C if already interned.
  std::optional<Symbol> lookup(char C) const {
    Symbol S = CharToSym[static_cast<unsigned char>(C)];
    if (S == ~Symbol(0))
      return std::nullopt;
    return S;
  }

  /// Number of symbols interned so far (= the alphabet size for automata).
  uint32_t size() const { return static_cast<uint32_t>(SymToChar.size()); }

private:
  std::array<Symbol, 256> CharToSym;
  std::vector<int> SymToChar; ///< -1 for nameless fresh symbols.
};

} // namespace postr

#endif // POSTR_BASE_ALPHABET_H
