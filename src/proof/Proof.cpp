//===- proof/Proof.cpp - Certificate text serialization and parser ---------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Line-based text format, one record per line, whitespace-separated
// tokens, explicit counts before every list so truncation is always a
// parse error:
//
//   postr-cert 2
//   complete 0|1
//   disjuncts N
//   disjunct <i> rule <name>          -- structural short-circuit
//   disjunct <i> walk                 -- counter-reachability refutation
//     walk <nodes> <edges> <targets> <start-node> <start-value> <bound>
//     e <from> <to> <weight>          -- exactly <edges> lines
//     t <node> <lo> <hi>              -- exactly <targets> lines
//   end
//   disjunct <i> qf                   -- clause-trace refutation
//     len <x> <k> {<var> <coeff>}...   -- |x| of string var x
//     mono <kind> <op> <r> {<letter>}... <nl> {<x>}... <nr> {<x>}...
//          <k> {<x> <coeff>}...       -- a predicate and its length atom
//     v <var> <lo|*> <hi|*>
//     atm <satvar> <const> <k> {<var> <coeff>}...
//     c <id> <k> { L <lit> <mult> | B <var> u|l <mult> }...
//     i|l|d|f <k> {<lit>}...
//     t <k> {<lit>}... <certid|->
//   end
//   unsat
//
// Rationals are `num` or `num/den` in decimal (128-bit). A `mono` kind
// is ne|nprefix|nsuffix|ncontains and its op one of le|lt|ge|gt|eq|ne;
// the `mono` record is one line.
//
//===----------------------------------------------------------------------===//

#include "proof/Proof.h"

#include <cctype>
#include <sstream>

using namespace postr;
using namespace postr::proof;

namespace {

std::string render128(__int128 V) {
  if (V == 0)
    return "0";
  bool Neg = V < 0;
  std::string S;
  while (V != 0) {
    int Digit = static_cast<int>(V % 10);
    if (Digit < 0)
      Digit = -Digit;
    S.push_back(static_cast<char>('0' + Digit));
    V /= 10;
  }
  if (Neg)
    S.push_back('-');
  return std::string(S.rbegin(), S.rend());
}

std::string renderRat(const Rat &R) {
  if (R.Den == 1)
    return render128(R.Num);
  return render128(R.Num) + "/" + render128(R.Den);
}

bool parse128(const std::string &Tok, __int128 &Out) {
  size_t I = 0;
  bool Neg = false;
  if (I < Tok.size() && (Tok[I] == '-' || Tok[I] == '+')) {
    Neg = Tok[I] == '-';
    ++I;
  }
  if (I >= Tok.size())
    return false;
  __int128 V = 0;
  // Magnitude guard: |value| must stay below 2^126 so the checker's
  // arithmetic has headroom; certificates near that range are rejected
  // rather than silently wrapped.
  const __int128 Cap = static_cast<__int128>(1) << 120;
  for (; I < Tok.size(); ++I) {
    if (!std::isdigit(static_cast<unsigned char>(Tok[I])))
      return false;
    if (V > Cap)
      return false;
    V = V * 10 + (Tok[I] - '0');
  }
  Out = Neg ? -V : V;
  return true;
}

bool parseRat(const std::string &Tok, Rat &Out) {
  size_t Slash = Tok.find('/');
  if (Slash == std::string::npos) {
    Out.Den = 1;
    return parse128(Tok, Out.Num);
  }
  return parse128(Tok.substr(0, Slash), Out.Num) &&
         parse128(Tok.substr(Slash + 1), Out.Den) && Out.Den > 0;
}

const char *stepTag(ClauseStep::Kind K) {
  switch (K) {
  case ClauseStep::Kind::Input:
    return "i";
  case ClauseStep::Kind::Learnt:
    return "l";
  case ClauseStep::Kind::Theory:
    return "t";
  case ClauseStep::Kind::Delete:
    return "d";
  case ClauseStep::Kind::Final:
    return "f";
  }
  return "?";
}

const char *MonoKindNames[] = {"ne", "nprefix", "nsuffix", "ncontains"};
const char *MonoOpNames[] = {"le", "lt", "ge", "gt", "eq", "ne"};

/// Index of \p Name in \p Names, or -1.
template <size_t N> int indexOf(const char *const (&Names)[N],
                                const std::string &Name) {
  for (size_t I = 0; I < N; ++I)
    if (Name == Names[I])
      return static_cast<int>(I);
  return -1;
}

void serializeTerm(std::ostringstream &Out,
                   const std::vector<std::pair<uint32_t, int64_t>> &Coeffs) {
  Out << ' ' << Coeffs.size();
  for (const auto &[V, C] : Coeffs)
    Out << ' ' << V << ' ' << C;
}

void serializeList(std::ostringstream &Out, const std::vector<uint32_t> &L) {
  Out << ' ' << L.size();
  for (uint32_t X : L)
    Out << ' ' << X;
}

void serializeQf(std::ostringstream &Out, const QfProof &P) {
  for (const VarBounds &B : P.Bounds) {
    Out << "v " << B.Var << ' '
        << (B.HasLo ? std::to_string(B.Lo) : std::string("*")) << ' '
        << (B.HasHi ? std::to_string(B.Hi) : std::string("*")) << '\n';
  }
  for (const LinAtom &A : P.Atoms) {
    Out << "atm " << A.SatVar << ' ' << A.Const;
    serializeTerm(Out, A.Coeffs);
    Out << '\n';
  }
  for (size_t I = 0; I < P.Certs.size(); ++I) {
    Out << "c " << I << ' ' << P.Certs[I].Entries.size();
    for (const FarkasEntry &E : P.Certs[I].Entries) {
      if (E.K == FarkasEntry::Kind::Lit)
        Out << " L " << E.Ref;
      else
        Out << " B " << E.Ref << ' ' << (E.Upper ? 'u' : 'l');
      Out << ' ' << renderRat(E.Mult);
    }
    Out << '\n';
  }
  for (const ClauseStep &S : P.Steps) {
    Out << stepTag(S.K) << ' ' << S.Lits.size();
    for (uint32_t L : S.Lits)
      Out << ' ' << L;
    if (S.K == ClauseStep::Kind::Theory) {
      if (S.Cert >= 0)
        Out << ' ' << S.Cert;
      else
        Out << " -";
    }
    Out << '\n';
  }
}

void serializeRewrite(std::ostringstream &Out, const MonoRootRewrite &R) {
  for (const LenDef &L : R.Lens) {
    Out << "len " << L.StrVar;
    serializeTerm(Out, L.Coeffs);
    Out << '\n';
  }
  for (const MonoRootAtom &M : R.Atoms) {
    Out << "mono " << MonoKindNames[static_cast<int>(M.K)] << ' '
        << MonoOpNames[static_cast<int>(M.Cmp)];
    serializeList(Out, M.Root);
    serializeList(Out, M.Lhs);
    serializeList(Out, M.Rhs);
    serializeTerm(Out, M.Coeffs);
    Out << '\n';
  }
}

void serializeWalk(std::ostringstream &Out, const WalkProof &W) {
  Out << "walk " << W.NumNodes << ' ' << W.Edges.size() << ' '
      << W.Targets.size() << ' ' << W.StartNode << ' ' << W.StartValue << ' '
      << W.Bound << '\n';
  for (const WalkEdge &E : W.Edges)
    Out << "e " << E.From << ' ' << E.To << ' ' << E.Weight << '\n';
  for (const WalkTarget &T : W.Targets)
    Out << "t " << T.Node << ' ' << T.Lo << ' ' << T.Hi << '\n';
}

/// Token-stream parser state over one certificate text.
struct Parser {
  std::istringstream In;
  std::string Line;
  std::istringstream Toks;
  size_t LineNo = 0;
  std::string Err;

  explicit Parser(std::string_view Text) : In(std::string(Text)) {}

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  }

  /// Advances to the next non-empty, non-comment line.
  bool nextLine() {
    while (std::getline(In, Line)) {
      ++LineNo;
      size_t B = Line.find_first_not_of(" \t\r");
      if (B == std::string::npos || Line[B] == ';')
        continue;
      Toks.clear();
      Toks.str(Line);
      return true;
    }
    return fail("unexpected end of certificate");
  }

  bool tok(std::string &Out) {
    if (!(Toks >> Out))
      return fail("missing token");
    return true;
  }
  bool u32(uint32_t &Out) {
    std::string T;
    if (!tok(T))
      return false;
    __int128 V;
    if (!parse128(T, V) || V < 0 || V > UINT32_MAX)
      return fail("bad u32 '" + T + "'");
    Out = static_cast<uint32_t>(V);
    return true;
  }
  bool i64(int64_t &Out) {
    std::string T;
    if (!tok(T))
      return false;
    __int128 V;
    if (!parse128(T, V) || V < INT64_MIN || V > INT64_MAX)
      return fail("bad i64 '" + T + "'");
    Out = static_cast<int64_t>(V);
    return true;
  }
  /// The record line ends after its counted fields.
  bool end() {
    std::string T;
    if (Toks >> T)
      return fail("trailing token");
    return true;
  }
  bool rat(Rat &Out) {
    std::string T;
    if (!tok(T))
      return false;
    if (!parseRat(T, Out))
      return fail("bad rational '" + T + "'");
    return true;
  }
};

bool parseTerm(Parser &P, std::vector<std::pair<uint32_t, int64_t>> &Out) {
  uint32_t N;
  if (!P.u32(N))
    return false;
  Out.resize(N);
  for (auto &[V, C] : Out)
    if (!P.u32(V) || !P.i64(C))
      return false;
  return true;
}

bool parseList(Parser &P, std::vector<uint32_t> &Out) {
  uint32_t N;
  if (!P.u32(N))
    return false;
  Out.resize(N);
  for (uint32_t &X : Out)
    if (!P.u32(X))
      return false;
  return true;
}

bool parseQf(Parser &P, DisjunctCert &D) {
  QfProof &Out = D.Proof;
  // Sections arrive in any order; `end` closes the disjunct.
  for (;;) {
    if (!P.nextLine())
      return false;
    std::string Tag;
    if (!P.tok(Tag))
      return false;
    if (Tag == "end")
      return P.end();
    if (Tag == "len") {
      LenDef L;
      if (!P.u32(L.StrVar) || !parseTerm(P, L.Coeffs) || !P.end())
        return false;
      if (!D.Rewrite)
        D.Rewrite.emplace();
      D.Rewrite->Lens.push_back(std::move(L));
    } else if (Tag == "mono") {
      MonoRootAtom M;
      std::string Kind, Op;
      if (!P.tok(Kind) || !P.tok(Op))
        return false;
      int KindIdx = indexOf(MonoKindNames, Kind);
      int OpIdx = indexOf(MonoOpNames, Op);
      if (KindIdx < 0)
        return P.fail("bad mono kind '" + Kind + "'");
      if (OpIdx < 0)
        return P.fail("bad mono op '" + Op + "'");
      M.K = static_cast<MonoRootAtom::Kind>(KindIdx);
      M.Cmp = static_cast<MonoRootAtom::Op>(OpIdx);
      if (!parseList(P, M.Root) || !parseList(P, M.Lhs) ||
          !parseList(P, M.Rhs) || !parseTerm(P, M.Coeffs) || !P.end())
        return false;
      if (!D.Rewrite)
        D.Rewrite.emplace();
      D.Rewrite->Atoms.push_back(std::move(M));
    } else if (Tag == "v") {
      VarBounds B;
      std::string Lo, Hi;
      if (!P.u32(B.Var) || !P.tok(Lo) || !P.tok(Hi) || !P.end())
        return false;
      __int128 V;
      if (Lo != "*") {
        if (!parse128(Lo, V) || V < INT64_MIN || V > INT64_MAX)
          return P.fail("bad lower bound");
        B.HasLo = true;
        B.Lo = static_cast<int64_t>(V);
      }
      if (Hi != "*") {
        if (!parse128(Hi, V) || V < INT64_MIN || V > INT64_MAX)
          return P.fail("bad upper bound");
        B.HasHi = true;
        B.Hi = static_cast<int64_t>(V);
      }
      Out.Bounds.push_back(B);
    } else if (Tag == "atm") {
      LinAtom A;
      if (!P.u32(A.SatVar) || !P.i64(A.Const) || !parseTerm(P, A.Coeffs) ||
          !P.end())
        return false;
      Out.Atoms.push_back(std::move(A));
    } else if (Tag == "c") {
      uint32_t Id, NE;
      FarkasLeaf C;
      if (!P.u32(Id) || !P.u32(NE))
        return false;
      if (Id != Out.Certs.size())
        return P.fail("cert id out of order");
      C.Entries.resize(NE);
      for (FarkasEntry &E : C.Entries) {
        std::string K;
        if (!P.tok(K))
          return false;
        if (K == "L") {
          E.K = FarkasEntry::Kind::Lit;
          if (!P.u32(E.Ref))
            return false;
        } else if (K == "B") {
          E.K = FarkasEntry::Kind::VarBound;
          std::string Side;
          if (!P.u32(E.Ref) || !P.tok(Side))
            return false;
          if (Side != "u" && Side != "l")
            return P.fail("bad bound side");
          E.Upper = Side == "u";
        } else {
          return P.fail("bad farkas entry kind '" + K + "'");
        }
        if (!P.rat(E.Mult))
          return false;
      }
      if (!P.end())
        return false;
      Out.Certs.push_back(std::move(C));
    } else if (Tag == "i" || Tag == "l" || Tag == "t" || Tag == "d" ||
               Tag == "f") {
      ClauseStep S;
      S.K = Tag == "i"   ? ClauseStep::Kind::Input
            : Tag == "l" ? ClauseStep::Kind::Learnt
            : Tag == "t" ? ClauseStep::Kind::Theory
            : Tag == "d" ? ClauseStep::Kind::Delete
                         : ClauseStep::Kind::Final;
      uint32_t N;
      if (!P.u32(N))
        return false;
      S.Lits.resize(N);
      for (uint32_t &L : S.Lits)
        if (!P.u32(L))
          return false;
      if (S.K == ClauseStep::Kind::Theory) {
        std::string C;
        if (!P.tok(C))
          return false;
        if (C != "-") {
          __int128 V;
          if (!parse128(C, V) || V < 0 || V > INT32_MAX)
            return P.fail("bad cert ref '" + C + "'");
          S.Cert = static_cast<int32_t>(V);
        }
      }
      if (!P.end())
        return false;
      Out.Steps.push_back(std::move(S));
    } else {
      return P.fail("unknown record '" + Tag + "'");
    }
  }
}

bool parseWalk(Parser &P, WalkProof &Out) {
  std::string Tag;
  uint32_t NumEdges, NumTargets;
  if (!P.nextLine() || !P.tok(Tag) || Tag != "walk")
    return P.fail("expected 'walk' header");
  if (!P.u32(Out.NumNodes) || !P.u32(NumEdges) || !P.u32(NumTargets) ||
      !P.u32(Out.StartNode) || !P.i64(Out.StartValue) || !P.i64(Out.Bound) ||
      !P.end())
    return false;
  Out.Edges.resize(NumEdges);
  for (WalkEdge &E : Out.Edges)
    if (!P.nextLine() || !P.tok(Tag) || Tag != "e" || !P.u32(E.From) ||
        !P.u32(E.To) || !P.i64(E.Weight) || !P.end())
      return P.fail("bad walk edge");
  Out.Targets.resize(NumTargets);
  for (WalkTarget &T : Out.Targets)
    if (!P.nextLine() || !P.tok(Tag) || Tag != "t" || !P.u32(T.Node) ||
        !P.i64(T.Lo) || !P.i64(T.Hi) || !P.end())
      return P.fail("bad walk target");
  if (!P.nextLine() || !P.tok(Tag) || Tag != "end" || !P.end())
    return P.fail("expected 'end' after walk targets");
  return true;
}

} // namespace

std::string proof::serialize(const Certificate &C) {
  std::ostringstream Out;
  Out << "postr-cert 2\n";
  Out << "complete " << (C.Complete ? 1 : 0) << '\n';
  Out << "disjuncts " << C.Disjuncts.size() << '\n';
  for (size_t I = 0; I < C.Disjuncts.size(); ++I) {
    const DisjunctCert &D = C.Disjuncts[I];
    if (D.IsRule) {
      Out << "disjunct " << I << " rule " << D.Rule << '\n';
    } else if (D.Walk) {
      Out << "disjunct " << I << " walk\n";
      serializeWalk(Out, *D.Walk);
      Out << "end\n";
    } else {
      Out << "disjunct " << I << " qf\n";
      if (D.Rewrite)
        serializeRewrite(Out, *D.Rewrite);
      serializeQf(Out, D.Proof);
      Out << "end\n";
    }
  }
  Out << "unsat\n";
  return Out.str();
}

Result<Certificate> proof::parse(std::string_view Text) {
  Parser P(Text);
  auto Bail = [&]() { return Result<Certificate>::failure(P.Err); };

  std::string Tag;
  uint32_t Version = 0;
  if (!P.nextLine() || !P.tok(Tag) || Tag != "postr-cert" ||
      !P.u32(Version) || !P.end())
    return P.fail("expected 'postr-cert <version>' header"), Bail();
  if (Version != 2)
    return P.fail("unsupported version"), Bail();

  Certificate C;
  uint32_t Complete = 0, NumDisjuncts = 0;
  if (!P.nextLine() || !P.tok(Tag) || Tag != "complete" ||
      !P.u32(Complete) || !P.end())
    return P.fail("expected 'complete 0|1'"), Bail();
  C.Complete = Complete != 0;
  if (!P.nextLine() || !P.tok(Tag) || Tag != "disjuncts" ||
      !P.u32(NumDisjuncts) || !P.end())
    return P.fail("expected 'disjuncts N'"), Bail();

  C.Disjuncts.resize(NumDisjuncts);
  for (uint32_t I = 0; I < NumDisjuncts; ++I) {
    uint32_t Idx = 0;
    std::string Kind;
    if (!P.nextLine() || !P.tok(Tag) || Tag != "disjunct" || !P.u32(Idx) ||
        !P.tok(Kind))
      return P.fail("expected 'disjunct <i> rule|walk|qf'"), Bail();
    if (Idx != I)
      return P.fail("disjunct index out of order"), Bail();
    DisjunctCert &D = C.Disjuncts[I];
    if (Kind == "rule") {
      D.IsRule = true;
      if (!P.tok(D.Rule))
        return P.fail("missing rule name"), Bail();
      if (!P.end())
        return Bail();
    } else if (Kind == "walk") {
      if (!P.end() || !parseWalk(P, D.Walk.emplace()))
        return Bail();
    } else if (Kind == "qf") {
      if (!P.end() || !parseQf(P, D))
        return Bail();
    } else {
      return P.fail("bad disjunct kind '" + Kind + "'"), Bail();
    }
  }

  if (!P.nextLine() || !P.tok(Tag) || Tag != "unsat" || !P.end())
    return P.fail("expected trailing 'unsat' verdict line"), Bail();
  return Result<Certificate>::success(std::move(C));
}
