//===- tests/DocsTest.cpp - Documentation coverage checks ------------------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Keeps docs/KNOBS.md from rotting: every `POSTR_*` environment variable
// the sources read (and every CMake `POSTR_*` option) must appear there,
// every knob the doc mentions must still exist, and every field of the
// public options structs must be documented as `Struct::Field`. Pure
// file inspection — no solver linkage; POSTR_SOURCE_DIR is injected by
// CMake.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

#ifndef POSTR_SOURCE_DIR
#error "CMake must define POSTR_SOURCE_DIR for DocsTest"
#endif

const fs::path Root = POSTR_SOURCE_DIR;

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  EXPECT_TRUE(In.good()) << "cannot read " << P;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// All `"POSTR_[A-Z0-9_]+"` string literals under \p Dir (.h/.cpp) — the
/// env-var knob set. Quoting filters out include guards and macro names,
/// which are upper-case but never appear as string literals.
void collectEnvKnobs(const fs::path &Dir, std::set<std::string> &Out) {
  static const std::regex Lit("\"(POSTR_[A-Z0-9_]+)\"");
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(Dir)) {
    if (!E.is_regular_file())
      continue;
    fs::path Ext = E.path().extension();
    if (Ext != ".h" && Ext != ".cpp")
      continue;
    std::string Text = slurp(E.path());
    for (std::sregex_iterator It(Text.begin(), Text.end(), Lit), End;
         It != End; ++It)
      Out.insert((*It)[1].str());
  }
}

/// CMake `option(POSTR_... )` build options — documented alongside the
/// env vars.
void collectCMakeOptions(std::set<std::string> &Out) {
  static const std::regex Opt("option\\(\\s*(POSTR_[A-Z0-9_]+)");
  std::string Text = slurp(Root / "CMakeLists.txt");
  for (std::sregex_iterator It(Text.begin(), Text.end(), Opt), End; It != End;
       ++It)
    Out.insert((*It)[1].str());
}

/// Field names of `struct Name { ... };` in \p Header. Tolerant
/// line-based parse, sufficient for the plain aggregate options structs
/// (no methods, no nested types): a depth-1 line ending in `;` without
/// `(` is a field, whose name is the last identifier before `=`/`;`/`[`.
std::vector<std::string> structFields(const fs::path &Header,
                                      const std::string &Name) {
  std::string Text = slurp(Header);
  size_t Begin = Text.find("struct " + Name + " {");
  EXPECT_NE(Begin, std::string::npos)
      << "struct " << Name << " not found in " << Header;
  std::vector<std::string> Fields;
  if (Begin == std::string::npos)
    return Fields;
  std::istringstream In(Text.substr(Text.find('{', Begin) + 1));
  int Depth = 1;
  std::string Line;
  while (Depth > 0 && std::getline(In, Line)) {
    size_t Comment = Line.find("//");
    if (Comment != std::string::npos)
      Line.resize(Comment);
    for (char C : Line)
      Depth += C == '{' ? 1 : C == '}' ? -1 : 0;
    if (Depth != 1)
      continue;
    size_t End = Line.find_last_not_of(" \t");
    if (End == std::string::npos || Line[End] != ';' ||
        Line.find('(') != std::string::npos)
      continue;
    std::string Decl = Line.substr(0, End);
    if (size_t Eq = Decl.find('='); Eq != std::string::npos)
      Decl.resize(Eq);
    if (size_t Br = Decl.find('['); Br != std::string::npos)
      Decl.resize(Br);
    size_t NameEnd = Decl.find_last_not_of(" \t");
    if (NameEnd == std::string::npos)
      continue;
    size_t NameBegin = NameEnd;
    while (NameBegin > 0 && (std::isalnum(static_cast<unsigned char>(
                                 Decl[NameBegin - 1])) ||
                             Decl[NameBegin - 1] == '_'))
      --NameBegin;
    Fields.push_back(Decl.substr(NameBegin, NameEnd - NameBegin + 1));
  }
  return Fields;
}

TEST(KnobCoverageTest, EveryEnvVarAndBuildOptionIsInKnobsDoc) {
  std::set<std::string> Knobs;
  collectEnvKnobs(Root / "src", Knobs);
  collectEnvKnobs(Root / "bench", Knobs);
  collectEnvKnobs(Root / "examples", Knobs);
  collectEnvKnobs(Root / "tools", Knobs);
  collectCMakeOptions(Knobs);
  ASSERT_FALSE(Knobs.empty()) << "knob scan found nothing — broken scan?";
  std::string Doc = slurp(Root / "docs" / "KNOBS.md");
  for (const std::string &K : Knobs)
    EXPECT_NE(Doc.find(K), std::string::npos)
        << K << " is read by the sources but missing from docs/KNOBS.md";
}

TEST(KnobCoverageTest, KnobsDocMentionsNoDeadKnobs) {
  std::set<std::string> Knobs;
  collectEnvKnobs(Root / "src", Knobs);
  collectEnvKnobs(Root / "bench", Knobs);
  collectEnvKnobs(Root / "examples", Knobs);
  collectEnvKnobs(Root / "tools", Knobs);
  collectCMakeOptions(Knobs);
  std::string Doc = slurp(Root / "docs" / "KNOBS.md");
  static const std::regex Tok("POSTR_[A-Z0-9_]+");
  for (std::sregex_iterator It(Doc.begin(), Doc.end(), Tok), End; It != End;
       ++It)
    EXPECT_TRUE(Knobs.count(It->str()))
        << It->str()
        << " is documented in docs/KNOBS.md but no source reads it";
}

TEST(KnobCoverageTest, EveryOptionsStructFieldIsInKnobsDoc) {
  const std::pair<const char *, const char *> Structs[] = {
      {"src/solver/PositionSolver.h", "SolveOptions"},
      {"src/lia/Solver.h", "QfOptions"},
      {"src/lia/Mbqi.h", "MbqiOptions"},
      {"src/tagaut/MpSolver.h", "MpOptions"},
      {"src/tagaut/Encoder.h", "EncoderOptions"},
      {"src/eq/Stabilize.h", "StabilizeOptions"},
  };
  std::string Doc = slurp(Root / "docs" / "KNOBS.md");
  for (const auto &[Header, Name] : Structs) {
    std::vector<std::string> Fields = structFields(Root / Header, Name);
    EXPECT_FALSE(Fields.empty())
        << Name << " parsed to zero fields — parser or header changed?";
    for (const std::string &F : Fields)
      EXPECT_NE(Doc.find(std::string(Name) + "::" + F), std::string::npos)
          << Name << "::" << F << " (" << Header
          << ") is missing from docs/KNOBS.md";
  }
}

// Knobs deleted on purpose stay deleted: no source may read them again.
// The names are split so that a plain grep for them finds no live use.
// The Simplex pivot-rule override forced one rule process-wide; the pivot
// selection is now computed from the input (docs/BENCH.md). The serve
// automata-op cache lost to recomputation on serve-replay and went with
// its capacity knob; the MBQI tag-transition guard is a constant. The two
// stderr stats printers of the QF engine gave way to SolveStats::Qf and
// the `; stats` line.
TEST(KnobCoverageTest, DeletedEnvKnobsStayOut) {
  std::set<std::string> Knobs;
  collectEnvKnobs(Root / "src", Knobs);
  collectEnvKnobs(Root / "bench", Knobs);
  collectEnvKnobs(Root / "examples", Knobs);
  collectEnvKnobs(Root / "tools", Knobs);
  for (const char *Dead : {"POSTR_SIMPLEX_"
                           "PIVOT_RULE",
                           "POSTR_SERVE_"
                           "OPCACHE_BYTES",
                           "POSTR_MBQI_"
                           "MAX_TA_TRANSITIONS",
                           "POSTR_QF_"
                           "STATS",
                           "POSTR_SIMPLEX_"
                           "STATS"})
    EXPECT_FALSE(Knobs.count(Dead)) << Dead << " was deleted but is read again";
}

// Engines take only a Budget (docs/ARCHITECTURE.md, "Resource
// governance"); a deadline or cancel knob beside it would be a second
// resource mechanism.
TEST(KnobCoverageTest, EngineOptionsTakeOnlyABudget) {
  const std::pair<const char *, const char *> Engines[] = {
      {"src/lia/Solver.h", "QfOptions"},
      {"src/lia/Mbqi.h", "MbqiOptions"},
      {"src/tagaut/MpSolver.h", "MpOptions"},
      {"src/tagaut/Encoder.h", "EncoderOptions"},
      {"src/eq/Stabilize.h", "StabilizeOptions"},
  };
  for (const auto &[Header, Name] : Engines) {
    std::vector<std::string> Fields = structFields(Root / Header, Name);
    EXPECT_FALSE(Fields.empty())
        << Name << " parsed to zero fields — parser or header changed?";
    for (const std::string &F : Fields)
      EXPECT_TRUE(F != "TimeoutMs" && F != "Cancel")
          << Name << "::" << F << " (" << Header
          << ") is a resource knob beside the Budget";
  }
}

// Fields deleted on purpose stay deleted. Each set a value that no
// caller varied: the scratch MBQI loop, nested sub-solve options whose
// Budget would cut a sub-solve off from the solve's deadline, a span
// mode the encoder derives from the predicates, and a switch for the
// Sat-model self-check, which is unconditional. The two baselines'
// deadlines were a second resource mechanism beside their Budget. So
// was solveMP's integer-side callback, which ran twice on one arena; its
// integer side is data (tagaut::IntSide) now.
TEST(KnobCoverageTest, DeletedEngineFieldsStayOut) {
  const struct {
    const char *Header;
    const char *Name;
    std::vector<std::string> Dead;
  } Structs[] = {
      {"src/lia/Mbqi.h", "MbqiOptions", {"Incremental", "Qf"}},
      {"src/tagaut/MpSolver.h", "MpOptions", {"Qf", "Encoder"}},
      {"src/tagaut/Encoder.h", "EncoderOptions", {"Span"}},
      {"src/solver/PositionSolver.h", "SolveOptions", {"ValidateModels"}},
      {"src/solver/Baselines.h", "EqReductionOptions", {"TimeoutMs"}},
      {"src/solver/BruteForce.h", "BruteForceOptions", {"TimeoutMs"}},
  };
  for (const auto &S : Structs) {
    std::vector<std::string> Fields = structFields(Root / S.Header, S.Name);
    EXPECT_FALSE(Fields.empty())
        << S.Name << " parsed to zero fields — parser or header changed?";
    for (const std::string &F : Fields)
      for (const std::string &D : S.Dead)
        EXPECT_NE(F, D) << S.Name << "::" << F << " (" << S.Header
                        << ") was deleted but is declared again";
  }
  EXPECT_EQ(slurp(Root / "src/tagaut/MpSolver.h").find("IntConstraint"
                                                       "Builder"),
            std::string::npos)
      << "the integer-side callback was deleted but is declared again";
}

} // namespace
