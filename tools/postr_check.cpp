//===- tools/postr_check.cpp - Independent Unsat certificate checker ------===//
//
// Part of PosTr, a reproduction of "A Uniform Framework for Handling
// Position Constraints in String Solving" (PLDI 2025).
//
// Standalone verifier for `postr-cert` files emitted by the solver
// (POSTR_PROOF_DIR, fuzz --certify). Shares only the proof-format
// parser and the checking kernel with the solver; exit code 0 means
// every disjunct refutation was accepted.
//
//===----------------------------------------------------------------------===//

#include "proof/Check.h"
#include "proof/Proof.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace postr;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [-v] <certificate-file>... (or '-' for stdin)\n"
               "  Verifies postr-cert Unsat certificates. Exit 0: all\n"
               "  accepted; 1: at least one rejected or unreadable.\n"
               "  -v  print kernel counters per file\n",
               Argv0);
  return 2;
}

bool readAll(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream Ss;
    Ss << std::cin.rdbuf();
    Out = Ss.str();
    return true;
  }
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Ss;
  Ss << In.rdbuf();
  Out = Ss.str();
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Verbose = false;
  std::vector<std::string> Files;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "-v")
      Verbose = true;
    else if (A == "-h" || A == "--help")
      return usage(Argv[0]);
    else
      Files.push_back(A);
  }
  if (Files.empty())
    return usage(Argv[0]);

  int Failures = 0;
  for (const std::string &F : Files) {
    std::string Text;
    if (!readAll(F, Text)) {
      std::printf("%s: ERROR cannot read file\n", F.c_str());
      ++Failures;
      continue;
    }
    Result<proof::Certificate> Parsed = proof::parse(Text);
    if (!Parsed) {
      std::printf("%s: REJECTED (parse) %s\n", F.c_str(),
                  Parsed.error().c_str());
      ++Failures;
      continue;
    }
    proof::Certificate Cert = Parsed.take();
    proof::CheckOutcome Out = proof::checkCertificate(Cert);
    if (!Out.Ok) {
      std::printf("%s: REJECTED %s\n", F.c_str(), Out.Error.c_str());
      ++Failures;
      continue;
    }
    std::printf("%s: VERIFIED\n", F.c_str());
    if (Verbose)
      std::printf(
          "  refutations=%u trusted_rules=%u rup_checks=%llu "
          "farkas_leaves=%llu walk_states=%llu mono_root_atoms=%u\n",
          Out.Stats.CheckedRefutations, Out.Stats.TrustedRules,
          static_cast<unsigned long long>(Out.Stats.RupChecks),
          static_cast<unsigned long long>(Out.Stats.FarkasLeaves),
          static_cast<unsigned long long>(Out.Stats.WalkStates),
          Out.Stats.MonoRootAtoms);
  }
  return Failures == 0 ? 0 : 1;
}
