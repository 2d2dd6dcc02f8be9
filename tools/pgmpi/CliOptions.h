//===- tools/pgmpi/CliOptions.h - Shared pgmpi flag parsing ---*- C++ -*-===//
///
/// \file
/// One parser for the flags every code-evaluating pgmpi subcommand
/// shares. `pgmpi` main and `pgmpi run` historically each parsed guard
/// flags, --tier*, profile paths, and friends with their own copies;
/// `serve` would have been a third. CliOptions is the single copy:
/// subcommands construct one (choosing which optional flag families
/// apply), feed every argument through parseCommonFlag, and handle only
/// their own flags and positional arguments in their loop.
///
/// Usage-error behavior is uniform: a bad value prints one line to stderr
/// and exits with ExitUsage (64), preserving the CLI's 0/1/2/64 exit-code
/// contract.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_TOOLS_PGMPI_CLIOPTIONS_H
#define PGMP_TOOLS_PGMPI_CLIOPTIONS_H

#include "core/EngineOptions.h"

#include <cstdint>
#include <string>
#include <vector>

namespace pgmp {
enum class TierMode : uint8_t;
}

namespace pgmpcli {

/// Sysexits-style EX_USAGE: command-line misuse must stay distinguishable
/// from exit 2, which reports a degraded-but-successful run.
inline constexpr int ExitUsage = 64;

/// Accumulated result of parsing the shared flag families.
struct CliOptions {
  /// Receives guard limits, tier policy, strictness, annotate mode and
  /// stats directly.
  pgmp::EngineOptions Engine;

  std::string ProfileOut; ///< --profile-out FILE
  std::string ProfileIn;  ///< --profile-in FILE
  std::string InjectFault; ///< --inject-fault POINT[:N] (hidden; testing)
  std::vector<std::string> Libs; ///< --lib NAME (repeatable)

  int64_t Jobs = 1;    ///< --jobs N (pool subcommands)
  int64_t Retries = -1; ///< --retries N (pool subcommands; -1 = default)

  //===--------------------------------------------------------------------===//
  // Which optional flag families this subcommand accepts
  //===--------------------------------------------------------------------===//

  /// Accept --jobs / --retries (run, serve). Off for plain `pgmpi`, so
  /// its unknown-option contract is unchanged.
  bool PoolFlags = false;
};

/// Tries Argv[I] as one of the shared flags, consuming its value (and
/// advancing \p I) when it takes one. Returns true when the argument was
/// recognized; exits with ExitUsage on a malformed or missing value.
bool parseCommonFlag(int Argc, char **Argv, int &I, CliOptions &O);

/// Parses a --tier value; exits with a usage error on anything else.
pgmp::TierMode parseTierMode(const std::string &Text);

/// Parses and arms `--inject-fault POINT[:N]` (hidden testing flag): the
/// (N+1)-th hit of the named fault point fails.
void armInjectedFault(const std::string &Spec);

} // namespace pgmpcli

#endif // PGMP_TOOLS_PGMPI_CLIOPTIONS_H
