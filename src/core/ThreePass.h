//===- core/ThreePass.h - Section 4.3: source + block PGO -----*- C++ -*-===//
///
/// \file
/// The paper's three-pass compilation protocol, which keeps source-level
/// PGMP and block-level PGO consistent:
///
///   Pass 1  compile instrumenting *source expressions*; run the
///           representative workload; store the source profile.
///   Pass 2  recompile using the source profile (meta-programs optimize)
///           while instrumenting *basic blocks*; run; store the block
///           profile. The block profile stays valid as long as
///           optimization keeps using this same source profile, because
///           the meta-programs then regenerate identical code.
///   Pass 3  recompile using both profiles: meta-programs use the source
///           weights, the block layout uses the block counts.
///
/// Loading the pass-2 block profile in pass 3 *validates* that the block
/// structure is unchanged; feeding a different source profile breaks the
/// validation, which is exactly the invalidation hazard Section 4.3
/// describes.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_CORE_THREEPASS_H
#define PGMP_CORE_THREEPASS_H

#include "core/Engine.h"
#include "vm/Vm.h"

#include <memory>
#include <string>
#include <vector>

namespace pgmp {

/// Per-stage observability: one entry per pass that ran, carrying the
/// engine's stats so instrumentation overhead is a measured number for
/// each stage of the protocol (pass 1 pays source counters, pass 2 block
/// counters, pass 3 neither).
struct ThreePassStageStats {
  std::string Pass;     ///< "pass1" | "pass2" | "pass3"
  std::string Rendered; ///< StatsRegistry::render() at end of the pass
  uint64_t CounterIncrements = 0;
  uint64_t InstrumentedNodes = 0;
  uint64_t CompiledNodes = 0;
  uint64_t EvalNanos = 0;
};

/// What to build and how to exercise it.
struct ThreePassConfig {
  /// scheme/ libraries to load first (meta-program definitions).
  std::vector<std::string> Libraries;
  /// The program being optimized.
  std::string ProgramSource;
  std::string ProgramName = "program.scm";
  /// Representative workload (evaluated after the program).
  std::string WorkloadSource;
  /// Where the two profiles live between passes.
  std::string SourceProfilePath;
  std::string BlockProfilePath;
  /// Integrity policy: by default a corrupt/stale source profile degrades
  /// to an unoptimized build (with a DiagKind::Warning) and an invalid
  /// block profile just skips layout; in strict mode both abort the pass.
  bool StrictProfile = false;
  /// Tiered execution policy for every pass. Safe in pass 1 because
  /// tiered code bumps the same source counters as the interpreter — the
  /// stored source profile is byte-identical either way.
  TierPolicy Tier;
  /// When set, each pass enables engine stats and appends its stage
  /// report here (observability of the protocol itself).
  std::vector<ThreePassStageStats> *StageStatsOut = nullptr;
};

/// The final, fully optimized build produced by pass 3.
struct OptimizedProgram {
  std::unique_ptr<Engine> E;
  std::unique_ptr<VmRunner> Runner;
  VmModule *Program = nullptr;
  /// True when the pass-2 block profile still matched pass 3's code.
  bool BlockProfileValid = false;
};

/// Pass 1: source-instrumented run; writes the source profile.
bool runPassOne(const ThreePassConfig &Config, std::string &ErrorOut);

/// Pass 2: source-optimized, block-instrumented run; writes the block
/// profile. \p BlocksOut (optional) receives the block structure
/// signature for tests.
bool runPassTwo(const ThreePassConfig &Config, std::string &ErrorOut,
                std::string *BlocksOut = nullptr);

/// Pass 3: both profiles applied; returns a live optimized program.
bool runPassThree(const ThreePassConfig &Config, OptimizedProgram &Out,
                  std::string &ErrorOut);

/// Convenience: all three passes in sequence.
bool runThreePasses(const ThreePassConfig &Config, OptimizedProgram &Out,
                    std::string &ErrorOut);

} // namespace pgmp

#endif // PGMP_CORE_THREEPASS_H
