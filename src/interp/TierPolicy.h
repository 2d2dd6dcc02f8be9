//===- interp/TierPolicy.h - Tiered-execution policy knobs ----*- C++ -*-===//
///
/// \file
/// One struct holding every knob of the tiered-execution pipeline: when
/// closures promote from the tree-walking interpreter to the bytecode VM
/// (mode, threshold, profile pre-marking). It is shared verbatim by
/// EngineOptions (construction-time configuration), Context (the live
/// policy), and ThreePassConfig, so a knob added here is automatically
/// configurable everywhere.
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_INTERP_TIERPOLICY_H
#define PGMP_INTERP_TIERPOLICY_H

#include <cstdint>

namespace pgmp {

/// Tiered execution policy (see DESIGN.md "Tiered execution"): closures
/// start in the tree-walking interpreter and may be compiled to bytecode
/// ("tiered up") once hot. Off — interpreter only. Auto — tier up when a
/// closure's invocation count crosses TierPolicy::Threshold (or
/// immediately when a loaded profile already marks it hot). Always — tier
/// up on first invocation (useful for tests and worst-case validation).
enum class TierMode : uint8_t { Off, Auto, Always };

/// Everything that governs tier-up decisions.
struct TierPolicy {
  /// When closures promote to the bytecode VM. Off by default.
  TierMode Mode{};

  /// Auto mode: invocations before a closure tiers up.
  uint32_t Threshold = 64;

  /// Loaded-profile weight at or above which a closure body is
  /// considered known-hot: it pre-marks at compile time and tiers up on
  /// its first invocation (profile-guided pre-tiering).
  double HotWeight = 0.05;
};

} // namespace pgmp

#endif // PGMP_INTERP_TIERPOLICY_H
