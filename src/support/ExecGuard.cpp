//===- support/ExecGuard.cpp ----------------------------------------------===//

#include "support/ExecGuard.h"

#include "support/Stats.h"

using namespace pgmp;

const char *pgmp::guardKindName(GuardKind K) {
  switch (K) {
  case GuardKind::None:
    return "none";
  case GuardKind::Fuel:
    return "fuel";
  case GuardKind::Depth:
    return "depth";
  case GuardKind::Heap:
    return "heap";
  case GuardKind::Deadline:
    return "deadline";
  }
  return "?";
}

void pgmp::raiseGuardTrip(GuardKind K, std::string Message,
                          std::string Where) {
  throw GuardTrip(K,
                  "guard trip [" + std::string(guardKindName(K)) +
                      "]: " + std::move(Message),
                  std::move(Where));
}

void ExecGuard::configure(uint64_t Fuel, uint32_t MaxDepth,
                          uint64_t DeadlineMs) {
  FuelLimit = Fuel;
  DepthLimit = MaxDepth;
  DeadlineNanos = DeadlineMs * 1000000ull;
  Active = FuelLimit != 0 || DepthLimit != 0 || DeadlineNanos != 0;
  beginRun();
}

void ExecGuard::beginRun() {
  FuelUsed = 0;
  Depth = 0;
  DeadlineTick = 0;
  DeadlineAt = DeadlineNanos ? statsNowNanos() + DeadlineNanos : 0;
}

void ExecGuard::tripFuel() {
  raiseGuardTrip(GuardKind::Fuel,
                 "fuel budget of " + std::to_string(FuelLimit) +
                     " steps exhausted (runaway loop or recursion?)");
}

void ExecGuard::tripDepth() {
  raiseGuardTrip(GuardKind::Depth,
                 "recursion depth limit of " + std::to_string(DepthLimit) +
                     " non-tail applications exceeded");
}

void ExecGuard::pollDeadline() {
  if (statsNowNanos() <= DeadlineAt)
    return;
  raiseGuardTrip(GuardKind::Deadline,
                 "wall-clock deadline of " +
                     std::to_string(DeadlineNanos / 1000000ull) +
                     " ms exceeded");
}
