//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

#include "support/Trace.h"

#include <chrono>
#include <cstdio>

using namespace pgmp;

uint64_t pgmp::statsNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char *StatsRegistry::phaseName(Phase P) {
  switch (P) {
  case Phase::Read:
    return "read";
  case Phase::Expand:
    return "expand";
  case Phase::Compile:
    return "compile";
  case Phase::VmCompile:
    return "vm-compile";
  case Phase::Eval:
    return "eval";
  case Phase::CounterFold:
    return "counter-fold";
  case Phase::ProfileStore:
    return "profile-store";
  case Phase::ProfileLoad:
    return "profile-load";
  case Phase::TierCompile:
    return "tier-compile";
  case Phase::Reclaim:
    return "reclaim";
  }
  return "?";
}

const char *StatsRegistry::statName(Stat S) {
  switch (S) {
  case Stat::CompiledUnits:
    return "compiled-units";
  case Stat::CompiledNodes:
    return "compiled-nodes";
  case Stat::InstrumentedNodes:
    return "instrumented-nodes";
  case Stat::MacroExpansions:
    return "macro-expansions";
  case Stat::AnnotateExprCalls:
    return "annotate-expr-calls";
  case Stat::PointsCreated:
    return "profile-points-created";
  case Stat::ProfileQueries:
    return "profile-queries";
  case Stat::DatasetMerges:
    return "dataset-merges";
  case Stat::CounterIncrements:
    return "counter-increments";
  case Stat::ProfileStores:
    return "profile-stores";
  case Stat::ProfileLoads:
    return "profile-loads";
  case Stat::ProfilePointsLoaded:
    return "profile-points-loaded";
  case Stat::CounterShards:
    return "counter-shards";
  case Stat::ShardMerges:
    return "shard-merges";
  case Stat::TierUps:
    return "tier-ups";
  case Stat::TierCompileFails:
    return "tier-compile-fails";
  case Stat::TierPremarkedHot:
    return "tier-premarked-hot";
  case Stat::GuardTrips:
    return "guard-trips";
  case Stat::TaskRetries:
    return "task-retries";
  case Stat::BusPublishes:
    return "bus-publishes";
  case Stat::RetierPromotions:
    return "retier-promotions";
  case Stat::RetierDemotions:
    return "retier-demotions";
  case Stat::SuperinstructionsFused:
    return "superinstructions-fused";
  case Stat::TierInlines:
    return "tier-inlines";
  case Stat::TierInlineFallbacks:
    return "tier-inline-fallbacks";
  case Stat::FusionEpochs:
    return "fusion-epochs";
  case Stat::TierInvalidations:
    return "tier-invalidations";
  case Stat::Reclaims:
    return "reclaims";
  case Stat::ReclaimAborts:
    return "reclaim-aborts";
  }
  return "?";
}

void StatsRegistry::reset() {
  Counts.fill(0);
  Phases.fill(PhaseAccum{});
}

std::vector<std::pair<std::string, uint64_t>> StatsRegistry::snapshot() const {
  std::vector<std::pair<std::string, uint64_t>> Out;
  Out.reserve(NumStats + 2 * NumPhases);
  for (size_t I = 0; I < NumStats; ++I)
    Out.emplace_back(statName(static_cast<Stat>(I)), Counts[I]);
  for (size_t I = 0; I < NumPhases; ++I) {
    std::string Name = phaseName(static_cast<Phase>(I));
    Out.emplace_back(Name + "-entries", Phases[I].Entries);
    Out.emplace_back(Name + "-ns", Phases[I].Nanos);
  }
  if (ExtraFn)
    ExtraFn(ExtraSource, Out);
  return Out;
}

std::string StatsRegistry::render() const {
  std::string Out = "pipeline stats:\n";
  char Buf[128];
  for (size_t I = 0; I < NumPhases; ++I) {
    if (!Phases[I].Entries)
      continue;
    std::snprintf(Buf, sizeof(Buf), "  phase %-14s %8llu entries %12.3f ms\n",
                  phaseName(static_cast<Phase>(I)),
                  static_cast<unsigned long long>(Phases[I].Entries),
                  static_cast<double>(Phases[I].Nanos) / 1e6);
    Out += Buf;
  }
  for (size_t I = 0; I < NumStats; ++I) {
    if (!Counts[I])
      continue;
    std::snprintf(Buf, sizeof(Buf), "  %-22s %12llu\n",
                  statName(static_cast<Stat>(I)),
                  static_cast<unsigned long long>(Counts[I]));
    Out += Buf;
  }
  if (ExtraFn) {
    std::vector<std::pair<std::string, uint64_t>> Extra;
    ExtraFn(ExtraSource, Extra);
    for (const auto &[Name, N] : Extra) {
      if (!N)
        continue;
      std::snprintf(Buf, sizeof(Buf), "  %-22s %12llu\n", Name.c_str(),
                    static_cast<unsigned long long>(N));
      Out += Buf;
    }
  }
  return Out;
}

ScopedPhase::ScopedPhase(StatsRegistry &Stats, TraceSink *Trace, Phase P)
    : Stats(Stats), Trace(Trace && Trace->enabled() ? Trace : nullptr), P(P),
      Active(Stats.enabled() || this->Trace) {
  if (Active)
    StartNs = statsNowNanos();
}

ScopedPhase::~ScopedPhase() {
  if (!Active)
    return;
  uint64_t EndNs = statsNowNanos();
  Stats.addPhaseTime(P, EndNs - StartNs);
  if (Trace)
    Trace->record(StatsRegistry::phaseName(P), "pipeline", StartNs, EndNs);
}
