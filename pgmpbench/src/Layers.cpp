//===- pgmpbench/src/Layers.cpp - Per-layer accounting ---------------------===//
///
/// \file
/// Turns the engine's existing phase timers, self-metric counters and
/// heap statistics, read between API calls, into a per-op layer split and
/// the per-layer metrics of a traced run. Nothing here runs inside the
/// engine: every number is a difference of two reads taken outside a call.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>

using namespace pgmp;
using namespace pgmpbench;

Probe Probe::of(Engine &E) {
  Probe P;
  const StatsRegistry &S = E.stats();
  for (size_t I = 0; I < NumPhases; ++I) {
    P.PhaseNs[I] = S.phaseNanos(static_cast<Phase>(I));
    P.PhaseEntries[I] = S.phaseEntries(static_cast<Phase>(I));
  }
  for (size_t I = 0; I < NumStats; ++I)
    P.Counts[I] = S.count(static_cast<Stat>(I));
  P.Heap = E.context().TheHeap.allocStats();
  return P;
}

const char *pgmpbench::layerName(Layer L) {
  switch (L) {
  case Layer::Reader:
    return "reader";
  case Layer::Expander:
    return "expander";
  case Layer::InterpCompile:
    return "interp.compile";
  case Layer::InterpEval:
    return "interp.eval_self";
  case Layer::VmCompile:
    return "vm.tier_compile";
  case Layer::Profile:
    return "profile";
  case Layer::Reclaim:
    return "syntax.reclaim";
  case Layer::Core:
    return "core.self";
  }
  return "?";
}

bool pgmpbench::splitLayers(const Probe &Before, const Probe &After,
                            uint64_t SpanNs,
                            std::array<uint64_t, NumLayers> &Out) {
  auto D = [&](Phase P) { return After.phase(P) - Before.phase(P); };
  auto At = [&](Layer L) -> uint64_t & { return Out[static_cast<size_t>(L)]; };
  // Tier-up compiles run inside Eval (a closure tiers up when called), so
  // they are taken out of Eval rather than added next to it.
  uint64_t Tier = D(Phase::TierCompile);
  uint64_t Eval = D(Phase::Eval);
  At(Layer::Reader) = D(Phase::Read);
  At(Layer::Expander) = D(Phase::Expand);
  At(Layer::InterpCompile) = D(Phase::Compile);
  At(Layer::InterpEval) = Eval > Tier ? Eval - Tier : 0;
  At(Layer::VmCompile) = Tier + D(Phase::VmCompile);
  At(Layer::Profile) = D(Phase::ProfileLoad) + D(Phase::ProfileStore) +
                       D(Phase::CounterFold);
  At(Layer::Reclaim) = D(Phase::Reclaim);
  uint64_t Covered = 0;
  for (size_t I = 0; I + 1 < NumLayers; ++I)
    Covered += Out[I];
  At(Layer::Core) = SpanNs > Covered ? SpanNs - Covered : 0;
  return Covered <= SpanNs && Eval >= Tier;
}

void ClientLog::record(uint8_t Kind, uint64_t T0, uint64_t T1,
                       const Probe *Before, const Probe *After) {
  uint64_t Id = Attempted++;
  LatencyNs.push_back(T1 - T0);
  if (!Before || !After)
    return;
  OpSpan S;
  S.Id = Id;
  S.Worker = Client;
  S.Kind = Kind;
  S.StartNs = T0;
  S.EndNs = T1;
  if (!splitLayers(*Before, *After, T1 - T0, S.LayerNs))
    ++BrokenSums;
  for (size_t I = 0; I < NumLayers; ++I)
    LayerSumNs[I] += S.LayerNs[I];
  if (Spans.size() < SpanCap)
    Spans.push_back(S);
}

void RunTotals::addEngine(const Probe &P) {
  for (size_t I = 0; I < NumPhases; ++I) {
    Engines.PhaseNs[I] += P.PhaseNs[I];
    Engines.PhaseEntries[I] += P.PhaseEntries[I];
  }
  for (size_t I = 0; I < NumStats; ++I)
    Engines.Counts[I] += P.Counts[I];
  Heap::AllocStats &H = Engines.Heap;
  H.BytesAllocated += P.Heap.BytesAllocated;
  H.PeakBytesReserved = std::max(H.PeakBytesReserved, P.Heap.PeakBytesReserved);
  H.Collections += P.Heap.Collections;
  H.MajorCollections += P.Heap.MajorCollections;
  H.BytesEvacuated += P.Heap.BytesEvacuated;
  H.PreTenuredObjects += P.Heap.PreTenuredObjects;
  H.ReclaimAborts += P.Heap.ReclaimAborts;
}

static double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

std::vector<Metric> pgmpbench::layerMetrics(const std::vector<ClientLog> &Logs,
                                            const RunTotals &T) {
  uint64_t Ops = 0;
  std::array<uint64_t, NumLayers> Sum{};
  for (const ClientLog &L : Logs) {
    Ops += L.Attempted;
    for (size_t I = 0; I < NumLayers; ++I)
      Sum[I] += L.LayerSumNs[I];
  }
  auto PerOpUs = [&](Layer L) {
    return ratio(Sum[static_cast<size_t>(L)], Ops) / 1e3;
  };
  const Probe &E = T.Engines;
  auto C = [&](Stat S) { return E.count(S); };
  const Heap::AllocStats &H = E.Heap;

  std::vector<Metric> M;
  auto Time = [&](const char *Name, double Us) {
    M.push_back({Name, "us", Us, false});
  };
  auto Count = [&](const char *Name, const char *Unit, uint64_t N) {
    M.push_back({Name, Unit, static_cast<double>(N), true});
  };
  auto Ratio = [&](const char *Name, double R) {
    M.push_back({Name, "ratio", R, false});
  };
  // Layers some workload never enters (no tiering in build-pgo, no
  // profile I/O inside a serve request) report their share of the op
  // span rather than a time, so a structural zero is not read as a time.
  uint64_t SpanNs = 0;
  for (uint64_t Ns : Sum)
    SpanNs += Ns;
  auto Share = [&](const char *Name, Layer L) {
    Ratio(Name, ratio(Sum[static_cast<size_t>(L)], SpanNs));
  };

  uint64_t ReadEntries = E.PhaseEntries[static_cast<size_t>(Phase::Read)];
  Time("reader.self_us", PerOpUs(Layer::Reader));
  // Every evalString ends with one read that finds no form.
  Count("reader.forms", "count",
        ReadEntries > T.EvalCalls ? ReadEntries - T.EvalCalls : 0);

  Time("expander.self_us", PerOpUs(Layer::Expander));
  Count("expander.macro_expansions", "count", C(Stat::MacroExpansions));
  Count("expander.profile_queries", "count", C(Stat::ProfileQueries));

  Time("interp.compile_us", PerOpUs(Layer::InterpCompile));
  Count("interp.compiled_nodes", "count", C(Stat::CompiledNodes));
  Count("interp.instrumented_nodes", "count", C(Stat::InstrumentedNodes));
  Time("interp.eval_self_us", PerOpUs(Layer::InterpEval));

  uint64_t Ups = C(Stat::TierUps), Fails = C(Stat::TierCompileFails);
  uint64_t Inl = C(Stat::TierInlines), Fallb = C(Stat::TierInlineFallbacks);
  Share("vm.tier_compile_share", Layer::VmCompile);
  Count("vm.tier_ups", "count", Ups);
  Ratio("vm.tier_compile_fail_ratio", ratio(Fails, Ups + Fails));
  Count("vm.superinstructions_fused", "count",
        C(Stat::SuperinstructionsFused));
  Count("vm.tier_inlines", "count", Inl);
  Ratio("vm.inline_fallback_ratio", ratio(Fallb, Inl + Fallb));
  Count("vm.fusion_epochs", "count", C(Stat::FusionEpochs));
  Count("vm.tier_invalidations", "count", C(Stat::TierInvalidations));
  Ratio("vm.wasted_compile_ratio", ratio(C(Stat::TierInvalidations), Ups));

  Share("profile.io_share", Layer::Profile);
  Count("profile.points_loaded", "count", C(Stat::ProfilePointsLoaded));
  Count("profile.bus_publishes", "count", C(Stat::BusPublishes));
  Count("profile.bus_epochs", "count", T.BusEpochs);
  Count("profile.retier_promotions", "count", C(Stat::RetierPromotions));
  Count("profile.retier_demotions", "count", C(Stat::RetierDemotions));

  Share("syntax.reclaim_share", Layer::Reclaim);
  Count("syntax.collections", "count", H.Collections);
  Count("syntax.major_collections", "count", H.MajorCollections);
  Count("syntax.bytes_allocated", "bytes", H.BytesAllocated);
  Count("syntax.bytes_evacuated", "bytes", H.BytesEvacuated);
  Ratio("syntax.survival_ratio", ratio(H.BytesEvacuated, H.BytesAllocated));
  Count("syntax.pretenured_objects", "count", H.PreTenuredObjects);
  Count("syntax.peak_bytes_reserved", "bytes", H.PeakBytesReserved);
  Count("syntax.reclaim_aborts", "count", H.ReclaimAborts);

  Time("core.self_us", PerOpUs(Layer::Core));
  Time("core.setup_engine_us", ratio(T.EngineBuildNs, T.EngineBuilds) / 1e3);
  Ratio("core.pool_wait_ratio",
        T.PoolWallNs ? 1.0 - ratio(T.PoolBusyNs, T.PoolWallNs) : 0.0);

  Count("support.guard_trips", "count", C(Stat::GuardTrips));
  return M;
}

namespace {
/// Minimal buffered writer; the files are written once, at exit.
class JsonFile {
public:
  explicit JsonFile(const std::string &Path)
      : F(std::fopen(Path.c_str(), "w")) {}
  ~JsonFile() {
    if (F)
      std::fclose(F);
  }
  JsonFile(const JsonFile &) = delete;
  JsonFile &operator=(const JsonFile &) = delete;

  bool ok() const { return F != nullptr; }
  template <typename... Args> void put(const char *Fmt, Args... A) {
    std::fprintf(F, Fmt, A...);
  }
  bool close() {
    bool Ok = std::ferror(F) == 0;
    Ok = std::fclose(F) == 0 && Ok;
    F = nullptr;
    return Ok;
  }

private:
  std::FILE *F;
};
} // namespace

bool pgmpbench::writeChromeTrace(const std::string &Path,
                                 const std::vector<std::string> &KindNames,
                                 const std::vector<ClientLog> &Logs) {
  JsonFile Out(Path);
  if (!Out.ok())
    return false;
  uint64_t Origin = UINT64_MAX;
  for (const ClientLog &L : Logs)
    if (!L.Spans.empty())
      Origin = std::min(Origin, L.Spans.front().StartNs);
  Out.put("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  const char *Sep = "";
  for (const ClientLog &L : Logs)
    for (const OpSpan &S : L.Spans) {
      double Ts = static_cast<double>(S.StartNs - Origin) / 1e3;
      Out.put("%s{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"X\",\"pid\":1,"
              "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu}}",
              Sep, KindNames[S.Kind].c_str(), S.Worker, Ts,
              static_cast<double>(S.EndNs - S.StartNs) / 1e3,
              static_cast<unsigned long long>(S.Id));
      Sep = ",\n";
      for (size_t I = 0; I < NumLayers; ++I) {
        if (!S.LayerNs[I])
          continue;
        double Dur = static_cast<double>(S.LayerNs[I]) / 1e3;
        Out.put(",\n{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"op\":%llu}}",
                layerName(static_cast<Layer>(I)), S.Worker, Ts, Dur,
                static_cast<unsigned long long>(S.Id));
        Ts += Dur;
      }
    }
  Out.put("\n]}\n");
  return Out.close();
}

bool pgmpbench::writeLayersJson(const std::string &Path,
                                const std::string &Workload, uint64_t Seed,
                                double TracedP50Us,
                                const std::vector<Metric> &Metrics,
                                const std::vector<ClientLog> &Logs,
                                const RunTotals &T) {
  JsonFile Out(Path);
  if (!Out.ok())
    return false;
  uint64_t Ops = 0, Broken = 0, SpanNs = 0;
  std::array<uint64_t, NumLayers> Sum{};
  for (const ClientLog &L : Logs) {
    Ops += L.Attempted;
    Broken += L.BrokenSums;
    for (uint64_t Ns : L.LatencyNs)
      SpanNs += Ns;
    for (size_t I = 0; I < NumLayers; ++I)
      Sum[I] += L.LayerSumNs[I];
  }
  Out.put("{\"workload\":\"%s\",\"seed\":%llu,\"ops\":%llu,"
          "\"traced_p50_us\":%.17g,\"ops_with_broken_sum\":%llu,\n",
          Workload.c_str(), static_cast<unsigned long long>(Seed),
          static_cast<unsigned long long>(Ops), TracedP50Us,
          static_cast<unsigned long long>(Broken));
  Out.put("\"profile_load_us\":%.17g,\"profile_store_us\":%.17g,\n",
          ratio(T.ProfileLoadNs, T.ProfileLoads) / 1e3,
          ratio(T.ProfileStoreNs, T.ProfileStores) / 1e3);
  Out.put("\"span_us_per_op\":%.17g,\"layer_us_per_op\":{",
          ratio(SpanNs, Ops) / 1e3);
  for (size_t I = 0; I < NumLayers; ++I)
    Out.put("%s\"%s\":%.17g", I ? "," : "", layerName(static_cast<Layer>(I)),
            ratio(Sum[I], Ops) / 1e3);
  Out.put("},\n\"metrics\":{");
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out.put("%s\n\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
            Metrics[I].Name.c_str(), Metrics[I].Value,
            Metrics[I].Unit.c_str());
  Out.put("}}\n");
  return Out.close();
}
