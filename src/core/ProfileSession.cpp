//===- core/ProfileSession.cpp --------------------------------------------===//

#include "core/ProfileSession.h"

#include "interp/Expr.h"
#include "profile/ProfileIO.h"
#include "support/FaultInjector.h"

#include <unordered_map>

using namespace pgmp;

//===----------------------------------------------------------------------===//
// FileProfileTransport
//===----------------------------------------------------------------------===//

ProfileOpResult FileProfileTransport::restore(Context &Ctx) {
  ProfileOpResult R;
  std::string Err;
  ProfileLoadReport Report;
  bool Ok;
  {
    ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::ProfileLoad);
    Ok = loadProfileFile(Path, Ctx.Sources, Ctx.ProfileDb, Err, &Ctx.SrcMgr,
                         &Report);
  }
  if (Ok) {
    // Single funnel for load warnings: attach the path once and forward
    // to the diagnostic sink; the result carries a copy for the caller.
    Ctx.Diags.reportAll(DiagKind::Warning, Path, Report.Warnings);
    R.Warnings = Report.Warnings;
    R.DatasetsMerged = Report.NumDatasets;
    R.PointsLoaded = Report.NumPoints;
    Ctx.Stats.bump(Stat::DatasetMerges, Report.NumDatasets);
    Ctx.Stats.bump(Stat::ProfilePointsLoaded, Report.NumPoints);
    return R;
  }
  // Degradation policy: corrupt, stale, or malformed profiles are data
  // problems, not program errors — warn and continue unoptimized
  // (profile-data-available? stays #f because nothing was merged). A
  // missing or unreadable file, and any failure in strict mode, stays an
  // error.
  bool Degradable = Report.Status == ProfileLoadStatus::Malformed ||
                    Report.Status == ProfileLoadStatus::Corrupt ||
                    Report.Status == ProfileLoadStatus::Stale;
  if (!Degradable || Ctx.StrictProfile)
    return ProfileOpResult::failure(std::move(Err));
  R.Status = ProfileOpStatus::Degraded;
  R.Error = Err;
  R.Warnings.push_back("ignoring profile: " + Err +
                       "; continuing without profile data");
  Ctx.Diags.reportAll(DiagKind::Warning, Path, R.Warnings);
  return R;
}

ProfileOpResult FileProfileTransport::persist(Context &Ctx,
                                              const ProfileDatabase &Db) {
  std::string Err;
  ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::ProfileStore);
  if (!storeProfileFile(Db, Path, &Ctx.SrcMgr, &Err))
    return ProfileOpResult::failure("cannot write profile file: " + Path +
                                    " (" + Err + ")");
  return ProfileOpResult{};
}

//===----------------------------------------------------------------------===//
// ProfileSession
//===----------------------------------------------------------------------===//

ProfileOpResult ProfileSession::restore() {
  ProfileOpResult R;
  if (!Transport)
    return R;
  Ctx.Stats.bump(Stat::ProfileLoads);
  // Injected before the transport is touched, so nothing merges: the same
  // no-partial-effects contract a real I/O failure provides.
  if (faultinject::shouldFail(faultinject::Point::ProfileLoad))
    return ProfileOpResult::failure(
        "injected fault at phase boundary: profile-load");
  return Transport->restore(Ctx);
}

std::shared_ptr<const ProfileEpoch> ProfileSession::epoch() const {
  return Ctx.Bus ? Ctx.Bus->epoch() : nullptr;
}

bool ProfileSession::observe() { return pollContinuousProfile(Ctx); }

ProfileOpResult ProfileSession::commit() {
  ProfileOpResult R;
  Ctx.Stats.bump(Stat::ProfileStores);
  // Injected before anything is copied or folded: a failed commit must
  // leave the live counters and the database exactly as they were.
  if (faultinject::shouldFail(faultinject::Point::ProfileStore))
    return ProfileOpResult::failure(
        "injected fault at phase boundary: profile-store (counters preserved)");
  // Serialize a snapshot that already includes the live counters, but
  // fold-and-reset only after the transport has the data safely: a failed
  // commit must not destroy the counter data it failed to persist.
  ProfileDatabase Snapshot = Ctx.ProfileDb;
  {
    ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::CounterFold);
    Snapshot.addDataset(Ctx.Counters);
  }
  if (Transport) {
    ProfileOpResult P = Transport->persist(Ctx, Snapshot);
    if (!P)
      return P;
  }
  uint64_t Increments = Ctx.Counters.totalIncrements();
  bool CountersFolded = Snapshot.numDatasets() > Ctx.ProfileDb.numDatasets();
  Ctx.Stats.bump(Stat::CounterIncrements, Increments);
  Ctx.ProfileDb.addDataset(Ctx.Counters);
  Ctx.Counters.reset();
  if (CountersFolded)
    Ctx.Stats.bump(Stat::DatasetMerges);
  R.DatasetsMerged = CountersFolded ? 1 : 0;
  R.PointsLoaded = Snapshot.numPoints();
  return R;
}

//===----------------------------------------------------------------------===//
// Continuous profiling
//===----------------------------------------------------------------------===//

static void busPollTrampoline(void *Arg) {
  pollContinuousProfile(*static_cast<Context *>(Arg));
}

void pgmp::attachContinuousProfile(Context &Ctx,
                                   const ContinuousProfileOptions &CP,
                                   ProfileBus *SharedBus) {
  if (!CP.enabled())
    return;
  if (SharedBus) {
    Ctx.Bus = SharedBus;
  } else {
    ProfileBusOptions BO;
    BO.DecayHalfLife = CP.DecayHalfLife;
    BO.RetierThreshold = CP.RetierThreshold;
    Ctx.OwnedBus = std::make_unique<ProfileBus>(BO);
    Ctx.Bus = Ctx.OwnedBus.get();
  }
  Ctx.BusPublisher = Ctx.Bus->addPublisher();
  Ctx.BusSeenVersion = 0;
  Ctx.Guard.configurePoll(CP.IntervalCharges, busPollTrampoline, &Ctx);
}

/// Publishes the context's cumulative counter totals. The polling thread
/// is the only thread incrementing this context's counters (one Engine is
/// one thread's session), so reading them here needs no quiescence
/// protocol beyond the TLS-sharded registry itself — the "quiesce-free
/// snapshot". Keys are cached per counter slot so steady-state publishes
/// rebuild no strings.
static void publishCounters(Context &Ctx) {
  auto Rows = Ctx.Counters.snapshot();
  while (Ctx.BusKeyCache.size() < Rows.size()) {
    const SourceObject *Src = Rows[Ctx.BusKeyCache.size()].first;
    Ctx.BusKeyCache.push_back(BusPointKey{Src->File, Src->BeginOffset,
                                          Src->EndOffset, Src->Line,
                                          Src->Column, Src->Generated});
  }
  ProfileBus::TotalsRows Totals;
  Totals.reserve(Rows.size());
  for (size_t I = 0; I < Rows.size(); ++I)
    Totals.emplace_back(Ctx.BusKeyCache[I], Rows[I].second);
  Ctx.Bus->publish(Ctx.BusPublisher, Totals);
  Ctx.Stats.bump(Stat::BusPublishes);
}

/// Re-evaluates every adopted lambda's tier against \p Epoch's weights.
static void applyEpoch(Context &Ctx, const ProfileEpoch &Epoch) {
  std::unordered_map<const SourceObject *, double> Weights;
  Weights.reserve(Epoch.Rows.size());
  for (const ProfileEpochRow &Row : Epoch.Rows)
    Weights[Ctx.Sources.intern(Row.Key.File, Row.Key.Begin, Row.Key.End,
                               Row.Key.Line, Row.Key.Column,
                               Row.Key.Generated)] = Row.Weight;

  for (const LambdaExpr *L : Ctx.TierLambdas) {
    if (!L->Body || !L->Body->Src || L->TierBlocked)
      continue;
    auto It = Weights.find(L->Body->Src);
    double W = It == Weights.end() ? 0.0 : It->second;
    if (W >= Ctx.Tier.HotWeight) {
      // Hot per this epoch: pre-mark (skips the Auto warm-up) and restore
      // a parked bytecode body, if a demotion left one, without
      // recompiling.
      bool Was = L->TierHot;
      L->TierHot = true;
      if (!L->Tiered && L->TierCache)
        L->Tiered = L->TierCache;
      if (!Was)
        Ctx.Stats.bump(Stat::RetierPromotions);
    } else if (L->TierHot) {
      // Stale hot mark: the epoch no longer supports it. Demote to
      // interpretation — park the bytecode (not TierBlocked: the next
      // epoch or the invocation threshold can bring it straight back)
      // and restart the warm-up count.
      L->TierHot = false;
      if (L->Tiered) {
        L->TierCache = L->Tiered;
        L->Tiered = nullptr;
      }
      L->TierInvokes = 0;
      Ctx.Stats.bump(Stat::RetierDemotions);
    }
    // Threshold-earned tiers (TierHot false, Tiered set) are left alone:
    // they proved themselves hot by running, and the epoch's silence is
    // not evidence of coldness strong enough to un-compile them.
  }

  // A new profile epoch also re-derives the reclamation policy
  // (pre-tenured sites, hot-site co-location, nursery sizing) from the
  // allocation-site profile observed so far. Deterministic in the
  // profile; cheap when nothing changed.
  Ctx.reselectReclaimPolicy();
}

bool pgmp::pollContinuousProfile(Context &Ctx) {
  if (!Ctx.Bus)
    return false;
  publishCounters(Ctx);
  // One atomic load answers "anything new?" — the fast path when the
  // aggregated profile is stable.
  uint64_t V = Ctx.Bus->version();
  if (V == Ctx.BusSeenVersion)
    return false;
  std::shared_ptr<const ProfileEpoch> E = Ctx.Bus->epoch();
  if (!E)
    return false;
  applyEpoch(Ctx, *E);
  // Record the version actually applied: if a newer epoch landed between
  // the version load and the fetch, the next poll re-applies it — the
  // subscriber's view is strictly monotonic either way.
  Ctx.BusSeenVersion = E->Version;
  Ctx.Stats.bump(Stat::BusEpochs);
  return true;
}
