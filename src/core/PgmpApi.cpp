//===- core/PgmpApi.cpp ---------------------------------------------------===//

#include "core/PgmpApi.h"

#include "interp/PrimsCommon.h"
#include "profile/ProfileIO.h"
#include "profile/ProfileReport.h"
#include "support/FaultInjector.h"
#include "syntax/Syntax.h"

#include <algorithm>
#include <cstdint>
#include <optional>

using namespace pgmp;
using namespace pgmp::prims;

//===----------------------------------------------------------------------===//
// C++ API
//===----------------------------------------------------------------------===//

Value pgmp::pgmpapi::makeProfilePoint(Context &Ctx,
                                      const std::string &BaseFile) {
  Ctx.Stats.bump(Stat::PointsCreated);
  const SourceObject *Src = Ctx.Sources.makeGeneratedPoint(BaseFile);
  // A profile point is a syntax object carrying the source object.
  return makeSyntax(Ctx.TheHeap, Value::boolean(false), ScopeSet(), Src);
}

Value pgmp::pgmpapi::annotateExpr(Context &Ctx, Value Expr,
                                  const SourceObject *Point) {
  if (!Expr.isSyntax())
    raiseError("annotate-expr: expression must be a syntax object");
  Ctx.Stats.bump(Stat::AnnotateExprCalls);
  Syntax *E = Expr.asSyntax();

  if (Ctx.AnnotMode == AnnotateMode::Inline) {
    // Chez style: replace the expression's source object.
    return makeSyntax(Ctx.TheHeap, E->Inner, E->Scopes, Point);
  }

  // Racket errortrace style: the profiler sees only calls, so wrap the
  // expression in a fresh nullary procedure and annotate the call:
  //   ((lambda () e))   with the application carrying the point.
  Symbol *LambdaSym = Ctx.Symbols.intern("lambda");
  Value LambdaId = makeSyntax(
      Ctx.TheHeap, Value::object(ValueKind::Symbol, LambdaSym), ScopeSet(),
      nullptr);
  Value EmptyParams = makeSyntax(Ctx.TheHeap, Value::nil(), ScopeSet(),
                                 nullptr);
  Value LambdaForm = makeSyntax(
      Ctx.TheHeap,
      Ctx.TheHeap.cons(LambdaId,
                       Ctx.TheHeap.cons(EmptyParams,
                                        Ctx.TheHeap.cons(Expr, Value::nil()))),
      ScopeSet(), nullptr);
  return makeSyntax(Ctx.TheHeap, Ctx.TheHeap.cons(LambdaForm, Value::nil()),
                    ScopeSet(), Point);
}

ProfileSnapshot pgmp::pgmpapi::snapshot(Context &Ctx) {
  Ctx.Stats.bump(Stat::ProfileQueries);
  return Ctx.ProfileDb.snapshot();
}

const SourceObject *pgmp::pgmpapi::point(const Value &ExprOrPoint) {
  return syntaxSource(ExprOrPoint);
}

ProfileOpResult pgmp::pgmpapi::writeProfileFile(Context &Ctx,
                                                const ProfileDatabase &Db,
                                                const std::string &Path) {
  std::string Err;
  ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::ProfileStore);
  if (!storeProfileFile(Db, Path, &Ctx.SrcMgr, &Err))
    return ProfileOpResult::failure("cannot write profile file: " + Path +
                                    " (" + Err + ")");
  return ProfileOpResult{};
}

ProfileOpResult pgmp::pgmpapi::storeProfile(Context &Ctx,
                                            const std::string &Path) {
  ProfileOpResult R;
  Ctx.Stats.bump(Stat::ProfileStores);
  // Injected before anything is copied or folded: a failed store must
  // leave the live counters and the database exactly as they were.
  if (faultinject::shouldFail(faultinject::Point::ProfileStore))
    return ProfileOpResult::failure(
        "injected fault at phase boundary: profile-store (counters preserved)");
  // Serialize a snapshot that already includes the live counters, but
  // fold-and-reset only after the file is safely written: a failed store
  // must not destroy the counter data it failed to persist.
  ProfileDatabase Snapshot = Ctx.ProfileDb;
  {
    ScopedPhase Timer(Ctx.Stats, &Ctx.Trace, Phase::CounterFold);
    Snapshot.addDataset(Ctx.Counters);
  }
  if (ProfileOpResult P = writeProfileFile(Ctx, Snapshot, Path); !P)
    return P;
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

ProfileOpResult pgmp::pgmpapi::loadProfile(Context &Ctx,
                                           const std::string &Path) {
  ProfileOpResult R;
  Ctx.Stats.bump(Stat::ProfileLoads);
  // Injected before the file is touched, so nothing merges: the same
  // no-partial-effects contract a real I/O failure provides.
  if (faultinject::shouldFail(faultinject::Point::ProfileLoad))
    return ProfileOpResult::failure(
        "injected fault at phase boundary: profile-load");
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

//===----------------------------------------------------------------------===//
// Scheme primitives
//===----------------------------------------------------------------------===//

namespace {

Value primMakeProfilePoint(Context &Ctx, Value *A, size_t N) {
  std::string Base = "pgmp-generated";
  if (N == 1) {
    if (A[0].isString())
      Base = A[0].asString()->Text;
    else if (const SourceObject *Src = syntaxSource(A[0]))
      Base = Src->File;
    else
      wrongType("make-profile-point", "a base string or sourced syntax",
                A[0]);
  }
  return pgmpapi::makeProfilePoint(Ctx, Base);
}

Value primAnnotateExpr(Context &Ctx, Value *A, size_t) {
  const SourceObject *Point = syntaxSource(A[1]);
  if (!Point)
    raiseError("annotate-expr: second argument carries no profile point");
  return pgmpapi::annotateExpr(Ctx, A[0], Point);
}

Value primProfileQuery(Context &Ctx, Value *A, size_t) {
  return Value::flonum(pgmpapi::snapshot(Ctx).weight(pgmpapi::point(A[0])));
}

/// (profile-query* e) — weight, or #f when no data is loaded / the value
/// carries no profile point. The non-collapsing sibling of profile-query.
Value primProfileQueryStar(Context &Ctx, Value *A, size_t) {
  std::optional<double> W =
      pgmpapi::snapshot(Ctx).weightOpt(pgmpapi::point(A[0]));
  return W ? Value::flonum(*W) : Value::boolean(false);
}

Value primProfileQueryCount(Context &Ctx, Value *A, size_t) {
  uint64_t Count = pgmpapi::snapshot(Ctx).count(pgmpapi::point(A[0]));
  return Value::fixnum(static_cast<int64_t>(Count));
}

Value primStoreProfile(Context &Ctx, Value *A, size_t) {
  ProfileOpResult R =
      pgmpapi::storeProfile(Ctx, wantString("store-profile", A[0])->Text);
  if (!R)
    raiseError("store-profile: " + R.Error);
  return Value::undefined();
}

Value primLoadProfile(Context &Ctx, Value *A, size_t) {
  ProfileOpResult R =
      pgmpapi::loadProfile(Ctx, wantString("load-profile", A[0])->Text);
  if (!R)
    raiseError("load-profile: " + R.Error);
  return Value::undefined();
}

Value primProfileDataAvailableP(Context &Ctx, Value *, size_t) {
  return Value::boolean(Ctx.ProfileDb.hasData());
}

Value primCurrentProfileDatasets(Context &Ctx, Value *, size_t) {
  return Value::fixnum(static_cast<int64_t>(Ctx.ProfileDb.numDatasets()));
}

Value primClearProfile(Context &Ctx, Value *, size_t) {
  Ctx.ProfileDb.clear();
  Ctx.Counters.reset();
  return Value::undefined();
}

/// (profile-dump [n]) — the hottest profile points as a list of
/// (location weight count) triples, weightiest first. Shares the
/// canonical report ordering with `pgmpi report` (profileHotRows), so the
/// REPL and the CLI never disagree about what is hot.
Value primProfileDump(Context &Ctx, Value *A, size_t N) {
  int64_t Limit = N == 1 ? wantFixnum("profile-dump", A[0]) : 20;
  std::vector<ProfileHotRow> Rows = profileHotRows(Ctx.ProfileDb.snapshot());
  if (Limit >= 0 && Rows.size() > static_cast<size_t>(Limit))
    Rows.resize(static_cast<size_t>(Limit));

  std::vector<Value> Out;
  for (const ProfileHotRow &R : Rows)
    Out.push_back(Ctx.TheHeap.list(
        {Ctx.TheHeap.string(R.Src->describe()), Value::flonum(R.Weight),
         Value::fixnum(static_cast<int64_t>(R.Count))}));
  return Ctx.TheHeap.list(Out);
}

/// (set-instrumentation! b) — toggles source-expression instrumentation
/// for forms compiled from here on; a Scheme program can run its own
/// profile/optimize cycle without leaving the language.
Value primSetInstrumentation(Context &Ctx, Value *A, size_t) {
  Ctx.InstrumentCompiles = A[0].isTruthy();
  return Value::undefined();
}

Value primInstrumentationP(Context &Ctx, Value *, size_t) {
  return Value::boolean(Ctx.InstrumentCompiles);
}

/// (pgmp-stats) — pipeline self-metrics as an alist of (name . value)
/// pairs: every counter, then per-phase entry counts and nanoseconds.
/// All zero until (set-pgmp-stats! #t) or EngineOptions::StatsEnabled.
Value primPgmpStats(Context &Ctx, Value *, size_t) {
  std::vector<Value> Rows;
  for (const auto &[Name, Count] : Ctx.Stats.snapshot())
    Rows.push_back(Ctx.TheHeap.cons(
        Value::object(ValueKind::Symbol, Ctx.Symbols.intern(Name)),
        Value::fixnum(
            static_cast<int64_t>(std::min<uint64_t>(Count, INT64_MAX)))));
  return Ctx.TheHeap.list(Rows);
}

/// (set-pgmp-stats! b) — toggles pipeline stats collection, so a Scheme
/// meta-program can measure its own expansion/instrumentation cost.
Value primSetPgmpStats(Context &Ctx, Value *A, size_t) {
  Ctx.Stats.enable(A[0].isTruthy());
  return Value::undefined();
}

/// (compile-warning msg...) — lets meta-programs emit the Perflint-style
/// compile-time recommendations of Section 6.3 through the diagnostic
/// sink, where tests can observe them.
Value primCompileWarning(Context &Ctx, Value *A, size_t N) {
  std::string Msg;
  for (size_t I = 0; I < N; ++I) {
    if (I)
      Msg += " ";
    Msg += A[I].isString() ? A[I].asString()->Text : writeToString(A[I]);
  }
  Ctx.Diags.report(DiagKind::Warning, "", Msg);
  return Value::undefined();
}

} // namespace

void pgmp::installPgmpApi(Context &Ctx) {
  Ctx.definePrimitive("make-profile-point", 0, 1, primMakeProfilePoint);
  Ctx.definePrimitive("annotate-expr", 2, 2, primAnnotateExpr);
  Ctx.definePrimitive("profile-query", 1, 1, primProfileQuery);
  Ctx.definePrimitive("profile-query*", 1, 1, primProfileQueryStar);
  Ctx.definePrimitive("profile-query-count", 1, 1, primProfileQueryCount);
  Ctx.definePrimitive("store-profile", 1, 1, primStoreProfile);
  Ctx.definePrimitive("load-profile", 1, 1, primLoadProfile);
  Ctx.definePrimitive("profile-data-available?", 0, 0,
                      primProfileDataAvailableP);
  Ctx.definePrimitive("current-profile-datasets", 0, 0,
                      primCurrentProfileDatasets);
  Ctx.definePrimitive("clear-profile!", 0, 0, primClearProfile);
  Ctx.definePrimitive("profile-dump", 0, 1, primProfileDump);
  Ctx.definePrimitive("set-instrumentation!", 1, 1, primSetInstrumentation);
  Ctx.definePrimitive("instrumentation?", 0, 0, primInstrumentationP);
  Ctx.definePrimitive("pgmp-stats", 0, 0, primPgmpStats);
  Ctx.definePrimitive("set-pgmp-stats!", 1, 1, primSetPgmpStats);
  Ctx.definePrimitive("compile-warning", 1, -1, primCompileWarning);
}
