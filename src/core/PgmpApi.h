//===- core/PgmpApi.h - The paper's PGMP API ------------------*- C++ -*-===//
///
/// \file
/// The profile-guided meta-programming API of the paper (Figure 4),
/// exposed to meta-programs as Scheme primitives and to embedders as C++
/// functions:
///
///   (make-profile-point [base])      -> profile point
///   (annotate-expr e pp)             -> syntax
///   (profile-query e)                -> weight in [0,1] (0 when unknown)
///   (store-profile filename)         -> void
///   (load-profile filename)          -> void
///
/// plus introspection helpers used by the case studies and tests:
///
///   (profile-query* e)               -> weight, or #f when no profile
///                                       data is loaded / e has no point
///   (profile-data-available?)        -> boolean
///   (profile-query-count e)          -> raw total count
///   (current-profile-datasets)       -> fixnum
///   (clear-profile!)                 -> void
///   (pgmp-stats)                     -> alist of pipeline self-metrics
///   (set-pgmp-stats! b)              -> void (toggle stats collection)
///
/// `profile-query` collapses two distinct situations to 0.0 — "no profile
/// data is loaded at all" and "data is loaded but this point was never
/// hit" — mirroring the paper's API, where meta-programs treat unknown as
/// cold. When the distinction matters (e.g. to fall back to heuristics
/// when no training data exists), use `profile-query*`, which returns #f
/// in the no-data / no-point cases, or check (profile-data-available?)
/// first. The C++ side reads through one surface: ProfileSnapshot
/// (Engine::snapshot() / pgmpapi::snapshot), whose weight() collapses and
/// whose weightOpt() distinguishes. The store/load functions below move
/// a profile between sessions through a profile file (profile/ProfileIO.h):
/// instrument, store-profile, then load-profile into the next compile.
///
/// A profile point is represented as a syntax object whose source object
/// is the point — uniformly with "an object with an associated profile
/// point" (paper Section 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_CORE_PGMPAPI_H
#define PGMP_CORE_PGMPAPI_H

#include "core/ProfileOpResult.h"
#include "interp/Context.h"

namespace pgmp {

/// Installs the PGMP primitives into \p Ctx.
void installPgmpApi(Context &Ctx);

/// C++ equivalents of the Scheme-level API.
namespace pgmpapi {

/// make-profile-point: deterministic fresh point derived from \p BaseFile.
Value makeProfilePoint(Context &Ctx, const std::string &BaseFile);

/// annotate-expr: associates \p Expr with \p Point (replacing any prior
/// point). Honors Context::AnnotMode: Inline re-sources the expression,
/// Wrap wraps it in a generated nullary call (errortrace-style).
Value annotateExpr(Context &Ctx, Value Expr, const SourceObject *Point);

/// The unified read path: an immutable snapshot of \p Ctx's profile data
/// (counts the query against the profiler self-metrics). Query with
/// snapshot.weight(point(Ctx, v)) / .weightOpt(...) / .count(...).
ProfileSnapshot snapshot(Context &Ctx);

/// The profile point carried by \p ExprOrPoint (its syntax source), or
/// null when the value carries none — the key for ProfileSnapshot
/// queries.
const SourceObject *point(const Value &ExprOrPoint);

/// store-profile: folds the live counters into the database as one data
/// set, resets the counters, then serializes the database. On failure
/// the live counters are preserved: the folded snapshot is written first,
/// and the live counters are folded and reset only once it is on disk.
ProfileOpResult storeProfile(Context &Ctx, const std::string &Path);

/// The file half of storeProfile (and EnginePool::storeMergedProfile):
/// writes \p Db atomically to \p Path under Phase::ProfileStore. Touches
/// neither \p Ctx's counters nor its database.
ProfileOpResult writeProfileFile(Context &Ctx, const ProfileDatabase &Db,
                                 const std::string &Path);

/// load-profile: merges a stored database into the current one. Under the
/// default degradation policy a corrupt/stale/malformed file yields
/// Status Degraded (nothing merged, warning through Diagnostics); in
/// strict mode, and for missing/unreadable files, Status Failed.
ProfileOpResult loadProfile(Context &Ctx, const std::string &Path);

} // namespace pgmpapi

} // namespace pgmp

#endif // PGMP_CORE_PGMPAPI_H
