//===- syntax/AllocSite.h - Allocation-site profile identities -*- C++ -*-===//
///
/// \file
/// Allocation-site identities for the heap's always-on site profiles.
/// Every `Heap::make*` call is attributed to one site: the hot allocation
/// paths (interpreter frames, VM frames, closures) pass their site
/// explicitly, and whole pipeline phases (reader, expander, template
/// instantiation) set an ambient site with AllocSiteScope so everything
/// they allocate is attributed without threading a parameter through
/// every helper. The profile — objects, bytes, survivors per site — is an
/// observation: `pgmpi report --alloc` and the alloc-site-* stats rows
/// print it, and no heap decision reads it.
///
/// Sites are a closed enum, not interned strings: the per-allocation cost
/// must stay at a couple of indexed adds, and a closed set merges across
/// EnginePool workers deterministically by construction (index order).
///
//===----------------------------------------------------------------------===//

#ifndef PGMP_SYNTAX_ALLOCSITE_H
#define PGMP_SYNTAX_ALLOCSITE_H

#include <cstddef>
#include <cstdint>

namespace pgmp {

/// X-macro of every allocation site: identifier, stable report name.
#define PGMP_ALLOC_SITES(X)                                                    \
  X(Unknown, "unknown")                                                        \
  X(ReaderDatum, "reader-datum")                                               \
  X(InterpFrame, "interp-frame")                                               \
  X(InterpRestArgs, "interp-rest-args")                                        \
  X(InterpClosure, "interp-closure")                                           \
  X(SyntaxCaseFrame, "syntax-case-frame")                                      \
  X(VmFrame, "vm-frame")                                                       \
  X(VmRestArgs, "vm-rest-args")                                                \
  X(VmClosure, "vm-closure")                                                   \
  X(Expander, "expander")                                                      \
  X(TemplateInstantiate, "template-instantiate")                               \
  X(DatumConversion, "datum-conversion")                                       \
  X(CompilerConst, "compiler-const")                                           \
  X(PrimList, "prim-list")                                                     \
  X(PrimString, "prim-string")                                                 \
  X(PrimVector, "prim-vector")                                                 \
  X(PrimHash, "prim-hash")                                                     \
  X(PrimBox, "prim-box")                                                       \
  X(Primitive, "primitive")                                                    \
  X(EngineInternal, "engine-internal")

/// One identity per allocating construct. Ambient is a sentinel: "use the
/// heap's current ambient site" (set by AllocSiteScope), never stored on
/// an object or indexed into the profile arrays.
enum class AllocSite : uint16_t {
#define PGMP_ALLOC_SITE_ENUM(Id, Name) Id,
  PGMP_ALLOC_SITES(PGMP_ALLOC_SITE_ENUM)
#undef PGMP_ALLOC_SITE_ENUM
      Ambient = 0xFFFF
};

/// Number of real sites (excludes the Ambient sentinel).
inline constexpr size_t NumAllocSites = []() constexpr {
  size_t N = 0;
#define PGMP_ALLOC_SITE_COUNT(Id, Name) ++N;
  PGMP_ALLOC_SITES(PGMP_ALLOC_SITE_COUNT)
#undef PGMP_ALLOC_SITE_COUNT
  return N;
}();

/// Stable report name of a site ("interp-frame", ...).
const char *allocSiteName(AllocSite S);

/// Always-on per-site allocation profile. Survivors count objects that
/// outlived a region reclamation (evacuated to the tenured generation),
/// each once, so Survived <= Objects.
struct AllocSiteStats {
  uint64_t Objects = 0;       ///< allocations attributed to the site
  uint64_t Bytes = 0;         ///< rounded bytes of those allocations
  uint64_t Survived = 0;      ///< objects evacuated out of the nursery
  uint64_t SurvivedBytes = 0; ///< bytes of evacuated objects
  uint32_t Kinds = 0; ///< bitmask of ValueKind values seen at the site

  void merge(const AllocSiteStats &O) {
    Objects += O.Objects;
    Bytes += O.Bytes;
    Survived += O.Survived;
    SurvivedBytes += O.SurvivedBytes;
    Kinds |= O.Kinds;
  }
};

} // namespace pgmp

#endif // PGMP_SYNTAX_ALLOCSITE_H
