//===- persist/CacheStore.cpp ---------------------------------------------===//

#include "persist/CacheStore.h"

#include <unordered_map>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;

const char *
pcc::persist::quarantineReasonCodeName(QuarantineReasonCode Code) {
  switch (Code) {
  case QuarantineReasonCode::Unknown:
    return "unknown";
  case QuarantineReasonCode::InvalidFormat:
    return "invalid-format";
  case QuarantineReasonCode::VersionMismatch:
    return "version-mismatch";
  case QuarantineReasonCode::StructuralInvalid:
    return "structural-invalid";
  case QuarantineReasonCode::SemanticMismatch:
    return "semantic-mismatch";
  case QuarantineReasonCode::CertificateInvalid:
    return "certificate-invalid";
  }
  return "unknown";
}

std::string
pcc::persist::encodeQuarantineReason(QuarantineReasonCode Code,
                                     const std::string &Detail) {
  return std::string(quarantineReasonCodeName(Code)) + ": " + Detail;
}

QuarantineReasonCode
pcc::persist::parseQuarantineReason(const std::string &Stored,
                                    std::string *Detail) {
  static constexpr QuarantineReasonCode Codes[] = {
      QuarantineReasonCode::InvalidFormat,
      QuarantineReasonCode::VersionMismatch,
      QuarantineReasonCode::StructuralInvalid,
      QuarantineReasonCode::SemanticMismatch,
      QuarantineReasonCode::CertificateInvalid,
  };
  for (QuarantineReasonCode Code : Codes) {
    std::string Prefix = std::string(quarantineReasonCodeName(Code)) + ": ";
    if (Stored.compare(0, Prefix.size(), Prefix) == 0) {
      if (Detail)
        *Detail = Stored.substr(Prefix.size());
      return Code;
    }
  }
  if (Detail)
    *Detail = Stored;
  return QuarantineReasonCode::Unknown;
}

ErrorOr<StoredCache> CacheStore::openKey(uint64_t LookupKey,
                                         CacheFileView::Depth D) {
  if (!exists(LookupKey))
    return Status::error(ErrorCode::NotFound,
                         "no persistent cache at " + refFor(LookupKey));
  return openRef(refFor(LookupKey), D);
}

ErrorOr<CacheFile> CacheStore::loadKey(uint64_t LookupKey) {
  if (!exists(LookupKey))
    return Status::error(ErrorCode::NotFound,
                         "no persistent cache at " + refFor(LookupKey));
  return loadRef(refFor(LookupKey));
}

static bool regionsOverlap(uint32_t BaseA, uint32_t SizeA, uint32_t BaseB,
                           uint32_t SizeB) {
  return BaseA < BaseB + SizeB && BaseB < BaseA + SizeA;
}

CacheFile pcc::persist::mergeCacheFiles(const CacheFile &Winner,
                                        CacheFile Novel) {
  // Novel's traces always survive: its module keys were just validated
  // against the live image, so where the two caches disagree about a
  // guest start, Novel is fresher.
  std::unordered_set<uint32_t> Claimed;
  std::unordered_map<uint32_t, size_t> NovelIndexOfStart;
  for (size_t I = 0; I != Novel.Traces.size(); ++I) {
    Claimed.insert(Novel.Traces[I].GuestStart);
    NovelIndexOfStart.emplace(Novel.Traces[I].GuestStart, I);
  }

  std::unordered_map<std::string, uint32_t> NovelByPath;
  for (size_t I = 0; I != Novel.Modules.size(); ++I)
    NovelByPath.emplace(Novel.Modules[I].Path,
                        static_cast<uint32_t>(I));

  // Map each winner module onto the merged module table. A path both
  // caches know with differing keys means the winner persisted a stale
  // binary or base: its traces for that module are dropped (exactly the
  // prime-time invalidation rule, applied at merge time).
  std::vector<int64_t> Map(Winner.Modules.size(), -1);
  for (size_t I = 0; I != Winner.Modules.size(); ++I) {
    const ModuleKey &W = Winner.Modules[I];
    auto It = NovelByPath.find(W.Path);
    if (It != NovelByPath.end()) {
      if (Novel.Modules[It->second].matches(W))
        Map[I] = It->second;
      continue;
    }
    // Winner-only module: carry it over unless its mapping overlaps a
    // retained module (two binaries cannot share an address range, so
    // one of the records must be stale).
    bool Collides = false;
    for (const ModuleKey &N : Novel.Modules)
      Collides |= regionsOverlap(W.Base, W.Size, N.Base, N.Size);
    if (Collides)
      continue;
    Map[I] = static_cast<int64_t>(Novel.Modules.size());
    NovelByPath.emplace(W.Path, static_cast<uint32_t>(Map[I]));
    Novel.Modules.push_back(W);
  }

  for (const TraceRecord &Rec : Winner.Traces) {
    if (Rec.ModuleIndex >= Map.size() || Map[Rec.ModuleIndex] < 0)
      continue;
    auto Dup = NovelIndexOfStart.find(Rec.GuestStart);
    if (Dup != NovelIndexOfStart.end()) {
      // Both caches carry this start, and the module key matched, so
      // both bodies translate the same guest bytes. Novel is fresher,
      // but a strictly higher optimization generation is
      // validator-proved finalize work that a stale low-generation
      // writer must not clobber; lifetime heat accumulates either way.
      TraceRecord &Kept = Novel.Traces[Dup->second];
      if (Rec.OptGen > Kept.OptGen) {
        uint32_t Heat = Kept.Heat > Rec.Heat ? Kept.Heat : Rec.Heat;
        Kept = Rec;
        Kept.ModuleIndex = static_cast<uint32_t>(Map[Rec.ModuleIndex]);
        Kept.Heat = Heat;
      }
      continue;
    }
    Claimed.insert(Rec.GuestStart);
    TraceRecord Copy = Rec;
    Copy.ModuleIndex = static_cast<uint32_t>(Map[Rec.ModuleIndex]);
    Novel.Traces.push_back(std::move(Copy));
  }

  // Clear links whose targets did not survive the merge: readers treat
  // LinkedStart == 0 as "unlinked", and validate() requires closure.
  for (TraceRecord &Rec : Novel.Traces)
    for (ExitRecord &Exit : Rec.Exits)
      if (Exit.LinkedStart != 0 && !Claimed.count(Exit.LinkedStart))
        Exit.LinkedStart = 0;
  return Novel;
}
