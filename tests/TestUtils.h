//===- tests/TestUtils.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//

#ifndef PCC_TESTS_TESTUTILS_H
#define PCC_TESTS_TESTUTILS_H

#include "dbi/Stats.h"
#include "support/FileSystem.h"
#include "workloads/Codegen.h"
#include "workloads/Runner.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pcc {
namespace tests {

/// RAII temporary directory for cache databases.
class TempDir {
public:
  TempDir() {
    auto Dir = createUniqueTempDir("pcc-test");
    EXPECT_TRUE(Dir.ok()) << (Dir.ok() ? "" : Dir.status().toString());
    if (Dir.ok())
      Path = Dir.take();
  }
  ~TempDir() {
    if (!Path.empty())
      (void)removeRecursively(Path);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;

  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// A small self-contained app: \p NumRegions local regions dispatched by
/// a work list, optionally importing \p LibRegions regions from a
/// library "libtest.so" added to \p Registry.
struct TinyWorkload {
  std::shared_ptr<binary::Module> App;
  loader::ModuleRegistry Registry;
  uint32_t NumLocal = 0;
  uint32_t NumImports = 0;

  /// Input running every slot once with \p Iters iterations.
  std::vector<uint8_t> allSlotsInput(uint32_t Iters = 1) const {
    std::vector<workloads::WorkItem> Items;
    for (uint32_t Slot = 0; Slot != NumLocal + NumImports; ++Slot)
      Items.push_back(workloads::WorkItem{Slot, Iters});
    return workloads::encodeWorkload(Items);
  }

  /// Input running the given (slot, iters) pairs.
  std::vector<uint8_t>
  input(const std::vector<workloads::WorkItem> &Items) const {
    return workloads::encodeWorkload(Items);
  }
};

/// Builds a TinyWorkload with deterministic contents.
inline TinyWorkload makeTinyWorkload(uint32_t NumLocal = 4,
                                     uint32_t NumImports = 3,
                                     uint64_t Seed = 42) {
  TinyWorkload W;
  W.NumLocal = NumLocal;
  W.NumImports = NumImports;

  if (NumImports != 0) {
    workloads::LibraryDef Lib;
    Lib.Name = "libtest.so";
    Lib.Path = "/lib/libtest.so";
    for (uint32_t I = 0; I != NumImports; ++I) {
      workloads::RegionDef Region;
      Region.Name = "libfn" + std::to_string(I);
      Region.Blocks = 4;
      Region.InstsPerBlock = 8;
      Region.Seed = Seed + 100 + I;
      Lib.Regions.push_back(std::move(Region));
    }
    W.Registry.add(workloads::buildLibrary(Lib));
  }

  workloads::AppDef Def;
  Def.Name = "tinyapp";
  Def.Path = "/bin/tinyapp";
  for (uint32_t I = 0; I != NumImports; ++I)
    Def.Slots.push_back(workloads::FunctionSlot::import(
        "libtest.so", "libfn" + std::to_string(I)));
  for (uint32_t I = 0; I != NumLocal; ++I) {
    workloads::RegionDef Region;
    Region.Name = "local" + std::to_string(I);
    Region.Blocks = 4;
    Region.InstsPerBlock = 8;
    Region.Seed = Seed + I;
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Region)));
  }
  W.App = workloads::buildExecutable(Def);
  return W;
}

/// Every EngineStats field, the compile-event timeline included: the
/// XIP/materializing, worker-count and sync/background-finalize
/// contracts are bit-identity, not approximate agreement. Includes
/// PersistSharedPageHits — the one counter a residency probe can move —
/// because every install path must move it identically.
inline void expectStatsEqual(const dbi::EngineStats &A,
                             const dbi::EngineStats &B,
                             const std::string &Label) {
  EXPECT_EQ(A.CompileCycles, B.CompileCycles) << Label;
  EXPECT_EQ(A.DispatchCycles, B.DispatchCycles) << Label;
  EXPECT_EQ(A.LinkCycles, B.LinkCycles) << Label;
  EXPECT_EQ(A.IndirectCycles, B.IndirectCycles) << Label;
  EXPECT_EQ(A.ExecCycles, B.ExecCycles) << Label;
  EXPECT_EQ(A.ToolCycles, B.ToolCycles) << Label;
  EXPECT_EQ(A.EmulationCycles, B.EmulationCycles) << Label;
  EXPECT_EQ(A.PersistCycles, B.PersistCycles) << Label;
  EXPECT_EQ(A.EvictionCycles, B.EvictionCycles) << Label;
  EXPECT_EQ(A.GuestInstsExecuted, B.GuestInstsExecuted) << Label;
  EXPECT_EQ(A.SyscallCount, B.SyscallCount) << Label;
  EXPECT_EQ(A.TracesCompiled, B.TracesCompiled) << Label;
  EXPECT_EQ(A.TracesLoadedFromCache, B.TracesLoadedFromCache) << Label;
  EXPECT_EQ(A.TracesReused, B.TracesReused) << Label;
  EXPECT_EQ(A.TraceExecutions, B.TraceExecutions) << Label;
  EXPECT_EQ(A.LinksCreated, B.LinksCreated) << Label;
  EXPECT_EQ(A.CacheFlushes, B.CacheFlushes) << Label;
  EXPECT_EQ(A.TracesEvicted, B.TracesEvicted) << Label;
  EXPECT_EQ(A.ModulesInvalidated, B.ModulesInvalidated) << Label;
  EXPECT_EQ(A.TracePayloadsValidated, B.TracePayloadsValidated) << Label;
  EXPECT_EQ(A.TracesDroppedCorrupt, B.TracesDroppedCorrupt) << Label;
  EXPECT_EQ(A.PersistSharedPageHits, B.PersistSharedPageHits) << Label;
  EXPECT_EQ(A.TracesVerified, B.TracesVerified) << Label;
  EXPECT_EQ(A.VerifyFailures, B.VerifyFailures) << Label;
  EXPECT_EQ(A.CertsChecked, B.CertsChecked) << Label;
  EXPECT_EQ(A.CertChecksFailed, B.CertChecksFailed) << Label;
  EXPECT_EQ(A.ProofsReplayed, B.ProofsReplayed) << Label;
  EXPECT_EQ(A.FlagsElided, B.FlagsElided) << Label;
  EXPECT_EQ(A.TracesPromoted, B.TracesPromoted) << Label;
  EXPECT_EQ(A.SuperblocksFormed, B.SuperblocksFormed) << Label;
  EXPECT_EQ(A.OptLoadsEliminated, B.OptLoadsEliminated) << Label;
  EXPECT_EQ(A.OptConstsFolded, B.OptConstsFolded) << Label;
  EXPECT_EQ(A.OptValidatorRejections, B.OptValidatorRejections) << Label;
  EXPECT_EQ(A.OptNopsExecuted, B.OptNopsExecuted) << Label;
  EXPECT_EQ(A.PersistL1Hits, B.PersistL1Hits) << Label;
  EXPECT_EQ(A.PersistL2Hits, B.PersistL2Hits) << Label;
  EXPECT_EQ(A.PersistRemoteFetches, B.PersistRemoteFetches) << Label;
  EXPECT_EQ(A.PersistRemoteBytes, B.PersistRemoteBytes) << Label;
  EXPECT_EQ(A.FirstTraceReadyCycles, B.FirstTraceReadyCycles) << Label;
  EXPECT_EQ(A.PersistStoreFailures, B.PersistStoreFailures) << Label;
  EXPECT_EQ(A.PersistStoreRetries, B.PersistStoreRetries) << Label;
  EXPECT_EQ(A.PersistCandidatesSkippedIo, B.PersistCandidatesSkippedIo)
      << Label;
  EXPECT_EQ(A.PersistDegraded, B.PersistDegraded) << Label;
  EXPECT_EQ(A.PersistDegradeReason, B.PersistDegradeReason) << Label;
  ASSERT_EQ(A.Timeline.size(), B.Timeline.size()) << Label;
  for (size_t I = 0; I < A.Timeline.size(); ++I) {
    EXPECT_EQ(A.Timeline[I].GuestInstsExecuted,
              B.Timeline[I].GuestInstsExecuted)
        << Label << " timeline[" << I << "]";
    EXPECT_EQ(A.Timeline[I].TraceInsts, B.Timeline[I].TraceInsts)
        << Label << " timeline[" << I << "]";
  }
}

} // namespace tests
} // namespace pcc

#endif // PCC_TESTS_TESTUTILS_H
