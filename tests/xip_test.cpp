//===- tests/xip_test.cpp - execute-in-place sharing suite ----------------===//
//
// The execute-in-place (XIP) prime path: format v3 payloads mapped
// directly as executable trace bodies. Covers the contract the design
// leans on:
//
//   * EngineStats bit-identity between the XIP and materializing
//     consume paths (same payload, zero copies vs. decode+copy),
//   * eviction and flush release the borrowed mapping (unmap, never
//     free) and survivors disown their bodies into owned storage,
//   * a payload CRC failure in a mapped body falls back to
//     retranslation exactly like the materializing path,
//   * cross-process sharing: one physical copy per library cache,
//     later processes paying soft faults instead of demand-paged I/O,
//     including concurrent sessions with concurrent finalize,
//   * v2 -> v3 migration round-trip, carrying trace heat forward.
//
// Built as its own CTest executable (xip_test) so the XIP soak leg of
// scripts/check.sh can run exactly this binary under ASan/TSan; its
// tests register in the default ctest tier like any other.
//
//===----------------------------------------------------------------------===//

#include "dbi/CodeCache.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/Residency.h"
#include "persist/Session.h"
#include "support/FileSystem.h"
#include "workloads/Runner.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__)
#include <sys/wait.h>
#include <unistd.h>
#define PCC_XIP_HAVE_FORK 1
#else
#define PCC_XIP_HAVE_FORK 0
#endif

using namespace pcc;
using namespace pcc::persist;
using tests::expectStatsEqual;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

PersistOptions xipOptions() {
  PersistOptions Opts;
  Opts.PositionIndependent = true;
  Opts.ExecuteInPlace = true;
  return Opts;
}

/// Sum of the per-trace heat counters in the cache file at \p Path.
uint64_t totalHeat(const std::string &Path) {
  auto View = CacheFileView::openFile(Path, CacheFileView::Depth::Index);
  EXPECT_TRUE(View.ok()) << View.status().toString();
  uint64_t Sum = 0;
  for (uint32_t I = 0; I != View->numTraces(); ++I)
    Sum += View->entry(I).Heat;
  return Sum;
}

} // namespace

//===----------------------------------------------------------------------===//
// Stats bit-identity: mapped execution vs. materialized copies.
//===----------------------------------------------------------------------===//

TEST(Xip, WarmRunStatsBitIdenticalWithMaterializingPath) {
  TinyWorkload W = makeTinyWorkload(6, 3);
  auto Input = W.allSlotsInput(3);

  // Two databases primed by identical cold runs; one writes a v3 XIP
  // generation, the other the v2 materializing format. The consume
  // paths differ in mechanism only, never in modeled cost.
  TempDir XipDir, MatDir;
  CacheDatabase XipDb(XipDir.path()), MatDb(MatDir.path());
  PersistOptions XipOpts = xipOptions();
  PersistOptions MatOpts;
  MatOpts.PositionIndependent = true;

  auto ColdX =
      workloads::runPersistent(W.Registry, W.App, Input, XipDb, XipOpts);
  auto ColdM =
      workloads::runPersistent(W.Registry, W.App, Input, MatDb, MatOpts);
  ASSERT_TRUE(ColdX.ok()) << ColdX.status().toString();
  ASSERT_TRUE(ColdM.ok()) << ColdM.status().toString();

  // Warm consume only (no write-back: the contract under test is the
  // prime + run path; finalize costs differ trivially with file size).
  XipOpts.WriteBack = false;
  MatOpts.WriteBack = false;
  auto WarmX =
      workloads::runPersistent(W.Registry, W.App, Input, XipDb, XipOpts);
  auto WarmM =
      workloads::runPersistent(W.Registry, W.App, Input, MatDb, MatOpts);
  ASSERT_TRUE(WarmX.ok()) << WarmX.status().toString();
  ASSERT_TRUE(WarmM.ok()) << WarmM.status().toString();

  ASSERT_TRUE(WarmX->Prime.CacheFound);
  ASSERT_TRUE(WarmM->Prime.CacheFound);
  // The XIP prime borrows the mapping and copies nothing; the
  // materializing prime pays a copy for every installed trace.
  EXPECT_TRUE(WarmX->Prime.XipInstalled);
  EXPECT_EQ(WarmX->Prime.PayloadBytesCopied, 0u);
  EXPECT_FALSE(WarmM->Prime.XipInstalled);
  EXPECT_GT(WarmM->Prime.PayloadBytesCopied, 0u);
  EXPECT_EQ(WarmX->Prime.TracesInstalled, WarmM->Prime.TracesInstalled);
  EXPECT_EQ(WarmX->Prime.LinksRestored, WarmM->Prime.LinksRestored);

  EXPECT_TRUE(WarmX->Run.observablyEquals(WarmM->Run));
  EXPECT_TRUE(WarmX->Run.observablyEquals(ColdX->Run));
  expectStatsEqual(WarmX->Stats, WarmM->Stats, "xip-vs-materializing");
  EXPECT_GT(WarmX->Stats.TracesReused, 0u);
}

TEST(Xip, ValidateRunsFallBackToMaterializing) {
  // --validate sessions must decode private copies (the validator needs
  // a rebased body vector), so the XIP gate stands down; the run still
  // primes and verifies every trace.
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Cold =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  PersistOptions Opts = xipOptions();
  Opts.ValidateSemantic = true;
  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_FALSE(Warm->Prime.XipInstalled);
  EXPECT_GT(Warm->Prime.PayloadBytesCopied, 0u);
  EXPECT_GT(Warm->Stats.TracesVerified, 0u);
  EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run));
}

//===----------------------------------------------------------------------===//
// Borrowed-pool lifetime: eviction unmaps, never frees.
//===----------------------------------------------------------------------===//

TEST(Xip, FlushReleasesBorrowedMapping) {
  auto Buf = std::make_shared<std::vector<isa::Instruction>>(
      8, isa::makeNop());
  std::weak_ptr<std::vector<isa::Instruction>> Weak = Buf;
  const size_t Bytes = Buf->size() * sizeof(isa::Instruction);

  dbi::CodeCache Cache(1 << 20, 1 << 20);
  ASSERT_TRUE(Cache
                  .installBorrowedPool(
                      reinterpret_cast<const uint8_t *>(Buf->data()),
                      Bytes, std::shared_ptr<const void>(Buf))
                  .ok());
  EXPECT_EQ(Cache.borrowedCodeBytes(), Bytes);
  EXPECT_EQ(Cache.codeBytesUsed(), Bytes);

  // The cache's keepalive is now the only owner of the mapping.
  Buf.reset();
  EXPECT_FALSE(Weak.expired());

  Cache.flush();
  EXPECT_TRUE(Weak.expired()) << "flush must release the mapping";
  EXPECT_EQ(Cache.borrowedCodeBytes(), 0u);
  EXPECT_EQ(Cache.codeBytesUsed(), 0u);
}

TEST(Xip, EvictOldestDisownsSurvivorsAndReleasesMapping) {
  // Two traces living in a borrowed pool; evicting the older one must
  // copy the survivor into owned storage (disown) and release the
  // mapping — unmap, not free: the shared pages were never this
  // process's to deallocate.
  auto Buf = std::make_shared<std::vector<isa::Instruction>>();
  for (unsigned I = 0; I != 4; ++I)
    Buf->push_back(isa::makeLdi(1, 0x100 + I));
  for (unsigned I = 0; I != 4; ++I)
    Buf->push_back(isa::makeLdi(2, 0x200 + I));
  std::weak_ptr<std::vector<isa::Instruction>> Weak = Buf;
  const uint32_t TraceBytes = 4 * sizeof(isa::Instruction);
  const std::vector<isa::Instruction> SurvivorBody(Buf->begin() + 4,
                                                   Buf->end());

  dbi::CodeCache Cache(1 << 20, 1 << 20);
  ASSERT_TRUE(Cache
                  .installBorrowedPool(
                      reinterpret_cast<const uint8_t *>(Buf->data()),
                      2 * TraceBytes, std::shared_ptr<const void>(Buf))
                  .ok());

  std::vector<dbi::TraceExit> Exits(1);
  auto T0 = Cache.addTrace(std::make_unique<dbi::TranslatedTrace>(
      0x1000, 4, 0, TraceBytes, Exits, /*FromPersistentCache=*/true));
  auto T1 = Cache.addTrace(std::make_unique<dbi::TranslatedTrace>(
      0x2000, 4, TraceBytes, TraceBytes, Exits,
      /*FromPersistentCache=*/true));
  ASSERT_TRUE(T0.ok());
  ASSERT_TRUE(T1.ok());
  (*T0)->materializeBorrowed(Buf->data());
  (*T1)->materializeBorrowed(Buf->data() + 4);
  EXPECT_TRUE((*T1)->isBorrowed());
  Buf.reset();

  EXPECT_EQ(Cache.evictOldest(0.5), 1u);
  EXPECT_TRUE(Weak.expired()) << "eviction must release the mapping";
  EXPECT_EQ(Cache.borrowedCodeBytes(), 0u);

  EXPECT_EQ(Cache.lookup(0x1000), nullptr);
  dbi::TranslatedTrace *Survivor = Cache.lookup(0x2000);
  ASSERT_NE(Survivor, nullptr);
  EXPECT_FALSE(Survivor->isBorrowed())
      << "survivor must own its body after the mapping is gone";
  ASSERT_EQ(Survivor->body().size(), SurvivorBody.size());
  for (size_t I = 0; I != SurvivorBody.size(); ++I)
    EXPECT_EQ(Survivor->body()[I], SurvivorBody[I]) << "inst " << I;
  // Compaction reclaimed the evicted trace's bytes.
  EXPECT_EQ(Survivor->poolOffset(), 0u);
  EXPECT_EQ(Cache.codeBytesUsed(), TraceBytes);
}

//===----------------------------------------------------------------------===//
// Corruption: a mapped body that fails its CRC is retranslated.
//===----------------------------------------------------------------------===//

TEST(Xip, CorruptMappedPayloadFallsBackToRetranslation) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions Opts = xipOptions();
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  // Locate the cache file and flip one byte inside the first trace's
  // code image. The trace index stays CRC-clean, so the prime still
  // installs everything execute-in-place; the damage is caught by the
  // per-trace CRC at first execution of the mapped body.
  Opts.WriteBack = false;
  auto Probe = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Probe.ok()) << Probe.status().toString();
  ASSERT_TRUE(Probe->Prime.CacheFound);
  const std::string Path = Probe->Prime.CachePath;

  auto View = CacheFileView::openFile(Path, CacheFileView::Depth::Index);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  ASSERT_GT(View->numTraces(), 0u);
  const TraceIndexEntry &E = View->entry(0);
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok()) << Bytes.status().toString();
  (*Bytes)[View->payloadOffset() + E.CodeOffset + E.CodeSize / 2] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto Warm = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_TRUE(Warm->Prime.XipInstalled);
  EXPECT_GE(Warm->Stats.TracesDroppedCorrupt, 1u);
  EXPECT_GT(Warm->Stats.TracesCompiled, 0u)
      << "the dropped trace must be retranslated from guest memory";
  EXPECT_TRUE(Cold->Run.observablyEquals(Warm->Run))
      << "corruption must never change guest-visible behaviour";
}

//===----------------------------------------------------------------------===//
// Cross-process sharing: one physical copy per library cache.
//===----------------------------------------------------------------------===//

TEST(Xip, SecondSimulatedProcessPaysSoftFaultsNotIo) {
  TinyWorkload W = makeTinyWorkload(5, 3);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Cold =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  SharedResidencyMap Residency;
  PersistOptions Opts = xipOptions();
  Opts.SharedResidency = &Residency;
  Opts.WriteBack = false; // Keep the generation (and payload id) stable.

  auto First = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  ASSERT_TRUE(First->Prime.XipInstalled);
  // The first process demand-pages every payload page from disk.
  EXPECT_EQ(First->Stats.PersistSharedPageHits, 0u);
  EXPECT_GT(Residency.residentPages(), 0u);

  auto Second = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Second.ok()) << Second.status().toString();
  ASSERT_TRUE(Second->Prime.XipInstalled);
  // Every page the second process touches is already resident in the
  // first: soft faults only, and a strictly cheaper run.
  EXPECT_GT(Second->Stats.PersistSharedPageHits, 0u);
  EXPECT_LT(Second->Stats.PersistCycles, First->Stats.PersistCycles);
  EXPECT_TRUE(First->Run.observablyEquals(Second->Run));
}

TEST(Xip, ConcurrentSessionsShareAndFinalizeConcurrently) {
  TinyWorkload W = makeTinyWorkload(4, 3);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Cold =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  // Two simulated processes race: both prime from the shared mapping
  // and both finalize the same slot (the store's transactional publish
  // merges). The residency map is the cross-process page table.
  SharedResidencyMap Residency;
  PersistOptions Opts = xipOptions();
  Opts.SharedResidency = &Residency;

  ErrorOr<PersistentRunResult> Results[2] = {
      Status::error(ErrorCode::NotFound, "not run"),
      Status::error(ErrorCode::NotFound, "not run")};
  std::thread A([&] {
    Results[0] =
        workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  });
  std::thread B([&] {
    Results[1] =
        workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  });
  A.join();
  B.join();

  for (int I = 0; I != 2; ++I) {
    ASSERT_TRUE(Results[I].ok()) << Results[I].status().toString();
    EXPECT_TRUE(Results[I]->Prime.CacheFound);
    EXPECT_TRUE(Results[I]->Prime.XipInstalled);
    EXPECT_TRUE(Cold->Run.observablyEquals(Results[I]->Run));
  }
  EXPECT_GT(Residency.residentPages(), 0u);

  // The merged result of the concurrent finalizes is still a clean XIP
  // cache a later process primes in place.
  auto After =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  ASSERT_TRUE(After.ok()) << After.status().toString();
  EXPECT_TRUE(After->Prime.XipInstalled);
  EXPECT_TRUE(Cold->Run.observablyEquals(After->Run));
}

#if PCC_XIP_HAVE_FORK
TEST(Xip, ForkedProcessPrimesFromTheSameFile) {
  // Real multi-process check: a forked child and the parent prime the
  // same v3 file and both write back, exercising the file-locked
  // publish across actual processes.
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Cold =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();

  pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    auto R =
        workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
    _exit(R.ok() && R->Prime.XipInstalled &&
                  Cold->Run.observablyEquals(R->Run)
              ? 0
              : 1);
  }
  auto Parent =
      workloads::runPersistent(W.Registry, W.App, Input, Db, xipOptions());
  int ChildStatus = -1;
  ASSERT_EQ(waitpid(Child, &ChildStatus, 0), Child);
  EXPECT_TRUE(WIFEXITED(ChildStatus) && WEXITSTATUS(ChildStatus) == 0)
      << "child prime/run failed";
  ASSERT_TRUE(Parent.ok()) << Parent.status().toString();
  EXPECT_TRUE(Parent->Prime.XipInstalled);
  EXPECT_TRUE(Cold->Run.observablyEquals(Parent->Run));
}
#endif

//===----------------------------------------------------------------------===//
// Migration: v2 -> v3 round-trip, heat carried forward.
//===----------------------------------------------------------------------===//

TEST(Xip, MigrationFromV2CarriesHeatForward) {
  TinyWorkload W = makeTinyWorkload(5, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());

  // Generation 1: plain v2 (position-independent, not XIP).
  PersistOptions V2Opts;
  V2Opts.PositionIndependent = true;
  auto Gen1 = workloads::runPersistent(W.Registry, W.App, Input, Db, V2Opts);
  ASSERT_TRUE(Gen1.ok()) << Gen1.status().toString();

  // Generation 2: an XIP session consumes the v2 file (materializing —
  // there is nothing to map in place yet) and finalizes it as v3. It
  // compiles nothing; the format change alone makes it publish.
  PersistOptions Opts = xipOptions();
  auto Gen2 = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Gen2.ok()) << Gen2.status().toString();
  ASSERT_TRUE(Gen2->Prime.CacheFound);
  EXPECT_FALSE(Gen2->Prime.XipInstalled);
  EXPECT_GT(Gen2->Prime.PayloadBytesCopied, 0u);
  EXPECT_EQ(Gen2->Stats.TracesCompiled, 0u);
  EXPECT_EQ(Gen2->WriteBack.Reason, WriteBackReason::HeaderChanged);

  const std::string Path = Gen2->Prime.CachePath;
  {
    auto View = CacheFileView::openFile(Path, CacheFileView::Depth::Index);
    ASSERT_TRUE(View.ok()) << View.status().toString();
    EXPECT_EQ(View->formatVersion(), v2::XipVersion);
    EXPECT_TRUE(View->executeInPlace());
    EXPECT_EQ(View->payloadOffset() % v2::PayloadAlign, 0u)
        << "v3 payload must start on a page boundary";
  }
  const uint64_t HeatAfterGen2 = totalHeat(Path);
  EXPECT_GT(HeatAfterGen2, 0u)
      << "migration must carry the v2 generation's heat forward";
  // Heat counts the executions of every run that published: the v2
  // generation's plus the migrating run's.
  EXPECT_EQ(HeatAfterGen2, 2 * Gen1->Stats.TraceExecutions);

  // The migrated file primes execute-in-place. A same-input rerun has
  // learned nothing: it leaves the v3 generation byte-identical, heat
  // included.
  auto Gen2Bytes = readFile(Path);
  ASSERT_TRUE(Gen2Bytes.ok());
  auto Gen3 = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
  ASSERT_TRUE(Gen3.ok()) << Gen3.status().toString();
  EXPECT_TRUE(Gen3->Prime.XipInstalled);
  EXPECT_EQ(Gen3->Prime.PayloadBytesCopied, 0u);
  EXPECT_TRUE(Gen1->Run.observablyEquals(Gen3->Run));
  EXPECT_FALSE(Gen3->WriteBack.published());
  EXPECT_EQ(Gen3->WriteBack.Reason, WriteBackReason::NothingLearned);
  EXPECT_EQ(*readFile(Path), *Gen2Bytes);
}

TEST(Xip, WriteBackPublishesOnlyAFormatChange) {
  // The written header must match what the session writes: a v3 file
  // consumed by a materializing (v2) session is rewritten as v2, and a
  // v2 file consumed by an XIP session as v3 — even though neither run
  // compiles anything. A session of the file's own format skips.
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions V2Opts;
  V2Opts.PositionIndependent = true;
  const PersistOptions XipOpts = xipOptions();

  struct Step {
    const char *Label;
    const PersistOptions *Opts;
    WriteBackReason Expected;
    bool WritesXip;
  };
  const Step Steps[] = {
      {"cold XIP", &XipOpts, WriteBackReason::NoPrimedCache, true},
      {"XIP rerun", &XipOpts, WriteBackReason::NothingLearned, true},
      {"v3 to v2", &V2Opts, WriteBackReason::HeaderChanged, false},
      {"v2 rerun", &V2Opts, WriteBackReason::NothingLearned, false},
      {"v2 to v3", &XipOpts, WriteBackReason::HeaderChanged, true},
  };
  for (const Step &S : Steps) {
    SCOPED_TRACE(S.Label);
    auto R = workloads::runPersistent(W.Registry, W.App, Input, Db, *S.Opts);
    ASSERT_TRUE(R.ok()) << R.status().toString();
    EXPECT_EQ(R->WriteBack.Reason, S.Expected)
        << "got: " << describe(R->WriteBack.Reason);
    if (S.Expected != WriteBackReason::NoPrimedCache) {
      EXPECT_EQ(R->Stats.TracesCompiled, 0u);
    }
    auto Names = listDirectory(Dir.path());
    ASSERT_TRUE(Names.ok());
    ASSERT_EQ(Names->size(), 1u);
    auto View = CacheFileView::openFile(Dir.path() + "/" + Names->front(),
                                        CacheFileView::Depth::HeaderOnly);
    ASSERT_TRUE(View.ok()) << View.status().toString();
    EXPECT_EQ(View->executeInPlace(), S.WritesXip);
  }
}
