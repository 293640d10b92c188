//===- tests/persist_db_test.cpp - cache database maintenance + fuzzing ---===//
//
// Database maintenance (stats, size-capped eviction) and a corruption
// sweep: a persistent cache file damaged at any byte must either be
// rejected cleanly or — never — affect execution results. "To prevent
// the use of invalid/inconsistent translations" (Section 3.2.1) has to
// hold against disk corruption too.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/Session.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

CacheFile makeFileWithTraces(unsigned NumTraces, uint32_t Generation) {
  CacheFile File;
  File.EngineHash = dbi::engineVersionHash();
  File.ToolHash = noToolHash();
  File.Generation = Generation;
  ModuleKey Key;
  Key.Path = "/bin/x";
  Key.Base = 0x400000;
  Key.Size = 0x10000;
  File.Modules.push_back(Key);
  for (unsigned I = 0; I != NumTraces; ++I) {
    TraceRecord Trace;
    Trace.GuestStart = 0x400000 + I * 64;
    Trace.GuestInstCount = 4;
    Trace.Code.assign(64, static_cast<uint8_t>(I));
    File.Traces.push_back(std::move(Trace));
  }
  return File;
}

} // namespace

TEST(Database, StatsAggregateAcrossFiles) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(3, 1)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(5, 2)).ok());

  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 2u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  EXPECT_EQ(Stats->Traces, 8u);
  EXPECT_EQ(Stats->CodeBytes, 8u * 64u);
  EXPECT_GT(Stats->DataBytes, Stats->CodeBytes);
  EXPECT_GT(Stats->DiskBytes, Stats->CodeBytes);
}

TEST(Database, StatsCountCorruptFiles) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(2, 1)).ok());
  auto Bytes = readFile(Db.pathFor(1));
  ASSERT_TRUE(Bytes.ok());
  (*Bytes)[10] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Db.pathFor(1), *Bytes).ok());
  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 1u);
  EXPECT_EQ(Stats->CorruptFiles, 1u);
}

TEST(Database, ShrinkEvictsLeastAccumulatedFirst) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  // Generation 5 (heavily reused) vs generation 1 (one-shot) caches.
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(10, 5)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(10, 1)).ok());
  ASSERT_TRUE(Db.store(3, makeFileWithTraces(10, 1)).ok());

  auto Before = Db.stats();
  ASSERT_TRUE(Before.ok());
  // Cap so exactly one file must go: the generation-1 ones go first.
  uint64_t PerFile = Before->DiskBytes / 3;
  auto Removed = Db.shrinkTo(Before->DiskBytes - PerFile);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 1u);
  EXPECT_TRUE(Db.exists(1)) << "high-generation cache must survive";
  EXPECT_TRUE(Db.exists(2) != Db.exists(3))
      << "exactly one generation-1 cache evicted";
}

TEST(Database, ShrinkToZeroEmptiesDatabase) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(4, 1)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(4, 2)).ok());
  auto Removed = Db.shrinkTo(0);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 2u);
  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 0u);
}

TEST(Database, ShrinkAlwaysDropsCorruptFiles) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(4, 9)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(4, 9)).ok());
  auto Bytes = readFile(Db.pathFor(2));
  ASSERT_TRUE(Bytes.ok());
  Bytes->resize(Bytes->size() / 2);
  ASSERT_TRUE(writeFileAtomic(Db.pathFor(2), *Bytes).ok());

  // Budget is generous: only the corrupt file goes.
  auto Removed = Db.shrinkTo(1ull << 30);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 1u);
  EXPECT_TRUE(Db.exists(1));
  EXPECT_FALSE(Db.exists(2));
}

TEST(Database, ScansSurviveTruncatedV2Header) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(4, 1)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(4, 1)).ok());
  auto Bytes = readFile(Db.pathFor(2));
  ASSERT_TRUE(Bytes.ok());
  Bytes->resize(40); // Valid v2 magic, header cut short.
  ASSERT_TRUE(writeFileAtomic(Db.pathFor(2), *Bytes).ok());

  // The compatibility scan skips the stub without failing — and pulls
  // it into the quarantine (with the reason recorded) so later scans
  // don't trip over it again.
  auto Matches =
      Db.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Matches.ok());
  ASSERT_EQ(Matches->size(), 1u);
  EXPECT_EQ((*Matches)[0], Db.pathFor(1));
  EXPECT_FALSE(Db.exists(2));

  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 1u);
  EXPECT_EQ(Stats->CorruptFiles, 0u);
  EXPECT_EQ(Stats->QuarantinedFiles, 1u);

  auto Quarantined = Db.quarantined();
  ASSERT_TRUE(Quarantined.ok());
  ASSERT_EQ(Quarantined->size(), 1u);
  EXPECT_FALSE((*Quarantined)[0].Reason.empty());

  auto Removed = Db.shrinkTo(1ull << 30);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 0u);
  EXPECT_TRUE(Db.exists(1));
}

TEST(Database, ScansSurviveBadIndexCrc) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(4, 1)).ok());
  ASSERT_TRUE(Db.store(2, makeFileWithTraces(4, 1)).ok());
  auto Bytes = readFile(Db.pathFor(2));
  ASSERT_TRUE(Bytes.ok());
  // Flip a byte inside the trace-index section; the header stores that
  // section's offset at byte 48 (see CacheView.h).
  uint32_t IndexOffset = 0;
  for (unsigned I = 0; I != 4; ++I)
    IndexOffset |= static_cast<uint32_t>((*Bytes)[48 + I]) << (8 * I);
  ASSERT_LT(IndexOffset + 2, Bytes->size());
  (*Bytes)[IndexOffset + 2] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(Db.pathFor(2), *Bytes).ok());

  // The header itself is intact, so the header-only compatibility scan
  // still lists the file (priming rejects it later); the index-deep
  // maintenance scans flag it as corrupt and shrink deletes it.
  auto Matches =
      Db.findCompatible(dbi::engineVersionHash(), noToolHash());
  ASSERT_TRUE(Matches.ok());
  EXPECT_EQ(Matches->size(), 2u);

  auto Stats = Db.stats();
  ASSERT_TRUE(Stats.ok());
  EXPECT_EQ(Stats->CacheFiles, 2u);
  EXPECT_EQ(Stats->CorruptFiles, 1u);

  auto Removed = Db.shrinkTo(1ull << 30);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 1u);
  EXPECT_TRUE(Db.exists(1));
  EXPECT_FALSE(Db.exists(2));
}

TEST(Database, ShrinkNoopWhenUnderBudget) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, makeFileWithTraces(4, 1)).ok());
  auto Removed = Db.shrinkTo(1ull << 30);
  ASSERT_TRUE(Removed.ok());
  EXPECT_EQ(*Removed, 0u);
  EXPECT_TRUE(Db.exists(1));
}

//===----------------------------------------------------------------------===//
// Corruption sweep: flip a byte at a position spread over the file and
// verify the run is never affected.
//===----------------------------------------------------------------------===//

namespace {

class CacheCorruptionSweep : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(CacheCorruptionSweep, DamagedCacheNeverChangesResults) {
  TinyWorkload W = makeTinyWorkload(3, 2, /*Seed=*/77);
  auto Input = W.allSlotsInput(3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());

  auto Reference = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Reference.ok());
  auto Cold = workloads::runPersistent(W.Registry, W.App, Input, Db);
  ASSERT_TRUE(Cold.ok());

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());

  // Parameter 0..19 selects a byte position across the file; flip it.
  size_t Position = (Bytes->size() - 1) *
                    static_cast<size_t>(GetParam()) / 19;
  (*Bytes)[Position] ^= 0x5a;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  persist::PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto Warm =
      workloads::runPersistent(W.Registry, W.App, Input, Db, ReadOnly);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  // A flip in the header, module table or trace index rejects the cache
  // wholesale at prime; a flip in a trace's code image is only caught by
  // that trace's own CRC at first execution, where the engine drops and
  // retranslates it. Either way, no damaged byte may go unnoticed and
  // the run's observable behaviour must be unaffected.
  if (Warm->Prime.CacheFound) {
    EXPECT_GT(Warm->Stats.TracesDroppedCorrupt, 0u)
        << "byte " << Position << " flip went undetected";
  }
  EXPECT_TRUE(Reference->observablyEquals(Warm->Run));
}

INSTANTIATE_TEST_SUITE_P(Positions, CacheCorruptionSweep,
                         ::testing::Range(0, 20));

TEST(CacheValidation, RealCachesValidateCleanly) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(workloads::runPersistent(W.Registry, W.App,
                                       W.allSlotsInput(3), Db)
                  .ok());
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  auto File = Db.loadPath(Dir.path() + "/" + (*Files)[0]);
  ASSERT_TRUE(File.ok());
  EXPECT_TRUE(File->validate().ok());
}

TEST(CacheValidation, DetectsStructuralViolations) {
  auto expectInvalid = [](CacheFile File, const char *What) {
    Status S = File.validate();
    EXPECT_FALSE(S.ok()) << What;
  };
  CacheFile Base = makeFileWithTraces(2, 1);
  EXPECT_TRUE(Base.validate().ok());

  CacheFile BadModule = Base;
  BadModule.Traces[0].ModuleIndex = 9;
  expectInvalid(BadModule, "module index");

  CacheFile OutsideMapping = Base;
  OutsideMapping.Traces[0].GuestStart = 0x90000000;
  expectInvalid(OutsideMapping, "start outside module");

  CacheFile Duplicate = Base;
  Duplicate.Traces[1].GuestStart = Duplicate.Traces[0].GuestStart;
  expectInvalid(Duplicate, "duplicate start");

  CacheFile ShortCode = Base;
  ShortCode.Traces[0].Code.resize(8);
  expectInvalid(ShortCode, "short code image");

  CacheFile BadExit = Base;
  BadExit.Traces[0].Exits.push_back(ExitRecord{0, 99, 0, 0});
  expectInvalid(BadExit, "exit index out of range");

  CacheFile DanglingLink = Base;
  DanglingLink.Traces[0].Exits.push_back(
      ExitRecord{1, 0, 0x12345678, 0x12345678});
  expectInvalid(DanglingLink, "dangling link");
}
