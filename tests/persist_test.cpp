//===- tests/persist_test.cpp - persistent code caching tests -------------===//
//
// Covers the paper's core mechanisms: keys (Section 3.2.1), cache
// generation (3.2.2), reuse/validation/invalidation (3.2.3), cross-input
// reuse (4.3), accumulation (4.4), inter-application persistence (4.5),
// and the position-independent-translation extension.
//
//===----------------------------------------------------------------------===//

#include "dbi/Compiler.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheFile.h"
#include "persist/CacheView.h"
#include "persist/DbCheck.h"
#include "persist/DirectoryStore.h"
#include "persist/Key.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"

#include "TestUtils.h"

#include "support/ByteStream.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <functional>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;
using workloads::WorkItem;

namespace {

/// Run (app, input) with persistence against Db; asserts success.
PersistentRunResult mustRunPersistent(
    const TinyWorkload &W, const std::vector<uint8_t> &Input,
    const CacheDatabase &Db,
    const PersistOptions &Opts = PersistOptions(),
    dbi::Tool *Tool = nullptr,
    loader::BasePolicy Policy = loader::BasePolicy::Fixed,
    uint64_t AslrSeed = 0) {
  auto R = workloads::runPersistent(W.Registry, W.App, Input, Db, Opts,
                                    Tool, dbi::EngineOptions(), Policy,
                                    AslrSeed);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.status().toString());
  return R.take();
}

} // namespace

TEST(Key, ComputedFromMapping) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  auto M = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput());
  ASSERT_TRUE(M.ok());
  ModuleKey Key = ModuleKey::compute(M->image().Modules[0]);
  EXPECT_EQ(Key.Path, "/bin/tinyapp");
  EXPECT_EQ(Key.Base, loader::Loader::ExecutableBase);
  EXPECT_NE(Key.FullHash, 0u);
  EXPECT_NE(Key.FullHash, Key.PicHash);
  EXPECT_TRUE(Key.matches(Key));
}

TEST(Key, TimestampChangesKey) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  auto M1 = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput());
  ASSERT_TRUE(M1.ok());
  ModuleKey Before = ModuleKey::compute(M1->image().Modules[0]);

  // Rebuild (touch) the binary, as a static compiler would.
  auto Touched = std::make_shared<binary::Module>(*W.App);
  Touched->touch();
  loader::ModuleRegistry Registry;
  auto M2 = workloads::makeMachine(Registry, Touched, W.allSlotsInput());
  ASSERT_TRUE(M2.ok());
  ModuleKey After = ModuleKey::compute(M2->image().Modules[0]);
  EXPECT_FALSE(Before.matches(After));
  EXPECT_FALSE(Before.matchesIgnoringBase(After));
}

TEST(Key, BaseAddressOnlyAffectsFullHash) {
  TinyWorkload W = makeTinyWorkload(1, 1);
  auto MA = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput(),
                                   loader::BasePolicy::Randomized, 11);
  auto MB = workloads::makeMachine(W.Registry, W.App, W.allSlotsInput(),
                                   loader::BasePolicy::Randomized, 22);
  ASSERT_TRUE(MA.ok() && MB.ok());
  const auto *LibA = MA->image().findByName("libtest.so");
  const auto *LibB = MB->image().findByName("libtest.so");
  ASSERT_TRUE(LibA && LibB);
  ASSERT_NE(LibA->Base, LibB->Base);
  ModuleKey KA = ModuleKey::compute(*LibA);
  ModuleKey KB = ModuleKey::compute(*LibB);
  EXPECT_FALSE(KA.matches(KB));
  EXPECT_TRUE(KA.matchesIgnoringBase(KB));
}

TEST(Key, SerializationRoundTrip) {
  ModuleKey Key;
  Key.Path = "/lib/libx.so";
  Key.Base = 0x10000000;
  Key.Size = 0x4000;
  Key.HeaderHash = 123;
  Key.ModTime = 456;
  Key.FullHash = 789;
  Key.PicHash = 1011;
  ByteWriter Writer;
  Key.serialize(Writer);
  ByteReader Reader(Writer.bytes());
  ModuleKey Back = ModuleKey::deserialize(Reader);
  EXPECT_EQ(Back, Key);
}

TEST(CacheFileFormat, SerializeDeserializeRoundTrip) {
  CacheFile File;
  File.EngineHash = 1;
  File.ToolHash = 2;
  File.SpecBits = 3;
  File.PositionIndependent = true;
  File.Generation = 7;
  ModuleKey Key;
  Key.Path = "/bin/x";
  Key.FullHash = 42;
  File.Modules.push_back(Key);
  TraceRecord Trace;
  Trace.GuestStart = 0x400000;
  Trace.ModuleIndex = 0;
  Trace.GuestInstCount = 2;
  Trace.Code = {1, 2, 3, 4};
  Trace.Exits.push_back(ExitRecord{0, 1, 0x400010, 0x400010});
  Trace.setRelocBit(1);
  File.Traces.push_back(Trace);

  auto Bytes = File.serialize();
  auto Back = CacheFile::deserialize(Bytes);
  ASSERT_TRUE(Back.ok()) << Back.status().toString();
  EXPECT_EQ(Back->EngineHash, 1u);
  EXPECT_EQ(Back->Generation, 7u);
  EXPECT_TRUE(Back->PositionIndependent);
  ASSERT_EQ(Back->Traces.size(), 1u);
  EXPECT_EQ(Back->Traces[0].Code, Trace.Code);
  EXPECT_TRUE(Back->Traces[0].relocBit(1));
  EXPECT_FALSE(Back->Traces[0].relocBit(0));
  ASSERT_EQ(Back->Traces[0].Exits.size(), 1u);
  EXPECT_EQ(Back->Traces[0].Exits[0].LinkedStart, 0x400010u);
}

TEST(CacheFileFormat, CorruptionDetected) {
  CacheFile File;
  File.EngineHash = 5;
  auto Bytes = File.serialize();
  Bytes[Bytes.size() / 2] ^= 1;
  auto Back = CacheFile::deserialize(Bytes);
  ASSERT_FALSE(Back.ok());
  EXPECT_EQ(Back.status().code(), ErrorCode::InvalidFormat);
}

TEST(CacheFileFormat, TruncationDetected) {
  CacheFile File;
  auto Bytes = File.serialize();
  Bytes.resize(Bytes.size() - 5);
  EXPECT_FALSE(CacheFile::deserialize(Bytes).ok());
}

TEST(CacheFileFormat, SizeAccounting) {
  CacheFile File;
  TraceRecord Trace;
  Trace.GuestInstCount = 4;
  Trace.Code.assign(100, 0);
  Trace.Exits.resize(2);
  File.Traces.push_back(Trace);
  EXPECT_EQ(File.codeBytes(), 100u);
  EXPECT_EQ(File.dataBytes(), traceDataBytes(2, 4));
  // Data structures outweigh code for typical short traces (Figure 9).
  EXPECT_GT(File.dataBytes(), File.codeBytes());
}

//===----------------------------------------------------------------------===//
// Serializer byte pins: fixed CacheFiles covering every layout variant
// serialize() emits. The size and whole-image CRC of each are constants
// of the on-disk format, so a writer rewrite must reproduce them.
//===----------------------------------------------------------------------===//

namespace {

enum class PinLayout { PlainV2, OptGenWide, Certificates, XipV3, PicMasks };

CacheFile pinnedFixture(PinLayout Layout) {
  CacheFile File;
  File.EngineHash = 0x1122334455667788ull;
  File.ToolHash = 0x99aabbccddeeff00ull;
  File.SpecBits = 1;
  File.Generation = 3;
  File.WriterTag = 0xbeef;
  File.PositionIndependent =
      Layout == PinLayout::XipV3 || Layout == PinLayout::PicMasks;
  File.ExecuteInPlace = Layout == PinLayout::XipV3;
  for (uint32_t M = 0; M != 2; ++M) {
    ModuleKey Key;
    Key.Path = M ? "/lib/libpin.so" : "/bin/pin";
    Key.Base = 0x400000 + M * 0x100000;
    Key.Size = 0x8000;
    Key.HeaderHash = 11 + M;
    Key.ModTime = 22 + M;
    Key.FullHash = 33 + M;
    Key.PicHash = 44 + M;
    File.Modules.push_back(Key);
  }
  const uint32_t NumTraces = 5;
  auto startOf = [&](uint32_t T) {
    return File.Modules[T % 2].Base + 0x40 * T;
  };
  for (uint32_t T = 0; T != NumTraces; ++T) {
    TraceRecord Rec;
    Rec.ModuleIndex = T % 2;
    Rec.GuestStart = startOf(T);
    Rec.GuestInstCount = 3 + T;
    Rec.Code.resize(dbi::TracePrologueBytes +
                    Rec.GuestInstCount * isa::InstructionSize +
                    2 * dbi::ExitStubBytes);
    for (size_t B = 0; B != Rec.Code.size(); ++B)
      Rec.Code[B] = static_cast<uint8_t>(B * 7 + T * 13);
    const uint32_t Next = startOf((T + 1) % NumTraces);
    Rec.Exits.push_back(
        ExitRecord{static_cast<uint8_t>(dbi::ExitKind::Branch), 1, Next,
                   T % 2 ? Next : 0});
    Rec.Exits.push_back(
        ExitRecord{static_cast<uint8_t>(dbi::ExitKind::FallThrough),
                   Rec.GuestInstCount - 1,
                   Rec.GuestStart + Rec.GuestInstCount * isa::InstructionSize,
                   0});
    Rec.Heat = 100 - T;
    if (Layout == PinLayout::OptGenWide && T == 2)
      Rec.OptGen = 2;
    if (Layout == PinLayout::Certificates && T % 2 == 1)
      Rec.Cert.assign(24 + T, static_cast<uint8_t>(0xc0 + T));
    if (File.PositionIndependent) {
      Rec.setRelocBit(0);
      Rec.setRelocBit(Rec.GuestInstCount - 1);
    }
    File.Traces.push_back(std::move(Rec));
  }
  return File;
}

struct SerializerPin {
  const char *Label;
  PinLayout Layout;
  size_t Size;
  uint32_t Crc;
};

const SerializerPin SerializerPins[] = {
    {"plain v2", PinLayout::PlainV2, 956, 2791784314u},
    {"OptGen wide entries", PinLayout::OptGenWide, 976, 2138423878u},
    {"certificate section", PinLayout::Certificates, 1064, 2186821175u},
    {"XIP v3 padding", PinLayout::XipV3, 4536, 3458085025u},
    {"PIC reloc masks", PinLayout::PicMasks, 961, 1587164697u},
};

} // namespace

TEST(CacheFileFormat, SerializerBytesPinned) {
  for (const SerializerPin &Pin : SerializerPins) {
    SCOPED_TRACE(Pin.Label);
    const CacheFile File = pinnedFixture(Pin.Layout);
    const std::vector<uint8_t> Bytes = File.serialize();
    EXPECT_EQ(Bytes.size(), Pin.Size);
    EXPECT_EQ(File.serializedSize(), Pin.Size);
    EXPECT_EQ(crc32(Bytes.data(), Bytes.size()), Pin.Crc);
    auto Back = CacheFile::deserialize(Bytes);
    ASSERT_TRUE(Back.ok()) << Back.status().toString();
    EXPECT_EQ(Back->serialize(), Bytes);
    // Known payload CRCs are used as given, and give the same bytes.
    CacheFile Known = File;
    for (TraceRecord &Rec : Known.Traces)
      Rec.CodeCrc = crc32(Rec.Code.data(), Rec.Code.size());
    EXPECT_EQ(Known.serialize(), Bytes);
  }
}

TEST(Database, StoreLoadRemove) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  CacheFile File;
  File.EngineHash = 99;
  ASSERT_TRUE(Db.store(7, File).ok());
  EXPECT_TRUE(Db.exists(7));
  auto Back = Db.load(7);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->EngineHash, 99u);
  EXPECT_TRUE(Db.remove(7).ok());
  EXPECT_FALSE(Db.exists(7));
  EXPECT_EQ(Db.load(7).status().code(), ErrorCode::NotFound);
}

TEST(Database, FindCompatibleFiltersByEngineAndTool) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  CacheFile A;
  A.EngineHash = 1;
  A.ToolHash = 2;
  CacheFile B;
  B.EngineHash = 1;
  B.ToolHash = 3;
  ASSERT_TRUE(Db.store(100, A).ok());
  ASSERT_TRUE(Db.store(200, B).ok());
  auto Matches = Db.findCompatible(1, 2);
  ASSERT_TRUE(Matches.ok());
  ASSERT_EQ(Matches->size(), 1u);
  EXPECT_EQ((*Matches)[0], Db.pathFor(100));
}

TEST(Database, ClearRemovesEverything) {
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  ASSERT_TRUE(Db.store(1, CacheFile()).ok());
  ASSERT_TRUE(Db.store(2, CacheFile()).ok());
  ASSERT_TRUE(Db.clear().ok());
  EXPECT_FALSE(Db.exists(1));
  EXPECT_FALSE(Db.exists(2));
}

//===----------------------------------------------------------------------===//
// Retired v1 format: a "PCC1" file is an unsupported version like any
// other. The session runs cold and records why, the next write-back
// leaves a v2 file in the app's slot, and checkDatabase --repair
// quarantines the v1 file as version-mismatch.
//===----------------------------------------------------------------------===//

namespace {

/// A v1-layout image: "PCC1" magic, the v1 header fields carrying this
/// engine's and the tool-less keys, no modules or traces, and the
/// trailing whole-file CRC. Key-compatible, so only its format can
/// disqualify it.
std::vector<uint8_t> legacyV1Image() {
  ByteWriter Writer;
  Writer.writeU32(LegacyCacheMagic);
  Writer.writeU32(2); // The v1 layout's own version field.
  Writer.writeU64(dbi::engineVersionHash());
  Writer.writeU64(noToolHash());
  Writer.writeU8(0);  // SpecBits.
  Writer.writeU8(0);  // PositionIndependent.
  Writer.writeU32(1); // Generation.
  Writer.writeU32(0); // Module count.
  Writer.writeU32(0); // Trace count.
  Writer.writeU32(crc32(Writer.bytes().data(), Writer.size()));
  return Writer.take();
}

enum class LegacyBackend { Directory, Memory, TieredL2Only };

struct LegacyCase {
  const char *Label;
  LegacyBackend Backend;
  /// Plant the v1 image in an inter-application donor's slot (primed
  /// via ExplicitCachePath) instead of the app's own slot.
  bool Donor;
};

} // namespace

TEST(RetiredV1Format, RunsColdRewritesAndQuarantines) {
  const LegacyCase Cases[] = {
      {"directory/own", LegacyBackend::Directory, false},
      {"directory/donor", LegacyBackend::Directory, true},
      {"memory/own", LegacyBackend::Memory, false},
      {"memory/donor", LegacyBackend::Memory, true},
      {"tiered-l2/own", LegacyBackend::TieredL2Only, false},
      {"tiered-l2/donor", LegacyBackend::TieredL2Only, true},
  };
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(3);
  auto M = workloads::makeMachine(W.Registry, W.App, Input);
  ASSERT_TRUE(M.ok());
  const uint64_t OwnKey =
      computeLookupKey(ModuleKey::compute(M->image().Modules.front()),
                       dbi::engineVersionHash(), noToolHash());
  const uint64_t DonorKey = OwnKey ^ 0x5a5a5a5aull;

  PersistOptions NoWriteBack;
  NoWriteBack.WriteBack = false;
  CacheDatabase EmptyDb(std::make_shared<MemoryStore>());
  auto NoCache = mustRunPersistent(W, Input, EmptyDb, NoWriteBack);
  ASSERT_FALSE(NoCache.Prime.CacheFound);

  for (const LegacyCase &C : Cases) {
    SCOPED_TRACE(C.Label);
    TempDir Dir;
    // Holder is the store the v1 image lives in (the L2 of a tiered
    // store); CheckDir is the directory database checkDatabase scans
    // (none for the memory backend).
    std::shared_ptr<CacheStore> Holder, Backend;
    std::string CheckDir;
    switch (C.Backend) {
    case LegacyBackend::Directory:
      CheckDir = Dir.path();
      Holder = Backend = std::make_shared<DirectoryStore>(CheckDir);
      break;
    case LegacyBackend::Memory:
      Holder = Backend = std::make_shared<MemoryStore>();
      break;
    case LegacyBackend::TieredL2Only:
      CheckDir = Dir.path() + "/l2";
      Holder = std::make_shared<DirectoryStore>(CheckDir);
      Backend = std::make_shared<TieredStore>(
          std::make_shared<DirectoryStore>(Dir.path() + "/l1"), Holder);
      break;
    }
    const uint64_t Key = C.Donor ? DonorKey : OwnKey;
    const std::string Ref = Holder->refFor(Key);
    auto plant = [&] {
      if (auto *Mem = dynamic_cast<MemoryStore *>(Holder.get()))
        ASSERT_TRUE(Mem->putBytes(Ref, legacyV1Image()).ok());
      else
        ASSERT_TRUE(writeFileAtomic(Ref, legacyV1Image()).ok());
    };
    plant();

    CacheDatabase Db(Backend);
    PersistOptions Opts;
    if (C.Donor) {
      Opts.InterApplication = true;
      Opts.ExplicitCachePath = Backend->refFor(DonorKey);
    }
    auto Run = mustRunPersistent(W, Input, Db, Opts);
    EXPECT_FALSE(Run.Prime.CacheFound);
    EXPECT_NE(Run.Prime.RejectReason.find("legacy (v1) cache file"),
              std::string::npos)
        << Run.Prime.RejectReason;
    EXPECT_TRUE(Run.Run.observablyEquals(NoCache.Run));
    EXPECT_EQ(Run.Stats.TracesCompiled, NoCache.Stats.TracesCompiled);

    // The write-back left a valid v2 file in the app's slot (over the
    // v1 file itself in the own-slot cases).
    auto Slot = Holder->openKey(OwnKey, CacheFileView::Depth::Index);
    ASSERT_TRUE(Slot.ok()) << Slot.status().toString();
    EXPECT_EQ(Slot->View.formatVersion(), v2::Version);
    EXPECT_EQ(Slot->View.generation(), 1u);
    EXPECT_GT(Slot->View.numTraces(), 0u);

    if (CheckDir.empty())
      continue; // checkDatabase scans directory databases only.
    plant(); // The own-slot write-back replaced it.
    DbCheckOptions Repair;
    Repair.Repair = true;
    auto Report = checkDatabase(CheckDir, Repair);
    ASSERT_TRUE(Report.ok()) << Report.status().toString();
    EXPECT_EQ(Report->FilesQuarantined, 1u);
    ASSERT_EQ(Report->Quarantine.size(), 1u);
    EXPECT_EQ(Report->Quarantine[0].Name, Ref.substr(CheckDir.size() + 1));
    EXPECT_EQ(Report->Quarantine[0].Code,
              QuarantineReasonCode::VersionMismatch);
    EXPECT_FALSE(fileExists(Ref));
  }
}

TEST(FormatMigration, V1RewrittenAsV2AtFinalize) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  auto Input = W.allSlotsInput(3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Cold = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Cold.Prime.CacheFound);

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  ASSERT_TRUE(writeFileAtomic(Path, legacyV1Image()).ok());
  ASSERT_FALSE(Db.loadPath(Path).ok());

  // A default (write-back) run cannot use the v1 file, runs cold, and
  // its finalize overwrites the slot with a fresh v2 file.
  auto Upgrade = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Upgrade.Prime.CacheFound);
  EXPECT_EQ(Upgrade.Stats.TracesCompiled, Cold.Stats.TracesCompiled);
  EXPECT_TRUE(Upgrade.Run.observablyEquals(Cold.Run));
  auto Upgraded = Db.loadPath(Path);
  ASSERT_TRUE(Upgraded.ok()) << Upgraded.status().toString();
  EXPECT_EQ(Upgraded->SourceFormat, 2u);
  EXPECT_EQ(Upgraded->Generation, 1u);
  EXPECT_TRUE(Upgraded->validate().ok());

  // The rewritten slot primes the next run like any v2 cache.
  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Warm.Run.observablyEquals(Cold.Run));
}

TEST(SameInput, FirstRunGeneratesCache) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);
  auto R = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(R.Prime.CacheFound);
  EXPECT_GT(R.Stats.TracesCompiled, 0u);

  PersistentSession ProbeSession(Db);
  ASSERT_TRUE(Db.exists(R.Stats.TracesCompiled ? 0 : 0) ||
              true); // Cache presence checked via database scan below.
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  EXPECT_EQ(Files->size(), 1u);
}

TEST(SameInput, SecondRunEliminatesTranslation) {
  // Large enough that translation savings dwarf the fixed cache-open
  // cost (tiny programs can break even, as the paper notes persistence
  // "does not degrade performance when it is ineffective").
  TinyWorkload W = makeTinyWorkload(30, 10);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);

  auto Cold = mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);

  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_GT(Warm.Prime.TracesInstalled, 0u);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 0u);
  // All code reused: zero translation work (same-input persistence).
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
  EXPECT_EQ(Warm.Stats.CompileCycles, 0u);
  // And the run is observably identical and faster.
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
  EXPECT_LT(Warm.Run.Cycles, Cold.Run.Cycles);
}

TEST(SameInput, PersistedLinksRestored) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);
  mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);
  // Exact counts of the same-base prime: every trace installs and every
  // persisted link whose target installed is restored.
  EXPECT_EQ(Warm.Prime.TracesInstalled, 35u);
  EXPECT_EQ(Warm.Prime.TracesSkipped, 0u);
  EXPECT_EQ(Warm.Prime.LinksRestored, 34u);
  // No dispatcher work for already-linked paths ⇒ fewer new links.
  EXPECT_EQ(Warm.Stats.LinksCreated, 0u);
}

TEST(SameInput, InvalidExitKindSkipsOnlyThatTrace) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(5);
  auto Cold = mustRunPersistent(W, Input, Db);

  // Give the first index entry's first exit an out-of-range kind, then
  // re-seal the trace-index and header CRCs: the file still opens, so
  // only the install's exit check can reject the trace.
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  auto U32At = [&](size_t Off) {
    ByteReader Reader(Bytes->data() + Off, 4);
    return Reader.readU32();
  };
  auto PutU32 = [&](size_t Off, uint32_t Value) {
    for (unsigned I = 0; I != 4; ++I)
      (*Bytes)[Off + I] = static_cast<uint8_t>(Value >> (8 * I));
  };
  const uint32_t IndexOffset = U32At(48);
  const uint32_t IndexSize = U32At(52);
  ASSERT_GT(U32At(36), 0u);               // NumTraces.
  ASSERT_GT(U32At(IndexOffset + 28), 0u); // Entry 0's ExitCount.
  (*Bytes)[IndexOffset + U32At(IndexOffset + 24)] = 0xee;
  PutU32(68, crc32(Bytes->data() + IndexOffset, IndexSize));
  PutU32(72, crc32(Bytes->data(), v2::HeaderBytes - 4));
  ASSERT_TRUE(CacheFileView::open(*Bytes).ok());
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto Warm = mustRunPersistent(W, Input, Db, ReadOnly);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.TracesInstalled, 34u);
  EXPECT_EQ(Warm.Prime.TracesSkipped, 1u);
  EXPECT_EQ(Warm.Prime.LinksRestored, 32u);
  EXPECT_EQ(Warm.Stats.TracesCompiled, 1u);
  EXPECT_TRUE(Warm.Run.observablyEquals(Cold.Run));
}

TEST(SameInput, ResultsIdenticalToNative) {
  TinyWorkload W = makeTinyWorkload(5, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);
  auto Native = workloads::runNative(W.Registry, W.App, Input);
  ASSERT_TRUE(Native.ok());
  mustRunPersistent(W, Input, Db);
  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Native->observablyEquals(Warm.Run));
}

TEST(Validation, EngineVersionGuardsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  auto Cold = mustRunPersistent(W, Input, Db);
  (void)Cold;

  // Corrupt the stored engine hash to simulate a version change.
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  ASSERT_EQ(Files->size(), 1u);
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto File = CacheFile::deserialize(*readFile(Path));
  ASSERT_TRUE(File.ok());
  File->EngineHash ^= 1;
  ASSERT_TRUE(writeFileAtomic(Path, File->serialize()).ok());

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.RejectReason, "engine version mismatch");
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
}

TEST(Validation, ToolMismatchRejectsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  dbi::BasicBlockCounterTool Bb;
  auto R1 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Bb);
  ASSERT_TRUE(R1.ok());

  // Different tool ⇒ different lookup key ⇒ fresh cache, not reuse.
  dbi::MemRefTraceTool Mem;
  auto R2 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Mem);
  ASSERT_TRUE(R2.ok());
  EXPECT_FALSE(R2->Prime.CacheFound);
  EXPECT_GT(R2->Stats.TracesCompiled, 0u);

  // Same tool again ⇒ reuse.
  dbi::BasicBlockCounterTool Bb2;
  auto R3 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Bb2);
  ASSERT_TRUE(R3.ok());
  EXPECT_TRUE(R3->Prime.CacheFound);
  EXPECT_EQ(R3->Stats.TracesCompiled, 0u);
}

TEST(Validation, ModifiedBinaryInvalidatesItsTraces) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);

  // Rebuild the library: same name/path, newer timestamp.
  auto NewLib = std::make_shared<binary::Module>(
      *W.Registry.find("libtest.so"));
  NewLib->touch();
  W.Registry.add(NewLib);

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 1u);
  // App traces still reused; library traces retranslated.
  EXPECT_GT(Warm.Prime.TracesInstalled, 0u);
  EXPECT_GT(Warm.Prime.TracesSkipped, 0u);
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Warm.Run.ok());
}

TEST(Validation, RelocatedLibraryFallsBackToRetranslation) {
  TinyWorkload W = makeTinyWorkload(2, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);

  // Create the cache under one randomized layout, reuse under another.
  auto Cold = mustRunPersistent(W, Input, Db, PersistOptions(), nullptr,
                                loader::BasePolicy::Randomized, 1);
  auto Warm = mustRunPersistent(W, Input, Db, PersistOptions(), nullptr,
                                loader::BasePolicy::Randomized, 2);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_GE(Warm.Prime.ModulesInvalidated, 1u);
  EXPECT_GT(Warm.Stats.TracesCompiled, 0u);
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
}

TEST(Validation, CorruptCacheFileIgnoredSafely) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);

  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  std::string Path = Dir.path() + "/" + (*Files)[0];
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  (*Bytes)[Bytes->size() / 3] ^= 0x40;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_FALSE(Warm.Prime.RejectReason.empty());
  EXPECT_TRUE(Warm.Run.ok());
}

TEST(CrossInput, CommonCodeReused) {
  TinyWorkload W = makeTinyWorkload(6, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  // Input A exercises slots 0..3; input B exercises 2..5.
  auto InputA = W.input({{0, 3}, {1, 3}, {2, 3}, {3, 3}});
  auto InputB = W.input({{2, 3}, {3, 3}, {4, 3}, {5, 3}});

  mustRunPersistent(W, InputA, Db);
  auto B = mustRunPersistent(W, InputB, Db);
  EXPECT_TRUE(B.Prime.CacheFound);
  EXPECT_GT(B.Prime.TracesInstalled, 0u);
  // Slots 4 and 5 are new: some translation remains.
  EXPECT_GT(B.Stats.TracesCompiled, 0u);
  // But common code came from the cache.
  EXPECT_GT(B.Stats.TracesReused, 0u);

  auto BFresh = workloads::runUnderEngine(W.Registry, W.App, InputB);
  ASSERT_TRUE(BFresh.ok());
  EXPECT_LT(B.Stats.TracesCompiled, BFresh->Stats.TracesCompiled);
  EXPECT_TRUE(B.Run.observablyEquals(BFresh->Run));
}

TEST(Accumulation, CacheGrowsAcrossInputs) {
  TinyWorkload W = makeTinyWorkload(6, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto InputA = W.input({{0, 3}, {1, 3}});
  auto InputB = W.input({{2, 3}, {3, 3}});
  auto InputAll =
      W.input({{0, 3}, {1, 3}, {2, 3}, {3, 3}});

  mustRunPersistent(W, InputA, Db);
  auto B = mustRunPersistent(W, InputB, Db);
  EXPECT_GT(B.Stats.TracesCompiled, 0u); // B's code was new.

  // After accumulating both, a run touching all code translates none.
  auto All = mustRunPersistent(W, InputAll, Db);
  EXPECT_TRUE(All.Prime.CacheFound);
  EXPECT_EQ(All.Stats.TracesCompiled, 0u)
      << "accumulated cache must cover A ∪ B";
}

TEST(Accumulation, WriteBackCrcsMatchTheWrittenBytes) {
  // finalize() hands serialize() the payload CRCs it already knows —
  // verified at materialization, at its own check of unexecuted
  // traces, or by record() for carried ones — and recomputes the rest.
  // A partial warm run mixes every kind; with PIC at a new base it also
  // rebases, which must drop the known CRC. Every written CRC must
  // match its bytes, and the next run must reuse everything.
  for (bool Pic : {false, true}) {
    SCOPED_TRACE(Pic ? "PIC, rebased" : "same base");
    TinyWorkload W = makeTinyWorkload(4, 3);
    TempDir Dir;
    CacheDatabase Db(Dir.path());
    PersistOptions Opts;
    Opts.PositionIndependent = Pic;
    const loader::BasePolicy Policy =
        Pic ? loader::BasePolicy::Randomized : loader::BasePolicy::Fixed;
    mustRunPersistent(W, W.allSlotsInput(2), Db, Opts, nullptr, Policy, 1);
    auto Partial = mustRunPersistent(W, W.input({{0, 2}, {4, 2}}), Db, Opts,
                                     nullptr, Policy, 2);
    EXPECT_EQ(Partial.Stats.TracesCompiled, 0u);

    auto Files = listDirectory(Dir.path());
    ASSERT_TRUE(Files.ok());
    ASSERT_EQ(Files->size(), 1u);
    auto Written = Db.loadPath(Dir.path() + "/" + (*Files)[0]);
    ASSERT_TRUE(Written.ok()) << Written.status().toString();
    EXPECT_TRUE(Written->validate().ok());

    auto Warm = mustRunPersistent(W, W.allSlotsInput(2), Db, Opts, nullptr,
                                  Policy, 2);
    EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
    EXPECT_EQ(Warm.Stats.TracesDroppedCorrupt, 0u);
  }
}

TEST(Accumulation, GenerationCounterAdvances) {
  // The generation counts publishes: it advances on every run that
  // learned something and stays where it is on a same-input rerun,
  // which has nothing to add.
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto generation = [&]() -> uint32_t {
    auto Files = listDirectory(Dir.path());
    EXPECT_TRUE(Files.ok());
    EXPECT_EQ(Files->size(), 1u);
    auto File = CacheFile::deserialize(
        *readFile(Dir.path() + "/" + (*Files)[0]));
    EXPECT_TRUE(File.ok());
    return File ? File->Generation : 0;
  };
  mustRunPersistent(W, W.input({{0, 2}}), Db);
  EXPECT_EQ(generation(), 1u);
  auto Learned = mustRunPersistent(W, W.allSlotsInput(2), Db);
  EXPECT_EQ(Learned.WriteBack.Reason, WriteBackReason::TracesCompiled);
  EXPECT_EQ(generation(), 2u);
  auto Rerun = mustRunPersistent(W, W.allSlotsInput(2), Db);
  EXPECT_FALSE(Rerun.WriteBack.published());
  EXPECT_EQ(generation(), 2u);
}

TEST(Accumulation, IdempotentForSameInput) {
  TinyWorkload W = makeTinyWorkload(3, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  mustRunPersistent(W, Input, Db);
  auto Files = listDirectory(Dir.path());
  auto Before = CacheFile::deserialize(
      *readFile(Dir.path() + "/" + (*Files)[0]));
  ASSERT_TRUE(Before.ok());

  mustRunPersistent(W, Input, Db);
  auto After = CacheFile::deserialize(
      *readFile(Dir.path() + "/" + (*Files)[0]));
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(Before->Traces.size(), After->Traces.size());
  EXPECT_EQ(Before->codeBytes(), After->codeBytes());
}

//===----------------------------------------------------------------------===//
// The write-back decision: a run publishes only what it learned.
//===----------------------------------------------------------------------===//

namespace {

/// Path of the single cache file in \p Dir.
std::string soleFileIn(const std::string &Dir) {
  auto Files = listDirectory(Dir);
  EXPECT_TRUE(Files.ok());
  EXPECT_EQ(Files->size(), 1u);
  return Files->empty() ? std::string() : Dir + "/" + Files->front();
}

} // namespace

TEST(WriteBackDecision, SameInputRerunPublishesNothing) {
  TinyWorkload W = makeTinyWorkload(4, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);
  auto Cold = mustRunPersistent(W, Input, Db);
  EXPECT_EQ(Cold.WriteBack.Reason, WriteBackReason::NoPrimedCache);
  const std::string Path = soleFileIn(Dir.path());
  auto Before = readFile(Path);
  ASSERT_TRUE(Before.ok());

  auto Warm = mustRunPersistent(W, Input, Db);
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u);
  EXPECT_FALSE(Warm.WriteBack.published());
  EXPECT_EQ(Warm.WriteBack.Reason, WriteBackReason::NothingLearned);
  // Byte-identical, generation included.
  EXPECT_EQ(*readFile(Path), *Before);
  EXPECT_EQ(soleFileIn(Dir.path()), Path);

  // No write charge: the skipping run costs exactly what a read-only
  // run of the same input costs.
  PersistOptions ReadOnly;
  ReadOnly.WriteBack = false;
  auto NoWrite = mustRunPersistent(W, Input, Db, ReadOnly);
  EXPECT_EQ(NoWrite.WriteBack.Reason, WriteBackReason::Disabled);
  tests::expectStatsEqual(Warm.Stats, NoWrite.Stats, "skip vs read-only");
}

TEST(WriteBackDecision, EachMaterialChangePublishes) {
  // Every case starts from the same cold PIC cache of Input (libraries
  // at the bases of ASLR seed 1) and runs one more session against it.
  TinyWorkload W = makeTinyWorkload(4, 2);
  const auto Input = W.input({{0, 2}, {2, 2}, {3, 2}});
  PersistOptions Pic;
  Pic.PositionIndependent = true;
  const loader::BasePolicy Aslr = loader::BasePolicy::Randomized;

  struct Case {
    const char *Label;
    WriteBackReason Expected;
    std::function<PersistentRunResult(const CacheDatabase &,
                                      const std::string &)>
        Run;
  };
  const std::vector<Case> Cases = {
      {"empty database", WriteBackReason::NoPrimedCache,
       [&](const CacheDatabase &, const std::string &) {
         TempDir Other;
         return mustRunPersistent(W, Input, CacheDatabase(Other.path()),
                                  Pic, nullptr, Aslr, 1);
       }},
      {"donor cache", WriteBackReason::DonorCache,
       [&](const CacheDatabase &Db, const std::string &Dir) {
         const std::string Donor = Dir + "/donor.pcc.copy";
         EXPECT_TRUE(
             writeFileAtomic(Donor, *readFile(soleFileIn(Dir))).ok());
         PersistOptions Opts = Pic;
         Opts.ExplicitCachePath = Donor;
         return mustRunPersistent(W, Input, Db, Opts, nullptr, Aslr, 1);
       }},
      {"explicit store path", WriteBackReason::ExplicitTarget,
       [&](const CacheDatabase &Db, const std::string &Dir) {
         PersistOptions Opts = Pic;
         Opts.StoreAsPath = Dir + "/out.pcc";
         return mustRunPersistent(W, Input, Db, Opts, nullptr, Aslr, 1);
       }},
      {"novel traces", WriteBackReason::TracesCompiled,
       [&](const CacheDatabase &Db, const std::string &) {
         return mustRunPersistent(W, W.allSlotsInput(2), Db, Pic, nullptr,
                                  Aslr, 1);
       }},
      {"prime skipped an entry", WriteBackReason::TracesNotResident,
       [&](const CacheDatabase &Db, const std::string &Dir) {
         // A second record for an already-indexed start: install keeps
         // the first and skips the duplicate, so nothing is recompiled
         // but the file still holds a trace the run never installed.
         const std::string Path = soleFileIn(Dir);
         auto File = Db.loadPath(Path);
         EXPECT_TRUE(File.ok());
         File->Traces.push_back(File->Traces.front());
         EXPECT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
         auto R = mustRunPersistent(W, Input, Db, Pic, nullptr, Aslr, 1);
         EXPECT_EQ(R.Prime.TracesSkipped, 1u);
         return R;
       }},
      {"rebased library", WriteBackReason::ModuleTableChanged,
       [&](const CacheDatabase &Db, const std::string &) {
         auto R = mustRunPersistent(W, Input, Db, Pic, nullptr, Aslr, 2);
         EXPECT_EQ(R.Prime.ModulesInvalidated, 0u);
         return R;
       }},
      {"same input", WriteBackReason::NothingLearned,
       [&](const CacheDatabase &Db, const std::string &) {
         return mustRunPersistent(W, Input, Db, Pic, nullptr, Aslr, 1);
       }},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Label);
    TempDir Dir;
    CacheDatabase Db(Dir.path());
    auto Cold = mustRunPersistent(W, Input, Db, Pic, nullptr, Aslr, 1);
    PersistentRunResult R = C.Run(Db, Dir.path());
    if (C.Expected != WriteBackReason::TracesCompiled) { // Same input.
      EXPECT_TRUE(R.Run.observablyEquals(Cold.Run));
    }
    EXPECT_EQ(R.WriteBack.Reason, C.Expected)
        << "got: " << describe(R.WriteBack.Reason);
    EXPECT_EQ(R.WriteBack.published(),
              C.Expected != WriteBackReason::NothingLearned);
    // Past the cold case, only the novel-trace case compiles: each
    // other rule forces its publish on its own.
    if (C.Expected == WriteBackReason::TracesCompiled ||
        C.Expected == WriteBackReason::NoPrimedCache) {
      EXPECT_NE(R.Stats.TracesCompiled, 0u);
    } else {
      EXPECT_EQ(R.Stats.TracesCompiled, 0u);
    }
  }
}

TEST(WriteBackDecision, CorruptUnexecutedTraceSurvivesUntilExecuted) {
  // A run that publishes nothing no longer CRC-checks the payloads it
  // never executed, so a damaged trace stays on disk until some run
  // executes it; that run drops it, retranslates it and publishes.
  TinyWorkload W = makeTinyWorkload(4, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  const auto Partial = W.input({{0, 2}, {1, 2}});
  const auto All = W.allSlotsInput(2);
  mustRunPersistent(W, Partial, Db);
  const std::string Path = soleFileIn(Dir.path());
  std::unordered_set<uint32_t> PartialStarts;
  {
    auto View = CacheFileView::openFile(Path);
    ASSERT_TRUE(View.ok());
    for (uint32_t I = 0; I != View->numTraces(); ++I)
      PartialStarts.insert(View->entry(I).GuestStart);
  }
  auto Full = mustRunPersistent(W, All, Db);

  // Damage one trace only the full input executes.
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  {
    auto View = CacheFileView::open(*Bytes);
    ASSERT_TRUE(View.ok());
    uint32_t Victim = View->numTraces();
    for (uint32_t I = 0; I != View->numTraces(); ++I)
      if (!PartialStarts.count(View->entry(I).GuestStart))
        Victim = I;
    ASSERT_NE(Victim, View->numTraces());
    const TraceIndexEntry &E = View->entry(Victim);
    (*Bytes)[View->payloadOffset() + E.CodeOffset + E.CodeSize / 2] ^= 0x40;
  }
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto Skip = mustRunPersistent(W, Partial, Db);
  EXPECT_EQ(Skip.Stats.TracesCompiled, 0u);
  EXPECT_FALSE(Skip.WriteBack.published());
  EXPECT_EQ(*readFile(Path), *Bytes) << "the damaged file stays as it was";

  auto Heal = mustRunPersistent(W, All, Db);
  EXPECT_TRUE(Heal.Run.observablyEquals(Full.Run));
  EXPECT_EQ(Heal.Stats.TracesDroppedCorrupt, 1u);
  EXPECT_EQ(Heal.Stats.TracesCompiled, 1u);
  EXPECT_EQ(Heal.WriteBack.Reason, WriteBackReason::TracesCompiled);
  auto Healed = CacheFileView::openFile(Path);
  ASSERT_TRUE(Healed.ok());
  for (uint32_t I = 0; I != Healed->numTraces(); ++I)
    EXPECT_TRUE(Healed->codeCrcOk(I)) << "trace " << I;
}

TEST(Accumulation, WriteBackOffLeavesDatabaseUntouched) {
  TinyWorkload W = makeTinyWorkload(2, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  PersistOptions NoWrite;
  NoWrite.WriteBack = false;
  mustRunPersistent(W, W.allSlotsInput(2), Db, NoWrite);
  auto Files = listDirectory(Dir.path());
  ASSERT_TRUE(Files.ok());
  EXPECT_TRUE(Files->empty());
}

TEST(CrossInput, ExplicitDonorCache) {
  TinyWorkload W = makeTinyWorkload(4, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto InputA = W.input({{0, 2}, {1, 2}});

  PersistOptions StoreA;
  StoreA.StoreAsPath = Dir.path() + "/donorA.pcc";
  mustRunPersistent(W, InputA, Db, StoreA);

  PersistOptions UseA;
  UseA.ExplicitCachePath = Dir.path() + "/donorA.pcc";
  UseA.WriteBack = false;
  auto R = mustRunPersistent(W, InputA, Db, UseA);
  EXPECT_TRUE(R.Prime.CacheFound);
  EXPECT_EQ(R.Stats.TracesCompiled, 0u);
}

TEST(InterApp, LibraryTranslationsSharedAcrossPrograms) {
  // Two different apps linking the same library, loaded at the same
  // base (library is the first dependency of both).
  loader::ModuleRegistry Registry;
  workloads::LibraryDef Lib;
  Lib.Name = "libshared.so";
  Lib.Path = "/lib/libshared.so";
  for (uint32_t I = 0; I != 5; ++I) {
    workloads::RegionDef Region;
    Region.Name = "fn" + std::to_string(I);
    Region.Blocks = 4;
    Region.InstsPerBlock = 8;
    Region.Seed = 300 + I;
    Lib.Regions.push_back(std::move(Region));
  }
  Registry.add(workloads::buildLibrary(Lib));

  auto makeApp = [&](const std::string &Name) {
    workloads::AppDef Def;
    Def.Name = Name;
    Def.Path = "/bin/" + Name;
    for (uint32_t I = 0; I != 5; ++I)
      Def.Slots.push_back(workloads::FunctionSlot::import(
          "libshared.so", "fn" + std::to_string(I)));
    workloads::RegionDef Local;
    Local.Name = "app";
    Local.Blocks = 4;
    Local.InstsPerBlock = 8;
    Local.Seed = fnv1a64(Name);
    Def.Slots.push_back(workloads::FunctionSlot::local(std::move(Local)));
    return workloads::buildExecutable(Def);
  };
  auto AppA = makeApp("alpha");
  auto AppB = makeApp("beta");
  auto Input = workloads::encodeWorkload({{0, 2},
                                          {1, 2},
                                          {2, 2},
                                          {3, 2},
                                          {4, 2},
                                          {5, 2}});

  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto RA = workloads::runPersistent(Registry, AppA, Input, Db);
  ASSERT_TRUE(RA.ok());

  // Without inter-application mode, B finds nothing.
  auto RBNo = workloads::runPersistent(Registry, AppB, Input, Db);
  ASSERT_TRUE(RBNo.ok());
  EXPECT_FALSE(RBNo->Prime.CacheFound);

  // With it, B reuses A's library translations; A's application traces
  // fail validation (different binary) and are retranslated.
  ASSERT_TRUE(Db.clear().ok());
  auto RA2 = workloads::runPersistent(Registry, AppA, Input, Db);
  ASSERT_TRUE(RA2.ok());
  PersistOptions Inter;
  Inter.InterApplication = true;
  auto RB = workloads::runPersistent(Registry, AppB, Input, Db, Inter);
  ASSERT_TRUE(RB.ok());
  EXPECT_TRUE(RB->Prime.CacheFound);
  // Exact counts of the donor prime: the library traces install, the
  // donor's application traces are skipped, and only links between
  // installed library traces are restored.
  EXPECT_EQ(RB->Prime.TracesInstalled, 28u);
  EXPECT_EQ(RB->Prime.TracesSkipped, 10u);
  EXPECT_EQ(RB->Prime.LinksRestored, 25u);
  EXPECT_GT(RB->Stats.TracesCompiled, 0u);    // B's own code.
  // And correctness holds.
  auto Native = workloads::runNative(Registry, AppB, Input);
  ASSERT_TRUE(Native.ok());
  EXPECT_TRUE(Native->observablyEquals(RB->Run));
}

TEST(Pic, RelocatedLibraryReusedWithPositionIndependentTranslations) {
  TinyWorkload W = makeTinyWorkload(2, 3);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(3);

  PersistOptions Pic;
  Pic.PositionIndependent = true;
  auto Cold = mustRunPersistent(W, Input, Db, Pic, nullptr,
                                loader::BasePolicy::Randomized, 1);
  auto Warm = mustRunPersistent(W, Input, Db, Pic, nullptr,
                                loader::BasePolicy::Randomized, 2);
  EXPECT_TRUE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.ModulesInvalidated, 0u);
  // Exact counts of the PIC-rebased prime: rebasing keeps every trace
  // and every link.
  EXPECT_EQ(Warm.Prime.TracesInstalled, 30u);
  EXPECT_EQ(Warm.Prime.TracesSkipped, 0u);
  EXPECT_EQ(Warm.Prime.LinksRestored, 29u);
  EXPECT_EQ(Warm.Stats.TracesCompiled, 0u)
      << "PIC translations must survive relocation";
  EXPECT_TRUE(Cold.Run.observablyEquals(Warm.Run));
}

TEST(Pic, ModeMismatchRejectsCache) {
  TinyWorkload W = makeTinyWorkload(2, 1);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(2);
  PersistOptions Pic;
  Pic.PositionIndependent = true;
  mustRunPersistent(W, Input, Db, Pic);
  auto Warm = mustRunPersistent(W, Input, Db); // Non-PIC session.
  EXPECT_FALSE(Warm.Prime.CacheFound);
  EXPECT_EQ(Warm.Prime.RejectReason,
            "translation addressing mode mismatch");
}

TEST(Persistence, InstrumentedRunsReuseInstrumentedCache) {
  TinyWorkload W = makeTinyWorkload(3, 2);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  auto Input = W.allSlotsInput(4);

  dbi::BasicBlockCounterTool Cold;
  auto R1 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Cold);
  ASSERT_TRUE(R1.ok());
  dbi::BasicBlockCounterTool Warm;
  auto R2 = workloads::runPersistent(W.Registry, W.App, Input, Db,
                                     PersistOptions(), &Warm);
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2->Stats.TracesCompiled, 0u);
  // Analysis results identical with and without persistence.
  EXPECT_EQ(Cold.totalBlocks(), Warm.totalBlocks());
  EXPECT_EQ(Cold.totalInstructions(), Warm.totalInstructions());
  EXPECT_EQ(Cold.counts(), Warm.counts());
}

TEST(Persistence, MultiProcessSharedDatabase) {
  // The Oracle model: several processes of one binary, different
  // inputs, one database — each process accumulates into the cache.
  TinyWorkload W = makeTinyWorkload(8, 0);
  TempDir Dir;
  CacheDatabase Db(Dir.path());
  std::vector<std::vector<uint8_t>> Phases = {
      W.input({{0, 2}, {1, 2}}),
      W.input({{1, 2}, {2, 2}, {3, 2}}),
      W.input({{3, 2}, {4, 2}, {5, 2}}),
      W.input({{5, 2}, {6, 2}, {7, 2}}),
  };
  uint64_t TotalCompiled = 0;
  for (const auto &Phase : Phases) {
    auto R = mustRunPersistent(W, Phase, Db);
    TotalCompiled += R.Stats.TracesCompiled;
  }
  // Second sweep: everything is cached.
  for (const auto &Phase : Phases) {
    auto R = mustRunPersistent(W, Phase, Db);
    EXPECT_EQ(R.Stats.TracesCompiled, 0u);
  }
  EXPECT_GT(TotalCompiled, 0u);
}
