//===- tests/opt_tier_test.cpp - finalize-time AOT optimization tier ------===//
//
// The optimization-generation suite: promotion at finalize must be
// architecturally invisible (identical guest results promotion on/off,
// across seeds), every transformed body must be validator-proved (a
// seeded miscompile in any of the new passes is flagged), a corrupt
// promoted payload falls back per trace, an index entry the install
// cannot use is never carried into a promoting write-back, heat
// counters survive the
// v2 -> v3 -> promoted-generation migration, a recorded gen-0 run
// replays bit-identically after the database advances to gen-2, and a
// stale gen-0 finalizer can never clobber a promoted artifact in a
// tiered store.
//
// Built as its own CTest executable (opt_tier_test) so the --opt soak
// leg of scripts/check.sh can run exactly this binary under ASan and
// TSan.
//
//===----------------------------------------------------------------------===//

#include "analysis/Optimizer.h"
#include "analysis/Validator.h"
#include "dbi/Engine.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "replay/Recorder.h"
#include "replay/Replay.h"
#include "support/ByteStream.h"
#include "support/FaultInjector.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"
#include "support/ThreadPool.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::analysis;
using pcc::isa::Opcode;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

/// Path of the single .pcc file in \p Dir.
std::string soleCachePath(const std::string &Dir) {
  auto Names = listDirectory(Dir);
  EXPECT_TRUE(Names.ok());
  std::string Found;
  if (Names)
    for (const std::string &Name : *Names)
      if (Name.size() > 4 && Name.substr(Name.size() - 4) == ".pcc")
        Found = Dir + "/" + Name;
  EXPECT_FALSE(Found.empty());
  return Found;
}

/// Flips one byte at absolute \p Offset of the file at \p Path.
void flipByteAt(const std::string &Path, size_t Offset) {
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  ASSERT_GT(Bytes->size(), Offset);
  (*Bytes)[Offset] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());
}

/// One persistent run of \p W.
ErrorOr<persist::PersistentRunResult>
run(const TinyWorkload &W, const std::vector<uint8_t> &Input,
    const persist::CacheDatabase &Db,
    const persist::PersistOptions &Opts = persist::PersistOptions()) {
  return workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
}

/// Per-start heat map of the cache file at \p Path.
std::map<uint32_t, uint32_t> heatByStart(const persist::CacheDatabase &Db,
                                         const std::string &Path) {
  std::map<uint32_t, uint32_t> Heat;
  auto File = Db.loadPath(Path);
  EXPECT_TRUE(File.ok()) << File.status().toString();
  if (File)
    for (const persist::TraceRecord &Rec : File->Traces)
      Heat[Rec.GuestStart] = Rec.Heat;
  return Heat;
}

} // namespace

//===----------------------------------------------------------------------===//
// Architectural invisibility: results identical promotion on/off.
//===----------------------------------------------------------------------===//

TEST(OptTier, ResultsIdenticalAcrossSeedsPromotionOnOff) {
  uint64_t Promoted = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    TinyWorkload W = makeTinyWorkload(3, 2, 1000 + Seed);
    TempDir DirOn, DirOff;
    persist::CacheDatabase On(DirOn.path()), Off(DirOff.path());
    persist::PersistOptions WithOpt;
    WithOpt.OptTier = true;
    const std::vector<uint8_t> Input = W.allSlotsInput(4);

    auto ColdOn = run(W, Input, On, WithOpt);
    auto ColdOff = run(W, Input, Off);
    ASSERT_TRUE(ColdOn.ok()) << ColdOn.status().toString();
    ASSERT_TRUE(ColdOff.ok()) << ColdOff.status().toString();
    EXPECT_TRUE(ColdOn->Run.observablyEquals(ColdOff->Run));
    // Promotion runs in modeled background time behind the durability
    // barrier and the write charge is taken on the pre-promotion file:
    // the cold run's cycle bill must be bit-identical either way.
    EXPECT_EQ(ColdOn->Stats.totalCycles(), ColdOff->Stats.totalCycles());

    auto WarmOn = run(W, Input, On, WithOpt);
    auto WarmOff = run(W, Input, Off);
    ASSERT_TRUE(WarmOn.ok() && WarmOff.ok());
    EXPECT_TRUE(WarmOn->Run.observablyEquals(WarmOff->Run));
    // A gen-1+ cache never executes more modeled cycles than gen-0.
    EXPECT_LE(WarmOn->Stats.ExecCycles, WarmOff->Stats.ExecCycles);
    Promoted += ColdOn->Stats.TracesPromoted + WarmOn->Stats.TracesPromoted;
  }
  // The sweep must actually exercise promotion, not vacuously pass.
  EXPECT_GT(Promoted, 0u);
}

//===----------------------------------------------------------------------===//
// The validator is the safety net: seeded miscompiles in the new
// passes are caught 100%.
//===----------------------------------------------------------------------===//

namespace {

/// A body exercising all three scalar passes: a foldable ALU chain, a
/// provably redundant reload, a reload a store kills, and a shadowed
/// (dead) def.
std::vector<isa::Instruction> passExerciseBody() {
  return {
      isa::makeLdi(1, 5),
      isa::makeAlu(Opcode::Add, 2, 1, 1), // foldable: r2 = 10
      isa::makeLoad(3, 9, 0),
      isa::makeLoad(4, 9, 0), // redundant: value already in r3
      isa::makeAlu(Opcode::Add, 5, 4, 2),
      isa::makeStore(9, 0, 5),
      isa::makeLoad(6, 9, 0), // NOT redundant: the store intervened
      isa::makeLdi(7, 1),     // dead: shadowed before any exit
      isa::makeLdi(7, 2),
      isa::makeJmp(0x2000),
  };
}

} // namespace

TEST(OptTier, OptimizerOutputOfTheNewPassesProves) {
  const uint32_t Start = 0x1000;
  std::vector<isa::Instruction> Body = passExerciseBody();
  const std::vector<isa::Instruction> Source = Body;
  TraceOptStats Stats;
  EXPECT_TRUE(optimizeTraceBody(Body, Start, /*AllowConstFold=*/true, Stats));
  EXPECT_GT(Stats.ConstsFolded, 0u);
  EXPECT_GT(Stats.LoadsEliminated, 0u);
  ValidationResult R = validateTranslation(Start, Source, Body);
  EXPECT_TRUE(R.Equivalent) << R.message();
}

TEST(OptTier, ValidatorCatchesEverySeededMiscompileInTheNewPasses) {
  const uint32_t Start = 0x1000;
  const std::vector<isa::Instruction> Source = passExerciseBody();

  // Each case is a plausible-but-wrong output of one of the promotion
  // passes — the exact bug class the proof obligation exists for.
  struct Case {
    const char *What;
    size_t Index;
    isa::Instruction Replacement;
  };
  const Case Cases[] = {
      {"constprop folded the wrong constant", 1, isa::makeLdi(2, 11)},
      {"constprop folded a load-dependent value", 4, isa::makeLdi(5, 17)},
      {"RLE forwarded from the wrong register", 3,
       isa::makeAluImm(Opcode::Ori, 4, 2, 0)},
      {"RLE elided a load a store had killed", 6, isa::makeNop()},
      {"RLE elided a load never loaded before", 2, isa::makeNop()},
      {"dead-def elision removed the live def", 8, isa::makeNop()},
  };
  unsigned Seeded = 0, Flagged = 0;
  for (const Case &C : Cases) {
    std::vector<isa::Instruction> Bad = Source;
    Bad[C.Index] = C.Replacement;
    ++Seeded;
    if (!validateTranslation(Start, Source, Bad).Equivalent)
      ++Flagged;
    else
      ADD_FAILURE() << C.What << " not flagged";
  }

  // Superblock-merge miscompiles: the merged source is the
  // concatenation of the chain members' bodies, exactly what
  // promotion proves a merged body against.
  const std::vector<isa::Instruction> Head{
      isa::makeLoad(1, 9, 0),
      isa::makeAluImm(Opcode::Addi, 1, 1, 1),
      isa::makeBranch(Opcode::Beq, 1, 0, 0x3000),
  };
  const std::vector<isa::Instruction> Tail{
      isa::makeStore(9, 0, 1),
      isa::makeJmp(0x2000),
  };
  std::vector<isa::Instruction> Merged = Head;
  Merged.insert(Merged.end(), Tail.begin(), Tail.end());
  const std::vector<isa::Instruction> MergedSource = Merged;
  // A correct merge proves.
  EXPECT_TRUE(
      validateTranslation(Start, MergedSource, Merged).Equivalent);
  const Case MergeCases[] = {
      {"merge dropped the interior side exit", 2, isa::makeNop()},
      {"merge shifted the interior exit target", 2,
       isa::makeBranch(Opcode::Beq, 1, 0, 0x3008)},
      {"merge lost the tail's store", 3, isa::makeNop()},
  };
  for (const Case &C : MergeCases) {
    std::vector<isa::Instruction> Bad = MergedSource;
    Bad[C.Index] = C.Replacement;
    ++Seeded;
    if (!validateTranslation(Start, MergedSource, Bad).Equivalent)
      ++Flagged;
    else
      ADD_FAILURE() << C.What << " not flagged";
  }
  EXPECT_EQ(Seeded, Flagged) << "validator missed a seeded miscompile";
}

//===----------------------------------------------------------------------===//
// Per-trace fallback: a corrupt promoted payload drops that trace
// only; the run retranslates it and every result stays correct.
//===----------------------------------------------------------------------===//

TEST(OptTier, CorruptPromotedPayloadFallsBackPerTrace) {
  TinyWorkload W = makeTinyWorkload(3, 0, 77);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  persist::PersistOptions WithOpt;
  WithOpt.OptTier = true;
  const std::vector<uint8_t> Input = W.allSlotsInput(6);

  auto Cold = run(W, Input, Db, WithOpt);
  ASSERT_TRUE(Cold.ok()) << Cold.status().toString();
  ASSERT_GT(Cold->Stats.TracesPromoted, 0u);

  // Reference warm run over the intact promoted cache.
  persist::PersistOptions ReadOnly = WithOpt;
  ReadOnly.WriteBack = false;
  auto Ref = run(W, Input, Db, ReadOnly);
  ASSERT_TRUE(Ref.ok());
  ASSERT_GT(Ref->Stats.TracesReused, 0u);

  // Flip a byte inside one promoted trace's body.
  const std::string Path = soleCachePath(Dir.path());
  size_t CorruptAt = 0;
  {
    auto View = persist::CacheFileView::openFile(
        Path, persist::CacheFileView::Depth::Index);
    ASSERT_TRUE(View.ok()) << View.status().toString();
    ASSERT_TRUE(View->optGenEntries());
    for (uint32_t I = 0; I != View->numTraces(); ++I) {
      const persist::TraceIndexEntry &E = View->entry(I);
      if (E.OptGen == 0)
        continue;
      CorruptAt = static_cast<size_t>(View->payloadOffset()) +
                  E.CodeOffset + dbi::TracePrologueBytes + 1;
      break;
    }
  }
  ASSERT_NE(CorruptAt, 0u) << "no promoted trace in the written cache";
  flipByteAt(Path, CorruptAt);

  // The warm run still primes, drops exactly the corrupt trace at its
  // lazy CRC check, retranslates it, and computes identical results.
  auto Fallback = run(W, Input, Db, ReadOnly);
  ASSERT_TRUE(Fallback.ok()) << Fallback.status().toString();
  EXPECT_TRUE(Fallback->Run.observablyEquals(Ref->Run));
  EXPECT_EQ(Fallback->Stats.TracesDroppedCorrupt, 1u);
  EXPECT_EQ(Fallback->Stats.TracesReused + 1, Ref->Stats.TracesReused);
}

TEST(OptTier, PromotedBodiesSurviveSemanticMaterializeValidation) {
  TinyWorkload W = makeTinyWorkload(3, 0, 21);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  persist::PersistOptions WithOpt;
  WithOpt.OptTier = true;
  const std::vector<uint8_t> Input = W.allSlotsInput(5);
  auto Cold = run(W, Input, Db, WithOpt);
  ASSERT_TRUE(Cold.ok());
  ASSERT_GT(Cold->Stats.TracesPromoted, 0u);

  // Deep semantic validation re-proves every promoted body when it is
  // materialized; none may fail.
  persist::PersistOptions Deep = WithOpt;
  Deep.WriteBack = false;
  Deep.ValidateSemantic = true;
  auto Warm = run(W, Input, Db, Deep);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_GT(Warm->Stats.TracesVerified, 0u);
  EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
  EXPECT_EQ(Warm->Stats.TracesDroppedCorrupt, 0u);
}

TEST(OptTier, UnusableEntriesAreNeitherInstalledNorCarried) {
  // Each corruption breaks one per-trace rule of CacheFile::validate()
  // in every index entry; the trace-index and header CRCs are then
  // re-sealed, so the file still opens and only the install's
  // usability test can reject the entries.
  enum class Damage { CountPastCode, EmptyTrace, ExitPastBody };
  TinyWorkload W = makeTinyWorkload(4, 2);
  const std::vector<uint8_t> Grow = W.allSlotsInput(5);
  const std::vector<uint8_t> Partial = W.input({{0, 1}});
  for (Damage D :
       {Damage::CountPastCode, Damage::EmptyTrace, Damage::ExitPastBody})
    for (size_t Workers : {0u, 4u}) {
      SCOPED_TRACE("damage " + std::to_string(static_cast<int>(D)) +
                   ", workers " + std::to_string(Workers));
      TempDir Dir;
      persist::CacheDatabase Db(Dir.path());
      ASSERT_TRUE(run(W, Grow, Db).ok());

      const std::string Path = soleCachePath(Dir.path());
      auto Bytes = readFile(Path);
      ASSERT_TRUE(Bytes.ok());
      uint8_t *Data = Bytes->data();
      const uint32_t IndexOffset = loadLittleEndian<uint32_t>(Data + 48);
      const uint32_t IndexSize = loadLittleEndian<uint32_t>(Data + 52);
      uint32_t NumTraces = 0;
      {
        auto View = persist::CacheFileView::open(*Bytes);
        ASSERT_TRUE(View.ok()) << View.status().toString();
        ASSERT_FALSE(View->optGenEntries());
        NumTraces = View->numTraces();
        ASSERT_EQ(NumTraces, 35u);
        for (uint32_t I = 0; I != NumTraces; ++I) {
          const persist::TraceIndexEntry &E = View->entry(I);
          uint8_t *Entry =
              Data + IndexOffset + I * persist::v2::IndexEntryBytes;
          if (D == Damage::CountPastCode)
            storeLittleEndian<uint32_t>(
                Entry + 8, E.CodeSize / isa::InstructionSize + 1);
          else if (D == Damage::EmptyTrace)
            storeLittleEndian<uint32_t>(Entry + 8, 0);
          else {
            ASSERT_GT(E.ExitCount, 0u);
            storeLittleEndian<uint32_t>(
                Data + IndexOffset + E.MetaOffset + 1, E.GuestInstCount);
          }
        }
      }
      storeLittleEndian<uint32_t>(Data + 68,
                                  crc32(Data + IndexOffset, IndexSize));
      storeLittleEndian<uint32_t>(
          Data + 72, crc32(Data, persist::v2::HeaderBytes - 4));
      ASSERT_TRUE(persist::CacheFileView::open(*Bytes).ok());
      ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

      // A promoting partial run skips every entry at install and must
      // not carry them into the written file either.
      std::unique_ptr<support::ThreadPool> Pool;
      persist::PersistOptions Opts;
      Opts.OptTier = true;
      if (Workers != 0) {
        Pool = std::make_unique<support::ThreadPool>(Workers);
        Opts.Pool = Pool.get();
      }
      auto Warm = run(W, Partial, Db, Opts);
      ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
      EXPECT_TRUE(Warm->Prime.CacheFound);
      EXPECT_EQ(Warm->Prime.TracesInstalled, 0u);
      EXPECT_EQ(Warm->Prime.TracesSkipped, NumTraces);

      auto Written = Db.loadPath(soleCachePath(Dir.path()));
      ASSERT_TRUE(Written.ok()) << Written.status().toString();
      Status Valid = Written->validate();
      EXPECT_TRUE(Valid.ok()) << Valid.toString();

      auto Next = run(W, Partial, Db, Opts);
      ASSERT_TRUE(Next.ok()) << Next.status().toString();
      EXPECT_TRUE(Next->Prime.CacheFound);
      EXPECT_GT(Next->Prime.TracesInstalled, 0u);
      EXPECT_EQ(Next->Prime.TracesSkipped, 0u);
    }
}

//===----------------------------------------------------------------------===//
// Format migration: heat carried v2 -> v3 (XIP) -> promoted gen-N.
//===----------------------------------------------------------------------===//

TEST(OptTier, HeatCarriesAcrossV2V3AndPromotedGenerations) {
  TinyWorkload W = makeTinyWorkload(3, 0, 5);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(3);

  // Run 1: plain position-independent v2 cache.
  persist::PersistOptions Pic;
  Pic.PositionIndependent = true;
  ASSERT_TRUE(run(W, Input, Db, Pic).ok());
  const std::string Path = soleCachePath(Dir.path());
  auto Heat1 = heatByStart(Db, Path);
  ASSERT_FALSE(Heat1.empty());
  {
    auto View = persist::CacheFileView::openFile(
        Path, persist::CacheFileView::Depth::Index);
    ASSERT_TRUE(View.ok());
    EXPECT_FALSE(View->executeInPlace());
    EXPECT_FALSE(View->optGenEntries());
  }

  // Run 2: rewrite as an execute-in-place v3 generation.
  persist::PersistOptions Xip = Pic;
  Xip.ExecuteInPlace = true;
  ASSERT_TRUE(run(W, Input, Db, Xip).ok());
  auto Heat2 = heatByStart(Db, Path);
  {
    auto View = persist::CacheFileView::openFile(
        Path, persist::CacheFileView::Depth::Index);
    ASSERT_TRUE(View.ok());
    EXPECT_TRUE(View->executeInPlace());
  }

  // Run 3: consume the XIP generation, promote at finalize.
  persist::PersistOptions Opt = Pic;
  Opt.OptTier = true;
  auto Promote = run(W, Input, Db, Opt);
  ASSERT_TRUE(Promote.ok());
  EXPECT_GT(Promote->Stats.TracesPromoted, 0u);
  auto Heat3 = heatByStart(Db, Path);
  {
    auto View = persist::CacheFileView::openFile(
        Path, persist::CacheFileView::Depth::Index);
    ASSERT_TRUE(View.ok());
    EXPECT_TRUE(View->optGenEntries());
  }
  auto File = Db.loadPath(Path);
  ASSERT_TRUE(File.ok());
  EXPECT_GE(File->maxOptGen(), 1u);

  // Heat accumulated across every format hop — no migration reset it.
  size_t Grew = 0;
  for (const auto &[Start, H3] : Heat3) {
    auto It2 = Heat2.find(Start);
    if (It2 == Heat2.end())
      continue;
    EXPECT_GE(H3, It2->second) << "heat lost at start " << Start;
    auto It1 = Heat1.find(Start);
    if (It1 != Heat1.end()) {
      EXPECT_GE(It2->second, It1->second)
          << "heat lost in the v2->v3 hop at start " << Start;
    }
    if (H3 > It2->second)
      ++Grew;
  }
  EXPECT_GT(Grew, 0u);
  // Promoted records carry their accumulated lifetime heat.
  for (const persist::TraceRecord &Rec : File->Traces)
    if (Rec.OptGen > 0) {
      EXPECT_GE(Rec.Heat, 2u);
    }
}

//===----------------------------------------------------------------------===//
// Replay: a run recorded against gen-0 bytes replays bit-identically
// even after the live database has advanced to gen-2.
//===----------------------------------------------------------------------===//

TEST(OptTier, RecordedGen0RunReplaysBitIdenticallyWithGen2Present) {
  FaultScope Scope;
  TinyWorkload W = makeTinyWorkload(3, 2, 9);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);

  // A gen-0 database, and a recorded warm run consuming it.
  ASSERT_TRUE(run(W, Input, Db).ok());
  auto Rec = replay::recordRun(W.Registry, W.App, Input, Db,
                               persist::PersistOptions(),
                               replay::RecordSpec());
  ASSERT_TRUE(Rec.ok()) << Rec.status().toString();

  // Advance the live database to optimization generation >= 2.
  persist::PersistOptions WithOpt;
  WithOpt.OptTier = true;
  ASSERT_TRUE(run(W, Input, Db, WithOpt).ok());
  ASSERT_TRUE(run(W, Input, Db, WithOpt).ok());
  auto File = Db.loadPath(soleCachePath(Dir.path()));
  ASSERT_TRUE(File.ok());
  ASSERT_GE(File->maxOptGen(), 2u);

  // The log replays from its recorded gen-0 cache bytes, not the
  // promoted database: bit-identical outcome.
  auto Out = replay::replayRun(*Rec, replay::ReplayOptions());
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_EQ(replay::compareToRecording(*Rec, *Out), "");
}

//===----------------------------------------------------------------------===//
// Tiered contract: a stale gen-0 finalizer can't clobber a promoted
// artifact in either tier.
//===----------------------------------------------------------------------===//

TEST(OptTier, StaleGen0FinalizerCannotClobberPromotedTieredArtifact) {
  // Build a promoted file and a gen-0 sibling from real runs of the
  // same workload.
  TinyWorkload W = makeTinyWorkload(2, 0, 11);
  TempDir DirA, DirB;
  persist::CacheDatabase A(DirA.path()), B(DirB.path());
  persist::PersistOptions WithOpt;
  WithOpt.OptTier = true;
  const std::vector<uint8_t> Input = W.allSlotsInput(5);
  auto RunA = run(W, Input, A, WithOpt);
  ASSERT_TRUE(RunA.ok());
  ASSERT_GT(RunA->Stats.TracesPromoted, 0u);
  ASSERT_TRUE(run(W, Input, B).ok());
  auto Promoted = A.loadPath(soleCachePath(DirA.path()));
  auto Plain = B.loadPath(soleCachePath(DirB.path()));
  ASSERT_TRUE(Promoted.ok() && Plain.ok());
  ASSERT_GE(Promoted->maxOptGen(), 1u);
  ASSERT_EQ(Plain->maxOptGen(), 0u);

  auto L1 = std::make_shared<persist::MemoryStore>("<l1>");
  auto L2 = std::make_shared<persist::MemoryStore>("<remote>");
  persist::TieredStore Store(L1, L2, persist::TieredOptions());
  const uint64_t Key = 5;

  // The promoted artifact is published fleet-wide first.
  auto First = Store.publish(Key, *Promoted, 0);
  ASSERT_TRUE(First.ok()) << First.status().toString();
  EXPECT_FALSE(First->Merged);

  // A machine that primed gen-0 bytes before the promotion landed now
  // finalizes the same key from the same base generation.
  auto Second = Store.publish(Key, *Plain, 0);
  ASSERT_TRUE(Second.ok()) << Second.status().toString();
  EXPECT_TRUE(Second->Merged);

  // The shared tier's merge kept the highest proven generation per
  // trace, and the write-through fill refused the gen-0 downgrade: the
  // promoted bodies survive in both tiers.
  auto L2Now = L2->loadKey(Key);
  ASSERT_TRUE(L2Now.ok());
  EXPECT_GE(L2Now->maxOptGen(), Promoted->maxOptGen());
  auto Served = Store.loadKey(Key);
  ASSERT_TRUE(Served.ok());
  EXPECT_GE(Served->maxOptGen(), Promoted->maxOptGen());
  auto L1View =
      L1->openKey(Key, persist::CacheFileView::Depth::HeaderOnly);
  ASSERT_TRUE(L1View.ok());
  EXPECT_TRUE(L1View->View.optGenEntries());

  // Merged records also kept the larger heat of the two copies.
  auto ByStart = [](const persist::CacheFile &F) {
    std::map<uint32_t, uint32_t> M;
    for (const persist::TraceRecord &R : F.Traces)
      M[R.GuestStart] = R.Heat;
    return M;
  };
  auto PromHeat = ByStart(*Promoted), PlainHeat = ByStart(*Plain);
  for (const persist::TraceRecord &R : Served->Traces) {
    auto P = PromHeat.find(R.GuestStart);
    auto Q = PlainHeat.find(R.GuestStart);
    if (P != PromHeat.end() && Q != PlainHeat.end()) {
      EXPECT_GE(R.Heat, std::max(P->second, Q->second));
    }
  }
}
