//===- persist/Session.cpp ------------------------------------------------===//

#include "persist/Session.h"

#include "analysis/Certificate.h"
#include "analysis/Optimizer.h"
#include "analysis/Validator.h"
#include "persist/RecordingHooks.h"
#include "persist/TraceProof.h"
#include "support/FileSystem.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

using namespace pcc;
using namespace pcc::persist;
using dbi::ExitKind;
using dbi::TranslatedTrace;
using loader::LoadedModule;

uint64_t pcc::persist::noToolHash() { return fnv1a64("pcc-no-tool"); }

static uint64_t toolHashOf(const dbi::Engine &Engine) {
  return Engine.tool() ? Engine.tool()->keyHash() : noToolHash();
}

static uint8_t specBitsOf(const dbi::InstrumentationSpec &Spec) {
  return static_cast<uint8_t>((Spec.BasicBlocks ? 1 : 0) |
                              (Spec.MemoryAccesses ? 2 : 0) |
                              (Spec.Instructions ? 4 : 0));
}

static const LoadedModule *
findLoadedByPath(const loader::LoadedImage &Image,
                 const std::string &Path) {
  for (const LoadedModule &Mod : Image.Modules)
    if (Mod.Image->path() == Path)
      return &Mod;
  return nullptr;
}

static bool regionsOverlap(uint32_t BaseA, uint32_t SizeA, uint32_t BaseB,
                           uint32_t SizeB) {
  return BaseA < BaseB + SizeB && BaseB < BaseA + SizeA;
}

/// Whether index entry \p I of \p View can be installed or carried at
/// guest start \p Start — the per-trace rules of CacheFile::validate():
/// the start lies inside its module's mapping [\p Base, \p Base +
/// \p Size), the trace is non-empty, the code image holds the prologue
/// and every instruction, and every exit has a kind the engine knows
/// and an instruction index inside the body.
static bool entryUsable(const CacheFileView &View, uint32_t I,
                        uint32_t Start, uint32_t Base, uint32_t Size) {
  const TraceIndexEntry &E = View.entry(I);
  if (Start < Base || Start - Base >= Size || E.GuestInstCount == 0 ||
      E.CodeSize < dbi::TracePrologueBytes +
                       static_cast<size_t>(E.GuestInstCount) *
                           isa::InstructionSize)
    return false;
  for (uint32_t K = 0; K != E.ExitCount; ++K) {
    const ExitRecord X = View.exitOf(I, K);
    if (X.Kind > static_cast<uint8_t>(ExitKind::Halt) ||
        X.InstIndex >= E.GuestInstCount)
      return false;
  }
  return true;
}

static uint64_t pagesOf(uint64_t Bytes) {
  return (Bytes + binary::PageSize - 1) / binary::PageSize;
}

/// Lifetime heat written back for a trace: persisted-in heat plus this
/// run's executions, saturating at the 32-bit index field.
static uint32_t accumulatedHeat(uint32_t Prior, uint64_t Executions) {
  uint64_t Sum = Prior + Executions;
  return Sum > 0xffffffffull ? 0xffffffffu
                             : static_cast<uint32_t>(Sum);
}

/// Reads the \p Count guest instruction encodings at \p Start from the
/// live address space into \p Bytes (its capacity reused) with one
/// readBytes — the source side of a deep semantic verification. Fails
/// when the range is unmapped or an encoding would not decode, so the
/// bytes are always decodeAll-able.
static Status readGuestSource(const loader::AddressSpace &Space,
                              uint32_t Start, uint32_t Count,
                              std::vector<uint8_t> &Bytes) {
  const uint64_t Size = uint64_t{Count} * isa::InstructionSize;
  if (Size > UINT32_MAX)
    return Status::error(ErrorCode::InvalidArgument,
                         "guest source range too large");
  Bytes.resize(Size);
  Status S = Space.readBytes(Start, Bytes.data(),
                             static_cast<uint32_t>(Size));
  if (!S.ok())
    return S;
  return isa::checkEncodings(Bytes.data(), Count);
}

ErrorOr<StoredCache>
PersistentSession::locateCache(dbi::Engine &Engine, PrimeResult &Result) {
  CacheStore &Store = *Db.backend();
  auto tryLoad = [&](const std::string &Ref,
                     bool IsOwn) -> ErrorOr<StoredCache> {
    // Indexed open: header, module table and trace index are
    // CRC-validated here; trace payloads stay unread until first
    // execution.
    auto Cache = Store.openRef(Ref, CacheFileView::Depth::Index);
    if (Cache) {
      Result.CachePath = Ref;
      Result.RejectReason.clear();
      LoadedWasOwn = IsOwn;
      return Cache;
    }
    // Corrupt or unreadable caches must never break the run: record the
    // reason and fall back to an empty code cache. An I/O failure is
    // not the same as no cache existing — count it so operators can
    // tell a sick disk from a cold database.
    if (Cache.status().code() == ErrorCode::IoError) {
      ++Result.CandidatesSkippedIo;
      ++Engine.stats().PersistCandidatesSkippedIo;
    } else if (Cache.status().code() != ErrorCode::NotFound) {
      Result.RejectReason = Cache.status().toString();
    }
    return Status::error(ErrorCode::NotFound, "no usable cache");
  };

  if (!Opts.ExplicitCachePath.empty())
    return tryLoad(Opts.ExplicitCachePath,
                   Opts.ExplicitCachePath == Store.refFor(LookupKey));

  if (Store.exists(LookupKey)) {
    auto Own = tryLoad(Store.refFor(LookupKey), /*IsOwn=*/true);
    // An unreadable or rejected own slot still allows the
    // inter-application fallback below.
    if (Own || !Opts.InterApplication)
      return Own;
  }

  if (Opts.InterApplication) {
    // Try every compatible candidate, not just the first: one
    // unreadable or freshly corrupted donor must not disqualify the
    // rest of the database.
    auto Candidates = Store.findCompatible(EngineHash, ToolHash);
    if (Candidates)
      for (const std::string &Ref : *Candidates) {
        if (Ref == Store.refFor(LookupKey))
          continue; // Own slot was already tried above.
        auto Cache = tryLoad(Ref, /*IsOwn=*/false);
        if (Cache)
          return Cache;
      }
  }
  return Status::error(ErrorCode::NotFound, "no usable cache");
}

ErrorOr<PrimeResult> PersistentSession::prime(dbi::Engine &Engine) {
  assert(!Primed && "prime() is single-shot per session");
  Primed = true;

  const dbi::CostModel &Costs = Engine.options().Costs;
  const loader::LoadedImage &Image = Engine.machine().image();
  assert(!Image.Modules.empty() && "engine machine has no modules");

  EngineHash = dbi::engineVersionHash();
  ToolHash = toolHashOf(Engine);
  // Keys are computed for every executable mapping plus the engine and
  // the tool (Section 3.2.1).
  Engine.stats().PersistCycles +=
      Costs.KeyHashCyclesPerModule * (Image.Modules.size() + 2);

  ModuleKey AppKey = ModuleKey::compute(Image.Modules.front());
  LookupKey = computeLookupKey(AppKey, EngineHash, ToolHash);

  PrimeResult Result;
  auto Source = locateCache(Engine, Result);
  if (!Source)
    return Result; // No cache: start empty, still success.

  if (Source->View.engineHash() != EngineHash) {
    Result.RejectReason = "engine version mismatch";
    return Result;
  }
  if (Source->View.toolHash() != ToolHash) {
    Result.RejectReason = "tool key mismatch";
    return Result;
  }
  if (Source->View.positionIndependent() != Opts.PositionIndependent) {
    Result.RejectReason = "translation addressing mode mismatch";
    return Result;
  }

  Result.CacheFound = true;
  Engine.stats().PersistCycles += Costs.PersistOpenCycles;
  // Tiered stores stamp which tier satisfied the open; a read-through
  // hit additionally carries the modeled remote-link charge.
  if (Source->Tier == CacheTier::L1) {
    ++Engine.stats().PersistL1Hits;
  } else if (Source->Tier == CacheTier::L2) {
    ++Engine.stats().PersistL2Hits;
    ++Engine.stats().PersistRemoteFetches;
    Engine.stats().PersistRemoteBytes += Source->RemoteFetchBytes;
    Engine.stats().PersistCycles += Source->RemoteFetchCycles;
  }
  // A recorder (if one is active) learns which cache the run actually
  // consumed, and at what modeled remote cost, so replay can seed a
  // scratch store with the identical bytes and charges.
  if (RecordingHooks *Hooks = recordingHooks())
    Hooks->onCacheConsumed(Result.CachePath, Source->Tier,
                           Source->RemoteFetchBytes,
                           Source->RemoteFetchCycles);

  // The session owns the view before installing: an XIP install hands
  // it to the code cache as the keepalive of the borrowed payload
  // mapping.
  LoadedView = std::make_shared<CacheFileView>(std::move(Source->View));
  Status S = installView(Engine, Result);
  if (!S.ok())
    return S;
  if (Opts.SharedResidency && Result.TracesInstalled != 0) {
    // One shared physical copy per (cache file, generation): every
    // simulated process priming the same payload probes and populates
    // the same residency entries. touch() marks the page and reports
    // whether another process got there first — exactly the soft-fault
    // condition the cost model wants. The probe is attached on both the
    // XIP and materializing paths, so their stats stay bit-identical.
    uint64_t PayloadId =
        fnv1a64U64(LoadedView->generation(), fnv1a64(Result.CachePath));
    SharedResidencyMap *Map = Opts.SharedResidency;
    Engine.setResidencyProbe([Map, PayloadId](uint32_t Page) {
      return Map->touch(PayloadId, Page);
    });
  }
  if (Opts.ValidateSemantic || PromotedInstalled) {
    // Verification at materialization: whenever a primed trace's body
    // is decoded at its first execution, it goes through proveTrace()
    // against the guest bytes at its start address — promoted traces,
    // and under Opts.ValidateSemantic every trace. A trace that fails
    // is dropped for retranslation — and, once per session, the source
    // cache is quarantined so later runs stop re-priming a miscompiled
    // database (CertificateInvalid when a certificate lied and the
    // re-proof agreed it was wrong; SemanticMismatch otherwise). The
    // engine passes the body, its stored bytes and the certificate as
    // views into the code pool and the primed file; the guest bytes
    // are read into one buffer the hook reuses.
    std::shared_ptr<CacheStore> StorePtr = Db.backend();
    auto AlreadyQuarantined = std::make_shared<bool>(false);
    std::string Ref = Result.CachePath;
    loader::AddressSpace &Space = Engine.machine().space();
    const bool ValidateAll = Opts.ValidateSemantic;
    Engine.setMaterializeValidator(
        [&Space, StorePtr, AlreadyQuarantined, Ref, ValidateAll,
         SourceBytes = std::vector<uint8_t>()](
            const dbi::Engine::MaterializeCheck &Check,
            dbi::Engine::MaterializeCheckInfo &Info) mutable -> Status {
          if (!Check.Promoted && !ValidateAll)
            return Status::success(); // Unpromoted, not validating.
          Status Read = readGuestSource(
              Space, Check.GuestStart,
              static_cast<uint32_t>(Check.Body.size()), SourceBytes);
          if (!Read.ok())
            return Read;
          ProofVerdict V = proveTrace({.GuestStart = Check.GuestStart,
                                       .Body = Check.Body,
                                       .BodyBytes = Check.BodyBytes,
                                       .Source = &SourceBytes,
                                       .Cert = Check.Cert});
          Info.CertsChecked += V.CertChecked;
          Info.CertChecksFailed += V.CertRejected;
          Info.ProofsReplayed += Check.Promoted && V.ProverRan;
          Info.Verified = V.Proved;
          if (V.Proved)
            return Status::success();
          if (!*AlreadyQuarantined && !Ref.empty()) {
            *AlreadyQuarantined = true;
            (void)StorePtr->quarantineRef(
                Ref, V.CertRejected
                         ? annotatedQuarantineReason(
                               Ref, QuarantineReasonCode::CertificateInvalid,
                               "certificate rejected (" + V.CertDetail +
                                   ") and re-proof failed: " +
                                   V.ProofDetail)
                         : annotatedQuarantineReason(
                               Ref, QuarantineReasonCode::SemanticMismatch,
                               V.ProofDetail));
          }
          return Status::error(
              ErrorCode::InvalidFormat,
              (V.CertRejected ? "certificate rejected and re-proof failed: "
                              : "translation validation failed: ") +
                  V.ProofDetail);
        });
  }
  return Result;
}

void PersistentSession::validateModules(
    dbi::Engine &Engine, const std::vector<ModuleKey> &Persisted,
    PrimeResult &Result, std::vector<int64_t> &Delta,
    std::vector<std::pair<uint32_t, uint32_t>> &Region) {
  const loader::LoadedImage &Image = Engine.machine().image();
  const size_t NumModules = Persisted.size();
  ModuleValidated.assign(NumModules, false);
  ModuleLoadedNow.assign(NumModules, false);
  Delta.assign(NumModules, 0);
  Region.assign(NumModules, {0, 0});
  // finalize() writes the image's keys in image order: the table is
  // unchanged when those are exactly the persisted keys.
  ModuleTableUnchanged = NumModules == Image.Modules.size();
  for (size_t I = 0; I != NumModules; ++I) {
    const ModuleKey &Old = Persisted[I];
    const LoadedModule *Now = findLoadedByPath(Image, Old.Path);
    if (!Now) {
      ModuleTableUnchanged = false;
      continue; // Module absent this run; its traces stay on disk.
    }
    ModuleLoadedNow[I] = true;
    ModuleKey NowKey = ModuleKey::compute(*Now);
    ModuleTableUnchanged &= Now == &Image.Modules[I] && NowKey == Old;
    bool Match = Opts.PositionIndependent
                     ? Old.matchesIgnoringBase(NowKey)
                     : Old.matches(NowKey);
    if (!Match) {
      // Key conflict: the binary changed or (without PIC) relocated.
      // All its persisted translations are invalid; the engine falls
      // back to retranslation.
      ++Result.ModulesInvalidated;
      ++Engine.stats().ModulesInvalidated;
      continue;
    }
    ModuleValidated[I] = true;
    ++Result.ModulesValidated;
    Delta[I] = static_cast<int64_t>(NowKey.Base) -
               static_cast<int64_t>(Old.Base);
    Region[I] = {NowKey.Base, NowKey.Size};
  }
}

Status PersistentSession::installView(dbi::Engine &Engine,
                                      PrimeResult &Result) {
  const CacheFileView &View = *LoadedView;
  dbi::CodeCache &Cache = Engine.cache();

  std::vector<int64_t> Delta;
  std::vector<std::pair<uint32_t, uint32_t>> Region;
  validateModules(Engine, View.modules(), Result, Delta, Region);

  // Whole-file execute-in-place gate. XIP executes the mapped payload
  // bytes as-is, so it is only sound when nothing about this run wants
  // to transform or re-decode them: the file must have been written
  // page-aligned and relocation-free (v3), the host's in-memory
  // instruction layout must equal the encoding, no validation mode may
  // demand decoded private bodies, the payload must fit the code pool,
  // and every module must have validated at an unchanged base (a rebase
  // would dirty shared pages). The pass below additionally requires
  // every index entry to be usable. Any disqualifier selects the copying
  // install, whose modeled charges are bit-identical.
  bool Xip = View.executeInPlace() && isa::HostExecutesInPlace &&
             !Opts.ValidateSemantic &&
             View.payloadSize() <= Engine.options().CodePoolBytes;
  for (size_t I = 0; I != Delta.size(); ++I)
    if (ModuleValidated[I] && Delta[I] != 0)
      Xip = false;

  // One pass over the index picks the usable entries. Exits and links
  // are decoded straight from the trace index — whose CRC was already
  // validated at open, so restoring links is safe even though the code
  // payload is still unverified — once into each trace's exit vector
  // and once more when restoring links; no per-trace staging copies.
  struct PendingInstall {
    uint32_t Start = 0; ///< Rebased guest start.
    uint32_t TraceIndex = 0;
    uint32_t PoolOffset = 0;
    int64_t RebaseDelta = 0;
    TranslatedTrace *Added = nullptr; ///< Null when the data pool filled.
  };
  std::vector<PendingInstall> Installs;
  std::unordered_set<uint32_t> SeenStarts;
  Installs.reserve(View.numTraces());
  SeenStarts.reserve(View.numTraces());
  size_t PoolBytes = 0;
  // A skipped entry is retranslated on demand. It also rules out XIP:
  // the borrowed pool holds each trace at its file code offset, which
  // matches the copying install's packed offsets only when no entry is
  // skipped — the invariant behind the two installs' identical
  // page-touch sequences (and thus identical stats).
  auto skip = [&] {
    ++Result.TracesSkipped;
    Xip = false;
  };
  for (uint32_t TraceI = 0; TraceI != View.numTraces(); ++TraceI) {
    const TraceIndexEntry &E = View.entry(TraceI);
    if (!ModuleValidated[E.ModuleIndex]) {
      skip();
      continue;
    }
    const int64_t D = Delta[E.ModuleIndex];
    const auto [RegionBase, RegionSize] = Region[E.ModuleIndex];
    const uint32_t NewStart = static_cast<uint32_t>(E.GuestStart + D);
    if (!entryUsable(View, TraceI, NewStart, RegionBase, RegionSize) ||
        !SeenStarts.insert(NewStart).second) {
      skip();
      continue;
    }
    PoolBytes += E.CodeSize;
    Installs.push_back(PendingInstall{NewStart, TraceI, 0, D, nullptr});
  }

  if (Xip) {
    // Borrow the mapped payload wholesale: zero bytes copied. The view
    // (keepalive) stays alive until the cache unmaps it —
    // flush/eviction release, never free.
    for (PendingInstall &Install : Installs)
      Install.PoolOffset = View.entry(Install.TraceIndex).CodeOffset;
    Status S = Cache.installBorrowedPool(
        View.payloadBytes(), View.payloadSize(),
        std::shared_ptr<const void>(LoadedView));
    if (!S.ok())
      return S;
  } else {
    if (PoolBytes > Engine.options().CodePoolBytes) {
      // Persistent pools unavailable: abandon persistence for this run
      // (Section 3.2.2), continue with an empty code cache.
      Result.RejectReason = "persistent pool exceeds code cache capacity";
      Result.TracesSkipped += static_cast<uint32_t>(Installs.size());
      return Status::success();
    }
    // Code bytes are copied *raw* — no rebase — because each trace's
    // CRC must run over the stored bytes at first execution; the rebase
    // parameters ride along as the trace's PersistedPayload.
    std::vector<uint8_t> Pool;
    Pool.reserve(PoolBytes);
    for (PendingInstall &Install : Installs) {
      Install.PoolOffset = static_cast<uint32_t>(Pool.size());
      const uint8_t *Code = View.codeBytesOf(Install.TraceIndex);
      Pool.insert(Pool.end(), Code,
                  Code + View.entry(Install.TraceIndex).CodeSize);
    }
    Result.PayloadBytesCopied = Pool.size();
    Status S = Cache.installPersistedPool(
        std::move(Pool), std::shared_ptr<const void>(LoadedView));
    if (!S.ok())
      return S;
  }

  Cache.reserveTraces(Installs.size());
  for (PendingInstall &Install : Installs) {
    const TraceIndexEntry &E = View.entry(Install.TraceIndex);
    std::vector<dbi::TraceExit> Exits;
    Exits.reserve(E.ExitCount);
    for (uint32_t K = 0; K != E.ExitCount; ++K) {
      const ExitRecord X = View.exitOf(Install.TraceIndex, K);
      Exits.push_back(dbi::TraceExit{
          static_cast<ExitKind>(X.Kind), X.InstIndex,
          X.Target ? static_cast<uint32_t>(X.Target + Install.RebaseDelta)
                   : 0,
          nullptr});
    }
    auto Payload = std::make_unique<dbi::PersistedPayload>();
    Payload->ExpectedCodeCrc = E.CodeCrc;
    Payload->RebaseDelta = Install.RebaseDelta;
    // Also kept under XIP, which never rebases: finalize() re-emits an
    // unexecuted trace's reloc mask with the record it carries forward.
    if (Opts.PositionIndependent)
      Payload->RelocMask = View.relocMaskOf(Install.TraceIndex);
    if (E.OptGen > 0 && Install.RebaseDelta == 0) {
      // A certificate binds to the exact stored body bytes, so a rebase
      // invalidates it: the promoted trace is then re-proved in full at
      // materialization (empty span).
      auto [CertData, CertSize] = View.certBlobOf(Install.TraceIndex);
      Payload->Cert = {CertData, CertSize};
    }
    Payload->SourceTraceIndex = Install.TraceIndex;
    Payload->Xip = Xip;
    auto T = std::make_unique<TranslatedTrace>(
        Install.Start, E.GuestInstCount, Install.PoolOffset, E.CodeSize,
        std::move(Exits), /*FromPersistentCache=*/true);
    T->setPersistedPayload(std::move(Payload));
    T->setPersistedHeat(E.Heat);
    T->setOptGen(E.OptGen);
    auto Added = Cache.addTrace(std::move(T));
    if (!Added) {
      // Data pool exhausted: remaining traces fall back to translation
      // (both installs hit the identical limit at the identical trace).
      ++Result.TracesSkipped;
      continue;
    }
    Install.Added = *Added;
    PromotedInstalled |= E.OptGen > 0;
    ++Result.TracesInstalled;
  }
  Engine.stats().TracesLoadedFromCache += Result.TracesInstalled;

  // Restore persisted trace links between installed traces. The cache
  // was empty before this install, so its translation map holds exactly
  // the traces added above.
  if (Engine.options().EnableLinking) {
    for (const PendingInstall &Install : Installs) {
      if (!Install.Added)
        continue;
      for (uint32_t K = 0; K != Install.Added->exits().size(); ++K) {
        const uint32_t Linked =
            View.exitOf(Install.TraceIndex, K).LinkedStart;
        if (Linked == 0)
          continue;
        const uint32_t Target =
            static_cast<uint32_t>(Linked + Install.RebaseDelta);
        const dbi::TraceExit &Exit = Install.Added->exits()[K];
        if (!dbi::isLinkableExit(Exit.Kind) || Exit.Target != Target)
          continue;
        TranslatedTrace *To = Cache.lookup(Target);
        if (!To)
          continue;
        Cache.link(Install.Added, K, To);
        ++Result.LinksRestored;
      }
    }
  }
  Result.XipInstalled = Xip;
  InstalledWholeFile =
      Result.TracesSkipped == 0 && Result.TracesInstalled == View.numTraces();
  return Status::success();
}

const char *pcc::persist::describe(WriteBackReason Reason) {
  switch (Reason) {
  case WriteBackReason::NotFinalized:
    return "not finalized";
  case WriteBackReason::Disabled:
    return "write-back disabled";
  case WriteBackReason::NothingLearned:
    return "nothing learned";
  case WriteBackReason::NoPrimedCache:
    return "no primed cache";
  case WriteBackReason::DonorCache:
    return "primed from a donor cache";
  case WriteBackReason::ExplicitTarget:
    return "explicit store path";
  case WriteBackReason::TracesCompiled:
    return "traces compiled";
  case WriteBackReason::TracesNotResident:
    return "primed traces not resident";
  case WriteBackReason::ModuleTableChanged:
    return "module table changed";
  case WriteBackReason::HeaderChanged:
    return "file header changed";
  case WriteBackReason::PromotionDue:
    return "promotion due";
  }
  return "unknown";
}

WriteBackReason
PersistentSession::decideWriteBack(const dbi::Engine &Engine) const {
  if (!LoadedView)
    return WriteBackReason::NoPrimedCache;
  if (!LoadedWasOwn)
    return WriteBackReason::DonorCache;
  if (!Opts.StoreAsPath.empty())
    return WriteBackReason::ExplicitTarget;
  const dbi::EngineStats &Stats = Engine.stats();
  if (Stats.TracesCompiled != 0)
    return WriteBackReason::TracesCompiled;
  if (!InstalledWholeFile || Stats.CacheFlushes != 0 ||
      Stats.TracesEvicted != 0 || Stats.TracesDroppedCorrupt != 0)
    return WriteBackReason::TracesNotResident;
  if (!ModuleTableUnchanged)
    return WriteBackReason::ModuleTableChanged;
  const uint8_t SpecBits = specBitsOf(Engine.spec());
  if (LoadedView->executeInPlace() !=
          (Opts.ExecuteInPlace && Opts.PositionIndependent) ||
      LoadedView->positionIndependent() != Opts.PositionIndependent ||
      LoadedView->specBits() != SpecBits)
    return WriteBackReason::HeaderChanged;
  // finalize()'s promotion candidates. Every trace of the file is
  // resident here (the checks above), so the resident scan sees them all.
  if (Opts.OptTier && !Engine.tool() && SpecBits == 0)
    for (const auto &T : Engine.cache().traces())
      if (T->optGen() < OptMaxGen &&
          accumulatedHeat(T->persistedHeat(), T->executionCount()) >=
              OptHeatThreshold)
        return WriteBackReason::PromotionDue;
  return WriteBackReason::NothingLearned;
}

namespace {

/// What one circuit-breaker publish pass did.
struct PublishOutcome {
  bool Succeeded = false;
  Status LastError = Status::success();
  uint64_t StoreFailures = 0;
  uint64_t StoreRetries = 0;
};

/// Guest source snapshots for the optimization tier, keyed by trace
/// start. Fetched synchronously in finalize() (the address space is
/// only guaranteed alive on the engine thread); the promotion pass then
/// needs no engine or guest state at all, so it can run on a pool
/// worker alongside the publish.
using OptSourceMap =
    std::unordered_map<uint32_t, std::vector<isa::Instruction>>;

/// What one finalize promotion pass did.
struct OptOutcome {
  uint64_t TracesPromoted = 0;
  uint64_t SuperblocksFormed = 0;
  uint64_t LoadsEliminated = 0;
  uint64_t ConstsFolded = 0;
  uint64_t Rejections = 0;
};

bool sameInst(const isa::Instruction &A, const isa::Instruction &B) {
  return A.Op == B.Op && A.Rd == B.Rd && A.Rs1 == B.Rs1 &&
         A.Rs2 == B.Rs2 && A.Imm == B.Imm;
}

void clearRelocBit(TraceRecord &Rec, uint32_t I) {
  if (Rec.RelocMask.size() > I / 8)
    Rec.RelocMask[I / 8] &= static_cast<uint8_t>(~(1u << (I % 8)));
}

/// Optimizes \p Rec's body in place and proves the result equivalent to
/// \p Source; on success re-encodes the image (same size — slot-for-
/// slot rewriting), bumps the record's generation and attaches the
/// proof as its certificate. Rejection leaves the record untouched.
/// Replaced slots lose their reloc bits: a Nop or register move carries
/// no address-bearing immediate to rebase.
bool promoteRecord(TraceRecord &Rec,
                   const std::vector<isa::Instruction> &Source, bool Pic,
                   OptOutcome &Out) {
  auto Decoded = isa::decodeAll(
      Rec.Code.data() + dbi::TracePrologueBytes, Rec.GuestInstCount);
  if (!Decoded)
    return false;
  std::vector<isa::Instruction> Body = Decoded.take();
  const std::vector<isa::Instruction> Original = Body;
  analysis::TraceOptStats OS;
  analysis::optimizeTraceBody(Body, Rec.GuestStart,
                              /*AllowConstFold=*/!Pic, OS);
  analysis::Certificate Cert;
  auto Check =
      analysis::validateTranslation(Rec.GuestStart, Source, Body, &Cert);
  if (!Check.Equivalent) {
    ++Out.Rejections;
    return false;
  }
  std::vector<uint8_t> Encoded = isa::encodeAll(Body);
  std::copy(Encoded.begin(), Encoded.end(),
            Rec.Code.begin() + dbi::TracePrologueBytes);
  Rec.CodeCrc.reset();
  if (Pic)
    for (uint32_t I = 0; I != Body.size(); ++I)
      if (!sameInst(Body[I], Original[I]))
        clearRelocBit(Rec, I);
  ++Rec.OptGen;
  // The proof just ran against the new body: persist it as this
  // record's certificate. Any prior-generation certificate is stale
  // (it bound to the pre-promotion bytes) and must not survive.
  Cert.OptGen = Rec.OptGen;
  Rec.Cert = Cert.serialize();
  ++Out.TracesPromoted;
  Out.LoadsEliminated += OS.LoadsEliminated;
  Out.ConstsFolded += OS.ConstsFolded;
  return true;
}

/// The finalize-time AOT promotion pass: merges contiguous fall-through
/// chains of hot traces into superblocks, then runs the optimizer over
/// every candidate body, accepting only what validateTranslation
/// proves. Pure host-side transform over \p File — no engine, store or
/// guest state — so it runs equally inline or on a pool worker.
void promoteCacheFile(CacheFile &File, const OptSourceMap &Sources,
                      OptOutcome &Out) {
  const bool Pic = File.PositionIndependent;

  // Candidate set: traces whose guest source was snapshotted (the heat
  // threshold was applied at snapshot time), with generation headroom
  // and a source that still matches the body length.
  std::vector<size_t> CandIdx;
  std::vector<analysis::SuperblockCandidate> Cands;
  for (size_t I = 0; I != File.Traces.size(); ++I) {
    const TraceRecord &Rec = File.Traces[I];
    auto It = Sources.find(Rec.GuestStart);
    if (It == Sources.end() || Rec.OptGen >= OptMaxGen ||
        It->second.size() != Rec.GuestInstCount)
      continue;
    analysis::SuperblockCandidate C;
    C.Start = Rec.GuestStart;
    C.InstCount = Rec.GuestInstCount;
    C.ModuleIndex = Rec.ModuleIndex;
    C.Heat = Rec.Heat;
    if (!Rec.Exits.empty() &&
        Rec.Exits.back().Kind ==
            static_cast<uint8_t>(ExitKind::FallThrough)) {
      C.EndsInFallThrough = true;
      C.FallTarget = Rec.Exits.back().Target;
    }
    CandIdx.push_back(I);
    Cands.push_back(C);
  }

  // Superblock formation first: each planned chain is concatenated into
  // one unoptimized record for its head — the boundary fall-through
  // exits become internal control flow; every other exit shifts by the
  // head-relative instruction offset; reloc masks concatenate — and
  // promoted like any other record. Tails keep their own records (tail
  // duplication — they remain valid entry points). A chain that fails
  // its proof is abandoned whole; its members stay scalar candidates
  // below.
  std::vector<bool> Done(Cands.size(), false);
  for (const std::vector<uint32_t> &Chain :
       analysis::planSuperblocks(Cands, OptMaxSuperblockInsts)) {
    std::vector<isa::Instruction> Source;
    TraceRecord Merged;
    Merged.Code.assign(dbi::TracePrologueBytes, 0);
    uint32_t Offset = 0;
    for (size_t K = 0; K != Chain.size(); ++K) {
      const TraceRecord &Rec = File.Traces[CandIdx[Chain[K]]];
      const auto BodyBegin = Rec.Code.begin() + dbi::TracePrologueBytes;
      Merged.Code.insert(Merged.Code.end(), BodyBegin,
                         BodyBegin + static_cast<size_t>(
                                         Rec.GuestInstCount) *
                                         isa::InstructionSize);
      const std::vector<isa::Instruction> &Src =
          Sources.at(Rec.GuestStart);
      Source.insert(Source.end(), Src.begin(), Src.end());
      for (size_t X = 0; X != Rec.Exits.size(); ++X) {
        if (K + 1 != Chain.size() && X + 1 == Rec.Exits.size())
          break; // Boundary fall-through: now internal, exit dropped.
        ExitRecord E = Rec.Exits[X];
        E.InstIndex += Offset;
        Merged.Exits.push_back(E);
      }
      if (Pic)
        for (uint32_t B = 0; B != Rec.GuestInstCount; ++B)
          if (Rec.relocBit(B))
            Merged.setRelocBit(Offset + B);
      Offset += Rec.GuestInstCount;
    }
    Merged.Code.resize(Merged.Code.size() +
                           Merged.Exits.size() * dbi::ExitStubBytes,
                       0);
    const TraceRecord &Head = File.Traces[CandIdx[Chain[0]]];
    Merged.GuestStart = Head.GuestStart;
    Merged.ModuleIndex = Head.ModuleIndex;
    Merged.GuestInstCount = Offset;
    Merged.Heat = Head.Heat;
    Merged.OptGen = Head.OptGen;
    if (!promoteRecord(Merged, Source, Pic, Out))
      continue;
    File.Traces[CandIdx[Chain[0]]] = std::move(Merged);
    Done[Chain[0]] = true;
    ++Out.SuperblocksFormed;
  }

  // Scalar promotion for every remaining candidate — superblock tails
  // included, since direct entries to their starts still execute them.
  for (size_t CI = 0; CI != CandIdx.size(); ++CI) {
    if (Done[CI])
      continue;
    promoteRecord(File.Traces[CandIdx[CI]], Sources.at(Cands[CI].Start),
                  Pic, Out);
  }
}

/// Store-write circuit breaker: persistence is an accelerator, so a
/// failing write is retried up to PublishAttempts times and then
/// abandoned — the run completes correctly either way. Pure store-side
/// work; no engine or session state is touched, which is what makes it
/// safe to run on a pool worker after finalize() has returned.
PublishOutcome publishWithBreaker(CacheStore &Store,
                                  const std::string &StoreAsPath,
                                  uint64_t LookupKey,
                                  uint32_t BaseGeneration,
                                  const CacheFile &File) {
  PublishOutcome Out;
  for (uint32_t Attempt = 0; Attempt != PublishAttempts; ++Attempt) {
    if (Attempt != 0)
      ++Out.StoreRetries;
    if (!StoreAsPath.empty()) {
      Status S = Store.putRef(StoreAsPath, File);
      if (S.ok()) {
        Out.Succeeded = true;
        return Out;
      }
      Out.LastError = S;
    } else {
      auto Published = Store.publish(LookupKey, File, BaseGeneration);
      if (Published) {
        Out.StoreRetries += Published->LockRetries;
        Out.Succeeded = true;
        return Out;
      }
      Out.LastError = Published.status();
    }
    ++Out.StoreFailures;
  }
  return Out;
}

/// What the finalize tail did, accumulated off to the side so the same
/// code runs inline or on a pool worker; foldFinalizeOutcome() merges it
/// into EngineStats for finalize() and wait() alike, keeping the
/// recorded values bit-identical either way.
struct FinalizeOutcome {
  PublishOutcome Publish;
  OptOutcome Opt;
};

/// The finalize tail: promotes \p File's hot candidates (when the
/// snapshot took any guest sources), then publishes it through the
/// circuit breaker.
FinalizeOutcome
promoteAndPublish(CacheFile &File, const OptSourceMap &Sources,
                  CacheStore &Store, const std::string &StoreAsPath,
                  uint64_t LookupKey, uint32_t BaseGeneration) {
  FinalizeOutcome Out;
  if (!Sources.empty())
    promoteCacheFile(File, Sources, Out.Opt);
  Out.Publish =
      publishWithBreaker(Store, StoreAsPath, LookupKey, BaseGeneration, File);
  return Out;
}

/// Merges \p Out into *\p Stats (when given) and returns the FailFast
/// error when one applies; a failed publish otherwise degrades the
/// session to in-memory-only success.
Status foldFinalizeOutcome(const FinalizeOutcome &Out,
                           bool FailFast, dbi::EngineStats *Stats) {
  if (Stats) {
    Stats->TracesPromoted += Out.Opt.TracesPromoted;
    Stats->SuperblocksFormed += Out.Opt.SuperblocksFormed;
    Stats->OptLoadsEliminated += Out.Opt.LoadsEliminated;
    Stats->OptConstsFolded += Out.Opt.ConstsFolded;
    Stats->OptValidatorRejections += Out.Opt.Rejections;
    Stats->PersistStoreRetries += Out.Publish.StoreRetries;
    Stats->PersistStoreFailures += Out.Publish.StoreFailures;
  }
  if (Out.Publish.Succeeded)
    return Status::success();
  if (FailFast)
    return Out.Publish.LastError;
  if (Stats) {
    Stats->PersistDegraded = true;
    Stats->PersistDegradeReason = Out.Publish.LastError.toString();
  }
  return Status::success();
}

} // namespace

/// Outcome slot for a background finalize.
struct PersistentSession::FinalizeState {
  std::mutex Mutex;
  std::condition_variable Completed;
  bool Done = false;
  FinalizeOutcome Outcome;
};

Status PersistentSession::finalize(dbi::Engine &Engine) {
  assert(Primed && "finalize() requires a prior prime()");
  // Decided before any per-trace copy: a run that learned nothing builds
  // no snapshot, pays no write charge and leaves the slot as it is.
  Decision.Reason = Opts.WriteBack ? decideWriteBack(Engine)
                                   : WriteBackReason::Disabled;
  if (!Decision.published())
    return Status::success();

  const loader::LoadedImage &Image = Engine.machine().image();
  const dbi::CodeCache &Cache = Engine.cache();

  // The snapshot is built in place in a shared file: a background
  // finalize hands this same object to the pool worker, which promotes
  // and publishes it without another copy.
  auto FilePtr = std::make_shared<CacheFile>();
  CacheFile &File = *FilePtr;
  File.EngineHash = EngineHash;
  File.ToolHash = ToolHash;
  File.SpecBits = specBitsOf(Engine.spec());
  File.PositionIndependent = Opts.PositionIndependent;
  // XIP generations are only written for position-independent sessions:
  // relocation-free bodies are what make the shared payload pages
  // executable as-is by every later mapping at an unchanged base.
  File.ExecuteInPlace = Opts.ExecuteInPlace && Opts.PositionIndependent;
  File.Generation = LoadedView ? LoadedView->generation() + 1 : 1;
  File.WriterTag = static_cast<uint16_t>(currentProcessId() & 0xffff);

  File.Modules.reserve(Image.Modules.size());
  for (const LoadedModule &Mod : Image.Modules)
    File.Modules.push_back(ModuleKey::compute(Mod));
  // Resident traces bound the snapshot (accumulation can push past
  // this, but the resident copy loop is the hot part).
  File.Traces.reserve(Cache.traces().size());

  // Per-module set of text-relocated instruction indices, for the PIC
  // relocation masks.
  std::vector<std::unordered_set<uint32_t>> RelocSets;
  if (Opts.PositionIndependent) {
    RelocSets.resize(Image.Modules.size());
    for (size_t I = 0; I != Image.Modules.size(); ++I)
      for (uint32_t Index : Image.Modules[I].Image->textRelocations())
        RelocSets[I].insert(Index);
  }

  auto moduleIndexFor = [&](uint32_t Addr) -> int {
    for (size_t I = 0; I != Image.Modules.size(); ++I)
      if (Image.Modules[I].contains(Addr))
        return static_cast<int>(I);
    return -1;
  };

  // Deep verification at write-back (Opts.ValidateSemantic): never
  // sign a trace whose code image is no longer effect-equivalent to
  // the guest code it claims to translate — in-pool corruption would
  // otherwise be re-published under a fresh checksum. A record that
  // still carries its promotion certificate is checked by it first. A
  // mismatch skips just that trace.
  const loader::AddressSpace &Space = Engine.machine().space();
  std::vector<uint8_t> SourceBytes;
  auto semanticallyValid = [&](TraceRecord &Rec) -> bool {
    if (!Opts.ValidateSemantic)
      return true;
    Status Read = readGuestSource(Space, Rec.GuestStart,
                                  Rec.GuestInstCount, SourceBytes);
    ProofVerdict V;
    if (Read.ok())
      V = proveTrace({.GuestStart = Rec.GuestStart,
                      .Record = &Rec,
                      .Source = &SourceBytes,
                      .Cert = Rec.Cert});
    if (!Read.ok() || !V.Proved) {
      ++Engine.stats().VerifyFailures;
      return false;
    }
    // The prover vouches for the body but the certificate did not:
    // drop the stale certificate, keep the trace.
    if (V.CertRejected)
      Rec.Cert.clear();
    ++Engine.stats().TracesVerified;
    return true;
  };

  // Resident traces harvested from the engine pool lost their record
  // envelopes at install — certificates included. Re-attach each
  // promoted trace's certificate from the primed file when the body
  // bytes still match exactly (CRC-bound), so an executed-but-
  // unmodified promotion keeps its proof across generations without
  // re-proving.
  std::unordered_map<uint32_t, std::pair<const uint8_t *, size_t>>
      PriorCerts;
  if (LoadedView && LoadedView->certsPresent()) {
    for (uint32_t J = 0; J != LoadedView->numTraces(); ++J) {
      auto [CertData, CertSize] = LoadedView->certBlobOf(J);
      if (CertData)
        PriorCerts.emplace(LoadedView->entry(J).GuestStart,
                           std::make_pair(CertData, CertSize));
    }
  }
  auto reattachCert = [&](TraceRecord &Rec) {
    if (Rec.OptGen == 0 || !Rec.Cert.empty() || PriorCerts.empty())
      return;
    auto It = PriorCerts.find(Rec.GuestStart);
    if (It == PriorCerts.end())
      return;
    auto Peek =
        analysis::peekCertificate(It->second.first, It->second.second);
    if (!Peek || Peek->GuestStart != Rec.GuestStart ||
        Peek->InstCount != Rec.GuestInstCount)
      return;
    const size_t InstBytes =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    if (Rec.Code.size() < dbi::TracePrologueBytes + InstBytes ||
        crc32(Rec.Code.data() + dbi::TracePrologueBytes, InstBytes) !=
            Peek->BodyCrc)
      return; // Body changed (rebase, recompile): certificate is stale.
    Rec.Cert.assign(It->second.first,
                    It->second.first + It->second.second);
  };

  for (const auto &T : Cache.traces()) {
    int ModIndex = moduleIndexFor(T->guestStart());
    if (ModIndex < 0)
      continue; // Not backed by a file on disk: never persisted.
    TraceRecord Rec;
    Rec.GuestStart = T->guestStart();
    Rec.ModuleIndex = static_cast<uint32_t>(ModIndex);
    Rec.GuestInstCount = T->guestInstCount();
    // Heat accumulates across the runs that carried this trace: what
    // the cache file brought in plus this run's executions.
    Rec.Heat = accumulatedHeat(T->persistedHeat(), T->executionCount());
    // The optimization generation travels with the trace: a promoted
    // body that executed this run is written back at its generation.
    Rec.OptGen = T->optGen();
    const uint8_t *Code = Cache.codeAt(T->poolOffset());
    Rec.Code.assign(Code, Code + T->poolBytes());
    Rec.CodeCrc = T->verifiedCodeCrc();
    Rec.Exits.reserve(T->exits().size());
    for (const dbi::TraceExit &Exit : T->exits())
      Rec.Exits.push_back(ExitRecord{
          static_cast<uint8_t>(Exit.Kind), Exit.InstIndex, Exit.Target,
          Exit.Link ? Exit.Link->guestStart() : 0});

    if (const dbi::PersistedPayload *P = T->persistedPayload()) {
      // Installed lazily and never executed: the pool still holds the
      // raw stored bytes, whose CRC was never checked. Verify now so a
      // damaged payload is dropped (and retranslated by whichever run
      // needs it) rather than re-signed under a fresh checksum; rebase
      // the written copy so the file's bytes match the current base.
      if (crc32(Rec.Code.data(), Rec.Code.size()) != P->ExpectedCodeCrc)
        continue;
      // The CRC just verified is the written image's CRC unless the
      // rebase below changes the bytes; serialize() then reuses it.
      if (P->RebaseDelta == 0)
        Rec.CodeCrc = P->ExpectedCodeCrc;
      else
        dbi::rebaseTranslatedImage(Rec.Code.data(), Rec.Code.size(),
                                   Rec.GuestInstCount, P->RelocMask,
                                   P->RebaseDelta);
      if (Opts.PositionIndependent)
        Rec.RelocMask.assign(P->RelocMask.begin(), P->RelocMask.end());
      reattachCert(Rec);
      if (!semanticallyValid(Rec))
        continue;
      File.Traces.push_back(std::move(Rec));
      continue;
    }

    if (Opts.PositionIndependent) {
      // Mark every address-bearing immediate: branch/call targets plus
      // the module's own text relocations (address materialization).
      // Only persisted traces are ever unmaterialized, and each carries
      // a PersistedPayload (Engine::ensureMaterialized relies on it;
      // a failed materialization drops the trace), so the branch above
      // took every trace without a decoded body.
      assert(T->isMaterialized() &&
             "resident trace without a payload must be materialized");
      const std::span<const isa::Instruction> Body = T->body();
      const LoadedModule &Mod = Image.Modules[ModIndex];
      uint32_t FirstIndex =
          (T->guestStart() - Mod.Base) / isa::InstructionSize;
      for (uint32_t I = 0; I != Body.size(); ++I) {
        bool NeedsReloc =
            isa::hasCodeTarget(Body[I].Op) ||
            RelocSets[ModIndex].count(FirstIndex + I);
        if (NeedsReloc)
          Rec.setRelocBit(I);
      }
    }
    reattachCert(Rec);
    if (!semanticallyValid(Rec))
      continue;
    File.Traces.push_back(std::move(Rec));
  }

  // Guest starts written so far: the resident snapshot, then carried
  // records. Filters the accumulation carry-through and, complete, the
  // link clearing below.
  const CacheFileView *Prior = LoadedView.get();
  std::unordered_set<uint32_t> Starts;
  Starts.reserve(File.Traces.size() + (Prior ? Prior->numTraces() : 0));
  for (const TraceRecord &Rec : File.Traces)
    Starts.insert(Rec.GuestStart);

  // Prior-cache carry-through reads records from the primed view;
  // record extraction CRC-checks the payload, and a failure drops only
  // that trace. Only applies to this application's own cache; donor
  // caches are never modified or absorbed wholesale. Each prior module
  // takes at most one of two routes, decided per module first so one
  // walk of the prior index serves both:
  //
  //  1. Traces of *validated* modules that are no longer resident —
  //     dropped by a mid-run flush or skipped at install when a pool
  //     filled. The paper writes the persistent cache "whenever the
  //     intra-execution code cache becomes full" for exactly this
  //     reason; merging here keeps accumulation monotone under cache
  //     pressure. Only when the module's base is unchanged (always true
  //     for validated non-PIC modules; PIC reuse at a new base would
  //     require rebasing the stale records, so those are left to
  //     retranslation instead).
  //  2. Still-valid traces of modules that simply were not loaded by
  //     this run, so the cache's coverage only grows over time
  //     (Section 4.4) — unless the module's mapping overlaps one
  //     already in the file.
  //
  // Either way a record whose guest start is already written is not
  // carried, so the file never holds two traces for one start.
  if (LoadedWasOwn && Prior) {
    constexpr uint32_t NotCarried = ~0u;
    std::vector<uint32_t> CarryTo(Prior->numModules(), NotCarried);
    for (uint32_t I = 0; I != Prior->numModules(); ++I) {
      const ModuleKey &Old = Prior->modules()[I];
      if (ModuleLoadedNow[I]) {
        if (!ModuleValidated[I])
          continue;
        for (size_t M = 0; M != Image.Modules.size(); ++M)
          if (File.Modules[M].Path == Old.Path) {
            if (File.Modules[M].Base == Old.Base)
              CarryTo[I] = static_cast<uint32_t>(M);
            break;
          }
        continue;
      }
      bool Collides = false;
      for (const ModuleKey &Current : File.Modules)
        Collides |= regionsOverlap(Old.Base, Old.Size, Current.Base,
                                   Current.Size);
      if (Collides)
        continue;
      CarryTo[I] = static_cast<uint32_t>(File.Modules.size());
      File.Modules.push_back(Old);
    }
    for (uint32_t J = 0; J != Prior->numTraces(); ++J) {
      const TraceIndexEntry &E = Prior->entry(J);
      const ModuleKey &Mod = Prior->modules()[E.ModuleIndex];
      // The install's usability test: a record prime would have skipped
      // is never carried either.
      if (CarryTo[E.ModuleIndex] == NotCarried ||
          Starts.count(E.GuestStart) ||
          !entryUsable(*Prior, J, E.GuestStart, Mod.Base, Mod.Size))
        continue;
      auto Copy = Prior->record(J);
      if (!Copy)
        continue; // Corrupt prior payload: dropped from carry-through.
      Copy->ModuleIndex = CarryTo[E.ModuleIndex];
      // record() just verified the stored image against this CRC.
      Copy->CodeCrc = E.CodeCrc;
      Starts.insert(Copy->GuestStart);
      File.Traces.push_back(Copy.take());
    }
  }

  // Clear links whose targets did not make it into this file (e.g. a
  // link into a trace the engine recompiled differently): readers treat
  // LinkedStart == 0 as "unlinked", and validate() requires closure.
  for (TraceRecord &Rec : File.Traces)
    for (ExitRecord &Exit : Rec.Exits)
      if (Exit.LinkedStart != 0 && !Starts.count(Exit.LinkedStart))
        Exit.LinkedStart = 0;

  // Heat-ordered layout: hottest traces first in the trace index and
  // payload, so a later run's demand paging touches the fewest payload
  // pages before its hot code is resident. Correctness is order-
  // independent — records address each other by guest start. The sort
  // runs over compact keys (the index breaks ties, so the order is the
  // stable one); the records are then permuted in place, cycle by
  // cycle, so each moves once and no second record array is built.
  struct LayoutKey {
    uint32_t Heat;
    uint32_t GuestStart;
    uint32_t Index;
  };
  std::vector<LayoutKey> Layout;
  Layout.reserve(File.Traces.size());
  for (uint32_t I = 0; I != File.Traces.size(); ++I)
    Layout.push_back(
        LayoutKey{File.Traces[I].Heat, File.Traces[I].GuestStart, I});
  std::sort(Layout.begin(), Layout.end(),
            [](const LayoutKey &A, const LayoutKey &B) {
              if (A.Heat != B.Heat)
                return A.Heat > B.Heat;
              if (A.GuestStart != B.GuestStart)
                return A.GuestStart < B.GuestStart;
              return A.Index < B.Index;
            });
  for (uint32_t I = 0; I != Layout.size(); ++I) {
    if (Layout[I].Index == I)
      continue; // In place, or already placed by an earlier cycle.
    TraceRecord Displaced = std::move(File.Traces[I]);
    uint32_t J = I;
    while (Layout[J].Index != I) {
      const uint32_t Source = Layout[J].Index;
      File.Traces[J] = std::move(File.Traces[Source]);
      Layout[J].Index = J;
      J = Source;
    }
    File.Traces[J] = std::move(Displaced);
    Layout[J].Index = J;
  }

  // Optimization tier: snapshot guest source for the hot candidates
  // now — the address space is only guaranteed alive on this thread —
  // so the transform + equivalence proof can run alongside the publish,
  // behind the wait() durability barrier. Tool-less sessions only: the
  // optimizer deletes instructions, which would change what an
  // instrumentation tool observes.
  OptSourceMap OptSources;
  if (Opts.OptTier && !Engine.tool() && File.SpecBits == 0)
    for (const TraceRecord &Rec : File.Traces) {
      if (Rec.Heat < OptHeatThreshold || Rec.OptGen >= OptMaxGen)
        continue;
      if (!readGuestSource(Space, Rec.GuestStart, Rec.GuestInstCount,
                           SourceBytes)
               .ok())
        continue; // Unreadable source (e.g. a carried trace of a module
                  // this run never mapped): stays at its generation.
      OptSources.emplace(Rec.GuestStart,
                         isa::decodeAll(SourceBytes.data(),
                                        Rec.GuestInstCount)
                             .take());
    }

  // The write charge is modeled on the pre-promotion snapshot in both
  // the sync and background paths: promotion happens off the modeled
  // critical path, so architectural stats stay bit-identical whether
  // the tier is on or off, and for any worker count.
  Engine.stats().PersistCycles +=
      Engine.options().Costs.PersistWriteCyclesPerPage *
      pagesOf(File.serializedSize());
  // Transactional publish: BaseGeneration is what this session primed
  // from its own slot (a donor prime does not claim the slot's
  // history), so a concurrent finalizer that advanced the slot first is
  // detected and merged with instead of clobbered.
  const uint32_t BaseGeneration =
      LoadedWasOwn && Prior ? File.Generation - 1 : 0;

  if (!Opts.Pool || Opts.Pool->workerCount() == 0)
    return foldFinalizeOutcome(
        promoteAndPublish(File, OptSources, *Db.backend(), Opts.StoreAsPath,
                          LookupKey, BaseGeneration),
        Opts.FailFast, &Engine.stats());

  // Background finalize: the snapshot above (and every modeled charge)
  // happened synchronously; only the promotion, serialize and store
  // publish — pure host-side work — move off the critical path. The
  // outcome is folded in by wait().
  Fin = std::make_shared<FinalizeState>();
  Opts.Pool->submit([FinPtr = Fin, StorePtr = Db.backend(), FilePtr,
                     Sources = std::move(OptSources),
                     StoreAsPath = Opts.StoreAsPath, Key = LookupKey,
                     BaseGeneration]() mutable {
    FinalizeOutcome Out = promoteAndPublish(
        *FilePtr, Sources, *StorePtr, StoreAsPath, Key, BaseGeneration);
    // Free the snapshot before signalling, so its teardown is part of
    // the work wait() waits for rather than spilling past it.
    FilePtr.reset();
    {
      std::unique_lock<std::mutex> Lock(FinPtr->Mutex);
      FinPtr->Outcome = std::move(Out);
      FinPtr->Done = true;
    }
    FinPtr->Completed.notify_all();
  });
  return Status::success();
}

Status PersistentSession::wait(dbi::EngineStats *Stats) {
  if (!Fin)
    return Status::success();
  FinalizeOutcome Out;
  {
    std::unique_lock<std::mutex> Lock(Fin->Mutex);
    Fin->Completed.wait(Lock, [&] { return Fin->Done; });
    Out = std::move(Fin->Outcome);
  }
  Fin.reset();
  return foldFinalizeOutcome(Out, Opts.FailFast, Stats);
}

ErrorOr<PersistentRunResult> pcc::persist::runWithPersistence(
    vm::Machine &M, dbi::Tool *ClientTool,
    const dbi::EngineOptions &EngineOpts, const CacheDatabase &Db,
    const PersistOptions &Opts) {
  dbi::Engine Engine(M, ClientTool, EngineOpts);
  PersistentSession Session(Db, Opts);
  auto Prime = Session.prime(Engine);
  if (!Prime)
    return Prime.status();

  PersistentRunResult Result;
  Result.Prime = Prime.take();
  Result.Run = Engine.run();
  Status Finalized = Session.finalize(Engine);
  if (!Finalized.ok())
    return Finalized;
  // Durability barrier: with a worker pool the publish is still in
  // flight — wait for it and fold its outcome (retries, failures,
  // degradation) into the stats exactly where the synchronous path
  // records them.
  Status Waited = Session.wait(&Engine.stats());
  if (!Waited.ok())
    return Waited;
  Result.Stats = Engine.stats();
  Result.WriteBack = Session.writeBackDecision();
  // Include the cache write-back charged by finalize().
  Result.Run.Cycles = Result.Stats.totalCycles();
  return Result;
}
