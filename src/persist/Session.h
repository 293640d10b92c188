//===- persist/Session.h - Persistent cache manager -------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent cache manager (Figure 1, shaded components): performs
/// "the fundamental tasks of generating persistent caches, verifying
/// possible reuse, and storing them in the database" (Section 3.2).
///
/// A PersistentSession brackets one engine run:
///
///   prime()    — before run(): locate a cache by key (or donor path),
///                validate every module key against the loaded image,
///                install valid traces (unmaterialized, demand-paged)
///                and restore persisted trace links; invalid modules'
///                traces are dropped for retranslation.
///   finalize() — after run(): when the run learned something the
///                primed file lacks, write the resident traces back to
///                the database, accumulating newly discovered
///                translations into the persistent cache (Section 4.4)
///                and carrying forward still-valid traces of modules not
///                loaded by this particular run. A run that learned
///                nothing publishes nothing (see WriteBackReason).
///
/// Inter-application persistence (Section 3.2.3 end): lookup ignores the
/// application key and accepts a cache from any program instrumented
/// identically; the donor's application traces fail validation and are
/// retranslated while shared-library traces are reused when bases match.
///
/// Position-independent translations (Opts.PositionIndependent) are this
/// reproduction's implementation of the paper's noted future work: module
/// keys match ignoring the base address, and the install path rebases
/// every address-bearing immediate, so relocated libraries keep their
/// persisted translations instead of falling back to retranslation.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_SESSION_H
#define PCC_PERSIST_SESSION_H

#include "dbi/Engine.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheFile.h"
#include "persist/CacheStore.h"
#include "persist/CacheView.h"
#include "persist/Key.h"
#include "persist/Residency.h"
#include "support/ThreadPool.h"

#include <memory>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// Session configuration.
struct PersistOptions {
  /// Ignore the application key at lookup (inter-application mode).
  bool InterApplication = false;
  /// Write the cache back at finalize().
  bool WriteBack = true;
  /// Generate/consume position-independent translations (extension).
  bool PositionIndependent = false;
  /// Write an execute-in-place (XIP) generation at finalize: format v3
  /// with a page-aligned payload that later runs mmap directly as
  /// executable trace bodies instead of decoding private copies.
  /// Requires PositionIndependent (relocation-free bodies are what make
  /// the shared pages reusable as-is). Consuming an XIP cache needs no
  /// option — prime() engages the in-place path automatically whenever
  /// the file, host and session qualify, and falls back to the
  /// materializing path (bit-identical stats) otherwise.
  bool ExecuteInPlace = false;
  /// Cross-process page-residency model shared by every simulated
  /// process of a scenario (null: single process, every first touch is
  /// demand-paged I/O). When set, prime() attaches an engine residency
  /// probe keyed by (cache path, generation): the first toucher of each
  /// payload page pays PersistPageTouchCycles, later processes pay
  /// SharedPageTouchCycles — one shared physical copy per library
  /// cache. The map must outlive the session.
  SharedResidencyMap *SharedResidency = nullptr;
  /// Donor cache file to prime from, overriding key lookup (cross-input
  /// and inter-application experiments pick donors explicitly).
  std::string ExplicitCachePath;
  /// Write the cache to this path instead of the database slot.
  std::string StoreAsPath;
  /// Propagate store-write failures as finalize() errors instead of
  /// degrading (strict tools and tests that must observe the failure).
  /// With a worker pool the failure surfaces from wait() instead —
  /// finalize() has already returned by the time the publish runs.
  bool FailFast = false;
  /// Worker pool for the background finalize (null: fully
  /// synchronous). With workers, finalize() snapshots the resident
  /// traces on the calling thread and runs promotion, serialization and
  /// the store publish on the pool, behind the wait() durability
  /// barrier. Persisted payloads are always checked and decoded on the
  /// engine thread at first execution, so guest-visible results and
  /// EngineStats are bit-identical for any worker count. The pool must
  /// outlive the session.
  support::ThreadPool *Pool = nullptr;
  /// Deep semantic verification (analysis::validateTranslation): every
  /// primed trace must prove effect-equivalent to the guest code it
  /// claims to translate when its body is first decoded, and finalize()
  /// re-proves every trace it writes back. A primed trace that fails is
  /// dropped for retranslation and its source cache is quarantined with
  /// QuarantineReasonCode::SemanticMismatch; a finalize-time failure
  /// skips just that trace. Verified/failed counts land in
  /// EngineStats::TracesVerified / VerifyFailures.
  bool ValidateSemantic = false;
  /// Finalize-time AOT optimization tier: promote hot traces (lifetime
  /// heat >= OptHeatThreshold) to a higher optimization generation
  /// before the cache is published — superblock formation across
  /// contiguous fall-through chains, constant propagation (non-PIC
  /// only), redundant-load elimination, and dead-def elision — with
  /// every transformed body proved by analysis::validateTranslation;
  /// rejection keeps the generation-0 body. Guest source snapshots are
  /// taken synchronously in finalize(); the transform + proof runs with
  /// the publish (on the worker pool when one is configured), behind
  /// the wait() durability barrier. Only engaged for tool-less
  /// sessions: the optimizer deletes instructions, which would change
  /// instrumentation callback sequences. Each promotion's proof is
  /// persisted as the record's validation certificate; every session
  /// checks a promoted trace's certificate (the prover backstops a
  /// rejected or missing one) when its body is first materialized.
  bool OptTier = false;
};

/// Store-write circuit breaker: publish attempts finalize() makes
/// (retrying in between) before giving up on persistence for the
/// session. The run itself still succeeds — it just leaves nothing
/// behind, recorded in EngineStats::PersistDegraded.
inline constexpr uint32_t PublishAttempts = 3;
/// Minimum lifetime heat for a trace to be considered for promotion.
inline constexpr uint32_t OptHeatThreshold = 2;
/// Generation ceiling: traces already at this generation are left alone
/// (each proved promotion pass bumps a trace by one).
inline constexpr uint32_t OptMaxGen = 4;
/// Combined instruction cap for a merged superblock body.
inline constexpr uint32_t OptMaxSuperblockInsts = 256;

/// What prime() did, for reporting and tests.
struct PrimeResult {
  bool CacheFound = false;
  std::string CachePath;
  /// Why a located cache was rejected wholesale (empty otherwise).
  std::string RejectReason;
  uint32_t TracesInstalled = 0;
  uint32_t TracesSkipped = 0;
  uint32_t ModulesValidated = 0;
  uint32_t ModulesInvalidated = 0;
  uint32_t LinksRestored = 0;
  /// Candidate caches that exist but could not be read (I/O errors) —
  /// distinct from there being no cache at all.
  uint32_t CandidatesSkippedIo = 0;
  /// True when the cache payload was installed execute-in-place: the
  /// code pool borrows the file's mapped payload section and prime()
  /// copied zero payload bytes.
  bool XipInstalled = false;
  /// Payload bytes the install path copied into the private code pool
  /// (0 under XIP — that is the point).
  uint64_t PayloadBytesCopied = 0;
};

/// Why finalize() published the session's snapshot or skipped it. The
/// publish reasons are the material differences between what the run
/// learned and the file it primed from, checked in this order; the
/// first that holds is recorded. Accumulation adds the traces a run
/// discovered (Section 3), so a run that discovered none — and changed
/// nothing else the file records — has nothing to add: it writes
/// nothing, the slot keeps its generation, and that run's executions do
/// not enter the persisted heat.
enum class WriteBackReason : uint8_t {
  NotFinalized,   ///< finalize() has not run.
  Disabled,       ///< PersistOptions::WriteBack is off.
  NothingLearned, ///< Skipped: the snapshot would match the primed file.
  // Publish reasons.
  NoPrimedCache,      ///< Primed nothing.
  DonorCache,         ///< Primed from another application's slot.
  ExplicitTarget,     ///< Writes to PersistOptions::StoreAsPath.
  TracesCompiled,     ///< Compiled a trace: novel, or retranslated after
                      ///< a failed CRC, proof or quarantine.
  TracesNotResident,  ///< Prime skipped an index entry, or a flush,
                      ///< eviction or failed check dropped a trace.
  ModuleTableChanged, ///< A module was invalidated, rebased, missing
                      ///< from this run, or new to the file.
  HeaderChanged,      ///< XIP, position independence or spec bits
                      ///< differ from the primed file.
  PromotionDue,       ///< An OptTier trace reached the promotion heat.
};

/// Human-readable form of \p Reason ("nothing learned", ...).
const char *describe(WriteBackReason Reason);

/// The write-back decision finalize() took. Kept outside EngineStats:
/// it is an explanation, not a modeled quantity.
struct WriteBackDecision {
  WriteBackReason Reason = WriteBackReason::NotFinalized;
  /// Whether finalize() published (every reason after NothingLearned).
  bool published() const { return Reason > WriteBackReason::NothingLearned; }
};

/// Brackets one engine run with persistent-cache reuse and generation.
class PersistentSession {
public:
  PersistentSession(const CacheDatabase &Db,
                    PersistOptions Opts = PersistOptions())
      : Db(Db), Opts(std::move(Opts)) {}

  /// Waits for a background finalize (its outcome is discarded; call
  /// wait() first when it matters).
  ~PersistentSession() { (void)wait(nullptr); }

  PersistentSession(const PersistentSession &) = delete;
  PersistentSession &operator=(const PersistentSession &) = delete;

  /// Locates, validates and installs a persistent cache into \p Engine's
  /// code cache. Must be called before Engine::run(), on an engine whose
  /// cache is empty. A missing cache is success with
  /// PrimeResult::CacheFound == false.
  ErrorOr<PrimeResult> prime(dbi::Engine &Engine);

  /// Writes the persistent cache for \p Engine's application after its
  /// run, unless the run learned nothing the primed file lacks (see
  /// WriteBackReason; the check reads only session state, EngineStats
  /// and — for an OptTier session — the resident traces' heat). Requires
  /// a prior prime() on the same engine. The write goes through the
  /// store's transactional publish: when a concurrent session finalized
  /// the same key since prime(), the two caches are merged rather than
  /// clobbered.
  Status finalize(dbi::Engine &Engine);

  /// Durability barrier for the background finalize: blocks until its
  /// publish completes. The publish outcome — store failure and retry
  /// counts, circuit-breaker degradation — is merged into *\p Stats
  /// when given, exactly as the synchronous path records it; the
  /// returned Status is the FailFast error when one applies.
  /// Idempotent; a no-op for synchronous sessions.
  Status wait(dbi::EngineStats *Stats);

  /// Database slot key for this application/engine/tool (valid after
  /// prime()).
  uint64_t lookupKey() const { return LookupKey; }

  /// What finalize() decided (NotFinalized before it runs).
  const WriteBackDecision &writeBackDecision() const { return Decision; }

private:
  ErrorOr<StoredCache> locateCache(dbi::Engine &Engine,
                                   PrimeResult &Result);
  /// Validates \p Persisted module keys against the loaded image,
  /// filling ModuleValidated/ModuleLoadedNow and the per-module load
  /// deltas and current mapping regions.
  void validateModules(dbi::Engine &Engine,
                       const std::vector<ModuleKey> &Persisted,
                       PrimeResult &Result, std::vector<int64_t> &Delta,
                       std::vector<std::pair<uint32_t, uint32_t>> &Region);
  /// Installs LoadedView's usable traces as unmaterialized index
  /// references whose CRC + decode (and PIC rebase) are deferred to
  /// Engine::ensureMaterialized(), then restores their persisted links.
  /// The code pool is either the file's page-aligned payload section,
  /// borrowed in place (execute-in-place: a v3 file whose every trace
  /// is usable at an unchanged base, outside validation modes) or a
  /// packed copy of the usable traces' raw code bytes. The two pools
  /// charge bit-identical modeled stats.
  Status installView(dbi::Engine &Engine, PrimeResult &Result);
  /// The first material difference between what the run learned and
  /// the primed file, or NothingLearned.
  WriteBackReason decideWriteBack(const dbi::Engine &Engine) const;

  const CacheDatabase &Db;
  PersistOptions Opts;

  /// Outcome slot for a background finalize (defined in Session.cpp).
  struct FinalizeState;
  std::shared_ptr<FinalizeState> Fin;

  /// State carried from prime() to finalize(): the primed cache (null
  /// when prime found none it could use). The view is shared because
  /// an XIP install hands it to the code cache as the keepalive of the
  /// borrowed payload mapping.
  std::shared_ptr<CacheFileView> LoadedView;
  std::vector<bool> ModuleValidated; ///< Per LoadedView module.
  std::vector<bool> ModuleLoadedNow; ///< Per LoadedView module.
  /// The current image's module keys equal LoadedView's table, entry
  /// for entry: nothing invalidated, rebased, missing or new.
  bool ModuleTableUnchanged = false;
  /// prime() installed every index entry of LoadedView.
  bool InstalledWholeFile = false;
  /// prime() installed a promoted trace: its first execution is
  /// checked by its certificate (PersistedPayload::Cert) or, without a
  /// usable one, re-proved in full.
  bool PromotedInstalled = false;
  bool LoadedWasOwn = false; ///< Cache came from this app's own slot.
  uint64_t LookupKey = 0;
  uint64_t EngineHash = 0;
  uint64_t ToolHash = 0;
  bool Primed = false;
  WriteBackDecision Decision;
};

/// Tool hash used when the engine runs without a tool.
uint64_t noToolHash();

/// Outcome of a full persistent run.
struct PersistentRunResult {
  vm::RunResult Run;
  dbi::EngineStats Stats;
  PrimeResult Prime;
  WriteBackDecision WriteBack;
};

/// Convenience wrapper: construct an engine over \p M with \p ClientTool,
/// prime from \p Db, run, finalize, and return everything measured.
/// EngineStats include the persistence costs charged by finalize().
ErrorOr<PersistentRunResult>
runWithPersistence(vm::Machine &M, dbi::Tool *ClientTool,
                   const dbi::EngineOptions &EngineOpts,
                   const CacheDatabase &Db,
                   const PersistOptions &Opts = PersistOptions());

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_SESSION_H
