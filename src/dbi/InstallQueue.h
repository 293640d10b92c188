//===- dbi/InstallQueue.h - Async persisted-trace validation ----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hand-off between background payload validation and the engine:
/// prime() installs persisted traces synchronously (so the translation
/// map, links and every modeled cost are identical at any worker
/// count) but defers the *host-side* work of each payload — CRC over
/// the stored bytes and decoding the translated body — to jobs on the
/// shared ThreadPool. Workers publish finished bodies here; the engine
/// drains them at dispatcher boundaries and attaches them to the
/// still-unmaterialized traces, so first execution skips the inline
/// CRC + decode stall while charging exactly the modeled cycles the
/// synchronous path charges.
///
/// Invariants that keep results bit-identical for any worker count:
///
///   * Jobs read only the session-owned cache-file view, never engine
///     memory — a flush or eviction can never race a worker.
///   * All modeled charges (CRC, materialize, page-touch cycles) are
///     made by the engine thread at first execution, whether the body
///     came from a worker, was claimed back unclaimed, or was decoded
///     inline.
///   * takeFor() is deterministic: an unclaimed job is withdrawn (the
///     engine validates inline, exactly as with no pool); an in-flight
///     job is waited for; either way the engine observes the same
///     bytes and produces the same trace.
///   * A result whose trace was flushed or evicted before arrival is
///     simply never consumed — the guest PC recompiles through the
///     normal dispatcher path, same as a cold run.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_DBI_INSTALLQUEUE_H
#define PCC_DBI_INSTALLQUEUE_H

#include "isa/Instruction.h"
#include "support/Error.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace pcc {
namespace dbi {

/// Counters of the scheduling decisions the queue made over its
/// lifetime. The engine's results are invariant to them by design
/// (see the class invariants below); a recorder captures them as a
/// *diagnostic* timeline so a replay divergence can be attributed to
/// scheduling vs. input drift.
struct ScheduleStats {
  uint64_t ChunksPublished = 0; ///< Worker jobs that ran to publish.
  uint64_t ChunksClaimed = 0;   ///< Jobs claimed by a worker.
  uint64_t ChunksWithdrawn = 0; ///< Unclaimed jobs takeFor() withdrew.
  uint64_t ChunksInFlightSkipped = 0; ///< takeFor() hit a Claimed job.
};

/// One background-validated persisted payload, ready to install.
struct ReadyTrace {
  uint32_t GuestStart = 0;
  /// Payload CRC over the raw stored bytes matched the trace index.
  bool CrcOk = false;
  /// Decode failure of a CRC-clean payload (success otherwise). The
  /// engine surfaces it exactly as the inline decode would.
  Status DecodeError = Status::success();
  /// Decoded translated body with the position-independent rebase
  /// already applied; empty unless CrcOk and DecodeError is success.
  std::vector<isa::Instruction> Body;
};

/// Lock-protected queue of payload-validation jobs and their results.
/// One producer (the session, before run()), N worker threads, one
/// consumer (the engine thread).
///
/// Jobs are *batched*: each covers a contiguous chunk of persisted
/// traces and publishes one ReadyTrace per trace. Batching keeps the
/// producer/consumer overhead (closure allocation, map inserts, lock
/// round-trips, per-boundary scans) proportional to the chunk count
/// rather than the trace count, which matters because the producer loop
/// runs on the engine thread inside prime().
class TraceInstallQueue {
public:
  using JobFn = std::function<std::vector<ReadyTrace>()>;

  /// Registers a job producing the payloads for the persisted traces
  /// starting at \p Starts (one ReadyTrace each, same order). Called
  /// only before workers start (no locking vs. addJob itself).
  void addJob(std::vector<uint32_t> Starts, JobFn Fn);

  /// Worker protocol: claims the next unclaimed job, runs it outside
  /// the lock, publishes the results. Returns false when no unclaimed
  /// job remains (the worker loop exits).
  bool runNextJob();

  /// Engine side: removes and returns every published-but-unconsumed
  /// result. Called at dispatcher boundaries.
  std::vector<ReadyTrace> drainReady();

  /// Engine side: the published results of the job covering
  /// \p GuestStart — the requested trace plus its chunk-mates, which
  /// the caller stashes for their own first executions. An unclaimed
  /// job is withdrawn and empty returned: the caller validates the one
  /// trace it needs inline (exactly the synchronous path), and the
  /// withdrawn chunk-mates fall back to the same inline path at their
  /// own first executions. An in-flight job also returns empty — the
  /// engine never blocks on a worker (the workers may be running at
  /// background priority, so waiting would invert priorities); it
  /// validates inline, and the worker's duplicate result is ignored
  /// when it later arrives against an already-materialized trace.
  /// Empty also when no job covers the start or the job was already
  /// consumed.
  std::vector<ReadyTrace> takeFor(uint32_t GuestStart);

  /// Withdraws every still-unclaimed job (the session is done with the
  /// prime pipeline; workers drain out).
  void cancelPending();

  /// Blocks until no job is mid-execution on a worker. Combined with
  /// cancelPending() this quiesces the queue so the bytes the jobs
  /// read (the session's cache-file view) can be released.
  void waitInFlight();

  size_t jobCount() const { return Jobs.size(); }

  /// Snapshot of the scheduling decisions made so far (thread-safe).
  ScheduleStats scheduleStats() const;

private:
  enum class JobState : uint8_t {
    Unclaimed, ///< Waiting for a worker (or a takeFor withdrawal).
    Claimed,   ///< Running on a worker right now.
    Published, ///< Results available, not yet consumed.
    Consumed,  ///< Taken by the engine (or withdrawn/cancelled).
  };

  struct Job {
    JobFn Fn;
    JobState State = JobState::Unclaimed;
    std::vector<ReadyTrace> Results;
  };

  mutable std::mutex Mutex;
  std::condition_variable Advanced; ///< Signalled on publish.
  std::vector<Job> Jobs;
  std::unordered_map<uint32_t, size_t> JobOfStart; ///< Start -> Jobs index.
  size_t NextScan = 0;  ///< Claim cursor (everything before is taken).
  size_t InFlight = 0;  ///< Jobs in state Claimed.
  ScheduleStats Sched;  ///< Guarded by Mutex.
};

} // namespace dbi
} // namespace pcc

#endif // PCC_DBI_INSTALLQUEUE_H
