//===- replay/Replay.h - Re-drive a recorded run ----------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replayer: rebuilds a recorded run's entire input surface — guest
/// modules, input blob, load-base policy and seed, the cache bytes the
/// store served (seeded into a scratch store of the recorded shape),
/// and the literal fault-decision streams — re-drives the engine, and
/// compares the outcome against the log's trailer. A clean replay is
/// bit-identical: full EngineStats, every RunResult field including
/// modeled cycles, the final guest-memory digest, and the quarantine
/// verdicts.
///
/// Differential mode replays the same log twice — persistence enabled
/// (checked against the trailer) and persistence disabled — and then
/// requires the two legs to agree on everything the guest can observe.
/// That is the robustness claim under test: the persistent code cache
/// is an accelerator, invisible to guest semantics, even on runs whose
/// recording includes injected store faults and quarantine decisions.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_REPLAY_REPLAY_H
#define PCC_REPLAY_REPLAY_H

#include "replay/Log.h"
#include "support/ThreadPool.h"

#include <string>
#include <vector>

namespace pcc {
namespace replay {

/// Knobs of one replay leg.
struct ReplayOptions {
  /// Worker pool for the persistence pipeline (null = synchronous).
  /// Any worker count must replay identically — that is the PR 4
  /// invariant the log's decision streams rely on.
  support::ThreadPool *Pool = nullptr;
  /// Drive the persistent session (true) or the bare engine (false).
  /// With persistence off the trailer's stats are not comparable; use
  /// observable equivalence (replayDiff does).
  bool Persistence = true;
  /// Force deep semantic validation regardless of the recorded config
  /// (pcc-dbcheck --replay re-runs quarantined evidence this way).
  bool ForceValidate = false;
};

/// Everything one replay leg produced.
struct ReplayOutcome {
  dbi::EngineStats Stats;
  vm::RunResult Run;
  uint64_t MemoryDigest = 0;
  /// Quarantine decisions the replay made, in event order.
  std::vector<RecordedQuarantine> Quarantines;
  /// Modules whose replayed base differed from the recording
  /// ("name: recorded 0x…, replayed 0x…"); any entry is a divergence.
  std::vector<std::string> BaseMismatches;
};

/// Re-drives \p Rec in a scratch store. Owns the process-global
/// FaultInjector for the duration (resets it, arms the recorded
/// decision streams, resets again on exit). Errors are environmental
/// (temp-dir creation, module deserialization) — a *divergence* is not
/// an error; compare with compareToRecording().
ErrorOr<ReplayOutcome> replayRun(const RecordedRun &Rec,
                                 const ReplayOptions &Opts);

/// First divergence between the log's trailer and \p Out as a
/// human-readable string; "" when the replay is bit-identical.
/// Quarantines must match by (ref basename, reason code) in order;
/// details are not byte-compared (they embed host paths).
std::string compareToRecording(const RecordedRun &Rec,
                               const ReplayOutcome &Out);

/// Differential verification: replays \p Rec with persistence on
/// (compared bit-identically against the trailer) and off (compared on
/// guest-observable results and final memory against the on-leg).
/// Returns "" when both legs pass, else the first divergence.
ErrorOr<std::string> replayDiff(const RecordedRun &Rec,
                                support::ThreadPool *Pool = nullptr);

/// Reads and parses a `.pcrr` file. Error codes follow deserializeLog
/// (IoError for unreadable files).
ErrorOr<RecordedRun> readLogFile(const std::string &Path);

/// Writes \p Run to \p Path. Uses plain stdio deliberately: the log
/// writer must never consume fault-injector decisions.
Status writeLogFile(const std::string &Path, const RecordedRun &Run);

} // namespace replay
} // namespace pcc

#endif // PCC_REPLAY_REPLAY_H
