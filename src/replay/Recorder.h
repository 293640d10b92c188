//===- replay/Recorder.h - Record one persistent run ------------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one persistent engine run while capturing every
/// nondeterministic input into a RecordedRun: the recorder installs
/// itself as the process-global persist::RecordingHooks (cache bytes,
/// consumed tier, quarantine decisions) and as the FaultInjector's
/// decision observer (per-op fault streams), wraps the loader's
/// module-mapping callback (load bases under ASLR), and snapshots the
/// armed fault plan before the run starts.
///
/// Recording is one-at-a-time per process (the hooks are global);
/// recordRun() enforces the attach/detach pairing even on error paths.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_REPLAY_RECORDER_H
#define PCC_REPLAY_RECORDER_H

#include "persist/Session.h"
#include "replay/Log.h"
#include "workloads/Runner.h"

#include <memory>
#include <mutex>

namespace pcc {
namespace replay {

/// Caller-chosen knobs of the run being recorded (everything else is
/// captured automatically).
struct RecordSpec {
  /// Name the log will be persisted under; stamped into quarantine
  /// reasons and used as the attachment file name. "" records
  /// anonymously (no quarantine annotation, no attachment).
  std::string LogName;
  std::string ToolName = "none";
  bool OptimizeFlags = false;
  loader::BasePolicy Policy = loader::BasePolicy::Fixed;
  uint64_t AslrSeed = 0;
  /// The database is a tiered (L1 + remote L2) store; replay rebuilds
  /// the same shape.
  bool Tiered = false;
};

/// Instantiates the canned instrumentation tool \p Name ("none" ->
/// nullptr result with success). InvalidArgument for unknown names.
ErrorOr<std::unique_ptr<dbi::Tool>>
makeNamedTool(const std::string &Name);

/// Runs (\p App, \p Input) under the engine with persistence against
/// \p Db — exactly workloads::runPersistent — while recording. On
/// success the returned RecordedRun holds the inputs and the expected-
/// results trailer; if the run quarantined anything and \p Spec names
/// the log, the serialized log is also attached to the store's
/// quarantine so `pcc-dbcheck --replay` can find it later.
///
/// The caller arms the FaultInjector (or leaves it disarmed) before
/// calling; the armed plan is snapshotted and the injector's state is
/// left exactly as the run left it (totalInjected() stays readable).
ErrorOr<RecordedRun>
recordRun(const loader::ModuleRegistry &Registry,
          std::shared_ptr<const binary::Module> App,
          const std::vector<uint8_t> &Input,
          const persist::CacheDatabase &Db,
          const persist::PersistOptions &PersistOpts,
          const RecordSpec &Spec);

} // namespace replay
} // namespace pcc

#endif // PCC_REPLAY_RECORDER_H
