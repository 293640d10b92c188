//===- SessionBench.cpp - Whole-session benchmark -------------------------===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs whole persistent sessions the way persist::runWithPersistence
/// does (makeMachine -> prime -> Engine::run -> finalize -> wait), timing
/// each public call from outside and reading each session's EngineStats
/// and PrimeResult. One client, closed loop: sessions run one after
/// another, like a user launching programs in turn.
///
/// A round is one cold pass against an empty cache database, then a
/// fixed number of base passes (engine, no persistence) alternating with
/// warm passes against the database the cold pass left; further cold
/// passes, each against an empty database of its own, are interleaved
/// with them so that cold_pass_s has as many samples. Rounds repeat
/// until the time budget is spent; host times are medians over all
/// passes of a kind, modeled cycles and counts come from the first round
/// and must repeat exactly in every later one.
///
/// Usage:
///   pcc-sessionbench --workload NAME --seed N --seconds S --trace 0|1
///                    --work-dir DIR
///
/// The last line of standard output is the JSON result
/// {"correct", "attempted", "failed", "metrics"}; end-to-end metrics
/// with --trace 0, per-layer metrics with --trace 1. Exits 1 when any
/// session failed its correctness gate, 2 on usage or set-up errors.
///
//===----------------------------------------------------------------------===//

#include "HostInfo.h"
#include "SpanStats.h"

#include "persist/Session.h"
#include "support/FileSystem.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "workloads/Gui.h"
#include "workloads/Oracle.h"
#include "workloads/Runner.h"
#include "workloads/Spec2k.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pcc;
using namespace pcc::sessionbench;

namespace {

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class WorkloadId { GuiStartup, SpecRef, OracleAccumulate, DesktopXipOpt };

struct WorkloadConfig {
  const char *Name;
  WorkloadId Id;
  /// Warm passes per round. desktop_xip_opt needs enough of them to
  /// cross the promotion ramp (generation ceiling OptMaxGen).
  unsigned WarmPasses;
  /// Cold passes per round, at most WarmPasses + 1. The first leaves the
  /// database the warm passes use; the others only add samples.
  unsigned ColdPasses;
  /// The seed sets session order within a pass; Oracle phases keep
  /// their fixed order.
  bool Shuffle;
};

const WorkloadConfig Workloads[] = {
    {"gui_startup", WorkloadId::GuiStartup, 10, 10, true},
    {"spec_ref", WorkloadId::SpecRef, 3, 1, true},
    {"oracle_accumulate", WorkloadId::OracleAccumulate, 10, 10, false},
    {"desktop_xip_opt", WorkloadId::DesktopXipOpt, 12, 4, true},
};

/// Set-up is repeated between rounds, so its samples see the same host
/// conditions as the passes, until it has taken SetupShare of the run
/// and at least SetupMinRepetitions times; setup_s is the median.
constexpr unsigned SetupMinRepetitions = 3;
constexpr double SetupShare = 0.1;
/// Rounds a measuring run makes at least.
constexpr unsigned MinRounds = 3;

/// One (application, input) a pass runs, with its native reference.
struct SessionSpec {
  std::string Name;
  const loader::ModuleRegistry *Registry = nullptr;
  std::shared_ptr<const binary::Module> App;
  const std::vector<uint8_t> *Input = nullptr;
  vm::RunResult Native;
};

/// A workload's built modules and inputs; owns what its sessions point
/// to.
struct Prepared {
  std::unique_ptr<workloads::GuiSuite> Gui;
  std::unique_ptr<workloads::SpecSuite> Spec;
  std::unique_ptr<workloads::OracleSetup> Oracle;
  std::vector<SessionSpec> Sessions;
};

/// Builds the workload's modules and inputs. The seed picks each SPEC
/// benchmark's reference input.
Prepared buildWorkload(WorkloadId Id, uint64_t Seed) {
  Prepared P;
  switch (Id) {
  case WorkloadId::GuiStartup:
  case WorkloadId::DesktopXipOpt:
    P.Gui = std::make_unique<workloads::GuiSuite>(workloads::buildGuiSuite());
    for (const workloads::GuiApp &A : P.Gui->Apps)
      P.Sessions.push_back(
          {A.Name, &P.Gui->Registry, A.App, &A.StartupInput, {}});
    break;
  case WorkloadId::SpecRef: {
    P.Spec =
        std::make_unique<workloads::SpecSuite>(workloads::buildSpecSuite());
    Rng Pick(Seed);
    for (const workloads::SpecBenchmark &B : P.Spec->Benchmarks) {
      size_t Input = Pick.nextBelow(B.RefInputs.size());
      P.Sessions.push_back({B.Profile.Name + ".ref" + std::to_string(Input),
                            &P.Spec->Registry, B.App, &B.RefInputs[Input],
                            {}});
    }
    break;
  }
  case WorkloadId::OracleAccumulate:
    P.Oracle = std::make_unique<workloads::OracleSetup>(
        workloads::buildOracleSetup());
    for (unsigned I = 0; I != P.Oracle->PhaseInputs.size(); ++I)
      P.Sessions.push_back({workloads::oraclePhaseName(I),
                            &P.Oracle->Registry, P.Oracle->App,
                            &P.Oracle->PhaseInputs[I], {}});
    break;
  }
  return P;
}

persist::PersistOptions persistOptions(WorkloadId Id,
                                       support::ThreadPool *Pool) {
  persist::PersistOptions Opts;
  if (Id == WorkloadId::DesktopXipOpt) {
    Opts.PositionIndependent = true;
    Opts.ExecuteInPlace = true;
    Opts.OptTier = true;
    Opts.Pool = Pool;
  }
  return Opts;
}

//===----------------------------------------------------------------------===//
// Sessions and passes
//===----------------------------------------------------------------------===//

enum class Kind { Base, Cold, Warm };

/// Wall-clock and processor time of one interval, in one unit.
struct Timing {
  double Wall = 0, Cpu = 0;
};

/// Timings split into a wall-clock and a processor-time sample.
struct TimingSamples {
  std::vector<double> Wall, Cpu;
  void push(Timing T) {
    Wall.push_back(T.Wall);
    Cpu.push_back(T.Cpu);
  }
  void append(const std::vector<Timing> &Ts) {
    for (Timing T : Ts)
      push(T);
  }
  size_t size() const { return Wall.size(); }
};

const char *passSpanName(Kind K) {
  switch (K) {
  case Kind::Base:
    return "pass.base";
  case Kind::Cold:
    return "pass.cold";
  case Kind::Warm:
    return "pass.warm";
  }
  return "pass";
}

/// Deterministic outcome of a set of sessions: modeled cycles and
/// counts summed over them. Two runs with the same seed must agree
/// exactly.
struct Counters {
  uint64_t Sessions = 0;
  uint64_t ModelCycles = 0;
  uint64_t CompileCycles = 0;
  uint64_t DispatchCycles = 0;
  uint64_t LinkCycles = 0;
  uint64_t ExecCycles = 0;
  uint64_t PersistCycles = 0;
  uint64_t GuestInsts = 0;
  uint64_t TracesCompiled = 0;
  uint64_t TraceExecutions = 0;
  uint64_t LinksCreated = 0;
  uint64_t FirstTraceReadyCycles = 0;
  uint64_t TracesLoadedFromCache = 0;
  uint64_t TracesReused = 0;
  uint64_t PayloadsValidated = 0;
  uint64_t StoreRetries = 0;
  uint64_t StoreFailures = 0;
  uint64_t TracesPromoted = 0;
  uint64_t SuperblocksFormed = 0;
  uint64_t ValidatorRejections = 0;
  uint64_t CertsChecked = 0;
  uint64_t CertChecksFailed = 0;
  uint64_t ProofsReplayed = 0;
  uint64_t OptNopsExecuted = 0;
  uint64_t CacheFound = 0;
  uint64_t XipInstalled = 0;
  uint64_t TracesInstalled = 0;
  uint64_t LinksRestored = 0;
  uint64_t PayloadBytesCopied = 0;

  void add(const dbi::EngineStats &S, const persist::PrimeResult &P) {
    ++Sessions;
    ModelCycles += S.totalCycles();
    CompileCycles += S.CompileCycles;
    DispatchCycles += S.DispatchCycles;
    LinkCycles += S.LinkCycles;
    ExecCycles += S.ExecCycles;
    PersistCycles += S.PersistCycles;
    GuestInsts += S.GuestInstsExecuted;
    TracesCompiled += S.TracesCompiled;
    TraceExecutions += S.TraceExecutions;
    LinksCreated += S.LinksCreated;
    FirstTraceReadyCycles += S.FirstTraceReadyCycles;
    TracesLoadedFromCache += S.TracesLoadedFromCache;
    TracesReused += S.TracesReused;
    PayloadsValidated += S.TracePayloadsValidated;
    StoreRetries += S.PersistStoreRetries;
    StoreFailures += S.PersistStoreFailures;
    TracesPromoted += S.TracesPromoted;
    SuperblocksFormed += S.SuperblocksFormed;
    ValidatorRejections += S.OptValidatorRejections;
    CertsChecked += S.CertsChecked;
    CertChecksFailed += S.CertChecksFailed;
    ProofsReplayed += S.ProofsReplayed;
    OptNopsExecuted += S.OptNopsExecuted;
    CacheFound += P.CacheFound;
    XipInstalled += P.XipInstalled;
    TracesInstalled += P.TracesInstalled;
    LinksRestored += P.LinksRestored;
    PayloadBytesCopied += P.PayloadBytesCopied;
  }

  bool operator==(const Counters &) const = default;
};

/// Deterministic outcome of one round. Cold holds the first cold pass,
/// ExtraCold the others.
struct RoundCounters {
  Counters Base, Cold, ExtraCold, Warm;
  uint64_t CacheBytes = 0;
  bool operator==(const RoundCounters &) const = default;
};

class Bench {
public:
  Bench(const WorkloadConfig &Config, uint64_t Seed, std::string WorkDir,
        bool Trace)
      : Config(Config), Seed(Seed), WorkDir(std::move(WorkDir)),
        TraceMode(Trace), Rec(Trace), Order(Seed ^ 0x5e55107ULL) {}

  /// Builds the workload and computes every native reference result.
  /// False on a set-up error.
  bool setup();

  /// Runs rounds until \p Seconds have passed (and the sample floors
  /// are met).
  void measure(double Seconds);

  /// Prints the report and the JSON result line; returns the exit code.
  int report(double Seconds);

private:
  bool setupOnce(Prepared &Into);
  /// One more timed set-up whose native results must repeat the first.
  void repeatSetup();
  void runRound(unsigned Index, bool Traced);
  /// Runs one pass; returns its time in seconds.
  Timing runPass(Kind K, const persist::CacheDatabase *Db, Counters &Sums,
                 std::vector<Timing> *ReadySamples);
  /// Runs one session and checks it; returns the milliseconds from
  /// makeMachine until Engine::run returned, or nothing on a failure.
  std::optional<Timing> runSession(const SessionSpec &S, Kind K,
                                   const persist::CacheDatabase *Db,
                                   Counters &Sums);
  void fail(const std::string &Session, const std::string &Why);

  const WorkloadConfig &Config;
  uint64_t Seed;
  std::string WorkDir;
  bool TraceMode;
  SpanRecorder Rec;
  Rng Order;
  int64_t OriginNs = nowNs();

  Prepared W;
  std::unique_ptr<support::ThreadPool> Pool;
  persist::PersistOptions Opts;

  std::vector<double> SetupS, BuildS, NativeRefS;
  TimingSamples BasePassS, ColdPassS, WarmPassS, TracedWarmPassS;
  TimingSamples WarmReadyMs;
  std::optional<RoundCounters> FirstRound;
  unsigned Rounds = 0, TracedRounds = 0;
  bool Deterministic = true;

  uint32_t NextSessionId = 1;
  /// Kind of each session id (index id-1), for per-layer span filters.
  std::vector<Kind> SessionKinds;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> FailureNotes;
};

void Bench::fail(const std::string &Session, const std::string &Why) {
  ++Failed;
  if (FailureNotes.size() < 8)
    FailureNotes.push_back(Session + ": " + Why);
}

bool Bench::setupOnce(Prepared &Into) {
  bool WasEnabled = Rec.enabled();
  Rec.setEnabled(TraceMode);
  {
    ScopedSpan Setup(Rec, "setup");
    {
      ScopedSpan Build(Rec, "workloads.build");
      Into = buildWorkload(Config.Id, Seed);
      BuildS.push_back(Build.stopSeconds());
    }
    ScopedSpan Native(Rec, "vm.native_ref");
    for (SessionSpec &S : Into.Sessions) {
      auto R = workloads::runNative(*S.Registry, S.App, *S.Input);
      if (!R) {
        std::fprintf(stderr, "error: native reference of %s: %s\n",
                     S.Name.c_str(), R.status().toString().c_str());
        return false;
      }
      S.Native = R.take();
    }
    NativeRefS.push_back(Native.stopSeconds());
    SetupS.push_back(Setup.stopSeconds());
  }
  Rec.setEnabled(WasEnabled);
  return true;
}

bool Bench::setup() {
  if (!setupOnce(W))
    return false;
  if (Config.Id == WorkloadId::DesktopXipOpt) {
    unsigned Cores = std::max(2u, std::thread::hardware_concurrency());
    Pool = std::make_unique<support::ThreadPool>(std::min(3u, Cores - 1));
  }
  Opts = persistOptions(Config.Id, Pool.get());
  return true;
}

void Bench::repeatSetup() {
  ++Attempted;
  Prepared Again;
  if (!setupOnce(Again))
    return fail("setup", "set-up failed on repetition");
  for (size_t I = 0; I != W.Sessions.size(); ++I)
    if (!Again.Sessions[I].Native.observablyEquals(W.Sessions[I].Native))
      return fail(W.Sessions[I].Name, "native reference did not repeat");
}

std::optional<Timing> Bench::runSession(const SessionSpec &S, Kind K,
                                        const persist::CacheDatabase *Db,
                                        Counters &Sums) {
  uint32_t Id = NextSessionId++;
  SessionKinds.push_back(K);
  ++Attempted;
  auto Fail = [&](const std::string &Why) {
    fail(S.Name, Why);
    return std::nullopt;
  };
  int64_t StartCpuNs = cpuNs();
  ScopedSpan Whole(Rec, "session", Id);

  ScopedSpan MakeSpan(Rec, "vm.makeMachine", Id);
  auto M = workloads::makeMachine(*S.Registry, S.App, *S.Input);
  MakeSpan.stop();
  if (!M)
    return Fail("makeMachine: " + M.status().toString());

  dbi::Engine Engine(*M, nullptr);
  std::optional<persist::PersistentSession> Session;
  persist::PrimeResult Prime;
  if (K != Kind::Base) {
    Session.emplace(*Db, Opts);
    ScopedSpan PrimeSpan(Rec, "persist.prime", Id);
    auto P = Session->prime(Engine);
    PrimeSpan.stop();
    if (!P)
      return Fail("prime: " + P.status().toString());
    Prime = P.take();
  }

  ScopedSpan RunSpan(Rec, "dbi.run", Id);
  vm::RunResult Run = Engine.run();
  RunSpan.stop();
  Timing ReadyMs = {static_cast<double>(nowNs() - Whole.startNs()) / 1e6,
                    static_cast<double>(cpuNs() - StartCpuNs) / 1e6};

  if (Session) {
    ScopedSpan FinSpan(Rec, "persist.finalize", Id);
    Status Fin = Session->finalize(Engine);
    FinSpan.stop();
    if (!Fin.ok())
      return Fail("finalize: " + Fin.toString());
    ScopedSpan WaitSpan(Rec, "persist.wait", Id);
    Status Waited = Session->wait(&Engine.stats());
    WaitSpan.stop();
    if (!Waited.ok())
      return Fail("wait: " + Waited.toString());
  }

  Sums.add(Engine.stats(), Prime);
  if (!Run.ok())
    return Fail("run: " + Run.Error.toString());
  if (!Run.observablyEquals(S.Native))
    return Fail("result differs from the native reference");
  if (K == Kind::Warm && !Prime.CacheFound)
    return Fail("warm session found no cache");
  return ReadyMs;
}

Timing Bench::runPass(Kind K, const persist::CacheDatabase *Db,
                      Counters &Sums, std::vector<Timing> *ReadySamples) {
  std::vector<size_t> Seq(W.Sessions.size());
  for (size_t I = 0; I != Seq.size(); ++I)
    Seq[I] = I;
  if (Config.Shuffle)
    for (size_t I = Seq.size(); I > 1; --I)
      std::swap(Seq[I - 1], Seq[Order.nextBelow(I)]);

  int64_t StartCpuNs = cpuNs();
  ScopedSpan Pass(Rec, passSpanName(K));
  for (size_t I : Seq) {
    std::optional<Timing> ReadyMs = runSession(W.Sessions[I], K, Db, Sums);
    if (ReadyMs && ReadySamples)
      ReadySamples->push_back(*ReadyMs);
  }
  double WallS = Pass.stopSeconds();
  return {WallS, static_cast<double>(cpuNs() - StartCpuNs) / 1e9};
}

void Bench::runRound(unsigned Index, bool Traced) {
  Rec.setEnabled(Traced);
  RoundCounters C;
  std::vector<std::string> DbDirs;
  for (unsigned P = 0; P != Config.ColdPasses; ++P) {
    DbDirs.push_back(WorkDir + "/db-round" + std::to_string(Index) +
                     (P ? "-cold" + std::to_string(P) : ""));
    (void)removeRecursively(DbDirs.back());
  }
  {
    persist::CacheDatabase Db(DbDirs[0]);
    ScopedSpan Round(Rec, "round");
    std::vector<Timing> ColdS = {runPass(Kind::Cold, &Db, C.Cold, nullptr)};
    // Base, warm and the further cold passes alternate so all sample
    // the same host conditions.
    std::vector<Timing> Ready, BaseS, WarmS;
    for (unsigned P = 0; P != Config.WarmPasses; ++P) {
      BaseS.push_back(runPass(Kind::Base, nullptr, C.Base, nullptr));
      WarmS.push_back(runPass(Kind::Warm, &Db, C.Warm, &Ready));
      if (P + 1 < Config.ColdPasses) {
        persist::CacheDatabase Empty(DbDirs[P + 1]);
        ColdS.push_back(runPass(Kind::Cold, &Empty, C.ExtraCold, nullptr));
      }
    }
    Round.stop();
    if (auto Stats = Db.stats())
      C.CacheBytes = Stats->DiskBytes;
    if (Traced) {
      TracedWarmPassS.append(WarmS);
      ++TracedRounds;
    } else {
      BasePassS.append(BaseS);
      ColdPassS.append(ColdS);
      WarmPassS.append(WarmS);
      WarmReadyMs.append(Ready);
    }
  }
  for (const std::string &Dir : DbDirs)
    (void)removeRecursively(Dir);
  // Write back the deleted databases now, outside every timed pass, so
  // the next round's finalize fsyncs do not pay for this one's files.
  ::sync();
  Rec.setEnabled(false);
  if (!FirstRound)
    FirstRound = C;
  else if (!(C == *FirstRound))
    Deterministic = false;
  ++Rounds;
}

void Bench::measure(double Seconds) {
  int64_t Start = nowNs();
  int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  size_t ReadyFloor = samplesForPercentile(90, 10);
  for (unsigned Round = 0;; ++Round) {
    // The traced run alternates traced and untraced rounds, so tracing
    // overhead is measured under the same conditions.
    bool Traced = TraceMode && Round % 2 == 1;
    runRound(Round, Traced);
    double SetupTotal = 0;
    for (double S : SetupS)
      SetupTotal += S;
    if (SetupS.size() < SetupMinRepetitions ||
        SetupTotal < SetupShare * static_cast<double>(nowNs() - Start) / 1e9)
      repeatSetup();
    if (nowNs() < Deadline)
      continue;
    if (TraceMode ? TracedRounds >= 1
                  : Rounds >= MinRounds && WarmReadyMs.size() >= ReadyFloor)
      break;
  }
  while (SetupS.size() < SetupMinRepetitions)
    repeatSetup();
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

std::string formatNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
           formatNumber(M.Value) + ", \"unit\": \"" + M.Unit + "\"}";
  }
  return Out + "}";
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0;
}

/// Peak resident set of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, does not carry over the parent's peak across
/// exec.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB.
  return 0;
}

int Bench::report(double Seconds) {
  const RoundCounters &C = *FirstRound;
  // Base and warm counts are reported per pass.
  auto perPass = [&](uint64_t Sum) {
    return static_cast<double>(Sum) / Config.WarmPasses;
  };
  const Counters &B = C.Base, &Wm = C.Warm;
  double BaseCycles = perPass(B.ModelCycles);
  double Mb = 1024.0 * 1024.0;

  // Deterministic metrics: modeled clock and counts, identical for two
  // runs with the same seed.
  std::vector<Metric> Model = {
      {"model_warm_speedup", BaseCycles / perPass(Wm.ModelCycles), "x"},
      {"model_cold_overhead",
       static_cast<double>(C.Cold.ModelCycles) / BaseCycles, "x"},
      {"cache_mb", static_cast<double>(C.CacheBytes) / Mb, "MB"},
      {"persist.traces_installed", perPass(Wm.TracesInstalled), "count"},
      {"persist.links_restored", perPass(Wm.LinksRestored), "count"},
      {"persist.payload_bytes_copied", perPass(Wm.PayloadBytesCopied),
       "bytes"},
      {"persist.xip_installed_ratio", ratio(Wm.XipInstalled, Wm.Sessions),
       "ratio"},
      {"persist.payloads_validated", perPass(Wm.PayloadsValidated),
       "count"},
      {"persist.cache_hit_ratio",
       ratio(C.Cold.CacheFound + Wm.CacheFound,
             C.Cold.Sessions + Wm.Sessions),
       "ratio"},
      {"persist.reuse_ratio",
       ratio(Wm.TracesReused, Wm.TracesLoadedFromCache), "ratio"},
      {"persist.model_mcycles", perPass(Wm.PersistCycles) / 1e6,
       "Mcycles"},
      {"persist.store_retries",
       static_cast<double>(C.Cold.StoreRetries + Wm.StoreRetries), "count"},
      {"persist.store_failures",
       static_cast<double>(C.Cold.StoreFailures + Wm.StoreFailures),
       "count"},
      {"dbi.traces_compiled", perPass(B.TracesCompiled), "count"},
      {"dbi.trace_executions", perPass(B.TraceExecutions), "count"},
      {"dbi.links_created", perPass(B.LinksCreated), "count"},
      {"dbi.compile_mcycles", perPass(B.CompileCycles) / 1e6, "Mcycles"},
      {"dbi.dispatch_mcycles", perPass(B.DispatchCycles) / 1e6, "Mcycles"},
      {"dbi.link_mcycles", perPass(B.LinkCycles) / 1e6, "Mcycles"},
      {"dbi.exec_mcycles", perPass(B.ExecCycles) / 1e6, "Mcycles"},
      {"dbi.first_trace_kcycles",
       ratio(Wm.FirstTraceReadyCycles, Wm.Sessions) / 1e3, "kcycles"},
      {"analysis.traces_promoted", perPass(Wm.TracesPromoted), "count"},
      {"analysis.superblocks_formed", perPass(Wm.SuperblocksFormed),
       "count"},
      {"analysis.validator_rejections", perPass(Wm.ValidatorRejections),
       "count"},
      {"analysis.certs_checked", perPass(Wm.CertsChecked), "count"},
      {"analysis.cert_checks_failed", perPass(Wm.CertChecksFailed),
       "count"},
      {"analysis.proofs_replayed", perPass(Wm.ProofsReplayed), "count"},
      {"analysis.opt_nops_executed", perPass(Wm.OptNopsExecuted), "count"},
  };
  auto ModelValue = [&](const std::string &Name) {
    for (const Metric &M : Model)
      if (M.Name == Name)
        return M.Value;
    return 0.0;
  };

  std::printf("sessionbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Config.Name, static_cast<unsigned long long>(Seed), Seconds,
              TraceMode ? 1 : 0);
  std::string Host = toJson(hostFingerprint(WorkDir));
  std::printf("host %s\n", Host.c_str());
  std::printf("sessions/pass %zu, warm passes/round %u, rounds %u "
              "(%u traced), sessions attempted %llu\n",
              W.Sessions.size(), Config.WarmPasses, Rounds, TracedRounds,
              static_cast<unsigned long long>(Attempted));
  std::printf("deterministic %s\n", metricsJson(Model).c_str());
  if (!Deterministic)
    std::printf("error: modeled cycles or counts differed between rounds\n");

  std::vector<Metric> Reported;
  double FailRatio = ratio(Failed, Attempted);
  // Wall-clock pass times include the disk's fsync latency, which on a
  // shared disk drifts by a fifth or more between runs minutes apart.
  // The bounded pass metrics therefore count processor time; the
  // wall-clock ones are per-layer metrics, printed in both modes.
  double BaseWall = median(BasePassS.Wall), WarmWall = median(WarmPassS.Wall);
  double BaseCpu = median(BasePassS.Cpu), WarmCpu = median(WarmPassS.Cpu);
  std::vector<Metric> WallPass = {
      {"base_pass_s", BaseWall, "s"},
      {"cold_pass_s", median(ColdPassS.Wall), "s"},
      {"warm_pass_s", WarmWall, "s"},
      {"warm_ready_ms_p90", percentile(WarmReadyMs.Wall, 90), "ms"},
      {"host_warm_speedup", BaseWall / WarmWall, "x"},
      {"pass.warm_offcpu_share", 1 - WarmCpu / WarmWall, "ratio"},
  };
  if (!TraceMode) {
    Reported = {
        {"setup_s", median(SetupS), "s"},
        {"base_pass_cpu_s", BaseCpu, "s"},
        {"cold_pass_cpu_s", median(ColdPassS.Cpu), "s"},
        {"warm_pass_cpu_s", WarmCpu, "s"},
        {"warm_ready_ms_p50", percentile(WarmReadyMs.Wall, 50), "ms"},
        {"warm_ready_cpu_ms_p90", percentile(WarmReadyMs.Cpu, 90), "ms"},
        {"cpu_warm_speedup", BaseCpu / WarmCpu, "x"},
        {"model_warm_speedup", ModelValue("model_warm_speedup"), "x"},
        {"model_cold_overhead", ModelValue("model_cold_overhead"), "x"},
        {"cache_mb", ModelValue("cache_mb"), "MB"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("%-22s %14s  %-6s %s\n", "metric", "value", "unit",
                "samples");
    std::vector<size_t> Samples = {SetupS.size(),      BasePassS.size(),
                                   ColdPassS.size(),   WarmPassS.size(),
                                   WarmReadyMs.size(), WarmReadyMs.size()};
    for (size_t I = 0; I != Reported.size(); ++I)
      std::printf("%-22s %14.6g  %-6s %s\n", Reported[I].Name.c_str(),
                  Reported[I].Value, Reported[I].Unit,
                  I < Samples.size() ? std::to_string(Samples[I]).c_str()
                                     : "");
    for (const Metric &M : WallPass)
      std::printf("%-22s %14.6g  %-6s wall clock, per-layer\n",
                  M.Name.c_str(), M.Value, M.Unit);
    std::printf("%-22s %14.6g  %-6s %llu of %llu attempted\n", "fail_ratio",
                FailRatio, "ratio", static_cast<unsigned long long>(Failed),
                static_cast<unsigned long long>(Attempted));
    std::printf("speedup (warm vs base): host wall %.3fx  host cpu %.3fx  "
                "model %.3fx\n",
                BaseWall / WarmWall, BaseCpu / WarmCpu,
                ModelValue("model_warm_speedup"));
  } else {
    // Per-layer host numbers from the traced rounds' spans.
    const std::vector<Span> &Spans = Rec.spans();
    std::vector<int64_t> Self = selfTimes(Spans);
    auto WarmP50 = [&](const char *Name, bool SelfTime = false) {
      std::vector<double> Ms;
      for (size_t I = 0; I != Spans.size(); ++I) {
        const Span &S = Spans[I];
        if (S.Session == 0 || SessionKinds[S.Session - 1] != Kind::Warm ||
            std::strcmp(S.Name, Name) != 0)
          continue;
        int64_t Ns = SelfTime ? Self[I] : S.EndNs - S.StartNs;
        Ms.push_back(static_cast<double>(Ns) / 1e6);
      }
      return median(Ms);
    };
    int64_t BaseRunNs = 0;
    uint64_t BaseRunSessions = 0;
    double WriteBackMs = 0, WarmSessionMs = 0;
    for (const Span &S : Spans) {
      if (S.Session == 0)
        continue;
      Kind K = SessionKinds[S.Session - 1];
      if (K == Kind::Base && std::strcmp(S.Name, "dbi.run") == 0) {
        BaseRunNs += S.EndNs - S.StartNs;
        ++BaseRunSessions;
      }
      if (K == Kind::Warm && (std::strcmp(S.Name, "persist.finalize") == 0 ||
                              std::strcmp(S.Name, "persist.wait") == 0))
        WriteBackMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
      if (K == Kind::Warm && std::strcmp(S.Name, "session") == 0)
        WarmSessionMs += static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    }
    // Guest instructions of the traced base passes: every base pass
    // repeats the first round's count exactly.
    double BaseInsts = ratio(B.GuestInsts, B.Sessions) *
                       static_cast<double>(BaseRunSessions);
    double UntracedWarm = median(WarmPassS.Cpu);
    double TracedWarm = median(TracedWarmPassS.Cpu);
    Reported = {
        {"workloads.build_s", median(BuildS), "s"},
        {"vm.native_ref_s", median(NativeRefS), "s"},
        {"vm.machine_ms_p50", WarmP50("vm.makeMachine"), "ms"},
        {"persist.prime_ms_p50", WarmP50("persist.prime"), "ms"},
        {"persist.finalize_ms_p50", WarmP50("persist.finalize"), "ms"},
        {"persist.wait_ms_p50", WarmP50("persist.wait"), "ms"},
        {"persist.writeback_share",
         WarmSessionMs > 0 ? WriteBackMs / WarmSessionMs : 0, "ratio"},
        {"dbi.run_ms_p50", WarmP50("dbi.run"), "ms"},
        {"dbi.host_ns_per_guest_inst",
         BaseInsts > 0 ? static_cast<double>(BaseRunNs) / BaseInsts : 0,
         "ns"},
        {"session.self_ms_p50", WarmP50("session", true), "ms"},
        {"trace.overhead_ratio",
         UntracedWarm > 0 ? TracedWarm / UntracedWarm - 1 : 0, "ratio"},
    };
    Reported.insert(Reported.end(), WallPass.begin(), WallPass.end());
    for (const Metric &M : Model)
      if (M.Name.find('.') != std::string::npos)
        Reported.push_back(M);

    std::printf("%-22s %8s %12s %12s %8s\n", "span", "count", "total_ms",
                "self_ms", "self%");
    auto Table = layerTable(Spans);
    int64_t AllSelf = 0;
    for (const auto &Row : Table)
      AllSelf += Row.second.SelfNs;
    for (const auto &[Name, Row] : Table)
      std::printf("%-22s %8llu %12.3f %12.3f %7.2f%%\n", Name.c_str(),
                  static_cast<unsigned long long>(Row.Count),
                  static_cast<double>(Row.TotalNs) / 1e6,
                  static_cast<double>(Row.SelfNs) / 1e6,
                  AllSelf ? 100.0 * static_cast<double>(Row.SelfNs) /
                                static_cast<double>(AllSelf)
                          : 0.0);
    std::printf("tracing overhead: %+.2f%% (warm pass median processor "
                "time traced %.6f s over %zu passes, untraced %.6f s over "
                "%zu)\n",
                UntracedWarm > 0 ? 100.0 * (TracedWarm / UntracedWarm - 1)
                                 : 0.0,
                TracedWarm, TracedWarmPassS.size(), UntracedWarm,
                WarmPassS.size());
    std::string TracePath = WorkDir + "/trace-" + Config.Name + "-seed" +
                            std::to_string(Seed) + ".json";
    std::string Other = std::string("{\"workload\":\"") + Config.Name +
                        "\",\"seed\":" + std::to_string(Seed) +
                        ",\"host\":" + Host + "}";
    ++Attempted;
    if (writeChromeTrace(TracePath, Spans, OriginNs, Other))
      std::printf("trace written to %s (%zu spans)\n", TracePath.c_str(),
                  Spans.size());
    else
      fail("trace", "could not write " + TracePath);
  }
  for (const std::string &Note : FailureNotes)
    std::printf("failure: %s\n", Note.c_str());

  bool Correct = Failed == 0 && Deterministic;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed),
              metricsJson(Reported).c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: pcc-sessionbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR\nworkloads:",
               Why);
  for (const WorkloadConfig &C : Workloads)
    std::fprintf(stderr, " %s", C.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  const WorkloadConfig *Config = nullptr;
  uint64_t Seed = 0;
  double Seconds = -1;
  int Trace = -1;
  std::string WorkDir;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      for (const WorkloadConfig &C : Workloads)
        if (Value == C.Name)
          Config = &C;
      if (!Config)
        return usage(("unknown workload " + Value).c_str());
    } else if (Arg == "--seed") {
      Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      Seconds = std::strtod(Value.c_str(), &End);
    } else if (Arg == "--trace") {
      Trace = static_cast<int>(std::strtol(Value.c_str(), &End, 10));
    } else if (Arg == "--work-dir") {
      WorkDir = Value;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
    if (End && (*End || Value.empty()))
      return usage(("bad value for " + Arg).c_str());
  }
  if (!Config || Seconds <= 0 || (Trace != 0 && Trace != 1) ||
      WorkDir.empty())
    return usage("--workload, --seconds > 0, --trace 0|1 and --work-dir "
                 "are required");
  if (Status S = createDirectories(WorkDir); !S.ok()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return 2;
  }

  Bench B(*Config, Seed, WorkDir, Trace == 1);
  if (!B.setup())
    return 2;
  B.measure(Seconds);
  return B.report(Seconds);
}
