//===- tools/pcc-dbcheck.cpp - cache database fsck/repair ------------------===//
//
// Offline integrity checker and repair tool for a persistent cache
// database directory.
//
//   pcc-dbcheck DIR                    check every cache file (header,
//                                      module table, trace index, and
//                                      every trace payload CRC), report
//                                      crash temporaries, lock files and
//                                      the quarantine; mutates nothing
//   pcc-dbcheck DIR --repair           additionally rebuild salvageable
//                                      caches (dropping corrupt traces),
//                                      quarantine unsalvageable ones and
//                                      sweep temporaries / stale locks
//   pcc-dbcheck DIR --quarantine       list quarantined caches
//   pcc-dbcheck DIR --restore NAME     move a quarantined cache back
//   pcc-dbcheck DIR --purge-quarantine delete every quarantined cache
//   pcc-dbcheck DIR --jobs N           check (or repair) N cache files
//                                      in parallel; the report is
//                                      identical for any N
//   pcc-dbcheck DIR --deep
//       --module FILE | --modules MDIR deep semantic verification: every
//                                      CRC-intact trace is symbolically
//                                      revalidated against its module's
//                                      guest code; mismatched caches are
//                                      corrupt (quarantined under
//                                      --repair with reason code
//                                      semantic-mismatch)
//   pcc-dbcheck DIR --replay NAME      re-drive the recorded run whose
//                                      .pcrr log was attached to the
//                                      quarantine as NAME (runs that
//                                      auto-quarantine under --record
//                                      leave one), under forced deep
//                                      validation, and verify it
//                                      reproduces the same quarantine
//                                      verdicts; exit 0 reproduced, 1
//                                      not
//
// Certificate contract (every pass): validation certificates on
// promoted traces are always checked — a plain pass replays each
// recorded proof against the certificate's own embedded source (no
// modules needed); --deep binds the check to the real module text and
// falls back to the full symbolic prover when a certificate is rejected
// or missing. The report distinguishes certificates *checked*,
// *replayed by the prover*, and *rejected*; any rejected certificate
// makes the database NOT clean (exit 1) even when every CRC passes,
// because a lying proof is exactly the corruption the certificate layer
// exists to catch. Under --repair, rejected certificates are stripped
// (plain pass) or regenerated from a successful re-proof (--deep); the
// trace itself survives whenever the prover vouches for it.
//
// Exit status: 0 when the database is (now) clean — no corrupt or
// unreadable files, no semantic mismatches, no rejected certificates,
// no lingering crash temporaries; 1 when problems were found (or remain
// after repair); 2 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/DbCheck.h"
#include "replay/Replay.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::persist;

static int listQuarantine(const CacheDatabase &Db) {
  auto Entries = Db.quarantined();
  if (!Entries) {
    std::fprintf(stderr, "pcc-dbcheck: %s\n",
                 Entries.status().toString().c_str());
    return 1;
  }
  if (Entries->empty()) {
    std::printf("quarantine is empty\n");
    return 0;
  }
  TablePrinter Table("quarantined caches");
  Table.addRow({"file", "size", "code", "replay-log", "reason"});
  for (const QuarantineEntry &E : *Entries)
    Table.addRow({E.Name, formatByteSize(E.Bytes),
                  quarantineReasonCodeName(E.Code),
                  E.ReplayLog.empty() ? "-" : E.ReplayLog,
                  E.Reason.empty() ? "-" : E.Reason});
  Table.print();
  return 0;
}

/// --replay NAME: re-drives the quarantine's attached recording under
/// forced deep validation and demands the same verdicts back.
static int replayQuarantined(const CacheDatabase &Db,
                             const std::string &Name) {
  auto Bytes = Db.backend()->readQuarantineAttachment(Name);
  if (!Bytes) {
    std::fprintf(stderr, "pcc-dbcheck: %s\n",
                 Bytes.status().toString().c_str());
    return 1;
  }
  auto Rec = replay::deserializeLog(*Bytes);
  if (!Rec) {
    std::fprintf(stderr, "pcc-dbcheck: %s: %s\n", Name.c_str(),
                 Rec.status().toString().c_str());
    return 1;
  }
  replay::ReplayOptions Opts;
  Opts.ForceValidate = true;
  auto Out = replay::replayRun(*Rec, Opts);
  if (!Out) {
    std::fprintf(stderr, "pcc-dbcheck: replay failed: %s\n",
                 Out.status().toString().c_str());
    return 1;
  }
  std::printf("replayed %s: %zu quarantine decision(s) recorded, %zu "
              "reproduced\n",
              Name.c_str(), Rec->Quarantines.size(),
              Out->Quarantines.size());
  bool Reproduced = !Rec->Quarantines.empty();
  for (const replay::RecordedQuarantine &Q : Rec->Quarantines) {
    bool Found = false;
    for (const replay::RecordedQuarantine &R : Out->Quarantines)
      Found = Found || (R.RefName == Q.RefName && R.Code == Q.Code);
    std::printf("  %s (%s): %s\n", Q.RefName.c_str(),
                quarantineReasonCodeName(
                    static_cast<QuarantineReasonCode>(Q.Code)),
                Found ? "reproduced" : "NOT reproduced");
    Reproduced = Reproduced && Found;
  }
  return Reproduced ? 0 : 1;
}

int main(int Argc, char **Argv) {
  const char *Dir = nullptr;
  const char *Restore = nullptr;
  const char *Replay = nullptr;
  bool Repair = false;
  bool Quarantine = false;
  bool Purge = false;
  bool Deep = false;
  unsigned Jobs = 1;
  std::vector<std::string> ModulePaths;
  std::vector<std::string> ModuleDirs;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--repair") == 0)
      Repair = true;
    else if (std::strcmp(Argv[I], "--quarantine") == 0)
      Quarantine = true;
    else if (std::strcmp(Argv[I], "--purge-quarantine") == 0)
      Purge = true;
    else if (std::strcmp(Argv[I], "--restore") == 0 && I + 1 < Argc)
      Restore = Argv[++I];
    else if (std::strcmp(Argv[I], "--replay") == 0 && I + 1 < Argc)
      Replay = Argv[++I];
    else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      auto N = support::parseWorkerCount(Argv[++I]);
      if (!N) {
        std::fprintf(stderr, "pcc-dbcheck: --jobs: %s\n",
                     N.status().message().c_str());
        return 2;
      }
      Jobs = *N;
    } else if (std::strcmp(Argv[I], "--deep") == 0)
      Deep = true;
    else if (std::strcmp(Argv[I], "--module") == 0 && I + 1 < Argc)
      ModulePaths.push_back(Argv[++I]);
    else if (std::strcmp(Argv[I], "--modules") == 0 && I + 1 < Argc)
      ModuleDirs.push_back(Argv[++I]);
    else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf(
          "usage: pcc-dbcheck DIR [--repair | --quarantine | "
          "--restore NAME | --purge-quarantine] [--jobs N]\n"
          "  (no flag)          full check: every header, index and\n"
          "                     trace-payload CRC, plus every validation\n"
          "                     certificate replayed against its own\n"
          "                     embedded source; never mutates\n"
          "  --repair           rebuild salvageable caches (dropping\n"
          "                     corrupt traces), strip or (under --deep)\n"
          "                     regenerate rejected certificates,\n"
          "                     quarantine the rest, sweep crash\n"
          "                     temporaries and stale locks\n"
          "  --quarantine       list quarantined caches with reasons\n"
          "  --restore NAME     move a quarantined cache back in place\n"
          "  --purge-quarantine delete every quarantined cache\n"
          "  --jobs N           check N cache files in parallel, N in\n"
          "                     0..256 (the report is identical for\n"
          "                     any N)\n"
          "  --deep             semantic verification: prove every\n"
          "                     CRC-intact trace effect-equivalent to\n"
          "                     its module's guest code — certificates\n"
          "                     checked against the real module text\n"
          "                     first, full prover as the backstop for\n"
          "                     rejected or missing ones (needs\n"
          "                     --module or --modules)\n"
          "  --module FILE      serialized guest module for --deep\n"
          "  --modules MDIR     directory of .mod module files\n"
          "  --replay NAME      re-drive the quarantine's attached\n"
          "                     .pcrr recording under forced deep\n"
          "                     validation; exit 0 when it reproduces\n"
          "                     the recorded quarantine verdicts\n"
          "exit status: 0 clean, 1 problems found/remaining, 2 usage\n");
      return 0;
    } else if (!Dir)
      Dir = Argv[I];
    else {
      std::fprintf(stderr, "pcc-dbcheck: unexpected argument %s\n",
                   Argv[I]);
      return 2;
    }
  }
  if (!Dir) {
    std::fprintf(stderr,
                 "usage: pcc-dbcheck DIR [--repair | --quarantine | "
                 "--restore NAME | --purge-quarantine] [--jobs N]\n");
    return 2;
  }

  CacheDatabase Db(Dir);
  if (Quarantine)
    return listQuarantine(Db);
  if (Replay)
    return replayQuarantined(Db, Replay);
  if (Restore) {
    Status S = Db.restoreQuarantined(Restore);
    if (!S.ok()) {
      std::fprintf(stderr, "pcc-dbcheck: %s\n", S.toString().c_str());
      return 1;
    }
    std::printf("restored %s\n", Restore);
    return 0;
  }
  if (Purge) {
    auto Purged = Db.purgeQuarantine();
    if (!Purged) {
      std::fprintf(stderr, "pcc-dbcheck: %s\n",
                   Purged.status().toString().c_str());
      return 1;
    }
    std::printf("purged %u quarantined cache(s)\n", *Purged);
    return 0;
  }

  DbCheckOptions Opts;
  Opts.Repair = Repair;
  if (Deep) {
    Opts.Deep = true;
    for (const std::string &MDir : ModuleDirs) {
      auto Names = listDirectory(MDir);
      if (!Names) {
        std::fprintf(stderr, "pcc-dbcheck: cannot list %s: %s\n",
                     MDir.c_str(), Names.status().toString().c_str());
        return 2;
      }
      for (const std::string &Name : *Names)
        if (Name.size() >= 4 &&
            Name.substr(Name.size() - 4) == ".mod")
          ModulePaths.push_back(MDir + "/" + Name);
    }
    if (ModulePaths.empty()) {
      std::fprintf(stderr,
                   "pcc-dbcheck: --deep needs at least one --module "
                   "FILE or --modules MDIR with .mod files\n");
      return 2;
    }
    Opts.ModulePaths = ModulePaths;
  }
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1) {
    Pool = std::make_unique<support::ThreadPool>(Jobs);
    Opts.Pool = Pool.get();
  }
  auto Report = checkDatabase(Dir, Opts);
  if (!Report) {
    std::fprintf(stderr, "pcc-dbcheck: %s\n",
                 Report.status().toString().c_str());
    return 1;
  }

  std::printf("%s of cache database %s\n",
              Repair ? "repair" : "check", Dir);
  for (const FileCheckReport &F : Report->Files) {
    if (F.State == FileCheckReport::FileState::Clean)
      continue;
    std::printf("  %-11s %s%s%s\n", fileCheckStateName(F.State),
                F.Name.c_str(), F.Detail.empty() ? "" : ": ",
                F.Detail.c_str());
    if (F.TracesDropped != 0)
      std::printf("              %u trace(s) dropped, %u kept\n",
                  F.TracesDropped, F.TracesKept);
  }
  std::printf("  cache files  %u scanned, %u clean", Report->FilesScanned,
              Report->FilesClean);
  if (Report->FilesRepaired)
    std::printf(", %u repaired", Report->FilesRepaired);
  if (Report->FilesQuarantined)
    std::printf(", %u quarantined", Report->FilesQuarantined);
  if (Report->FilesCorrupt)
    std::printf(", %u corrupt", Report->FilesCorrupt);
  if (Report->FilesUnreadable)
    std::printf(", %u unreadable", Report->FilesUnreadable);
  std::printf("\n");
  if (Report->FilesXip)
    std::printf("  xip files    %u execute-in-place (v3, page-aligned "
                "payload)\n",
                Report->FilesXip);
  if (Report->TracesDropped)
    std::printf("  traces       %u corrupt payload(s) dropped\n",
                Report->TracesDropped);
  if (Report->CertsChecked || Report->CertsRejected ||
      Report->CertsReplayedByProver)
    std::printf("  certificates %u checked, %u replayed by the full "
                "prover, %u REJECTED\n",
                Report->CertsChecked, Report->CertsReplayedByProver,
                Report->CertsRejected);
  if (Deep) {
    std::printf("  deep verify  %u trace(s) proved equivalent, "
                "%u mismatched, %u unverifiable\n",
                Report->TracesVerified, Report->TracesMismatched,
                Report->TracesUnverifiable);
    if (Report->TracesPromotedVerified)
      std::printf("  opt tier     %u promoted bod%s (gen >= 1) "
                  "re-proved against guest code\n",
                  Report->TracesPromotedVerified,
                  Report->TracesPromotedVerified == 1 ? "y" : "ies");
  }
  if (Report->TempsFound)
    std::printf("  temporaries  %u found, %u swept\n", Report->TempsFound,
                Report->TempsSwept);
  if (Report->LocksFound)
    std::printf("  lock files   %u (%u held, %u stale swept)\n",
                Report->LocksFound, Report->LocksHeld,
                Report->StaleLocksSwept);
  if (!Report->Quarantine.empty())
    std::printf("  quarantine   %u entr%s (--quarantine to list)\n",
                (unsigned)Report->Quarantine.size(),
                Report->Quarantine.size() == 1 ? "y" : "ies");
  std::printf("  database is %s\n",
              Report->clean() ? "clean" : "NOT clean");
  return Report->clean() ? 0 : 1;
}
