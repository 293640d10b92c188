//===- tools/pcc-dbstat.cpp - cache database maintenance -------------------===//
//
// Reports and maintains a persistent cache database directory.
//
//   pcc-dbstat DIR                  print aggregate statistics
//   pcc-dbstat DIR --header-only    list per-file headers; reads only
//                                   the fixed 76-byte v2 header of each
//                                   cache, never its index or payload
//   pcc-dbstat DIR --shrink-to N    evict caches until <= N bytes
//                                   (least-accumulated first; corrupt
//                                   files always removed)
//   pcc-dbstat DIR --clear          delete every cache file
//   pcc-dbstat DIR --locks          list writer-coordination locks and
//                                   whether each is currently held
//   pcc-dbstat DIR --heat           per-file histogram of the v3 index's
//                                   per-trace Heat counters (log2
//                                   buckets) — which caches hold hot
//                                   translations and which are dead
//                                   weight a quota would evict first
//   pcc-dbstat DIR --gens           per-file histogram of per-trace
//                                   optimization generations — how much
//                                   of each cache the finalize-time AOT
//                                   tier has promoted (files without
//                                   the OptGen index field show every
//                                   trace at generation 0) — plus each
//                                   file's certificate coverage: of the
//                                   promoted bodies, how many carry a
//                                   validation certificate the trusted
//                                   checker can consume at prime
//   pcc-dbstat DIR --l2 DIR2        treat DIR as the local L1 of a
//                                   tiered store with remote tier DIR2
//                                   and print a per-tier summary line
//                                   plus the union entry count
//   pcc-dbstat DIR --jobs N         scan N cache files in parallel
//                                   (statistics and --header-only
//                                   rows are identical for any N; the
//                                   per-file scan-time column shows
//                                   what each open cost)
//
//===----------------------------------------------------------------------===//

#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/DirectoryStore.h"
#include "persist/TieredStore.h"
#include "support/FileSystem.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

using namespace pcc;
using namespace pcc::persist;

int main(int Argc, char **Argv) {
  const char *Dir = nullptr;
  const char *L2Dir = nullptr;
  bool Clear = false;
  bool Shrink = false;
  bool HeaderOnly = false;
  bool Locks = false;
  bool Heat = false;
  bool Gens = false;
  uint64_t MaxBytes = 0;
  unsigned Jobs = 1;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--clear") == 0)
      Clear = true;
    else if (std::strcmp(Argv[I], "--header-only") == 0)
      HeaderOnly = true;
    else if (std::strcmp(Argv[I], "--locks") == 0)
      Locks = true;
    else if (std::strcmp(Argv[I], "--heat") == 0)
      Heat = true;
    else if (std::strcmp(Argv[I], "--gens") == 0)
      Gens = true;
    else if (std::strcmp(Argv[I], "--l2") == 0 && I + 1 < Argc)
      L2Dir = Argv[++I];
    else if (std::strcmp(Argv[I], "--shrink-to") == 0 && I + 1 < Argc) {
      Shrink = true;
      auto N = support::parseUnsigned(Argv[++I], UINT64_MAX);
      if (!N) {
        std::fprintf(stderr, "pcc-dbstat: --shrink-to: %s\n",
                     N.status().message().c_str());
        return 2;
      }
      MaxBytes = *N;
    } else if (std::strcmp(Argv[I], "--jobs") == 0 && I + 1 < Argc) {
      auto N = support::parseWorkerCount(Argv[++I]);
      if (!N) {
        std::fprintf(stderr, "pcc-dbstat: --jobs: %s\n",
                     N.status().message().c_str());
        return 2;
      }
      Jobs = *N;
    } else if (std::strcmp(Argv[I], "--help") == 0) {
      std::printf(
          "usage: pcc-dbstat DIR [--header-only | --shrink-to BYTES | "
          "--clear | --locks | --heat | --gens] [--l2 DIR2] [--jobs N]\n"
          "  --header-only  per-file listing from v2/v3 headers alone:\n"
          "                 each cache costs one 76-byte read regardless\n"
          "                 of size (a file whose header does not open\n"
          "                 lists the error instead); shows the\n"
          "                 payload mode (xip/mat), payload page count\n"
          "                 and alignment, and each file's open cost in\n"
          "                 the scan column\n"
          "  --shrink-to N  evict caches until the database is <= N "
          "bytes\n"
          "  --clear        delete every cache file\n"
          "  --locks        list writer-coordination lock files and\n"
          "                 whether each is held right now\n"
          "  --heat         per-file log2 histogram of per-trace Heat\n"
          "                 counters from the v3 index (v2 files show\n"
          "                 every trace as heat 0)\n"
          "  --gens         per-file histogram of per-trace optimization\n"
          "                 generations (files without the OptGen index\n"
          "                 field show every trace at generation 0) and\n"
          "                 certificate coverage of the promoted bodies\n"
          "  --l2 DIR2      tiered view: DIR is the local L1, DIR2 the\n"
          "                 remote L2; prints one summary line per tier\n"
          "  --jobs N       scan N files in parallel, N in 0..256 (stats\n"
          "                 and --header-only; output is identical for "
          "any N)\n");
      return 0;
    } else if (!Dir)
      Dir = Argv[I];
    else {
      std::fprintf(stderr, "pcc-dbstat: unexpected argument %s\n",
                   Argv[I]);
      return 2;
    }
  }
  if (!Dir) {
    std::fprintf(stderr,
                 "usage: pcc-dbstat DIR [--shrink-to BYTES | --clear]\n");
    return 2;
  }

  CacheDatabase Db(Dir);
  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1)
    Pool = std::make_unique<support::ThreadPool>(Jobs);
  if (HeaderOnly) {
    auto Names = listDirectory(Dir);
    if (!Names) {
      std::fprintf(stderr, "pcc-dbstat: %s\n",
                   Names.status().toString().c_str());
      return 1;
    }
    std::vector<std::string> CacheNames;
    for (const std::string &Name : *Names)
      if (Name.size() >= 4 && Name.substr(Name.size() - 4) == ".pcc")
        CacheNames.push_back(Name);
    // One row slot per file: scans fan across the pool but the table
    // stays in listing order. The scan column is each file's own open
    // cost, so it is meaningful under any job count.
    std::vector<std::vector<std::string>> Rows(CacheNames.size());
    auto ScanOne = [&](size_t I) {
      const std::string &Name = CacheNames[I];
      std::string Path = std::string(Dir) + "/" + Name;
      auto Begin = std::chrono::steady_clock::now();
      auto ElapsedMicros = [&]() {
        return formatString(
            "%lld us",
            (long long)std::chrono::duration_cast<
                std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Begin)
                .count());
      };
      auto View =
          CacheFileView::openFile(Path, CacheFileView::Depth::HeaderOnly);
      if (!View) {
        Rows[I] = {Name, "-",  "error: " + View.status().toString(),
                   "",   "",   "",
                   "",   "",   "",
                   "",   "",   "",
                   ElapsedMicros()};
        return;
      }
      // Payload placement, from the header alone: the page count is
      // what a consumer maps (and under XIP, shares); the align column
      // verifies the v3 on-disk invariant that the payload section
      // starts on a page boundary.
      uint32_t PayloadPages =
          (View->payloadSize() + v2::PayloadAlign - 1) / v2::PayloadAlign;
      bool Aligned = View->payloadOffset() % v2::PayloadAlign == 0;
      Rows[I] = {Name,
                 View->formatVersion() == v2::XipVersion ? "v3" : "v2",
                 toHex(View->engineHash(), 16),
                 toHex(View->toolHash(), 16),
                 formatString("%u", View->generation()),
                 View->writerTag()
                     ? formatString("pid:%u", View->writerTag())
                     : std::string("-"),
                 formatString("%u", View->numModules()),
                 formatString("%u", View->numTraces()),
                 View->executeInPlace() ? "xip" : "mat",
                 formatString("%u", PayloadPages),
                 Aligned ? "page"
                         : formatString("+%u", View->payloadOffset() %
                                                   v2::PayloadAlign),
                 formatByteSize(View->declaredFileBytes()),
                 ElapsedMicros()};
    };
    if (Pool)
      Pool->parallelFor(CacheNames.size(), ScanOne);
    else
      for (size_t I = 0; I < CacheNames.size(); ++I)
        ScanOne(I);
    TablePrinter Table("cache files (header-only scan)");
    Table.addRow({"file", "fmt", "engine key", "tool key", "gen",
                  "writer", "modules", "traces", "mode", "pl pages",
                  "pl align", "declared size", "scan"});
    for (std::vector<std::string> &Row : Rows)
      Table.addRow(std::move(Row));
    Table.print();
    return 0;
  }
  if (Heat) {
    auto Names = listDirectory(Dir);
    if (!Names) {
      std::fprintf(stderr, "pcc-dbstat: %s\n",
                   Names.status().toString().c_str());
      return 1;
    }
    std::vector<std::string> CacheNames;
    for (const std::string &Name : *Names)
      if (Name.size() >= 4 && Name.substr(Name.size() - 4) == ".pcc")
        CacheNames.push_back(Name);
    // Log2 buckets: 0, 1, 2-3, 4-7, 8-15, >=16. A quota evicts from the
    // left columns first; translations the fleet actually re-executes
    // accumulate to the right.
    constexpr size_t NumBuckets = 6;
    auto bucketOf = [](uint32_t H) -> size_t {
      if (H == 0)
        return 0;
      size_t B = 1;
      while (B + 1 < NumBuckets && H >= (1u << B))
        ++B;
      return B;
    };
    std::vector<std::vector<std::string>> Rows(CacheNames.size());
    uint64_t TotalBuckets[NumBuckets] = {};
    std::mutex TotalMutex;
    auto ScanOne = [&](size_t I) {
      const std::string &Name = CacheNames[I];
      std::string Path = std::string(Dir) + "/" + Name;
      auto View =
          CacheFileView::openFile(Path, CacheFileView::Depth::Index);
      if (!View) {
        Rows[I] = {Name, "unreadable: " + View.status().toString(),
                   "",   "",
                   "",   "",
                   "",   "",
                   ""};
        return;
      }
      uint64_t Buckets[NumBuckets] = {};
      uint64_t Total = 0, Max = 0;
      for (uint32_t T = 0; T != View->numTraces(); ++T) {
        uint32_t H = View->entry(T).Heat;
        ++Buckets[bucketOf(H)];
        Total += H;
        Max = std::max<uint64_t>(Max, H);
      }
      Rows[I] = {Name,
                 formatString("%u", View->numTraces()),
                 formatString("%llu", (unsigned long long)Buckets[0]),
                 formatString("%llu", (unsigned long long)Buckets[1]),
                 formatString("%llu", (unsigned long long)Buckets[2]),
                 formatString("%llu", (unsigned long long)Buckets[3]),
                 formatString("%llu", (unsigned long long)Buckets[4]),
                 formatString("%llu", (unsigned long long)Buckets[5]),
                 formatString("%llu / %llu", (unsigned long long)Total,
                              (unsigned long long)Max)};
      std::lock_guard<std::mutex> Guard(TotalMutex);
      for (size_t B = 0; B != NumBuckets; ++B)
        TotalBuckets[B] += Buckets[B];
    };
    if (Pool)
      Pool->parallelFor(CacheNames.size(), ScanOne);
    else
      for (size_t I = 0; I < CacheNames.size(); ++I)
        ScanOne(I);
    TablePrinter Table("per-trace heat (v3 index counters)");
    Table.addRow({"file", "traces", "h=0", "h=1", "2-3", "4-7", "8-15",
                  ">=16", "total/max"});
    for (std::vector<std::string> &Row : Rows)
      Table.addRow(std::move(Row));
    std::vector<std::string> Sum = {"(all)", ""};
    for (size_t B = 0; B != NumBuckets; ++B)
      Sum.push_back(
          formatString("%llu", (unsigned long long)TotalBuckets[B]));
    Sum.push_back("");
    Table.addRow(std::move(Sum));
    Table.print();
    return 0;
  }
  if (Gens) {
    auto Names = listDirectory(Dir);
    if (!Names) {
      std::fprintf(stderr, "pcc-dbstat: %s\n",
                   Names.status().toString().c_str());
      return 1;
    }
    std::vector<std::string> CacheNames;
    for (const std::string &Name : *Names)
      if (Name.size() >= 4 && Name.substr(Name.size() - 4) == ".pcc")
        CacheNames.push_back(Name);
    // Buckets gen 0..3 plus >=4: how much of each cache the finalize
    // promotion tier has proved and published. Fully gen-0 files have
    // either never run hot or always been primed read-only.
    constexpr size_t NumBuckets = 5;
    std::vector<std::vector<std::string>> Rows(CacheNames.size());
    uint64_t TotalBuckets[NumBuckets] = {};
    std::mutex TotalMutex;
    auto ScanOne = [&](size_t I) {
      const std::string &Name = CacheNames[I];
      std::string Path = std::string(Dir) + "/" + Name;
      auto View =
          CacheFileView::openFile(Path, CacheFileView::Depth::Index);
      if (!View) {
        Rows[I] = {Name, "unreadable: " + View.status().toString(),
                   "",   "",
                   "",   "",
                   "",   "",
                   ""};
        return;
      }
      uint64_t Buckets[NumBuckets] = {};
      uint64_t Max = 0;
      uint64_t Promoted = 0, Certified = 0;
      for (uint32_t T = 0; T != View->numTraces(); ++T) {
        uint32_t G = View->entry(T).OptGen;
        ++Buckets[G < NumBuckets - 1 ? G : NumBuckets - 1];
        Max = std::max<uint64_t>(Max, G);
        // Certificate coverage: of the promoted (gen >= 1) bodies, how
        // many carry a validation certificate the trusted checker can
        // consume at prime — the rest pay a full re-proof when a
        // verifying consumer loads them.
        if (G > 0) {
          ++Promoted;
          if (View->certsPresent() && View->certBlobOf(T).first)
            ++Certified;
        }
      }
      std::string CertCol = "-";
      if (View->certSectionCorrupt())
        CertCol = "corrupt";
      else if (Promoted != 0)
        CertCol = formatString("%llu/%llu (%.0f%%)",
                               (unsigned long long)Certified,
                               (unsigned long long)Promoted,
                               100.0 * double(Certified) /
                                   double(Promoted));
      Rows[I] = {Name,
                 formatString("%u", View->numTraces()),
                 formatString("%llu", (unsigned long long)Buckets[0]),
                 formatString("%llu", (unsigned long long)Buckets[1]),
                 formatString("%llu", (unsigned long long)Buckets[2]),
                 formatString("%llu", (unsigned long long)Buckets[3]),
                 formatString("%llu", (unsigned long long)Buckets[4]),
                 formatString("%llu", (unsigned long long)Max),
                 CertCol};
      std::lock_guard<std::mutex> Guard(TotalMutex);
      for (size_t B = 0; B != NumBuckets; ++B)
        TotalBuckets[B] += Buckets[B];
    };
    if (Pool)
      Pool->parallelFor(CacheNames.size(), ScanOne);
    else
      for (size_t I = 0; I < CacheNames.size(); ++I)
        ScanOne(I);
    TablePrinter Table("per-trace optimization generations");
    Table.addRow({"file", "traces", "gen0", "gen1", "gen2", "gen3",
                  ">=4", "max", "certs"});
    for (std::vector<std::string> &Row : Rows)
      Table.addRow(std::move(Row));
    std::vector<std::string> Sum = {"(all)", ""};
    for (size_t B = 0; B != NumBuckets; ++B)
      Sum.push_back(
          formatString("%llu", (unsigned long long)TotalBuckets[B]));
    Sum.push_back("");
    Sum.push_back("");
    Table.addRow(std::move(Sum));
    Table.print();
    return 0;
  }
  if (L2Dir) {
    // Tiered view: one summary line per tier, then the union the tiered
    // store would serve. Quarantine is a local (L1) judgment.
    auto L1 = std::make_shared<DirectoryStore>(Dir);
    auto L2 = std::make_shared<DirectoryStore>(L2Dir);
    if (Pool) {
      L1->setScanPool(Pool.get());
      L2->setScanPool(Pool.get());
    }
    TieredStore Tiered(L1, L2);
    std::printf("tiered cache database (L1 %s, L2 %s)\n", Dir, L2Dir);
    auto printTier = [](const char *Tier, CacheStore &Store) {
      auto S = Store.stats();
      if (!S) {
        std::printf("  %s %s: stats unavailable: %s\n", Tier,
                    Store.location().c_str(),
                    S.status().toString().c_str());
        return;
      }
      std::printf("  %s %-24s %u cache file(s) (%u corrupt, %u "
                  "quarantined), %s, %llu trace(s)\n",
                  Tier, Store.location().c_str(), S->CacheFiles,
                  S->CorruptFiles, S->QuarantinedFiles,
                  formatByteSize(S->DiskBytes).c_str(),
                  (unsigned long long)S->Traces);
    };
    printTier("L1", *L1);
    printTier("L2", *L2);
    if (auto Refs = Tiered.listRefs())
      std::printf("  union                       %zu distinct cache "
                  "entr%s\n",
                  Refs->size(), Refs->size() == 1 ? "y" : "ies");
    return 0;
  }
  if (Locks) {
    auto Infos = Db.backend()->locks();
    if (Infos.empty()) {
      std::printf("no lock files in %s\n", Dir);
      return 0;
    }
    TablePrinter Table("writer-coordination locks");
    Table.addRow({"lock file", "status"});
    for (const LockInfo &Info : Infos)
      Table.addRow({Info.Path, Info.Held ? "held" : "free"});
    Table.print();
    return 0;
  }
  if (Clear) {
    Status S = Db.clear();
    if (!S.ok()) {
      std::fprintf(stderr, "pcc-dbstat: %s\n", S.toString().c_str());
      return 1;
    }
    std::printf("cleared %s\n", Dir);
    return 0;
  }
  if (Shrink) {
    auto Removed = Db.shrinkTo(MaxBytes);
    if (!Removed) {
      std::fprintf(stderr, "pcc-dbstat: %s\n",
                   Removed.status().toString().c_str());
      return 1;
    }
    std::printf("evicted %u cache file(s)\n", *Removed);
  }

  if (Pool)
    Db.backend()->setScanPool(Pool.get());
  auto Stats = Db.stats();
  if (!Stats) {
    std::fprintf(stderr, "pcc-dbstat: %s\n",
                 Stats.status().toString().c_str());
    return 1;
  }
  std::printf("cache database %s\n", Dir);
  std::printf("  cache files   %u (%u corrupt)\n", Stats->CacheFiles,
              Stats->CorruptFiles);
  if (Stats->UnreadableFiles != 0)
    std::printf("  unreadable    %u\n", Stats->UnreadableFiles);
  if (Stats->QuarantinedFiles != 0) {
    std::printf("  quarantined   %u (pcc-dbcheck --quarantine to list)\n",
                Stats->QuarantinedFiles);
    // Break the quarantine down by machine-readable reason code, so a
    // semantic-mismatch epidemic is visible at a glance.
    uint32_t ByCode[6] = {};
    uint32_t WithReplayLog = 0;
    if (auto Entries = Db.quarantined()) {
      for (const QuarantineEntry &E : *Entries) {
        ByCode[static_cast<uint8_t>(E.Code) < 6
                   ? static_cast<uint8_t>(E.Code)
                   : 0]++;
        if (!E.ReplayLog.empty())
          ++WithReplayLog;
      }
      for (uint8_t C = 0; C < 6; ++C)
        if (ByCode[C] != 0)
          std::printf("    %-18s %u\n",
                      quarantineReasonCodeName(
                          static_cast<QuarantineReasonCode>(C)),
                      ByCode[C]);
      if (WithReplayLog != 0) {
        std::printf("    %-18s %u (pcc-dbcheck --replay NAME re-runs "
                    "the evidence)\n",
                    "with replay log", WithReplayLog);
        // One row per entry that carries a recording: which log to
        // hand to pcc-dbcheck --replay for each quarantined cache.
        TablePrinter Table("quarantined entries with recordings");
        Table.addRow({"file", "reason", "replay-log"});
        for (const QuarantineEntry &E : *Entries)
          if (!E.ReplayLog.empty())
            Table.addRow({E.Name, quarantineReasonCodeName(E.Code),
                          E.ReplayLog});
        Table.print();
      }
    }
  }
  std::printf("  on disk       %s\n",
              formatByteSize(Stats->DiskBytes).c_str());
  std::printf("  traces        %llu\n",
              (unsigned long long)Stats->Traces);
  std::printf("  code pool     %s\n",
              formatByteSize(Stats->CodeBytes).c_str());
  std::printf("  data structs  %s\n",
              formatByteSize(Stats->DataBytes).c_str());
  return 0;
}
