//===- tools/pcc-fleetsim.cpp - fleet-scale shared-cache simulation -------===//
//
// Simulates a fleet of machines sharing one remote (L2) cache tier and
// reports cache-hit convergence, remote-link traffic and modeled
// time-to-first-trace percentiles — against a no-L2 baseline where
// every machine only has its private store.
//
//   pcc-fleetsim [options]
//     --machines N    simulated machines                 (default 1000)
//     --rounds N      runs per machine                   (default 4)
//     --apps N        applications in the catalog        (default 6)
//     --versions N    staggered versions per app         (default 3)
//     --libraries N   shared libraries                   (default 4)
//     --zipf S        app popularity skew                (default 1.1)
//     --seed S        simulation seed                    (default 1)
//     --l1-quota B    per-machine L1 byte cap            (default none)
//     --l2-quota B    shared L2 byte cap                 (default none)
//     --jobs N        machines running concurrently
//                     (default: host cores - 1)
//     --no-baseline   skip the no-L2 comparison run
//     --opt-tier      enable the finalize-time optimization tier on
//                     every machine: hot traces are promoted with
//                     validation certificates, and the report gains the
//                     proof-work ledger (prime-time certificate checks
//                     vs full symbolic re-proofs)
//     --tamper-certs  adversarial leg (implies --opt-tier): between
//                     rounds, every certificate in the shared L2 has a
//                     bit flipped; the ledger must show the trusted
//                     checker rejecting them with the prover re-proving
//                     every affected body
//     --verify        exit nonzero unless the tiered run converges
//                     monotonically and beats the baseline's final-round
//                     p99 time-to-first-trace (implies the baseline run).
//                     With --opt-tier, additionally requires >= 90% of
//                     verified promotion installs to be served by the
//                     certificate check (no prover) and zero rejects;
//                     with --tamper-certs, requires every tampered-cert
//                     rejection to have been re-proved by the prover
//                     (rejections > 0, proofs >= rejections, fill-time
//                     self-checks caught tampered blobs) and no false
//                     accepts to have surfaced as quarantines.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "workloads/Fleet.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace pcc;
using namespace pcc::workloads;

namespace {

void printReport(const char *Title, const FleetReport &Report) {
  TablePrinter Table(Title);
  Table.addRow({"round", "runs", "hit rate", "cumulative", "L1 hits",
                "L2 hits", "fetch bytes", "publish bytes", "compiled",
                "ttft p50", "ttft p99"});
  for (size_t I = 0; I != Report.Rounds.size(); ++I) {
    const FleetRound &Round = Report.Rounds[I];
    Table.addRow({formatString("%zu", I + 1),
                  formatString("%llu", (unsigned long long)Round.Runs),
                  formatString("%5.1f%%", 100.0 * Round.HitRate),
                  formatString("%5.1f%%", 100.0 * Round.CumulativeHitRate),
                  formatString("%llu", (unsigned long long)Round.L1Hits),
                  formatString("%llu", (unsigned long long)Round.L2Hits),
                  formatByteSize(Round.RemoteFetchBytes),
                  formatByteSize(Round.RemotePublishBytes),
                  formatString("%llu",
                               (unsigned long long)Round.TracesCompiled),
                  formatString("%llu", (unsigned long long)Round.TtftP50),
                  formatString("%llu", (unsigned long long)Round.TtftP99)});
  }
  Table.print();
}

uint64_t finalP99(const FleetReport &Report) {
  return Report.Rounds.empty() ? 0 : Report.Rounds.back().TtftP99;
}

/// Per-round proof-work ledger: who vouched for promoted bodies at
/// prime time — the trusted checker (cheap) or the full prover.
void printLedger(const FleetReport &Report) {
  TablePrinter Table("proof-work ledger");
  Table.addRow({"round", "certs checked", "rejected", "proofs replayed",
                "cert-served"});
  for (size_t I = 0; I != Report.Rounds.size(); ++I) {
    const FleetRound &Round = Report.Rounds[I];
    uint64_t Served = Round.CertsChecked - Round.CertChecksFailed;
    uint64_t Work = Served + Round.ProofsReplayed;
    Table.addRow(
        {formatString("%zu", I + 1),
         formatString("%llu", (unsigned long long)Round.CertsChecked),
         formatString("%llu",
                      (unsigned long long)Round.CertChecksFailed),
         formatString("%llu", (unsigned long long)Round.ProofsReplayed),
         Work ? formatString("%5.1f%%", 100.0 * double(Served) /
                                            double(Work))
              : std::string("-")});
  }
  Table.print();
  std::printf("ledger: %llu cert check(s), %llu rejected, %llu full "
              "re-proof(s); %.1f%% of verified installs cert-served; "
              "%llu cert(s) tampered in L2; fill-time self-check %llu "
              "checked / %llu rejected\n",
              (unsigned long long)Report.CertsChecked,
              (unsigned long long)Report.CertChecksFailed,
              (unsigned long long)Report.ProofsReplayed,
              100.0 * Report.certServedRatio(),
              (unsigned long long)Report.CertsTampered,
              (unsigned long long)Report.CertFillChecks,
              (unsigned long long)Report.CertFillRejects);
}

} // namespace

int main(int Argc, char **Argv) {
  FleetOptions Opts;
  bool Baseline = true;
  bool Verify = false;
  unsigned Jobs =
      static_cast<unsigned>(support::ThreadPool::defaultWorkerCount());
  for (int I = 1; I < Argc; ++I) {
    auto next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    // Numeric values are decimal only and range-checked: a bad one
    // sets BadValue and exits 2 below. --zipf takes a non-negative
    // decimal fraction, the others whole numbers.
    std::string BadValue;
    auto nextU64 = [&](uint64_t &Out, uint64_t Max = UINT64_MAX) {
      const char *V = next();
      if (!V)
        return false;
      auto N = support::parseUnsigned(V, Max);
      if (!N) {
        BadValue = N.status().message();
        return false;
      }
      Out = *N;
      return true;
    };
    auto nextU32 = [&](uint32_t &Out) {
      uint64_t Wide = 0;
      if (!nextU64(Wide, UINT32_MAX))
        return false;
      Out = static_cast<uint32_t>(Wide);
      return true;
    };
    std::string Arg = Argv[I];
    bool Ok = true;
    if (Arg == "--machines")
      Ok = nextU32(Opts.Machines);
    else if (Arg == "--rounds")
      Ok = nextU32(Opts.Rounds);
    else if (Arg == "--apps")
      Ok = nextU32(Opts.Apps);
    else if (Arg == "--versions")
      Ok = nextU32(Opts.AppVersions);
    else if (Arg == "--libraries")
      Ok = nextU32(Opts.Libraries);
    else if (Arg == "--seed")
      Ok = nextU64(Opts.Seed);
    else if (Arg == "--l1-quota")
      Ok = nextU64(Opts.Tier.L1QuotaBytes);
    else if (Arg == "--l2-quota")
      Ok = nextU64(Opts.Tier.L2QuotaBytes);
    else if (Arg == "--zipf") {
      const char *V = next();
      Ok = V != nullptr;
      if (V) {
        auto S = support::parseDecimal(V);
        if (S)
          Opts.ZipfS = *S;
        else
          BadValue = S.status().message();
        Ok = S.ok();
      }
    } else if (Arg == "--jobs") {
      const char *V = next();
      Ok = V != nullptr;
      if (V) {
        auto N = support::parseWorkerCount(V);
        if (!N) {
          std::fprintf(stderr, "pcc-fleetsim: --jobs: %s\n",
                       N.status().message().c_str());
          return 2;
        }
        Jobs = *N;
      }
    } else if (Arg == "--no-baseline")
      Baseline = false;
    else if (Arg == "--opt-tier")
      Opts.OptTier = true;
    else if (Arg == "--tamper-certs")
      Opts.OptTier = Opts.TamperCerts = true;
    else if (Arg == "--verify")
      Verify = true;
    else if (Arg == "--help") {
      std::printf(
          "usage: pcc-fleetsim [--machines N] [--rounds N] [--apps N]\n"
          "                    [--versions N] [--libraries N] [--zipf S]\n"
          "                    [--seed S] [--l1-quota B] [--l2-quota B]\n"
          "                    [--jobs N] [--no-baseline] [--opt-tier]\n"
          "                    [--tamper-certs] [--verify]\n");
      return 0;
    } else {
      std::fprintf(stderr, "pcc-fleetsim: unknown argument %s\n",
                   Argv[I]);
      return 2;
    }
    if (!Ok) {
      if (BadValue.empty())
        std::fprintf(stderr, "pcc-fleetsim: %s requires a value\n",
                     Arg.c_str());
      else
        std::fprintf(stderr, "pcc-fleetsim: %s: %s\n", Arg.c_str(),
                     BadValue.c_str());
      return 2;
    }
  }
  if (Verify)
    Baseline = true;

  std::unique_ptr<support::ThreadPool> Pool;
  if (Jobs > 1) {
    Pool = std::make_unique<support::ThreadPool>(Jobs);
    Opts.Pool = Pool.get();
  }

  std::printf("fleet: %u machines x %u rounds, %u apps x %u versions, "
              "%u shared libraries, zipf %.2f, %u job(s)\n",
              Opts.Machines, Opts.Rounds, Opts.Apps, Opts.AppVersions,
              Opts.Libraries, Opts.ZipfS, Jobs > 1 ? Jobs : 1);

  Opts.WithL2 = true;
  auto Tiered = runFleet(Opts);
  if (!Tiered) {
    std::fprintf(stderr, "pcc-fleetsim: %s\n",
                 Tiered.status().toString().c_str());
    return 1;
  }
  printReport("tiered (shared L2)", *Tiered);
  std::printf("shared L2: %llu cache file(s), %s; %llu absorbed remote "
              "failure(s)\n",
              (unsigned long long)Tiered->L2Files,
              formatByteSize(Tiered->L2Bytes).c_str(),
              (unsigned long long)Tiered->RemoteFailures);
  if (Opts.OptTier)
    printLedger(*Tiered);

  if (Verify && Opts.OptTier) {
    if (Opts.TamperCerts) {
      // Adversarial gate: tampering must have happened, the trusted
      // checker must have rejected tampered certificates (soundness
      // means a tampered blob can only be rejected — a pass would be a
      // false accept, surfacing as a CertificateInvalid quarantine and
      // a failed run), and every rejection must have been backstopped
      // by a full re-proof. The fill-time self-check must have flagged
      // tampered blobs on the way into machines' L1 tiers.
      if (Tiered->CertsTampered == 0 ||
          Tiered->CertChecksFailed == 0 ||
          Tiered->ProofsReplayed < Tiered->CertChecksFailed ||
          Tiered->CertFillRejects == 0) {
        std::fprintf(
            stderr,
            "pcc-fleetsim: FAIL: tamper leg: %llu tampered, %llu "
            "rejected, %llu re-proved, %llu fill rejects — expected "
            "tampering, rejections, proofs >= rejections and fill-time "
            "detection\n",
            (unsigned long long)Tiered->CertsTampered,
            (unsigned long long)Tiered->CertChecksFailed,
            (unsigned long long)Tiered->ProofsReplayed,
            (unsigned long long)Tiered->CertFillRejects);
        return 1;
      }
    } else {
      // Warm-fleet gate: with nobody tampering, the trusted checker
      // must carry the verification load — >= 90% of verified
      // promotion installs served without the prover, and zero
      // rejects (a reject here would be a checker/prover divergence).
      if (Tiered->certServedRatio() < 0.90 ||
          Tiered->CertChecksFailed != 0) {
        std::fprintf(
            stderr,
            "pcc-fleetsim: FAIL: proof-work ledger: %.1f%% cert-served "
            "(want >= 90%%), %llu unexpected rejection(s)\n",
            100.0 * Tiered->certServedRatio(),
            (unsigned long long)Tiered->CertChecksFailed);
        return 1;
      }
    }
  }

  if (!Baseline)
    return 0;

  FleetOptions BaseOpts = Opts;
  BaseOpts.WithL2 = false;
  auto NoL2 = runFleet(BaseOpts);
  if (!NoL2) {
    std::fprintf(stderr, "pcc-fleetsim: %s\n",
                 NoL2.status().toString().c_str());
    return 1;
  }
  printReport("baseline (no L2)", *NoL2);

  uint64_t TieredP99 = finalP99(*Tiered);
  uint64_t BaseP99 = finalP99(*NoL2);
  double TieredRate =
      double(Tiered->TotalHits) / double(Tiered->TotalRuns);
  double BaseRate = double(NoL2->TotalHits) / double(NoL2->TotalRuns);
  std::printf("summary: hit rate %.1f%% vs %.1f%% baseline; final-round "
              "ttft p99 %llu vs %llu cycles (%.2fx); convergence %s\n",
              100.0 * TieredRate, 100.0 * BaseRate,
              (unsigned long long)TieredP99,
              (unsigned long long)BaseP99,
              TieredP99 ? double(BaseP99) / double(TieredP99) : 0.0,
              Tiered->MonotoneConvergence ? "monotone" : "NON-MONOTONE");

  if (Verify) {
    if (!Tiered->MonotoneConvergence) {
      std::fprintf(stderr, "pcc-fleetsim: FAIL: tiered hit rate did not "
                           "converge monotonically\n");
      return 1;
    }
    if (TieredP99 >= BaseP99) {
      std::fprintf(stderr,
                   "pcc-fleetsim: FAIL: tiered final-round p99 ttft "
                   "(%llu) did not beat the no-L2 baseline (%llu)\n",
                   (unsigned long long)TieredP99,
                   (unsigned long long)BaseP99);
      return 1;
    }
    std::printf("verify: OK\n");
  }
  return 0;
}
