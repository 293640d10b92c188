//===- tests/cert_test.cpp - proof-carrying certificate adversarial suite -===//
//
// The certificate layer under attack: a genuine certificate must check
// (self-contained and against the real source), while every tampered,
// stale, rebound or fabricated certificate must be REJECTED — never
// falsely accepted — with the full symbolic prover as the fallback.
// Covers the trusted checker directly (bit flips over the whole blob,
// body/source rebinding, seeded miscompiles across 20 seeds with the
// adversary allowed to fix up the binding CRCs), the persisted cert
// section (flag-gated byte identity for uncertified files, corrupt
// section degrade), the prime-time policy (checker-served warm runs,
// prover fallback and quarantine-free recovery from tampering), the
// offline passes (pcc-dbcheck plain reject / repair strip / deep
// regenerate), the tiered store's fill-time self-check, and the fleet
// simulation's proof-work ledger on both the honest and tampered legs.
//
// Built as its own CTest executable (cert_test) so the --certs soak leg
// of scripts/check.sh can run exactly this binary under ASan and TSan.
//
//===----------------------------------------------------------------------===//

#include "analysis/CertChecker.h"
#include "analysis/Certificate.h"
#include "analysis/Validator.h"
#include "dbi/Compiler.h"
#include "persist/CacheDatabase.h"
#include "persist/CacheView.h"
#include "persist/DbCheck.h"
#include "persist/MemoryStore.h"
#include "persist/Session.h"
#include "persist/TieredStore.h"
#include "persist/TraceProof.h"
#include "support/Hashing.h"
#include "support/Random.h"
#include "workloads/Fleet.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

// Every heap allocation of this binary, so a test can require that a
// warm certificate check makes none. All of the plain and nothrow
// forms are replaced, so every delete pairs with a counted malloc (a
// sanitizer's own operator new is never freed here). Kept out of line
// so the compiler pairs inlined new/delete with these, not with
// malloc/free.
static std::atomic<uint64_t> HeapAllocations{0};

static void *countedAlloc(size_t Size) noexcept {
  ++HeapAllocations;
  return std::malloc(Size ? Size : 1);
}

__attribute__((noinline)) void *operator new(size_t Size) {
  if (void *P = countedAlloc(Size))
    return P;
  throw std::bad_alloc();
}
__attribute__((noinline)) void *operator new[](size_t Size) {
  return operator new(Size);
}
__attribute__((noinline)) void *operator new(size_t Size,
                                             const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
__attribute__((noinline)) void *
operator new[](size_t Size, const std::nothrow_t &) noexcept {
  return countedAlloc(Size);
}
__attribute__((noinline)) void operator delete(void *P) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete[](void *P) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete(void *P, size_t) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete[](void *P, size_t) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete(void *P,
                                               const std::nothrow_t &) noexcept {
  std::free(P);
}
__attribute__((noinline)) void
operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;
using isa::Opcode;
using tests::makeTinyWorkload;
using tests::TempDir;
using tests::TinyWorkload;

namespace {

// A straight-line trace body touching every effect class.
std::vector<Instruction> effectBody() {
  return {
      isa::makeLdi(1, 0x40),
      isa::makeLoad(2, 1, 0),
      isa::makeAlu(Opcode::Add, 3, 2, 2),
      isa::makeStore(1, 4, 3),
      isa::makeBranch(Opcode::Beq, 3, 0, 0x2000),
      isa::makeAluImm(Opcode::Addi, 4, 3, 1),
      isa::makeSys(7),
  };
}

// Deterministic pseudo-random straight-line body for \p Seed: a mix of
// constants, loads, stores, ALU ops and a conditional branch, ending in
// a syscall terminator. Every seed yields a different proof shape.
std::vector<Instruction> seededBody(uint64_t Seed) {
  Rng R(Seed * 2654435761u + 17);
  std::vector<Instruction> Body;
  Body.push_back(isa::makeLdi(1, 0x100 + (Seed % 64) * 8));
  uint32_t Len = 5 + static_cast<uint32_t>(R.nextBelow(8));
  for (uint32_t I = 0; I != Len; ++I) {
    uint32_t A = 1 + static_cast<uint32_t>(R.nextBelow(6));
    uint32_t B = 1 + static_cast<uint32_t>(R.nextBelow(6));
    uint32_t D = 1 + static_cast<uint32_t>(R.nextBelow(6));
    switch (R.nextBelow(6)) {
    case 0:
      Body.push_back(isa::makeLdi(D, static_cast<uint32_t>(R.next())));
      break;
    case 1:
      Body.push_back(
          isa::makeLoad(D, 1, static_cast<uint32_t>(R.nextBelow(8)) * 4));
      break;
    case 2:
      Body.push_back(
          isa::makeStore(1, static_cast<uint32_t>(R.nextBelow(8)) * 4, A));
      break;
    case 3:
      Body.push_back(isa::makeAlu(
          R.nextBelow(2) ? Opcode::Add : Opcode::Sub, D, A, B));
      break;
    case 4:
      Body.push_back(isa::makeAluImm(
          Opcode::Addi, D, A, static_cast<uint32_t>(R.nextBelow(64))));
      break;
    default:
      Body.push_back(isa::makeBranch(
          Opcode::Beq, A, 0,
          0x4000 + static_cast<uint32_t>(R.nextBelow(16)) * 8));
      break;
    }
  }
  Body.push_back(isa::makeSys(3 + static_cast<uint32_t>(Seed % 5)));
  return Body;
}

// A single-instruction mutation guaranteed to change guest-visible
// effects.
Instruction semanticMutation(const Instruction &Inst, uint32_t InstPc) {
  if (Inst.Op == Opcode::Halt)
    return isa::makeJmp(InstPc + isa::InstructionSize);
  return isa::makeHalt();
}

// Emits a certificate for the identity translation of \p Body.
std::vector<uint8_t> certify(uint32_t Start,
                             const std::vector<Instruction> &Body) {
  Certificate Cert;
  ValidationResult R = validateTranslation(Start, Body, Body, &Cert);
  EXPECT_TRUE(R.Equivalent) << R.message();
  Cert.OptGen = 1;
  return Cert.serialize();
}

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

/// One persistent run of \p W.
ErrorOr<persist::PersistentRunResult>
run(const TinyWorkload &W, const std::vector<uint8_t> &Input,
    const persist::CacheDatabase &Db,
    const persist::PersistOptions &Opts = persist::PersistOptions()) {
  return workloads::runPersistent(W.Registry, W.App, Input, Db, Opts);
}

/// Options of a session with the optimization tier on, primed through
/// one of the two installs: copying the payload into the code pool, or
/// (\p Xip) PIC + execute-in-place from the mapped file.
persist::PersistOptions optTierOptions(bool Xip = false) {
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  Opt.PositionIndependent = Xip;
  Opt.ExecuteInPlace = Xip;
  return Opt;
}

/// Runs \p W cold+warm with the optimization tier until the sole cache
/// file carries promoted, certificate-bearing traces. Returns the file
/// path.
std::string growCertifiedCache(const TinyWorkload &W,
                               const persist::CacheDatabase &Db,
                               const std::string &Dir,
                               const std::vector<uint8_t> &Input,
                               const persist::PersistOptions &Opt =
                                   optTierOptions()) {
  auto Cold = run(W, Input, Db, Opt);
  EXPECT_TRUE(Cold.ok()) << Cold.status().toString();
  std::string Path = soleCachePath(Dir);
  auto File = Db.loadPath(Path);
  EXPECT_TRUE(File.ok());
  unsigned Certified = 0;
  for (const persist::TraceRecord &Rec : File->Traces)
    Certified += Rec.OptGen > 0 && !Rec.Cert.empty();
  EXPECT_GT(Certified, 0u) << "no promoted+certified traces to attack";
  return Path;
}

/// Flips one bit in every persisted certificate of the cache at
/// \p Path; returns how many were tampered.
unsigned tamperCerts(const persist::CacheDatabase &Db,
                     const std::string &Path) {
  auto File = Db.loadPath(Path);
  EXPECT_TRUE(File.ok());
  unsigned Tampered = 0;
  for (persist::TraceRecord &Rec : File->Traces) {
    if (Rec.Cert.empty())
      continue;
    Rec.Cert[Rec.Cert.size() / 2] ^= 0x10;
    ++Tampered;
  }
  EXPECT_GT(Tampered, 0u);
  EXPECT_TRUE(writeFileAtomic(Path, File->serialize()).ok());
  return Tampered;
}

} // namespace

//===----------------------------------------------------------------------===//
// Trusted checker: genuine certificates check, everything else rejects.
//===----------------------------------------------------------------------===//

TEST(CertProof, RoundTripAndSelfContainedCheck) {
  const uint32_t Start = 0x1000;
  std::vector<std::vector<Instruction>> Bodies{
      effectBody(),
      {isa::makeLdi(5, 0x3000), isa::makeCallr(5)},
      {isa::makeRet()},
      seededBody(7),
  };
  for (const auto &Body : Bodies) {
    std::vector<uint8_t> Blob = certify(Start, Body);
    // Self-contained: no expected source supplied (the L2-fill and
    // module-less dbcheck situation).
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Blob.size(), Start, Body);
    EXPECT_TRUE(R.ok()) << R.Detail;
    // Bound to the real guest bytes (the prime-time situation).
    const std::vector<uint8_t> Guest = isa::encodeAll(Body);
    const CertBindings Bind{{}, Guest};
    R = checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                             &Bind);
    EXPECT_TRUE(R.ok()) << R.Detail;
  }

  // Sound elision: dead pure defs may be nopped out; the certificate
  // still proves the elided body against the original source.
  std::vector<Instruction> Source{
      isa::makeLdi(3, 5),
      isa::makeLdi(4, 7),
      isa::makeAlu(Opcode::Add, 3, 4, 4),
      isa::makeJmp(0x2000),
  };
  std::vector<Instruction> Elided = Source;
  Elided[0] = isa::makeNop();
  Certificate Cert;
  ValidationResult V = validateTranslation(Start, Source, Elided, &Cert);
  ASSERT_TRUE(V.Equivalent) << V.message();
  std::vector<uint8_t> Blob = Cert.serialize();
  const std::vector<uint8_t> Guest = isa::encodeAll(Source);
  const CertBindings Bind{{}, Guest};
  CertCheckResult R = checkCertificateBlob(Blob.data(), Blob.size(),
                                           Start, Elided, &Bind);
  EXPECT_TRUE(R.ok()) << R.Detail;
}

TEST(CertProof, RejectsStaleAndReboundBodies) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = effectBody();
  std::vector<uint8_t> Blob = certify(Start, Body);

  // Stale generation: the body was re-promoted (here: one instruction
  // legally replaced) after the certificate was cut. BodyCrc binding
  // must reject — the proof covers bytes that no longer exist.
  std::vector<Instruction> NewerGen = Body;
  NewerGen[5] = isa::makeAluImm(Opcode::Addi, 4, 3, 2);
  CertCheckResult R =
      checkCertificateBlob(Blob.data(), Blob.size(), Start, NewerGen);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;

  // Wrong address: a certificate for another trace's start.
  R = checkCertificateBlob(Blob.data(), Blob.size(), Start + 8, Body);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;

  // Source rebinding: the module's bytes at Start changed since the
  // proof (the embedded source no longer matches reality).
  std::vector<Instruction> OtherSource = Body;
  OtherSource[0] = isa::makeLdi(1, 0x44);
  const std::vector<uint8_t> Guest = isa::encodeAll(OtherSource);
  const CertBindings Bind{{}, Guest};
  R = checkCertificateBlob(Blob.data(), Blob.size(), Start, Body, &Bind);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
}

TEST(CertProof, EveryByteFlipRejectedNeverAccepted) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = effectBody();
  const std::vector<uint8_t> Blob = certify(Start, Body);

  // The materialization entry point binds the raw body and guest
  // bytes instead of re-encoding and decoding; every damage below must
  // be rejected through it too.
  const std::vector<uint8_t> Bytes = isa::encodeAll(Body);
  const CertBindings Bound{Bytes, Bytes};
  ASSERT_TRUE(checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                                   &Bound)
                  .ok());

  // Flip every byte of the blob (header, embedded source, steps,
  // witnesses, digests, trailing CRC): the check may fail at any stage
  // but must NEVER pass. Zero false accepts.
  unsigned Rejected = 0, BoundRejected = 0;
  for (size_t I = 0; I != Blob.size(); ++I) {
    std::vector<uint8_t> Bad = Blob;
    Bad[I] ^= 0xff;
    CertCheckResult R =
        checkCertificateBlob(Bad.data(), Bad.size(), Start, Body);
    Rejected += !R.ok();
    EXPECT_FALSE(R.ok()) << "byte " << I << " flip accepted";
    R = checkCertificateBlob(Bad.data(), Bad.size(), Start, Body,
                             &Bound);
    BoundRejected += !R.ok();
    EXPECT_FALSE(R.ok()) << "byte " << I << " flip accepted (bound)";
  }
  EXPECT_EQ(Rejected, Blob.size());
  EXPECT_EQ(BoundRejected, Blob.size());

  // Single-bit flips across the fixed header (the adversary's cheapest
  // edit: version, counts, binding CRCs).
  for (size_t I = 0; I != std::min<size_t>(48, Blob.size()); ++I)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::vector<uint8_t> Bad = Blob;
      Bad[I] ^= static_cast<uint8_t>(1u << Bit);
      CertCheckResult R =
          checkCertificateBlob(Bad.data(), Bad.size(), Start, Body);
      EXPECT_FALSE(R.ok())
          << "header bit " << I << ":" << Bit << " flip accepted";
      R = checkCertificateBlob(Bad.data(), Bad.size(), Start, Body,
                               &Bound);
      EXPECT_FALSE(R.ok())
          << "header bit " << I << ":" << Bit << " flip accepted (bound)";
    }

  // Truncation at every length short of the full blob.
  for (size_t Len = 0; Len != Blob.size(); ++Len) {
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Len, Start, Body);
    EXPECT_FALSE(R.ok()) << "truncation to " << Len << " accepted";
    R = checkCertificateBlob(Blob.data(), Len, Start, Body,
                             &Bound);
    EXPECT_FALSE(R.ok())
        << "truncation to " << Len << " accepted (bound)";
  }

  // Every byte flip of the bound bytes themselves: a body or guest
  // source that differs from what the certificate covers.
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::vector<uint8_t> Bad = Bytes;
    Bad[I] ^= 0xff;
    const CertBindings BadBody{Bad, Bytes}, BadSource{Bytes, Bad};
    EXPECT_FALSE(checkCertificateBlob(Blob.data(), Blob.size(), Start,
                                      Body, &BadBody)
                     .ok())
        << "body byte " << I << " flip accepted";
    EXPECT_FALSE(checkCertificateBlob(Blob.data(), Blob.size(), Start,
                                      Body, &BadSource)
                     .ok())
        << "source byte " << I << " flip accepted";
  }
}

TEST(CertProof, BoundBytesBindBodyAndGuestSource) {
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = effectBody();
  const std::vector<uint8_t> Blob = certify(Start, Body);
  const std::vector<uint8_t> Bytes = isa::encodeAll(Body);
  auto check = [&](const CertBindings &Bind) {
    return checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                                &Bind);
  };
  // The identity translation: body, guest source and embedded source
  // are the same bytes.
  EXPECT_TRUE(check({Bytes, Bytes}).ok());
  EXPECT_TRUE(check({Bytes, {}}).ok());
  EXPECT_TRUE(check({{}, Bytes}).ok());

  // Raw body bytes that are not the body's: the certificate covers the
  // bytes that were bound, not the decoded vector next to them.
  std::vector<Instruction> Other = Body;
  Other[5] = isa::makeAluImm(Opcode::Addi, 4, 3, 2);
  const std::vector<uint8_t> OtherBytes = isa::encodeAll(Other);
  CertCheckResult R = check({OtherBytes, Bytes});
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
  R = check({std::span(Bytes).first(Bytes.size() - 8), Bytes});
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;

  // Raw guest source bytes that differ from the embedded source, or are
  // of another length, with or without the body bytes bound.
  R = check({Bytes, OtherBytes});
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
  R = check({{}, OtherBytes});
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
  R = check({Bytes, std::span(Bytes).first(Bytes.size() - 8)});
  EXPECT_EQ(R.Status, CertCheckStatus::BindMismatch) << R.Detail;
}

TEST(CertProof, WarmCheckAllocatesNothing) {
  // The materialization path: raw body and guest bytes bound, the
  // checker's scratch reused. After the first check has sized the
  // scratch, checking again allocates nothing — through the checker
  // and through proveTrace as the materialize hook calls it.
  const uint32_t Start = 0x1000;
  const std::vector<Instruction> Body = seededBody(11);
  const std::vector<uint8_t> Blob = certify(Start, Body);
  const std::vector<uint8_t> Bytes = isa::encodeAll(Body);
  const CertBindings Bind{Bytes, Bytes};
  const persist::TraceProofRequest Req{.GuestStart = Start,
                                       .Body = Body,
                                       .BodyBytes = Bytes,
                                       .Source = &Bytes,
                                       .Cert = Blob};
  ASSERT_TRUE(checkCertificateBlob(Blob.data(), Blob.size(), Start, Body,
                                   &Bind)
                  .ok());
  ASSERT_TRUE(persist::proveTrace(Req).Proved);

  bool AllProved = true;
  const uint64_t Before = HeapAllocations.load();
  for (int I = 0; I != 50; ++I) {
    AllProved &= checkCertificateBlob(Blob.data(), Blob.size(), Start,
                                      Body, &Bind)
                     .ok();
    const persist::ProofVerdict V = persist::proveTrace(Req);
    AllProved &= V.Proved && V.CertChecked && !V.ProverRan;
  }
  const uint64_t Allocations = HeapAllocations.load() - Before;
  EXPECT_TRUE(AllProved);
  EXPECT_EQ(Allocations, 0u);
}

TEST(CertProof, SeededMiscompileNeverCertifiedNorAccepted) {
  // Over 20 seeds: (a) the prover must refuse to emit a certificate for
  // a miscompiled body, and (b) a genuine certificate re-bound by the
  // adversary to the miscompiled body — with the binding CRC fixed up
  // so BindMismatch alone cannot save us — must still be rejected by
  // the replayed obligations. 100% rejection, zero false accepts.
  const uint32_t Start = 0x1000;
  unsigned Seeded = 0, Rejected = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    const std::vector<Instruction> Source = seededBody(Seed);
    Certificate Genuine;
    ValidationResult V =
        validateTranslation(Start, Source, Source, &Genuine);
    ASSERT_TRUE(V.Equivalent) << V.message();

    size_t Idx = Seed % Source.size();
    std::vector<Instruction> Bad = Source;
    Bad[Idx] = semanticMutation(
        Bad[Idx],
        Start + static_cast<uint32_t>(Idx) * isa::InstructionSize);
    if (Bad[Idx] == Source[Idx])
      continue;
    ++Seeded;

    // (a) The prover refuses: no certificate for a miscompile.
    Certificate None;
    V = validateTranslation(Start, Source, Bad, &None);
    ASSERT_FALSE(V.Equivalent);
    EXPECT_TRUE(None.Steps.empty() && None.Source.empty())
        << "prover emitted a certificate for a miscompile";

    // (b) The adversary re-binds the genuine proof to the bad body,
    // fixing up BodyCrc so the cheap binding check passes.
    Certificate Forged = Genuine;
    const std::vector<uint8_t> BadBytes = isa::encodeAll(Bad);
    Forged.BodyCrc = crc32(BadBytes.data(), BadBytes.size());
    std::vector<uint8_t> Blob = Forged.serialize();
    CertCheckResult R =
        checkCertificateBlob(Blob.data(), Blob.size(), Start, Bad);
    Rejected += !R.ok();
    EXPECT_FALSE(R.ok()) << "forged certificate accepted";
  }
  EXPECT_GT(Seeded, 0u);
  EXPECT_EQ(Rejected, Seeded) << "a seeded miscompile was accepted";
}

//===----------------------------------------------------------------------===//
// Persisted certificate section.
//===----------------------------------------------------------------------===//

TEST(CertSection, UncertifiedFilesStayByteIdentical) {
  TinyWorkload W = makeTinyWorkload(3, 2, 777);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);

  auto Certified = readFile(Path);
  ASSERT_TRUE(Certified.ok());
  auto View = persist::CacheFileView::open(*Certified);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  EXPECT_TRUE(View->certsFlagged());
  EXPECT_TRUE(View->certsPresent());

  // Clearing every certificate and re-serializing must drop the whole
  // trailing section AND the header flag — everything between the
  // header and the payload end is byte-identical, so a consumer that
  // never sees certificates reads exactly the bytes it always did.
  auto File = persist::CacheFile::deserialize(*Certified);
  ASSERT_TRUE(File.ok());
  for (persist::TraceRecord &Rec : File->Traces)
    Rec.Cert.clear();
  std::vector<uint8_t> Plain = File->serialize();
  ASSERT_LT(Plain.size(), Certified->size());
  auto PlainView = persist::CacheFileView::open(Plain);
  ASSERT_TRUE(PlainView.ok());
  EXPECT_FALSE(PlainView->certsFlagged());
  const size_t HeaderBytes = 76;
  ASSERT_GT(Plain.size(), HeaderBytes);
  EXPECT_TRUE(std::equal(Plain.begin() + HeaderBytes, Plain.end(),
                         Certified->begin() + HeaderBytes))
      << "cert section not purely trailing";
}

TEST(CertSection, CorruptSectionDegradesFileStaysUsable) {
  TinyWorkload W = makeTinyWorkload(3, 2, 778);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  std::string Path = growCertifiedCache(W, Db, Dir.path(), Input);

  // Smash the section magic ("PCRT", scanned from the file tail): the
  // header still flags certificates but the section no longer parses.
  auto Bytes = readFile(Path);
  ASSERT_TRUE(Bytes.ok());
  const uint8_t Magic[4] = {'P', 'C', 'R', 'T'};
  size_t MagicAt = Bytes->size();
  for (size_t I = Bytes->size(); I-- >= 4;)
    if (std::equal(Magic, Magic + 4, Bytes->begin() + (I - 4))) {
      MagicAt = I - 4;
      break;
    }
  ASSERT_LT(MagicAt, Bytes->size()) << "cert section magic not found";
  (*Bytes)[MagicAt] ^= 0xff;
  ASSERT_TRUE(writeFileAtomic(Path, *Bytes).ok());

  auto View = persist::CacheFileView::openFile(Path);
  ASSERT_TRUE(View.ok()) << View.status().toString();
  EXPECT_TRUE(View->certsFlagged());
  EXPECT_TRUE(View->certSectionCorrupt());
  EXPECT_FALSE(View->certsPresent());

  // The warm run still primes and executes correctly — it simply has
  // no certificates to check (and no verification demanded, none run).
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  EXPECT_TRUE(Warm->Prime.CacheFound);
  EXPECT_EQ(Warm->Stats.CertsChecked, 0u);
}

//===----------------------------------------------------------------------===//
// Prime-time policy: checker serves, prover backstops, results intact.
//===----------------------------------------------------------------------===//

// Both prime-time tests run on both installs — copying, and PIC +
// execute-in-place, where the checker reads the body and its bytes
// straight from the mapped file — and require the two to do exactly the
// same proof work.

TEST(CertPrime, WarmRunsServedByTrustedChecker) {
  TinyWorkload W = makeTinyWorkload(3, 2, 779);
  TempDir RefDir;
  persist::CacheDatabase Ref(RefDir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  auto Baseline = run(W, Input, Ref);
  ASSERT_TRUE(Baseline.ok());

  dbi::EngineStats Stats[2];
  for (bool Xip : {false, true}) {
    SCOPED_TRACE(Xip ? "PIC + XIP install" : "copying install");
    TempDir Dir;
    persist::CacheDatabase Db(Dir.path());
    const persist::PersistOptions Opt = optTierOptions(Xip);
    growCertifiedCache(W, Db, Dir.path(), Input, Opt);

    auto Warm = run(W, Input, Db, Opt);
    ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
    EXPECT_EQ(Warm->Prime.XipInstalled, Xip);
    EXPECT_TRUE(Warm->Run.observablyEquals(Baseline->Run));
    // Every promoted install was served by the checker; the prover
    // never ran and nothing failed.
    EXPECT_GT(Warm->Stats.CertsChecked, 0u);
    EXPECT_EQ(Warm->Stats.CertChecksFailed, 0u);
    EXPECT_EQ(Warm->Stats.ProofsReplayed, 0u);
    EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
    Stats[Xip] = Warm->Stats;
  }
  EXPECT_EQ(Stats[0].CertsChecked, Stats[1].CertsChecked);
  EXPECT_EQ(Stats[0].CertChecksFailed, Stats[1].CertChecksFailed);
  EXPECT_EQ(Stats[0].ProofsReplayed, Stats[1].ProofsReplayed);
}

TEST(CertPrime, TamperedCertsFallBackToProverWithoutQuarantine) {
  TinyWorkload W = makeTinyWorkload(3, 2, 780);
  TempDir RefDir;
  persist::CacheDatabase Ref(RefDir.path());
  const std::vector<uint8_t> Input = W.allSlotsInput(4);
  auto Baseline = run(W, Input, Ref);
  ASSERT_TRUE(Baseline.ok());

  dbi::EngineStats Stats[2];
  for (bool Xip : {false, true}) {
    SCOPED_TRACE(Xip ? "PIC + XIP install" : "copying install");
    TempDir Dir;
    persist::CacheDatabase Db(Dir.path());
    const persist::PersistOptions Opt = optTierOptions(Xip);
    std::string Path = growCertifiedCache(W, Db, Dir.path(), Input, Opt);
    unsigned Tampered = tamperCerts(Db, Path);

    auto Warm = run(W, Input, Db, Opt);
    ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
    EXPECT_EQ(Warm->Prime.XipInstalled, Xip);
    EXPECT_TRUE(Warm->Run.observablyEquals(Baseline->Run));

    // 100% rejection: every tampered certificate that was checked
    // failed, and the prover re-vouched for each rejected body (they
    // are genuine translations, only the proof blob lied) — so nothing
    // quarantined.
    EXPECT_GT(Warm->Stats.CertsChecked, 0u);
    EXPECT_EQ(Warm->Stats.CertChecksFailed, Warm->Stats.CertsChecked);
    EXPECT_GE(Warm->Stats.CertChecksFailed, 1u);
    EXPECT_LE(Warm->Stats.CertChecksFailed, Tampered);
    EXPECT_GE(Warm->Stats.ProofsReplayed, Warm->Stats.CertChecksFailed);
    EXPECT_EQ(Warm->Stats.VerifyFailures, 0u);
    auto Q = Db.quarantined();
    ASSERT_TRUE(Q.ok());
    EXPECT_TRUE(Q->empty());
    Stats[Xip] = Warm->Stats;
  }
  EXPECT_EQ(Stats[0].CertsChecked, Stats[1].CertsChecked);
  EXPECT_EQ(Stats[0].CertChecksFailed, Stats[1].CertChecksFailed);
  EXPECT_EQ(Stats[0].ProofsReplayed, Stats[1].ProofsReplayed);
}

//===----------------------------------------------------------------------===//
// Offline passes: pcc-dbcheck plain / repair / deep.
//===----------------------------------------------------------------------===//

TEST(CertDbCheck, PlainPassRejectsTamperRepairStrips) {
  TinyWorkload W = makeTinyWorkload(3, 2, 781);
  TempDir Dir;
  persist::CacheDatabase Db(Dir.path());
  std::string Path =
      growCertifiedCache(W, Db, Dir.path(), W.allSlotsInput(4));

  // Clean database: certificates checked, none rejected.
  auto Before = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Before.ok());
  EXPECT_GT(Before->CertsChecked, 0u);
  EXPECT_EQ(Before->CertsRejected, 0u);
  EXPECT_TRUE(Before->clean());

  unsigned Tampered = tamperCerts(Db, Path);

  // Plain pass: every tampered certificate rejected, database NOT
  // clean even though every payload CRC passes.
  auto Report = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report->CertsRejected, Tampered);
  EXPECT_FALSE(Report->clean());

  // Repair strips the lying blobs; the database is clean again (the
  // traces themselves were never bad) and nothing is left to check.
  persist::DbCheckOptions Fix;
  Fix.Repair = true;
  auto Repaired = persist::checkDatabase(Dir.path(), Fix);
  ASSERT_TRUE(Repaired.ok());
  EXPECT_EQ(Repaired->CertsRejected, Tampered);
  EXPECT_GT(Repaired->FilesRepaired, 0u);
  auto After = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_EQ(After->CertsChecked, 0u);
  EXPECT_TRUE(After->clean());
}

TEST(CertDbCheck, DeepRepairRegeneratesCertificates) {
  TinyWorkload W = makeTinyWorkload(3, 2, 782);
  TempDir Dir, ModDir;
  persist::CacheDatabase Db(Dir.path());
  std::string Path =
      growCertifiedCache(W, Db, Dir.path(), W.allSlotsInput(4));
  unsigned Tampered = tamperCerts(Db, Path);

  persist::DbCheckOptions Deep;
  Deep.Deep = true;
  Deep.Repair = true;
  std::string AppPath = ModDir.path() + "/app.mod";
  ASSERT_TRUE(writeFileAtomic(AppPath, W.App->serialize()).ok());
  Deep.ModulePaths.push_back(AppPath);
  auto Lib = W.Registry.find("libtest.so");
  ASSERT_TRUE(Lib != nullptr);
  std::string LibPath = ModDir.path() + "/lib.mod";
  ASSERT_TRUE(writeFileAtomic(LibPath, Lib->serialize()).ok());
  Deep.ModulePaths.push_back(LibPath);

  // Deep repair: rejected certificates are replayed by the full prover
  // (which vouches for the bodies) and regenerated in place.
  auto Report = persist::checkDatabase(Dir.path(), Deep);
  ASSERT_TRUE(Report.ok());
  EXPECT_EQ(Report->CertsRejected, Tampered);
  EXPECT_GE(Report->CertsReplayedByProver, Tampered);
  EXPECT_EQ(Report->TracesMismatched, 0u);

  // The regenerated certificates check clean on a plain pass.
  auto After = persist::checkDatabase(Dir.path());
  ASSERT_TRUE(After.ok());
  EXPECT_GE(After->CertsChecked, Tampered);
  EXPECT_EQ(After->CertsRejected, 0u);
  EXPECT_TRUE(After->clean());
}

//===----------------------------------------------------------------------===//
// Tiered store: fill-time self-check flags tampered blobs early.
//===----------------------------------------------------------------------===//

TEST(CertTiered, FillSelfCheckFlagsTamperedBlobs) {
  TinyWorkload W = makeTinyWorkload(3, 2, 783);
  auto L2 = std::make_shared<persist::MemoryStore>("<remote>");
  const std::vector<uint8_t> Input = W.allSlotsInput(4);

  // Machine A publishes a certified cache through its tier.
  {
    auto Tier = std::make_shared<persist::TieredStore>(
        std::make_shared<persist::MemoryStore>("<l1-a>"), L2);
    persist::CacheDatabase Db(Tier);
    persist::PersistOptions Opt;
    Opt.OptTier = true;
    ASSERT_TRUE(run(W, Input, Db, Opt).ok());
    ASSERT_TRUE(run(W, Input, Db, Opt).ok()); // publish promoted gen
  }

  // The adversary flips one bit in every L2 certificate.
  auto Refs = L2->listRefs();
  ASSERT_TRUE(Refs.ok());
  unsigned Tampered = 0;
  for (const std::string &Ref : *Refs) {
    auto File = L2->loadRef(Ref);
    ASSERT_TRUE(File.ok());
    for (persist::TraceRecord &Rec : File->Traces) {
      if (Rec.Cert.empty())
        continue;
      Rec.Cert[Rec.Cert.size() / 2] ^= 0x10;
      ++Tampered;
    }
    ASSERT_TRUE(L2->putRef(Ref, *File).ok());
  }
  ASSERT_GT(Tampered, 0u);

  // Machine B fills from L2: the module-less self-check counts every
  // tampered blob, the blob passes through, and prime's checker +
  // prover recover the run bit-exactly.
  auto Tier = std::make_shared<persist::TieredStore>(
      std::make_shared<persist::MemoryStore>("<l1-b>"), L2);
  persist::CacheDatabase Db(Tier);
  persist::PersistOptions Opt;
  Opt.OptTier = true;
  auto Warm = run(W, Input, Db, Opt);
  ASSERT_TRUE(Warm.ok()) << Warm.status().toString();
  persist::TieredStats S = Tier->tieredStats();
  EXPECT_GT(S.CertFillChecks, 0u);
  EXPECT_GT(S.CertFillRejects, 0u);
  EXPECT_EQ(S.CertFillRejects, S.CertFillChecks)
      << "an untampered blob was flagged, or a tampered one passed";
  EXPECT_GT(Warm->Stats.CertChecksFailed, 0u);
  EXPECT_GE(Warm->Stats.ProofsReplayed, Warm->Stats.CertChecksFailed);
}

//===----------------------------------------------------------------------===//
// Fleet: the proof-work ledger on the honest and the tampered legs.
//===----------------------------------------------------------------------===//

TEST(CertFleet, LedgerCertServedAndTamperSoundness) {
  workloads::FleetOptions Opts;
  Opts.Machines = 6;
  Opts.Rounds = 3;
  Opts.Apps = 3;
  Opts.AppVersions = 2;
  Opts.Libraries = 3;
  Opts.RegionsPerLibrary = 4;
  Opts.Seed = 11;
  Opts.OptTier = true;

  // Honest leg: the checker carries >= 90% of the verification load
  // and never rejects a genuine certificate.
  auto Honest = workloads::runFleet(Opts);
  ASSERT_TRUE(Honest.ok()) << Honest.status().toString();
  EXPECT_GT(Honest->CertsChecked, 0u);
  EXPECT_EQ(Honest->CertChecksFailed, 0u);
  EXPECT_GE(Honest->certServedRatio(), 0.90);
  EXPECT_EQ(Honest->CertFillRejects, 0u);

  // Tampered leg: every certificate in L2 is bit-flipped between
  // rounds; the checker rejects (soundness: a tampered cert can only
  // be rejected), the prover re-vouches for every affected body, and
  // every run still completes.
  Opts.TamperCerts = true;
  auto Tampered = workloads::runFleet(Opts);
  ASSERT_TRUE(Tampered.ok()) << Tampered.status().toString();
  EXPECT_GT(Tampered->CertsTampered, 0u);
  EXPECT_GT(Tampered->CertChecksFailed, 0u);
  EXPECT_GE(Tampered->ProofsReplayed, Tampered->CertChecksFailed);
  EXPECT_GT(Tampered->CertFillRejects, 0u);
  EXPECT_EQ(Tampered->TotalRuns,
            uint64_t(Opts.Machines) * Opts.Rounds);
}
