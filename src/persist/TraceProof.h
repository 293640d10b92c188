//===- persist/TraceProof.h - The one persisted-trace proof -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single gate a persisted trace body passes before it is trusted:
/// "certificate first, full proof as the backstop". A presented
/// validation certificate is replayed by the trusted checker
/// (analysis::checkCertificateBlob); when there is none, or it is
/// rejected, and the caller supplied the guest source, the full
/// symbolic prover (analysis::validateTranslation) decides. Without a
/// source the check is self-contained: the certificate is replayed
/// against its own embedded source and nothing else runs.
///
/// Every consumer — prime's materialize hook, finalize's write-back
/// verification, the pcc-dbcheck sweeps and the tiered store's L2-fill
/// self-check — calls proveTrace() and maps the verdict onto its own
/// counters and quarantine policy.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_PERSIST_TRACEPROOF_H
#define PCC_PERSIST_TRACEPROOF_H

#include "analysis/Certificate.h"
#include "isa/Instruction.h"
#include "persist/CacheFile.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pcc {
namespace persist {

/// What to prove.
struct TraceProofRequest {
  uint32_t GuestStart = 0;
  /// The decoded body, used when Record is null (prime's materialized
  /// body: the mapped instructions under XIP, the decoded pool copy
  /// otherwise).
  std::span<const isa::Instruction> Body = {};
  /// Body's stored encodings — the bytes it was decoded from or
  /// validated in place as — bound for the certificate check so the
  /// checker CRCs them instead of re-encoding (analysis::CertBindings).
  /// Empty: re-encode.
  std::span<const uint8_t> BodyBytes = {};
  /// Stored record whose code image supplies the body when set; its
  /// decoded encodings are bound for the certificate check.
  const TraceRecord *Record = nullptr;
  /// Raw guest bytes (one 8-byte encoding per body instruction) the
  /// body claims to translate. They are bound for the certificate
  /// check, which compares them with the embedded source, and decoded
  /// only when the prover has to run. Null makes the check
  /// self-contained: certificate only, no prover.
  const std::vector<uint8_t> *Source = nullptr;
  /// Serialized certificate (empty: none).
  std::span<const uint8_t> Cert = {};
  /// Receives a fresh certificate when the prover runs and succeeds.
  analysis::Certificate *CertOut = nullptr;
};

/// What the proof did.
struct ProofVerdict {
  /// False when the record's code image is shorter than prologue +
  /// count x 8 bytes or does not decode; ProofDetail says why. A
  /// presented certificate then counts as checked and rejected
  /// (malformed), and the prover does not run.
  bool Readable = true;
  bool CertChecked = false;  ///< A certificate was replayed.
  bool CertRejected = false; ///< The checker refused it.
  bool ProverRan = false;    ///< The full symbolic prover ran.
  bool Proved = false;       ///< Effect-equivalence established.
  /// "<status>[: <detail>]" of a rejected certificate.
  std::string CertDetail;
  /// The prover's mismatch, or why the body is unreadable.
  std::string ProofDetail;
};

ProofVerdict proveTrace(const TraceProofRequest &Req);

} // namespace persist
} // namespace pcc

#endif // PCC_PERSIST_TRACEPROOF_H
