//===- analysis/CertChecker.h - Minimal certificate checker -----*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The trusted checker for translation-validation certificates. Where
/// the prover (analysis::validateTranslation) hash-conses expressions
/// through a map and searches for redundancy witnesses, the checker
/// only *re-evaluates and compares* what the certificate recorded:
///
///   * it re-runs the shared symbolic execution (SymExec.h) over both
///     the embedded source and the presented body, but replaces every
///     map lookup with a verification of the recorded step stream —
///     each recorded id must either append a brand-new node or name an
///     existing node whose payload equals the request;
///   * it checks each recorded skip witness in O(1) instead of
///     searching (the witness must precede the elided load and carry an
///     identical value expression);
///   * it recomputes and compares the per-exit / store / load digests
///     and the CRCs binding the certificate to the exact source and
///     body bytes.
///
/// Soundness does not rest on the certificate being honest: a verified
/// step stream reconstructs, by induction, exactly the node payloads
/// the ids denote, and the comparison loop is the prover's own. A
/// tampered or fabricated certificate can make the checker *reject*
/// (then the caller falls back to the full prover), never make it
/// accept an inequivalent translation.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ANALYSIS_CERTCHECKER_H
#define PCC_ANALYSIS_CERTCHECKER_H

#include "analysis/Certificate.h"
#include "isa/Instruction.h"

#include <span>
#include <string>
#include <vector>

namespace pcc {
namespace analysis {

/// Why a certificate check failed (or Ok).
enum class CertCheckStatus : uint8_t {
  Ok,
  Malformed,     ///< Blob does not parse or fails its own CRC.
  BindMismatch,  ///< Cert is for different bytes (stale gen, wrong
                 ///< address, source/body CRC mismatch).
  StepMismatch,  ///< Step stream diverges from the re-run executions.
  ObligationMismatch, ///< Recorded obligations do not discharge: a
                      ///< witness fails, or an exit/store/register
                      ///< comparison differs.
  DigestMismatch,     ///< Recomputed effect digests differ from the
                      ///< recorded ones.
};

const char *certCheckStatusName(CertCheckStatus S);

/// Outcome of checking one certificate.
struct CertCheckResult {
  CertCheckStatus Status = CertCheckStatus::Ok;
  /// One-line failure description (empty on Ok).
  std::string Detail;

  bool ok() const { return Status == CertCheckStatus::Ok; }
};

/// Optional raw-byte bindings, letting the checker compare the caller's
/// stored encodings instead of re-encoding or decoding instruction
/// vectors. A span binds when its data() is non-null.
struct CertBindings {
  /// The body's GuestInstCount * 8 stored encodings: exactly the bytes
  /// Body was decoded from, or validated in place as. The encoding is
  /// canonical (decode checks every field, and the in-memory layout is
  /// pinned to the 8-byte wire form), so these bytes equal
  /// encodeAll(Body) and their CRC replaces the re-encode.
  std::span<const uint8_t> BodyBytes = {};
  /// The raw guest bytes at GuestStart (InstCount * 8 of them). Bound,
  /// they must equal the certificate's embedded source byte for byte —
  /// a memcmp that binds the proof to guest memory.
  std::span<const uint8_t> SourceBytes = {};
};

/// Structurally validates \p Data/\p Size (returning Malformed on
/// damage) and checks that the certificate proves \p Body (the gen-N
/// instructions of a trace at guest address \p GuestStart) equivalent
/// to its embedded source, consuming the blob's sections in place: no
/// Certificate is materialized, and the replay pool, symbolic traces
/// and decoded source live in per-thread storage reused across calls.
/// \p Bind, when provided, supplies the caller's raw bytes (see
/// CertBindings). With guest bytes bound the proof is about the real
/// guest code (prime, dbcheck --deep); without them (L2 fills,
/// module-less checks) the embedded source is still covered by SrcCrc,
/// and the check establishes body-vs-embedded-source equivalence.
CertCheckResult checkCertificateBlob(const uint8_t *Data, size_t Size,
                                     uint32_t GuestStart,
                                     std::span<const isa::Instruction> Body,
                                     const CertBindings *Bind = nullptr);

} // namespace analysis
} // namespace pcc

#endif // PCC_ANALYSIS_CERTCHECKER_H
