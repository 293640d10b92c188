//===- persist/TraceProof.cpp ---------------------------------------------===//

#include "persist/TraceProof.h"

#include "analysis/CertChecker.h"
#include "analysis/Validator.h"
#include "dbi/Compiler.h"

using namespace pcc;
using namespace pcc::persist;

ProofVerdict pcc::persist::proveTrace(const TraceProofRequest &Req) {
  ProofVerdict V;
  auto rejectCert = [&](analysis::CertCheckStatus S,
                        const std::string &Detail) {
    V.CertRejected = true;
    V.CertDetail = std::string(analysis::certCheckStatusName(S)) +
                   (Detail.empty() ? "" : ": " + Detail);
  };

  std::span<const isa::Instruction> Body = Req.Body;
  std::vector<isa::Instruction> Decoded;
  analysis::CertBindings Bind{Req.BodyBytes, {}};
  if (Req.Record) {
    const TraceRecord &Rec = *Req.Record;
    const size_t BodyBytes =
        static_cast<size_t>(Rec.GuestInstCount) * isa::InstructionSize;
    auto D = Rec.Code.size() < dbi::TracePrologueBytes + BodyBytes
                 ? ErrorOr<std::vector<isa::Instruction>>(Status::error(
                       ErrorCode::InvalidFormat,
                       "code image smaller than its instruction count"))
                 : isa::decodeAll(Rec.Code.data() + dbi::TracePrologueBytes,
                                  Rec.GuestInstCount);
    if (!D) {
      V.Readable = false;
      V.ProofDetail = D.status().message();
      if (!Req.Cert.empty()) {
        V.CertChecked = true;
        rejectCert(analysis::CertCheckStatus::Malformed, V.ProofDetail);
      }
      return V;
    }
    Decoded = D.take();
    Body = Decoded;
    // The body came straight from the stored encodings, so bind those
    // bytes and spare the checker a re-encode.
    Bind.BodyBytes = {Rec.Code.data() + dbi::TracePrologueBytes, BodyBytes};
  }
  if (Req.Source)
    Bind.SourceBytes = *Req.Source;

  if (!Req.Cert.empty()) {
    V.CertChecked = true;
    analysis::CertCheckResult R = analysis::checkCertificateBlob(
        Req.Cert.data(), Req.Cert.size(), Req.GuestStart, Body, &Bind);
    if (R.ok()) {
      V.Proved = true;
      return V;
    }
    rejectCert(R.Status, R.Detail);
  }
  if (!Req.Source)
    return V; // Self-contained: no prover backstop.
  V.ProverRan = true;
  auto Source = isa::decodeAll(Req.Source->data(),
                               Req.Source->size() / isa::InstructionSize);
  if (!Source) {
    V.ProofDetail = "guest source: " + Source.status().message();
    return V;
  }
  analysis::ValidationResult Check = analysis::validateTranslation(
      Req.GuestStart, *Source, Body, Req.CertOut);
  V.Proved = Check.Equivalent;
  if (!V.Proved)
    V.ProofDetail = Check.message();
  return V;
}
