//===- analysis/Validator.cpp ---------------------------------------------===//

#include "analysis/Validator.h"

#include "analysis/Certificate.h"
#include "analysis/SymExec.h"
#include "support/Hashing.h"
#include "support/StringUtils.h"

#include <map>

using namespace pcc;
using namespace pcc::analysis;
using isa::Instruction;
using isa::Opcode;

namespace {

/// The prover's hash-consed expression pool. Both executions intern
/// into one pool, so structural equality is id equality. When a
/// Transcript is attached, every intern request appends the id it
/// resolved to — the certificate's step stream; the checker's
/// ReplayPool consumes the same stream while re-running the shared
/// symExecute, so recording costs one vector push per intern and no
/// separate bookkeeping.
class ExprPool {
public:
  /// When non-null, receives one id per intern request.
  std::vector<uint32_t> *Transcript = nullptr;

  uint32_t init(unsigned Reg) {
    return intern(ExprKind::Init, 0, 0, 0, Reg);
  }
  uint32_t konst(uint32_t Value) {
    return intern(ExprKind::Const, 0, 0, 0, Value);
  }
  uint32_t bin(Opcode Op, uint32_t A, uint32_t B) {
    return canonicalBin(*this, Op, A, B);
  }
  /// A memory read of \p Addr observing the first \p Version stores.
  uint32_t load(uint32_t Addr, uint32_t Version) {
    return intern(ExprKind::Load, 0, Addr, 0, Version);
  }

  uint32_t binNode(Opcode Op, uint32_t A, uint32_t B) {
    return intern(ExprKind::Bin, static_cast<uint8_t>(Op), A, B, 0);
  }
  bool constValue(uint32_t Id, uint32_t &Value) const {
    const ExprKey &N = Nodes[Id];
    if (std::get<0>(N) != static_cast<uint8_t>(ExprKind::Const))
      return false;
    Value = std::get<4>(N);
    return true;
  }

private:
  std::map<ExprKey, uint32_t> Interned;
  /// Node payloads by id (ids are assigned densely in intern order), so
  /// bin() can recognize Const operands.
  std::vector<ExprKey> Nodes;

  uint32_t intern(ExprKind K, uint8_t Op, uint32_t A, uint32_t B,
                  uint32_t Aux) {
    ExprKey Id{static_cast<uint8_t>(K), Op, A, B, Aux};
    auto [It, Inserted] =
        Interned.emplace(Id, static_cast<uint32_t>(Interned.size()));
    if (Inserted)
      Nodes.push_back(Id);
    if (Transcript)
      Transcript->push_back(It->second);
    return It->second;
  }
};

ValidationResult mismatch(uint32_t InstIndex, uint32_t ExitIndex,
                          std::string What) {
  ValidationResult R;
  R.Equivalent = false;
  R.Mismatch = TraceMismatch{InstIndex, ExitIndex, std::move(What)};
  return R;
}

} // namespace

std::string ValidationResult::message() const {
  if (Equivalent)
    return "equivalent";
  return formatString("mismatch at instruction %u%s: %s",
                      Mismatch->InstIndex,
                      Mismatch->ExitIndex == ~0u
                          ? ""
                          : formatString(" (exit %u)",
                                         Mismatch->ExitIndex)
                                .c_str(),
                      Mismatch->What.c_str());
}

ValidationResult pcc::analysis::validateTranslation(
    uint32_t GuestStart, std::span<const Instruction> Source,
    std::span<const Instruction> Translated, Certificate *CertOut) {
  if (CertOut)
    *CertOut = Certificate{};
  if (Source.size() != Translated.size())
    return mismatch(
        static_cast<uint32_t>(
            std::min(Source.size(), Translated.size())),
        ~0u,
        formatString("body length differs: source %zu, translated %zu",
                     Source.size(), Translated.size()));

  ExprPool Pool;
  std::vector<uint32_t> Steps;
  if (CertOut)
    Pool.Transcript = &Steps;
  SymTrace S, T;
  symExecute(Pool, GuestStart, Source, S);
  symExecute(Pool, GuestStart, Translated, T);

  // Match the translated loads against the source loads as an ordered
  // subsequence. A source load may be absent from the translation only
  // when it is provably redundant: the identical load expression (same
  // address, same observed-store version) already occurred earlier in
  // the source, so re-reading can neither fault anew nor observe a
  // different value. MatchedPrefix[i] is the number of translated loads
  // consumed by the first i source loads, which lets the per-exit check
  // below verify that loads line up at every observable exit point.
  std::vector<uint32_t> MatchedPrefix(S.Loads.size() + 1, 0);
  std::vector<uint32_t> Witnesses;
  {
    size_t J = 0;
    for (size_t I = 0; I != S.Loads.size(); ++I) {
      if (J < T.Loads.size() && S.Loads[I] == T.Loads[J]) {
        ++J;
      } else {
        size_t Witness = I;
        for (size_t K = 0; K != I && Witness == I; ++K)
          if (S.Loads[K].Val == S.Loads[I].Val)
            Witness = K;
        if (Witness == I)
          return mismatch(
              0, ~0u,
              formatString("load %zu missing from translation and "
                           "not redundant",
                           I));
        if (CertOut)
          Witnesses.push_back(static_cast<uint32_t>(Witness));
      }
      MatchedPrefix[I + 1] = static_cast<uint32_t>(J);
    }
    if (J != T.Loads.size())
      return mismatch(0, ~0u,
                      "translated performs memory reads the source "
                      "does not");
  }

  if (S.Exits.size() != T.Exits.size())
    return mismatch(
        0, static_cast<uint32_t>(
               std::min(S.Exits.size(), T.Exits.size())),
        formatString("exit count differs: source %zu, translated %zu",
                     S.Exits.size(), T.Exits.size()));

  for (uint32_t E = 0; E != S.Exits.size(); ++E) {
    const SymExit &A = S.Exits[E];
    const SymExit &B = T.Exits[E];
    if (A.InstIndex != B.InstIndex)
      return mismatch(A.InstIndex, E,
                      formatString("exit position differs: source "
                                   "instruction %u, translated %u",
                                   A.InstIndex, B.InstIndex));
    if (A.K != B.K)
      return mismatch(A.InstIndex, E,
                      formatString("exit kind differs: source %s, "
                                   "translated %s",
                                   exitKindName(A.K),
                                   exitKindName(B.K)));
    if (A.Cond != B.Cond)
      return mismatch(A.InstIndex, E, "branch condition differs");
    if (A.Target != B.Target)
      return mismatch(A.InstIndex, E, "exit target differs");
    if (A.SysNumber != B.SysNumber)
      return mismatch(A.InstIndex, E,
                      formatString("syscall number differs: source "
                                   "%u, translated %u",
                                   A.SysNumber, B.SysNumber));
    if (A.NumStores != B.NumStores)
      return mismatch(A.InstIndex, E,
                      formatString("memory-write count differs: "
                                   "source %u, translated %u",
                                   A.NumStores, B.NumStores));
    if (MatchedPrefix[A.NumLoads] != B.NumLoads)
      return mismatch(A.InstIndex, E,
                      formatString("memory reads do not line up at "
                                   "exit: source %u (of which %u "
                                   "required), translated %u",
                                   A.NumLoads, MatchedPrefix[A.NumLoads],
                                   B.NumLoads));
    for (unsigned R = 0; R != isa::NumRegisters; ++R)
      if (A.Regs[R] != B.Regs[R])
        return mismatch(A.InstIndex, E,
                        formatString("register r%u differs", R));
  }

  if (S.Stores.size() != T.Stores.size())
    return mismatch(0, ~0u, "memory-write count differs");
  for (uint32_t I = 0; I != S.Stores.size(); ++I) {
    if (S.Stores[I].first != T.Stores[I].first)
      return mismatch(0, ~0u,
                      formatString("store %u address differs", I));
    if (S.Stores[I].second != T.Stores[I].second)
      return mismatch(0, ~0u,
                      formatString("store %u value differs", I));
  }

  if (CertOut) {
    // The proof went through: persist what the checker needs to replay
    // it. OptGen is the caller's to fill — the validator does not know
    // which generation this body will be published as.
    Certificate &C = *CertOut;
    C.GuestStart = GuestStart;
    C.Source.assign(Source.begin(), Source.end());
    const std::vector<uint8_t> SrcBytes = isa::encodeAll(Source);
    C.SrcCrc = crc32(SrcBytes.data(), SrcBytes.size());
    const std::vector<uint8_t> BodyBytes = isa::encodeAll(Translated);
    C.BodyCrc = crc32(BodyBytes.data(), BodyBytes.size());
    C.Steps = std::move(Steps);
    C.Witnesses = std::move(Witnesses);
    C.ExitDigests.reserve(S.Exits.size());
    for (const SymExit &E : S.Exits)
      C.ExitDigests.push_back(
          exitDigest(E, MatchedPrefix[E.NumLoads]));
    C.StoresDigest = storesDigest(S);
    C.LoadsDigest = loadsDigest(S);
  }
  return ValidationResult{};
}

ValidationResult pcc::analysis::validateTranslation(
    uint32_t GuestStart, std::span<const Instruction> Source,
    std::span<const Instruction> Translated) {
  return validateTranslation(GuestStart, Source, Translated, nullptr);
}
