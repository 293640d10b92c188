//===- isa/Instruction.h - Guest instruction encoding -----------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded form of a guest instruction plus its fixed 8-byte encoding:
///
///   byte 0: opcode
///   byte 1: Rd   (destination register)
///   byte 2: Rs1  (source register 1 / base / indirect target)
///   byte 3: Rs2  (source register 2 / store value)
///   bytes 4..7: Imm, little-endian 32 bits (sign interpretation per op)
///
/// Factory functions build well-formed instructions; decode() validates
/// raw bytes so the VM never executes junk.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ISA_INSTRUCTION_H
#define PCC_ISA_INSTRUCTION_H

#include "isa/Opcode.h"
#include "support/Error.h"

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace pcc {
namespace isa {

/// A guest code address. The guest address space is 32-bit.
using GuestAddr = uint32_t;

/// One decoded guest instruction.
struct Instruction {
  Opcode Op = Opcode::Nop;
  uint8_t Rd = 0;
  uint8_t Rs1 = 0;
  uint8_t Rs2 = 0;
  uint32_t Imm = 0;

  bool operator==(const Instruction &Other) const = default;

  /// Encodes into the fixed 8-byte form.
  std::array<uint8_t, InstructionSize> encode() const;

  /// Appends the encoding to \p Out.
  void encodeTo(std::vector<uint8_t> &Out) const;

  /// Decodes 8 bytes; fails on invalid opcode or register fields.
  static ErrorOr<Instruction> decode(const uint8_t *Bytes);

  /// Renders "add r1, r2, r3" style disassembly.
  std::string toString() const;

  /// \returns the absolute branch/call target, valid only when
  /// hasCodeTarget(Op).
  GuestAddr codeTarget() const { return Imm; }
};

/// The in-memory Instruction layout matches the on-disk 8-byte encoding
/// field for field, which is what lets execute-in-place consumers
/// reinterpret mapped payload bytes as Instruction arrays without a
/// decode+copy step. Pin the layout so a drift breaks the build, not
/// the cache format.
static_assert(sizeof(Instruction) == InstructionSize,
              "Instruction must occupy exactly its encoded size");
static_assert(std::is_trivially_copyable_v<Instruction>,
              "Instruction must be bitwise-copyable for XIP mappings");
static_assert(offsetof(Instruction, Op) == 0 &&
                  offsetof(Instruction, Rd) == 1 &&
                  offsetof(Instruction, Rs1) == 2 &&
                  offsetof(Instruction, Rs2) == 3 &&
                  offsetof(Instruction, Imm) == 4,
              "Instruction field order must match the encoding");

/// True when this host can execute mapped instruction bytes in place:
/// the struct layout equals the encoding (asserted above) and the host
/// is little-endian like the on-disk Imm field. Big-endian hosts fall
/// back to the materializing (decode+copy) prime path.
inline constexpr bool HostExecutesInPlace =
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    true;
#else
    false;
#endif

/// Validates \p Count reinterpret-cast instructions in place: every
/// opcode below NumOpcodes and every register field below NumRegisters.
/// The XIP equivalent of decode()'s field checks — the executor indexes
/// the register file unchecked, so mapped bodies must be scanned before
/// first execution even when their CRC is intact.
bool validInPlace(const Instruction *Insts, size_t Count);

/// \name Factory functions
/// Builders assert register indices in range so malformed programs fail
/// at construction, not execution.
/// @{
Instruction makeNop();
Instruction makeHalt();
Instruction makeAlu(Opcode Op, unsigned Rd, unsigned Rs1, unsigned Rs2);
Instruction makeAluImm(Opcode Op, unsigned Rd, unsigned Rs1, uint32_t Imm);
Instruction makeLdi(unsigned Rd, uint32_t Imm);
Instruction makeLoad(unsigned Rd, unsigned Base, int32_t Offset);
Instruction makeStore(unsigned Base, int32_t Offset, unsigned Src);
Instruction makeBranch(Opcode Op, unsigned Rs1, unsigned Rs2,
                       GuestAddr Target);
Instruction makeJmp(GuestAddr Target);
Instruction makeJr(unsigned Rs1);
Instruction makeCall(GuestAddr Target);
Instruction makeCallr(unsigned Rs1);
Instruction makeRet();
Instruction makeSys(uint32_t Number);
/// @}

/// A decode failure located within a byte buffer: which instruction
/// slot could not be decoded and why. Consumers that scan untrusted
/// bytes (the CFG builder, `pcc-dbcheck --deep`) report this instead of
/// aborting on truncated or garbage input.
struct DecodeError {
  /// Byte offset of the faulting instruction's first byte.
  size_t ByteOffset = 0;
  /// Instruction slot (ByteOffset / InstructionSize).
  size_t InstIndex = 0;
  /// Underlying cause (InvalidFormat: bad opcode/register fields, or a
  /// trailing partial instruction).
  std::string Reason;

  /// Renders "instruction 3 (byte offset 24): ...".
  std::string toString() const;
  /// The error as a Status (always InvalidFormat).
  Status toStatus() const;
};

/// The decoded prefix of a byte buffer plus why decoding stopped early,
/// if it did.
struct DecodeResult {
  std::vector<Instruction> Insts; ///< Longest valid prefix.
  std::optional<DecodeError> Error;

  bool complete() const { return !Error.has_value(); }
};

/// Length-aware decoding: decodes the longest valid instruction prefix
/// of [\p Bytes, \p Bytes + \p NumBytes), never reading past the end of
/// the buffer. A trailing partial instruction or an invalid encoding
/// stops decoding with a located DecodeError rather than over-reading
/// or asserting.
DecodeResult decodeBuffer(const uint8_t *Bytes, size_t NumBytes);

/// Decodes \p Count instructions starting at \p Bytes. The error of a
/// failed decode carries the instruction index and byte offset.
ErrorOr<std::vector<Instruction>> decodeAll(const uint8_t *Bytes,
                                            size_t Count);

/// Checks, without decoding, that \p Count encodings at \p Bytes would
/// all decode: success, or exactly the error decodeAll would return.
Status checkEncodings(const uint8_t *Bytes, size_t Count);

/// As decodeAll, into \p Out (cleared first, its capacity reused), so a
/// caller that decodes repeatedly allocates only while \p Out grows.
Status decodeInto(const uint8_t *Bytes, size_t Count,
                  std::vector<Instruction> &Out);

/// Encodes a sequence of instructions into contiguous bytes.
std::vector<uint8_t> encodeAll(std::span<const Instruction> Insts);
/// Vector (and braced-list) form of the above.
inline std::vector<uint8_t> encodeAll(const std::vector<Instruction> &Insts) {
  return encodeAll(std::span<const Instruction>(Insts));
}

} // namespace isa
} // namespace pcc

#endif // PCC_ISA_INSTRUCTION_H
