//===- isa/Instruction.cpp ------------------------------------------------===//

#include "isa/Instruction.h"

#include "support/StringUtils.h"

#include <cassert>

using namespace pcc;
using namespace pcc::isa;

std::array<uint8_t, InstructionSize> Instruction::encode() const {
  std::array<uint8_t, InstructionSize> Bytes{};
  Bytes[0] = static_cast<uint8_t>(Op);
  Bytes[1] = Rd;
  Bytes[2] = Rs1;
  Bytes[3] = Rs2;
  for (unsigned I = 0; I != 4; ++I)
    Bytes[4 + I] = static_cast<uint8_t>(Imm >> (8 * I));
  return Bytes;
}

void Instruction::encodeTo(std::vector<uint8_t> &Out) const {
  auto Bytes = encode();
  Out.insert(Out.end(), Bytes.begin(), Bytes.end());
}

ErrorOr<Instruction> Instruction::decode(const uint8_t *Bytes) {
  if (Bytes[0] >= static_cast<uint8_t>(Opcode::NumOpcodes))
    return Status::error(ErrorCode::InvalidFormat,
                         formatString("invalid opcode byte 0x%02x",
                                      Bytes[0]));
  Instruction Inst;
  Inst.Op = static_cast<Opcode>(Bytes[0]);
  Inst.Rd = Bytes[1];
  Inst.Rs1 = Bytes[2];
  Inst.Rs2 = Bytes[3];
  if (Inst.Rd >= NumRegisters || Inst.Rs1 >= NumRegisters ||
      Inst.Rs2 >= NumRegisters)
    return Status::error(ErrorCode::InvalidFormat,
                         "register field out of range");
  Inst.Imm = 0;
  for (unsigned I = 0; I != 4; ++I)
    Inst.Imm |= static_cast<uint32_t>(Bytes[4 + I]) << (8 * I);
  return Inst;
}

std::string Instruction::toString() const {
  const char *Name = opcodeName(Op);
  switch (Op) {
  case Opcode::Nop:
  case Opcode::Halt:
  case Opcode::Ret:
    return Name;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::Divu:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::Sltu:
  case Opcode::Seq:
    return formatString("%s r%u, r%u, r%u", Name, Rd, Rs1, Rs2);
  case Opcode::Addi:
  case Opcode::Muli:
  case Opcode::Andi:
  case Opcode::Ori:
  case Opcode::Xori:
  case Opcode::Shli:
  case Opcode::Shri:
  case Opcode::Sltiu:
    return formatString("%s r%u, r%u, %d", Name, Rd, Rs1,
                        static_cast<int32_t>(Imm));
  case Opcode::Ldi:
    return formatString("%s r%u, 0x%x", Name, Rd, Imm);
  case Opcode::Ld:
    return formatString("%s r%u, [r%u%+d]", Name, Rd, Rs1,
                        static_cast<int32_t>(Imm));
  case Opcode::St:
    return formatString("%s [r%u%+d], r%u", Name, Rs1,
                        static_cast<int32_t>(Imm), Rs2);
  case Opcode::Beq:
  case Opcode::Bne:
  case Opcode::Bltu:
  case Opcode::Bgeu:
    return formatString("%s r%u, r%u, 0x%x", Name, Rs1, Rs2, Imm);
  case Opcode::Jmp:
  case Opcode::Call:
    return formatString("%s 0x%x", Name, Imm);
  case Opcode::Jr:
  case Opcode::Callr:
    return formatString("%s r%u", Name, Rs1);
  case Opcode::Sys:
    return formatString("%s %u", Name, Imm);
  case Opcode::NumOpcodes:
    break;
  }
  assert(false && "invalid opcode");
  return "invalid";
}

static void checkReg(unsigned Reg) {
  assert(Reg < NumRegisters && "register index out of range");
  (void)Reg;
}

Instruction pcc::isa::makeNop() { return Instruction(); }

Instruction pcc::isa::makeHalt() {
  Instruction Inst;
  Inst.Op = Opcode::Halt;
  return Inst;
}

Instruction pcc::isa::makeAlu(Opcode Op, unsigned Rd, unsigned Rs1,
                              unsigned Rs2) {
  assert(Op >= Opcode::Add && Op <= Opcode::Seq && "not a reg-reg ALU op");
  checkReg(Rd);
  checkReg(Rs1);
  checkReg(Rs2);
  Instruction Inst;
  Inst.Op = Op;
  Inst.Rd = static_cast<uint8_t>(Rd);
  Inst.Rs1 = static_cast<uint8_t>(Rs1);
  Inst.Rs2 = static_cast<uint8_t>(Rs2);
  return Inst;
}

Instruction pcc::isa::makeAluImm(Opcode Op, unsigned Rd, unsigned Rs1,
                                 uint32_t Imm) {
  assert(Op >= Opcode::Addi && Op <= Opcode::Sltiu &&
         "not a reg-imm ALU op");
  checkReg(Rd);
  checkReg(Rs1);
  Instruction Inst;
  Inst.Op = Op;
  Inst.Rd = static_cast<uint8_t>(Rd);
  Inst.Rs1 = static_cast<uint8_t>(Rs1);
  Inst.Imm = Imm;
  return Inst;
}

Instruction pcc::isa::makeLdi(unsigned Rd, uint32_t Imm) {
  checkReg(Rd);
  Instruction Inst;
  Inst.Op = Opcode::Ldi;
  Inst.Rd = static_cast<uint8_t>(Rd);
  Inst.Imm = Imm;
  return Inst;
}

Instruction pcc::isa::makeLoad(unsigned Rd, unsigned Base, int32_t Offset) {
  checkReg(Rd);
  checkReg(Base);
  Instruction Inst;
  Inst.Op = Opcode::Ld;
  Inst.Rd = static_cast<uint8_t>(Rd);
  Inst.Rs1 = static_cast<uint8_t>(Base);
  Inst.Imm = static_cast<uint32_t>(Offset);
  return Inst;
}

Instruction pcc::isa::makeStore(unsigned Base, int32_t Offset,
                                unsigned Src) {
  checkReg(Base);
  checkReg(Src);
  Instruction Inst;
  Inst.Op = Opcode::St;
  Inst.Rs1 = static_cast<uint8_t>(Base);
  Inst.Rs2 = static_cast<uint8_t>(Src);
  Inst.Imm = static_cast<uint32_t>(Offset);
  return Inst;
}

Instruction pcc::isa::makeBranch(Opcode Op, unsigned Rs1, unsigned Rs2,
                                 GuestAddr Target) {
  assert(isConditionalBranch(Op) && "not a conditional branch");
  checkReg(Rs1);
  checkReg(Rs2);
  Instruction Inst;
  Inst.Op = Op;
  Inst.Rs1 = static_cast<uint8_t>(Rs1);
  Inst.Rs2 = static_cast<uint8_t>(Rs2);
  Inst.Imm = Target;
  return Inst;
}

Instruction pcc::isa::makeJmp(GuestAddr Target) {
  Instruction Inst;
  Inst.Op = Opcode::Jmp;
  Inst.Imm = Target;
  return Inst;
}

Instruction pcc::isa::makeJr(unsigned Rs1) {
  checkReg(Rs1);
  Instruction Inst;
  Inst.Op = Opcode::Jr;
  Inst.Rs1 = static_cast<uint8_t>(Rs1);
  return Inst;
}

Instruction pcc::isa::makeCall(GuestAddr Target) {
  Instruction Inst;
  Inst.Op = Opcode::Call;
  Inst.Imm = Target;
  return Inst;
}

Instruction pcc::isa::makeCallr(unsigned Rs1) {
  checkReg(Rs1);
  Instruction Inst;
  Inst.Op = Opcode::Callr;
  Inst.Rs1 = static_cast<uint8_t>(Rs1);
  return Inst;
}

Instruction pcc::isa::makeRet() {
  Instruction Inst;
  Inst.Op = Opcode::Ret;
  return Inst;
}

Instruction pcc::isa::makeSys(uint32_t Number) {
  Instruction Inst;
  Inst.Op = Opcode::Sys;
  Inst.Imm = Number;
  return Inst;
}

/// True when the encoding at \p P decodes: the checks decode() makes.
static bool encodingValid(const uint8_t *P) {
  return P[0] < static_cast<uint8_t>(Opcode::NumOpcodes) &&
         P[1] < NumRegisters && P[2] < NumRegisters && P[3] < NumRegisters;
}

bool pcc::isa::validInPlace(const Instruction *Insts, size_t Count) {
  // The in-memory layout is the encoding (static_asserts in the header),
  // so the object bytes are checked exactly as encoded bytes are.
  for (size_t I = 0; I != Count; ++I)
    if (!encodingValid(reinterpret_cast<const uint8_t *>(Insts + I)))
      return false;
  return true;
}

std::string DecodeError::toString() const {
  return formatString("instruction %zu (byte offset %zu): %s", InstIndex,
                      ByteOffset, Reason.c_str());
}

Status DecodeError::toStatus() const {
  return Status::error(ErrorCode::InvalidFormat, toString());
}

DecodeResult pcc::isa::decodeBuffer(const uint8_t *Bytes,
                                    size_t NumBytes) {
  DecodeResult Result;
  size_t Count = NumBytes / InstructionSize;
  Result.Insts.reserve(Count);
  for (size_t I = 0; I != Count; ++I) {
    auto Inst = Instruction::decode(Bytes + I * InstructionSize);
    if (!Inst) {
      Result.Error = DecodeError{I * InstructionSize, I,
                                 Inst.status().message()};
      return Result;
    }
    Result.Insts.push_back(*Inst);
  }
  if (NumBytes % InstructionSize != 0)
    Result.Error = DecodeError{
        Count * InstructionSize, Count,
        formatString("truncated instruction: %zu trailing byte(s)",
                     NumBytes % InstructionSize)};
  return Result;
}

ErrorOr<std::vector<Instruction>> pcc::isa::decodeAll(const uint8_t *Bytes,
                                                      size_t Count) {
  std::vector<Instruction> Insts;
  Status S = decodeInto(Bytes, Count, Insts);
  if (!S.ok())
    return S;
  return Insts;
}

Status pcc::isa::checkEncodings(const uint8_t *Bytes, size_t Count) {
  for (size_t I = 0; I != Count; ++I) {
    const uint8_t *P = Bytes + I * InstructionSize;
    if (!encodingValid(P))
      return DecodeError{I * InstructionSize, I,
                         Instruction::decode(P).status().message()}
          .toStatus();
  }
  return Status::success();
}

Status pcc::isa::decodeInto(const uint8_t *Bytes, size_t Count,
                            std::vector<Instruction> &Out) {
  Out.clear();
  Status Valid = checkEncodings(Bytes, Count);
  if (!Valid.ok())
    return Valid;
  // Every field is in range, so the rest of decode() is field copies.
  Out.resize(Count);
  for (size_t I = 0; I != Count; ++I) {
    const uint8_t *P = Bytes + I * InstructionSize;
    Instruction &Inst = Out[I];
    Inst.Op = static_cast<Opcode>(P[0]);
    Inst.Rd = P[1];
    Inst.Rs1 = P[2];
    Inst.Rs2 = P[3];
    Inst.Imm = static_cast<uint32_t>(P[4]) |
               static_cast<uint32_t>(P[5]) << 8 |
               static_cast<uint32_t>(P[6]) << 16 |
               static_cast<uint32_t>(P[7]) << 24;
  }
  return Status::success();
}

std::vector<uint8_t> pcc::isa::encodeAll(
    std::span<const Instruction> Insts) {
  std::vector<uint8_t> Bytes;
  Bytes.reserve(Insts.size() * InstructionSize);
  for (const Instruction &Inst : Insts)
    Inst.encodeTo(Bytes);
  return Bytes;
}
