//===- analysis/SymExec.h - Shared symbolic execution core ------*- C++ -*-===//
//
// Part of the PCC project: reproduction of "Persistent Code Caching"
// (CGO 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic-execution core shared by the translation validator (the
/// prover) and the certificate checker. Both walk a trace body with
/// vm::executeInstruction's semantics over a hash-consed expression
/// pool; they differ only in how expression nodes are *interned*:
///
///   * the prover's pool (Validator.cpp) interns through a map and can
///     record the id it hands out for every intern request — the
///     certificate's step stream;
///   * the checker's pool (CertChecker.cpp) owns no map at all: it
///     consumes the recorded stream, verifying that each recorded id
///     either appends a brand-new node or names an existing node with
///     exactly the requested payload.
///
/// Keeping one symExecute template (and one canonicalization routine,
/// canonicalBin) guarantees the two sides agree on the *decision
/// procedure* — constant folding and right-zero identities are
/// replayed, not trusted — so a certificate can only make the checker
/// accept something the prover would also have accepted.
///
//===----------------------------------------------------------------------===//

#ifndef PCC_ANALYSIS_SYMEXEC_H
#define PCC_ANALYSIS_SYMEXEC_H

#include "analysis/Dataflow.h"
#include "isa/Instruction.h"

#include <array>
#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

namespace pcc {
namespace analysis {

/// Kinds of hash-consed symbolic expression nodes.
enum class ExprKind : uint8_t { Init, Const, Bin, Load };

/// One expression node's full payload. Structural equality of keys is
/// semantic equality of the expressions they denote (given equal
/// operand ids): (kind, opcode, operand A, operand B, auxiliary).
using ExprKey = std::tuple<uint8_t, uint8_t, uint32_t, uint32_t, uint32_t>;

constexpr uint32_t NoExpr = ~0u;

/// One point where control can leave the trace, with the symbolic
/// machine state observable there.
struct SymExit {
  enum class Kind : uint8_t {
    Branch,      ///< Conditional branch taken.
    Direct,      ///< Jmp/Call.
    Indirect,    ///< Jr/Callr/Ret.
    Syscall,     ///< Sys (control leaves to the emulation unit).
    Halt,        ///< Halt.
    FallThrough, ///< Ran off the end of the body.
  };

  Kind K = Kind::Halt;
  uint32_t InstIndex = 0;
  uint32_t Cond = NoExpr;   ///< Branch condition expression.
  uint32_t Target = NoExpr; ///< Exit target expression.
  uint32_t SysNumber = 0;
  std::array<uint32_t, isa::NumRegisters> Regs{};
  uint32_t NumStores = 0; ///< Stores performed before this exit.
  uint32_t NumLoads = 0;  ///< Loads performed before this exit.
};

inline const char *exitKindName(SymExit::Kind K) {
  switch (K) {
  case SymExit::Kind::Branch:
    return "branch";
  case SymExit::Kind::Direct:
    return "direct";
  case SymExit::Kind::Indirect:
    return "indirect";
  case SymExit::Kind::Syscall:
    return "syscall";
  case SymExit::Kind::Halt:
    return "halt";
  case SymExit::Kind::FallThrough:
    return "fall-through";
  }
  return "?";
}

/// One memory read: the address expression (loads can fault) and the
/// value expression it produced. Two reads with equal Val read the same
/// address at the same store version — the second is redundant.
struct LoadRec {
  uint32_t Addr = 0;
  uint32_t Val = 0;

  bool operator==(const LoadRec &O) const {
    return Addr == O.Addr && Val == O.Val;
  }
};

/// The observable effects of one symbolic execution. symExecute()
/// clears and refills one, so a caller that keeps its SymTraces across
/// calls reuses their storage.
struct SymTrace {
  std::vector<SymExit> Exits;
  /// All stores in program order: (address expr, value expr).
  std::vector<std::pair<uint32_t, uint32_t>> Stores;
  /// All loads in program order.
  std::vector<LoadRec> Loads;
};

/// Canonicalizing binary-expression construction, shared verbatim by
/// prover and checker. Rewrites through semantics-preserving identities
/// — constant folding with exactly vm::executeInstruction's arithmetic
/// (via foldBinaryOp) and right-zero identities — so a body the
/// finalize-time optimizer transformed interns to the same ids as the
/// unoptimized source. Every rewrite maps an expression to a
/// semantically equal one, so id equality still implies value equality.
///
/// PoolT provides: constValue(Id, &Value), konst(Value), and
/// binNode(Op, A, B) — the uninterpreted-node fallback.
template <class PoolT>
uint32_t canonicalBin(PoolT &Pool, isa::Opcode Op, uint32_t A,
                      uint32_t B) {
  uint32_t AV = 0, BV = 0;
  const bool AConst = Pool.constValue(A, AV);
  const bool BConst = Pool.constValue(B, BV);
  if (AConst && BConst)
    if (auto V = foldBinaryOp(Op, AV, BV))
      return Pool.konst(*V);
  if (BConst && BV == 0) {
    // x op 0 == x for the additive/bitwise/shift family.
    switch (Op) {
    case isa::Opcode::Add:
    case isa::Opcode::Addi:
    case isa::Opcode::Sub:
    case isa::Opcode::Or:
    case isa::Opcode::Ori:
    case isa::Opcode::Xor:
    case isa::Opcode::Xori:
    case isa::Opcode::Shl:
    case isa::Opcode::Shli:
    case isa::Opcode::Shr:
    case isa::Opcode::Shri:
      return A;
    default:
      break;
    }
  }
  return Pool.binNode(Op, A, B);
}

/// Symbolically executes \p Body following vm::executeInstruction's
/// semantics exactly (operands read before any write; Call pushes the
/// return address below the old stack pointer; Ret pops), leaving its
/// effects in \p T (cleared first). PoolT additionally provides
/// init(Reg), konst(Value), bin(Op, A, B) and load(Addr, Version).
///
/// The instruction walk is deliberately the only definition in the
/// system: the prover records its intern decisions while running it,
/// and the checker re-runs the identical template, so the two sides
/// intern in exactly the same order with no separate bookkeeping.
template <class PoolT>
void symExecute(PoolT &Pool, uint32_t GuestStart,
                std::span<const isa::Instruction> Body, SymTrace &T) {
  using isa::Instruction;
  using isa::InstructionSize;
  using isa::Opcode;

  T.Exits.clear();
  T.Stores.clear();
  T.Loads.clear();
  // At most one load per instruction; reserving once keeps the hot
  // walk free of vector growth for both prover and checker.
  T.Loads.reserve(Body.size());
  std::array<uint32_t, isa::NumRegisters> Regs;
  for (unsigned R = 0; R != isa::NumRegisters; ++R)
    Regs[R] = Pool.init(R);

  auto Snapshot = [&](SymExit E) {
    E.Regs = Regs;
    E.NumStores = static_cast<uint32_t>(T.Stores.size());
    E.NumLoads = static_cast<uint32_t>(T.Loads.size());
    T.Exits.push_back(E);
  };
  auto Version = [&] {
    return static_cast<uint32_t>(T.Stores.size());
  };

  for (uint32_t I = 0; I != Body.size(); ++I) {
    const Instruction &Inst = Body[I];
    const uint32_t InstPc = GuestStart + I * InstructionSize;
    const uint32_t FallPc = InstPc + InstructionSize;
    const uint32_t A = Regs[Inst.Rs1];
    const uint32_t B = Regs[Inst.Rs2];
    const unsigned Sp = isa::StackPointerReg;

    switch (Inst.Op) {
    case Opcode::Nop:
      break;
    case Opcode::Halt:
      Snapshot(SymExit{SymExit::Kind::Halt, I, NoExpr, NoExpr, 0});
      return;
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
      Regs[Inst.Rd] = Pool.bin(Inst.Op, A, B);
      break;
    case Opcode::Addi:
    case Opcode::Muli:
    case Opcode::Andi:
    case Opcode::Ori:
    case Opcode::Xori:
    case Opcode::Shli:
    case Opcode::Shri:
    case Opcode::Sltiu:
      Regs[Inst.Rd] = Pool.bin(Inst.Op, A, Pool.konst(Inst.Imm));
      break;
    case Opcode::Ldi:
      Regs[Inst.Rd] = Pool.konst(Inst.Imm);
      break;
    case Opcode::Ld: {
      uint32_t Addr = Pool.bin(Opcode::Add, A, Pool.konst(Inst.Imm));
      uint32_t Val = Pool.load(Addr, Version());
      T.Loads.push_back(LoadRec{Addr, Val});
      Regs[Inst.Rd] = Val;
      break;
    }
    case Opcode::St: {
      uint32_t Addr = Pool.bin(Opcode::Add, A, Pool.konst(Inst.Imm));
      T.Stores.emplace_back(Addr, B);
      break;
    }
    case Opcode::Beq:
    case Opcode::Bne:
    case Opcode::Bltu:
    case Opcode::Bgeu:
      Snapshot(SymExit{SymExit::Kind::Branch, I,
                       Pool.bin(Inst.Op, A, B), Pool.konst(Inst.Imm),
                       0});
      break; // fall through to the next instruction (untaken path)
    case Opcode::Jmp:
      Snapshot(SymExit{SymExit::Kind::Direct, I, NoExpr,
                       Pool.konst(Inst.Imm), 0});
      return;
    case Opcode::Call:
    case Opcode::Callr: {
      uint32_t NewSp =
          Pool.bin(Opcode::Add, Regs[Sp],
                   Pool.konst(static_cast<uint32_t>(-4)));
      T.Stores.emplace_back(NewSp, Pool.konst(FallPc));
      Regs[Sp] = NewSp;
      if (Inst.Op == Opcode::Call)
        Snapshot(SymExit{SymExit::Kind::Direct, I, NoExpr,
                         Pool.konst(Inst.Imm), 0});
      else
        Snapshot(SymExit{SymExit::Kind::Indirect, I, NoExpr, A, 0});
      return;
    }
    case Opcode::Jr:
      Snapshot(SymExit{SymExit::Kind::Indirect, I, NoExpr, A, 0});
      return;
    case Opcode::Ret: {
      uint32_t Addr = Regs[Sp];
      uint32_t Return = Pool.load(Addr, Version());
      T.Loads.push_back(LoadRec{Addr, Return});
      Regs[Sp] =
          Pool.bin(Opcode::Add, Addr, Pool.konst(4));
      Snapshot(
          SymExit{SymExit::Kind::Indirect, I, NoExpr, Return, 0});
      return;
    }
    case Opcode::Sys:
      Snapshot(SymExit{SymExit::Kind::Syscall, I, NoExpr,
                       Pool.konst(FallPc), Inst.Imm});
      return;
    case Opcode::NumOpcodes:
      break;
    }
  }

  if (!Body.empty()) {
    uint32_t EndPc = GuestStart +
                     static_cast<uint32_t>(Body.size()) * InstructionSize;
    Snapshot(SymExit{SymExit::Kind::FallThrough,
                     static_cast<uint32_t>(Body.size()) - 1, NoExpr,
                     Pool.konst(EndPc), 0});
  }
}

} // namespace analysis
} // namespace pcc

#endif // PCC_ANALYSIS_SYMEXEC_H
