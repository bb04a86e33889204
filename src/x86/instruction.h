// Instructions and basic blocks, plus per-instruction access semantics
// (the read/write sets the dependency multigraph is computed from).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "x86/isa.h"
#include "x86/operand.h"

namespace comet::x86 {

/// One assembly instruction: an opcode plus concrete operands.
struct Instruction {
  Opcode opcode = Opcode::NOP;
  std::vector<Operand> operands;

  /// Intel-syntax rendering ("add rcx, rax").
  std::string to_string() const;

  bool operator==(const Instruction&) const = default;
};

/// A basic block: a straight-line instruction sequence (no control flow).
struct BasicBlock {
  std::vector<Instruction> instructions;

  std::size_t size() const { return instructions.size(); }
  bool empty() const { return instructions.empty(); }

  /// Multi-line Intel-syntax rendering, one instruction per line.
  std::string to_string() const;

  bool operator==(const BasicBlock&) const = default;
};

/// One register access performed by an instruction.
struct RegAccess {
  Reg reg;
  bool read = false;
  bool write = false;
};

/// Explicit-memory access performed by an instruction (at most one memory
/// operand exists per instruction in this ISA subset).
struct MemAccess {
  MemOperand mem;
  bool read = false;
  bool write = false;
};

/// Full access semantics of one instruction, derived from the catalog:
/// register reads/writes (explicit operands, memory addressing registers,
/// and implicit registers), the explicit memory access if any, implicit
/// stack memory effects, and flags effects.
struct InstSemantics {
  std::vector<RegAccess> regs;
  std::optional<MemAccess> mem;
  bool stack_mem_read = false;
  bool stack_mem_write = false;
  bool reads_flags = false;
  bool writes_flags = false;

  /// Does the instruction read memory (explicit operand or stack)?
  bool loads() const { return (mem && mem->read) || stack_mem_read; }
  /// Does the instruction write memory (explicit operand or stack)?
  bool stores() const { return (mem && mem->write) || stack_mem_write; }
};

/// Compute the access semantics of `inst`. Throws std::invalid_argument if
/// the instruction does not match any catalog signature.
InstSemantics semantics(const Instruction& inst);

/// Is the instruction valid per the catalog (opcode accepts the operands)?
bool is_valid(const Instruction& inst);

/// Are all instructions in the block valid?
bool is_valid(const BasicBlock& block);

}  // namespace comet::x86
