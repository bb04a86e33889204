#include "riscv/isa.h"

#include <array>
#include <charconv>
#include <unordered_map>

#include "util/str.h"

namespace comet::riscv {

namespace {

constexpr std::array<OpcodeInfo, kNumOpcodes> kCatalog = {{
#define COMET_RV_INFO(name, mn, fmt, cls) \
  OpcodeInfo{Opcode::name, #mn, Format::fmt, RvClass::cls},
    COMET_RV_OPCODES(COMET_RV_INFO)
#undef COMET_RV_INFO
}};

struct AbiEntry {
  std::string_view name;
  std::uint8_t index;
};
constexpr std::array<AbiEntry, 33> kAbiMap = {{
    {"zero", 0}, {"ra", 1},  {"sp", 2},   {"gp", 3},   {"tp", 4},
    {"t0", 5},   {"t1", 6},  {"t2", 7},   {"s0", 8},   {"fp", 8},
    {"s1", 9},   {"a0", 10}, {"a1", 11},  {"a2", 12},  {"a3", 13},
    {"a4", 14},  {"a5", 15}, {"a6", 16},  {"a7", 17},  {"s2", 18},
    {"s3", 19},  {"s4", 20}, {"s5", 21},  {"s6", 22},  {"s7", 23},
    {"s8", 24},  {"s9", 25}, {"s10", 26}, {"s11", 27}, {"t3", 28},
    {"t4", 29},  {"t5", 30}, {"t6", 31},
}};

// reg_name's table: each register's first name in kAbiMap, skipping the
// "fp" alias of s0.
constexpr std::array<std::string_view, 32> kRegNames = [] {
  std::array<std::string_view, 32> names{};
  for (const auto& e : kAbiMap) {
    if (e.name != "fp" && names[e.index].empty()) names[e.index] = e.name;
  }
  return names;
}();

bool imm_fits(std::int64_t v, int bits) {
  const std::int64_t lo = -(std::int64_t{1} << (bits - 1));
  const std::int64_t hi = (std::int64_t{1} << (bits - 1)) - 1;
  return v >= lo && v <= hi;
}

}  // namespace

const OpcodeInfo& info(Opcode op) {
  return kCatalog[static_cast<std::size_t>(op)];
}

std::string_view mnemonic(Opcode op) { return info(op).mnemonic; }

std::optional<Opcode> parse_opcode(std::string_view mn) {
  static const std::unordered_map<std::string, Opcode> kByName = [] {
    std::unordered_map<std::string, Opcode> m;
    for (const auto& e : kCatalog) m[std::string(e.mnemonic)] = e.op;
    return m;
  }();
  const auto it = kByName.find(util::to_lower(mn));
  if (it == kByName.end()) return std::nullopt;
  return it->second;
}

std::span<const Opcode> all_opcodes() {
  static const std::vector<Opcode> kAll = [] {
    std::vector<Opcode> v;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      v.push_back(static_cast<Opcode>(i));
    }
    return v;
  }();
  return kAll;
}

std::span<const Opcode> replacement_opcodes(Opcode op) {
  static const std::array<std::vector<Opcode>, kNumOpcodes> kByOpcode = [] {
    std::array<std::vector<Opcode>, kNumOpcodes> table;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
      const auto fmt = kCatalog[i].format;
      for (std::size_t j = 0; j < kNumOpcodes; ++j) {
        if (i != j && kCatalog[j].format == fmt) {
          table[i].push_back(static_cast<Opcode>(j));
        }
      }
    }
    return table;
  }();
  return kByOpcode[static_cast<std::size_t>(op)];
}

std::string_view reg_name(Reg r) {
  return r.index < kRegNames.size() ? kRegNames[r.index] : kRegNames[0];
}

std::optional<Reg> parse_reg(std::string_view name) {
  const std::string lower = util::to_lower(name);
  for (const auto& e : kAbiMap) {
    if (e.name == lower) return Reg{e.index};
  }
  // Also accept architectural names x0..x31.
  if (lower.size() >= 2 && lower[0] == 'x') {
    int idx = 0;
    for (std::size_t i = 1; i < lower.size(); ++i) {
      if (lower[i] < '0' || lower[i] > '9') return std::nullopt;
      idx = idx * 10 + (lower[i] - '0');
    }
    if (idx < 32) return Reg{static_cast<std::uint8_t>(idx)};
  }
  return std::nullopt;
}

namespace {

void append_imm(std::string& out, std::int64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

// Appends the instruction's text to `out`: the memo key of every model
// query is built this way, so no temporaries.
void append_instruction(std::string& out, const Instruction& inst) {
  const auto& inf = info(inst.opcode);
  out += inf.mnemonic;
  out += ' ';
  switch (inf.format) {
    case Format::R:
      out += reg_name(inst.rd);
      out += ", ";
      out += reg_name(inst.rs1);
      out += ", ";
      out += reg_name(inst.rs2);
      break;
    case Format::I:
      out += reg_name(inst.rd);
      out += ", ";
      out += reg_name(inst.rs1);
      out += ", ";
      append_imm(out, inst.imm);
      break;
    case Format::U:
      out += reg_name(inst.rd);
      out += ", ";
      append_imm(out, inst.imm);
      break;
    case Format::Load:
    case Format::Store:
      out += reg_name(inf.format == Format::Load ? inst.rd : inst.rs2);
      out += ", ";
      append_imm(out, inst.imm);
      out += '(';
      out += reg_name(inst.rs1);
      out += ')';
      break;
  }
}

// Room for the longest valid instruction text ("sltiu s10, s11, -2048")
// and its newline.
constexpr std::size_t kMaxInstructionText = 24;

}  // namespace

std::string Instruction::to_string() const {
  std::string out;
  out.reserve(kMaxInstructionText);
  append_instruction(out, *this);
  return out;
}

std::string BasicBlock::to_string() const {
  std::string out;
  out.reserve(kMaxInstructionText * instructions.size());
  for (const auto& inst : instructions) {
    append_instruction(out, inst);
    out += '\n';
  }
  return out;
}

RvSemantics semantics(const Instruction& inst) {
  RvSemantics s;
  const auto add_read = [&](Reg r) {
    if (r != kZero) s.reads.push_back(r);
  };
  const auto set_write = [&](Reg r) {
    if (r != kZero) s.write = r;  // x0 writes are architecturally discarded
  };
  switch (info(inst.opcode).format) {
    case Format::R:
      add_read(inst.rs1);
      add_read(inst.rs2);
      set_write(inst.rd);
      break;
    case Format::I:
      add_read(inst.rs1);
      set_write(inst.rd);
      break;
    case Format::U:
      set_write(inst.rd);
      break;
    case Format::Load:
      add_read(inst.rs1);
      set_write(inst.rd);
      s.mem_read = true;
      break;
    case Format::Store:
      add_read(inst.rs1);
      add_read(inst.rs2);
      s.mem_write = true;
      break;
  }
  return s;
}

bool is_valid(const Instruction& inst) {
  if (static_cast<std::size_t>(inst.opcode) >= kNumOpcodes) return false;
  switch (info(inst.opcode).format) {
    case Format::R:
      return inst.imm == 0;
    case Format::I: {
      // Shift-immediates use a 6-bit unsigned shamt; the rest a 12-bit
      // signed immediate.
      switch (inst.opcode) {
        case Opcode::SLLI:
        case Opcode::SRLI:
        case Opcode::SRAI:
          return inst.imm >= 0 && inst.imm < 64;
        default:
          return imm_fits(inst.imm, 12);
      }
    }
    case Format::U:
      return inst.imm >= 0 && inst.imm < (std::int64_t{1} << 20);
    case Format::Load:
    case Format::Store:
      return imm_fits(inst.imm, 12);
  }
  return false;
}

bool is_valid(const BasicBlock& block) {
  for (const auto& inst : block.instructions) {
    if (!is_valid(inst)) return false;
  }
  return true;
}

}  // namespace comet::riscv
