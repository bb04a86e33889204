#include "bhive/generator.h"

#include <algorithm>
#include <stdexcept>

namespace comet::bhive {

namespace {

using x86::OpClass;
using x86::Opcode;
using x86::Operand;
using x86::Reg;
using x86::RegClass;
using x86::RegFamily;

struct WeightedOp {
  Opcode op;
  double weight;
};

// Clang-like profile: scalar integer, moves, address computation, the
// occasional multiply/divide/stack operation.
const std::vector<WeightedOp>& clang_pool() {
  static const std::vector<WeightedOp> pool = {
      {Opcode::MOV, 22},   {Opcode::ADD, 12},   {Opcode::SUB, 8},
      {Opcode::LEA, 10},   {Opcode::AND, 4},    {Opcode::OR, 3},
      {Opcode::XOR, 5},    {Opcode::CMP, 4},    {Opcode::TEST, 3},
      {Opcode::MOVZX, 4},  {Opcode::MOVSX, 2},  {Opcode::IMUL, 4},
      {Opcode::SHL, 3},    {Opcode::SHR, 3},    {Opcode::SAR, 1.5},
      {Opcode::INC, 2},    {Opcode::DEC, 2},    {Opcode::NEG, 1},
      {Opcode::PUSH, 2},   {Opcode::POP, 2},    {Opcode::CMOVE, 1.5},
      {Opcode::CMOVNE, 1}, {Opcode::POPCNT, 1}, {Opcode::DIV, 1.2},
      {Opcode::NOP, 0.5},  {Opcode::BSWAP, 0.5},
  };
  return pool;
}

// OpenBLAS-like profile: vector/scalar FP kernels with FMA and tight
// dependency chains, plus a little integer address arithmetic.
const std::vector<WeightedOp>& openblas_pool() {
  static const std::vector<WeightedOp> pool = {
      {Opcode::VMULSS, 8},      {Opcode::VADDSS, 8},
      {Opcode::VFMADD231SS, 6}, {Opcode::VFMADD231PS, 6},
      {Opcode::VMULPS, 6},      {Opcode::VADDPS, 6},
      {Opcode::MULSS, 4},       {Opcode::ADDSS, 4},
      {Opcode::MULSD, 3},       {Opcode::ADDSD, 3},
      {Opcode::MOVSS, 5},       {Opcode::MOVAPS, 4},
      {Opcode::VMOVUPS, 4},     {Opcode::VMOVAPS, 3},
      {Opcode::VXORPS, 2},      {Opcode::XORPS, 1.5},
      {Opcode::VDIVSS, 1.5},    {Opcode::DIVSD, 1},
      {Opcode::SQRTSS, 0.8},    {Opcode::UNPCKLPS, 1},
      {Opcode::SHUFPS, 1},      {Opcode::PADDD, 1.5},
      {Opcode::PMULLD, 1},      {Opcode::ADD, 5},
      {Opcode::LEA, 4},         {Opcode::MOV, 6},
      {Opcode::CVTSI2SS, 1},    {Opcode::CVTTSS2SI, 1},
  };
  return pool;
}

Opcode pick_weighted(const std::vector<WeightedOp>& pool, util::Rng& rng) {
  double total = 0;
  for (const auto& w : pool) total += w.weight;
  double roll = rng.uniform(0, total);
  for (const auto& w : pool) {
    roll -= w.weight;
    if (roll <= 0) return w.op;
  }
  return pool.back().op;
}

RegFamily pick_family(const std::vector<RegFamily>& live,
                      const std::vector<RegFamily>& pool, double p_reuse,
                      util::Rng& rng) {
  if (!live.empty() && rng.bernoulli(p_reuse)) return rng.pick(live);
  return rng.pick(pool);
}

}  // namespace

std::string source_name(BlockSource source) {
  switch (source) {
    case BlockSource::Clang: return "Clang";
    case BlockSource::OpenBLAS: return "OpenBLAS";
  }
  return "?";
}

std::string category_name(BlockCategory category) {
  switch (category) {
    case BlockCategory::Load: return "Load";
    case BlockCategory::Store: return "Store";
    case BlockCategory::LoadStore: return "Load/Store";
    case BlockCategory::Scalar: return "Scalar";
    case BlockCategory::Vector: return "Vector";
    case BlockCategory::ScalarVector: return "Scalar/Vector";
  }
  return "?";
}

BlockCategory classify(const x86::BasicBlock& block) {
  bool load = false, store = false, scalar = false, vec = false;
  for (const auto& inst : block.instructions) {
    const auto sem = x86::semantics(inst);
    load |= sem.loads();
    store |= sem.stores();
    bool inst_vec = false;
    for (const auto& op : inst.operands) {
      if (op.is_reg() && x86::reg_class(op.as_reg()) == RegClass::Vec) {
        inst_vec = true;
      }
    }
    vec |= inst_vec;
    scalar |= !inst_vec && x86::info(inst.opcode).cls != OpClass::Nop;
  }
  if (load && store) return BlockCategory::LoadStore;
  if (load) return BlockCategory::Load;
  if (store) return BlockCategory::Store;
  if (vec && scalar) return BlockCategory::ScalarVector;
  if (vec) return BlockCategory::Vector;
  return BlockCategory::Scalar;
}

BlockGenerator::BlockGenerator(GeneratorOptions options)
    : options_(options) {}

x86::Instruction BlockGenerator::generate_instruction(
    util::Rng& rng, std::vector<RegFamily>& live_gpr,
    std::vector<RegFamily>& live_vec,
    std::vector<x86::MemOperand>& recent_mem, bool allow_mem) const {
  const auto& pool = options_.source == BlockSource::Clang ? clang_pool()
                                                           : openblas_pool();
  for (int attempt = 0; attempt < 64; ++attempt) {
    const Opcode op = pick_weighted(pool, rng);
    const auto& inf = x86::info(op);

    // Choose a signature: prefer register forms; take a memory form with
    // probability p_mem when allowed.
    std::vector<const x86::Signature*> reg_sigs, mem_sigs;
    for (const auto& s : inf.signatures) {
      bool has_mem = false;
      for (const auto& slot : s.slots) {
        if (slot.kinds == x86::kKindMem) has_mem = true;
      }
      (has_mem ? mem_sigs : reg_sigs).push_back(&s);
    }
    const x86::Signature* sig = nullptr;
    const bool want_mem =
        allow_mem && !mem_sigs.empty() && rng.bernoulli(options_.p_mem);
    if (want_mem) {
      sig = mem_sigs[rng.index(mem_sigs.size())];
    } else if (!reg_sigs.empty()) {
      sig = reg_sigs[rng.index(reg_sigs.size())];
    } else if (allow_mem && !mem_sigs.empty()) {
      sig = mem_sigs[rng.index(mem_sigs.size())];
    } else {
      continue;  // opcode only has memory forms and memory is disallowed
    }

    // Common width for same_width signatures: prefer 64/32 for GPR forms.
    std::uint16_t width = rng.bernoulli(0.6) ? 64 : 32;

    x86::Instruction inst;
    inst.opcode = op;
    bool failed = false;
    for (const auto& slot : sig->slots) {
      if (slot.kinds & x86::kKindImm && !(slot.kinds & x86::kKindReg) &&
          !(slot.kinds & x86::kKindMem)) {
        inst.operands.push_back(Operand::imm(rng.range(1, 63)));
        continue;
      }
      const bool use_mem =
          (slot.kinds & x86::kKindMem) &&
          (!(slot.kinds & x86::kKindReg) || (want_mem && allow_mem));
      if (use_mem) {
        x86::MemOperand m;
        // Real code frequently re-touches the same address (spill/reload,
        // store-forwarding); reuse a recent address expression sometimes.
        if (!recent_mem.empty() && rng.bernoulli(0.35)) {
          m = rng.pick(recent_mem);
        } else {
          m.base = Reg{pick_family(live_gpr, x86::substitutable_gpr_families(),
                                   options_.p_reuse, rng),
                       64, false};
          m.disp = 8 * rng.range(0, 24);
        }
        // Memory width: intersect the slot's size mask with the common
        // width; otherwise take the largest allowed size.
        if (slot.sizes & x86::size_bit(width)) {
          m.size_bits = width;
        } else {
          for (std::uint16_t bits : {256, 128, 64, 32, 16, 8}) {
            if (slot.sizes & x86::size_bit(bits)) {
              m.size_bits = bits;
              break;
            }
          }
        }
        inst.operands.push_back(Operand::mem(m));
        if (recent_mem.size() < 4) recent_mem.push_back(m);
        continue;
      }
      // Register slot. Write-only destinations favour fresh registers
      // (compiler output rarely clobbers a live register), which keeps the
      // dependency structure RAW-dominant like real code; read and
      // read-modify-write slots favour recently written registers to form
      // chains.
      const bool write_only =
          (slot.access & x86::kWrite) && !(slot.access & x86::kRead);
      const double reuse_p = write_only ? 0.12 : options_.p_reuse;
      if (slot.reg_cls == RegClass::Vec) {
        std::uint16_t vw = (slot.sizes & x86::size_bit(128)) ? 128 : 256;
        const RegFamily fam = slot.fixed_family
                                  ? *slot.fixed_family
                                  : pick_family(live_vec, x86::vec_families(),
                                                reuse_p, rng);
        inst.operands.push_back(Operand::reg(Reg{fam, vw, false}));
      } else {
        std::uint16_t w = width;
        if (!(slot.sizes & x86::size_bit(w))) {
          for (std::uint16_t bits : {64, 32, 16, 8}) {
            if (slot.sizes & x86::size_bit(bits)) {
              w = bits;
              break;
            }
          }
        }
        if (sig->src_smaller && inst.operands.size() == 1) {
          // Source of movzx/movsx must be narrower than the destination.
          const auto dst_w = inst.operands[0].size_bits();
          w = dst_w > 16 ? 8 : 8;
          if (!(slot.sizes & x86::size_bit(w))) w = 16;
          if (w >= dst_w) {
            failed = true;
            break;
          }
        }
        const RegFamily fam =
            slot.fixed_family
                ? *slot.fixed_family
                : pick_family(live_gpr, x86::substitutable_gpr_families(),
                              reuse_p, rng);
        inst.operands.push_back(Operand::reg(Reg{fam, w, false}));
      }
    }
    if (failed || !x86::is_valid(inst)) continue;

    // Track explicit destination operands for dependency-chain reuse.
    // Implicit writes (div/mul clobbering rax/rdx) are excluded: compiler
    // output does not typically address memory off a fresh quotient, and
    // including them skews blocks toward pathological implicit-dependency
    // structures.
    const x86::Signature* isig = x86::find_signature(op, inst.operands);
    for (std::size_t sl = 0; isig != nullptr && sl < inst.operands.size();
         ++sl) {
      if (!(isig->slots[sl].access & x86::kWrite)) continue;
      const auto& opnd = inst.operands[sl];
      if (!opnd.is_reg()) continue;
      const auto fam = opnd.as_reg().family;
      if (x86::is_stack_family(fam)) continue;
      auto& live = x86::reg_class(opnd.as_reg()) == RegClass::Vec ? live_vec
                                                                  : live_gpr;
      if (std::find(live.begin(), live.end(), fam) == live.end()) {
        live.push_back(fam);
        if (live.size() > 4) live.erase(live.begin());
      }
    }
    return inst;
  }
  // Fallback: an unconditionally valid instruction.
  x86::Instruction inst;
  inst.opcode = Opcode::MOV;
  inst.operands = {Operand::reg(Reg{RegFamily::RAX, 64, false}),
                   Operand::imm(1)};
  return inst;
}

x86::BasicBlock BlockGenerator::generate(util::Rng& rng) const {
  const std::size_t n = static_cast<std::size_t>(
      rng.range(static_cast<std::int64_t>(options_.min_insts),
                static_cast<std::int64_t>(options_.max_insts)));
  x86::BasicBlock block;
  std::vector<RegFamily> live_gpr, live_vec;
  std::vector<x86::MemOperand> recent_mem;
  const bool allow_mem = rng.bernoulli(0.75);
  for (std::size_t i = 0; i < n; ++i) {
    block.instructions.push_back(
        generate_instruction(rng, live_gpr, live_vec, recent_mem, allow_mem));
  }
  return block;
}

}  // namespace comet::bhive
