#include "perturb/perturber.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace comet::perturb {

namespace {

using graph::DepEdge;
using graph::DepFeature;
using graph::DepKind;
using graph::DepResource;
using graph::Feature;
using graph::FeatureSet;
using x86::BasicBlock;
using x86::Instruction;
using x86::Operand;
using x86::Reg;
using x86::RegClass;
using x86::RegFamily;

/// A set of register families: bit i stands for RegFamily i.
using FamilyMask = std::uint64_t;
static_assert(static_cast<unsigned>(RegFamily::kCount) <= 64);

constexpr FamilyMask family_bit(RegFamily f) {
  return FamilyMask{1} << static_cast<unsigned>(f);
}

/// Families named by the explicit operands of `inst`: register operands and
/// the base/index registers of memory operands.
FamilyMask operand_families(const Instruction& inst) {
  FamilyMask m = 0;
  for (const auto& op : inst.operands) {
    if (op.is_reg()) {
      m |= family_bit(op.as_reg().family);
    } else if (op.is_mem()) {
      const auto& mem = op.as_mem();
      if (mem.base) m |= family_bit(mem.base->family);
      if (mem.index) m |= family_bit(mem.index->family);
    }
  }
  return m;
}

/// Every family `inst` touches: explicit operands, address registers and
/// implicit accesses (div/mul rax/rdx, push/pop rsp, shift counts).
FamilyMask touched_families(const Instruction& inst) {
  FamilyMask m = 0;
  for (const auto& a : x86::semantics(inst).regs) {
    m |= family_bit(a.reg.family);
  }
  return m;
}

/// A reference to one register occurrence inside an instruction: either a
/// plain register operand, or the base/index of a memory operand.
struct RegOccurrence {
  std::size_t operand_index;
  enum class Slot : std::uint8_t { Direct, MemBase, MemIndex } slot;
};

std::vector<RegOccurrence> occurrences_of(const Instruction& inst,
                                          RegFamily family) {
  std::vector<RegOccurrence> out;
  for (std::size_t i = 0; i < inst.operands.size(); ++i) {
    const auto& op = inst.operands[i];
    if (op.is_reg() && op.as_reg().family == family) {
      out.push_back({i, RegOccurrence::Slot::Direct});
    } else if (op.is_mem()) {
      const auto& m = op.as_mem();
      if (m.base && m.base->family == family) {
        out.push_back({i, RegOccurrence::Slot::MemBase});
      }
      if (m.index && m.index->family == family) {
        out.push_back({i, RegOccurrence::Slot::MemIndex});
      }
    }
  }
  return out;
}

void rename_occurrence(Instruction& inst, const RegOccurrence& occ,
                       RegFamily to) {
  auto& op = inst.operands[occ.operand_index];
  switch (occ.slot) {
    case RegOccurrence::Slot::Direct: {
      auto& r = op.as_reg();
      r.family = to;
      // high8 registers only exist in the first four families.
      if (r.high8 && !x86::reg_exists(to, 8, true)) r.high8 = false;
      break;
    }
    case RegOccurrence::Slot::MemBase:
      op.as_mem().base->family = to;
      break;
    case RegOccurrence::Slot::MemIndex:
      op.as_mem().index->family = to;
      break;
  }
}

/// Per-sample bookkeeping of what must not be touched.
struct Pins {
  std::vector<bool> opcode_pinned;      // per instruction
  std::vector<bool> delete_forbidden;   // per instruction
  /// Families whose occurrences are pinned, per instruction.
  std::vector<FamilyMask> pinned_families;
  /// Memory operand identity pinned (explicit mem operand must stay put).
  std::vector<bool> mem_pinned;
  /// Families carrying any preserved edge anywhere (excluded as rename
  /// targets so dependency rerouting cannot destroy a preserved edge).
  FamilyMask globally_reserved = 0;
  bool preserve_count = false;

  explicit Pins(std::size_t n)
      : opcode_pinned(n, false),
        delete_forbidden(n, false),
        pinned_families(n, 0),
        mem_pinned(n, false) {}
};

}  // namespace

std::size_t PerturbedBlock::position_of(std::size_t orig) const {
  for (std::size_t k = 0; k < orig_index.size(); ++k) {
    if (orig_index[k] == orig) return k;
  }
  return npos;
}

Perturber::Perturber(x86::BasicBlock block,
                     graph::DepGraphOptions graph_options,
                     PerturbConfig config)
    : block_(std::move(block)),
      graph_options_(graph_options),
      config_(config),
      graph_(graph::DepGraph::build(block_, graph_options_)) {
  replacements_.reserve(block_.size());
  for (const auto& inst : block_.instructions) {
    replacements_.push_back(
        x86::replacement_opcodes(inst.opcode, inst.operands));
  }
}

PerturbedBlock Perturber::sample(const FeatureSet& preserve,
                                 util::Rng& rng) const {
  const std::size_t n = block_.size();
  Pins pins(n);

  // 1. Decode the preserved feature set into pins.
  std::vector<DepEdge> preserved_edges;
  for (const Feature& f : preserve.items()) {
    switch (f.type()) {
      case graph::FeatureType::Inst: {
        const auto& fi = f.as_inst();
        if (fi.index < n) {
          pins.opcode_pinned[fi.index] = true;
          pins.delete_forbidden[fi.index] = true;
        }
        break;
      }
      case graph::FeatureType::NumInsts:
        pins.preserve_count = true;
        break;
      case graph::FeatureType::Dep: {
        const auto& fd = f.as_dep();
        for (const DepEdge& e : graph_.edges()) {
          if (e.from == fd.from && e.to == fd.to && e.kind == fd.kind) {
            preserved_edges.push_back(e);
          }
        }
        break;
      }
    }
  }

  // 2. Explicit voluntary retention of other dependencies (Appendix E.3):
  //    each non-preserved edge is pinned outright with a small probability,
  //    producing perturbations close to the original block.
  std::vector<const DepEdge*> free_edges;
  for (const DepEdge& e : graph_.edges()) {
    const bool already =
        std::find_if(preserved_edges.begin(), preserved_edges.end(),
                     [&](const DepEdge& p) {
                       return p.from == e.from && p.to == e.to &&
                              p.kind == e.kind && p.resource == e.resource &&
                              p.family == e.family;
                     }) != preserved_edges.end();
    if (already) continue;
    if (rng.bernoulli(config_.p_explicit_dep_retain)) {
      preserved_edges.push_back(e);
    } else {
      free_edges.push_back(&e);
    }
  }

  // 3. Apply pins implied by preserved edges.
  for (const DepEdge& e : preserved_edges) {
    pins.opcode_pinned[e.from] = true;
    pins.opcode_pinned[e.to] = true;
    pins.delete_forbidden[e.from] = true;
    pins.delete_forbidden[e.to] = true;
    if (e.resource == DepResource::Register) {
      pins.pinned_families[e.from] |= family_bit(e.family);
      pins.pinned_families[e.to] |= family_bit(e.family);
      pins.globally_reserved |= family_bit(e.family);
    } else if (e.resource == DepResource::Memory) {
      pins.mem_pinned[e.from] = true;
      pins.mem_pinned[e.to] = true;
    }
  }

  // Families whose access pattern must not change at a given position: an
  // instruction sitting between the endpoints of a preserved register
  // dependency would reroute that edge under nearest-writer chaining if a
  // replacement opcode changed how the carrying family is accessed there —
  // implicitly (a 1-operand div clobbering rax) or explicitly (cmp -> cmov
  // turning a read of the destination into a write).
  std::vector<FamilyMask> sensitive(n, 0);
  for (const DepEdge& e : preserved_edges) {
    if (e.resource != DepResource::Register) continue;
    for (std::size_t v = e.from + 1; v < e.to; ++v) {
      sensitive[v] |= family_bit(e.family);
    }
  }

  // Working copy.
  std::vector<Instruction> insts = block_.instructions;
  std::vector<bool> deleted(n, false);

  // 4. Vertex perturbation: opcode replacement or deletion.
  for (std::size_t v = 0; v < n; ++v) {
    if (pins.opcode_pinned[v]) continue;
    if (rng.bernoulli(config_.p_inst_retain)) continue;
    const bool can_delete = !pins.preserve_count && !pins.delete_forbidden[v];
    const bool try_delete = can_delete && rng.bernoulli(config_.p_delete);
    if (try_delete) {
      deleted[v] = true;
      continue;
    }
    const auto& cands = replacements_[v];
    if (cands.empty()) continue;  // e.g. lea: forced retention (Appendix D)
    const auto reroute_conflict = [&](x86::Opcode cand) {
      if (sensitive[v] == 0) return false;
      // Operands referencing a sensitive family: any access-pattern change
      // could reroute the preserved edge, so force retention.
      if ((operand_families(insts[v]) & sensitive[v]) != 0) return true;
      const x86::Signature* sig =
          x86::find_signature(cand, insts[v].operands);
      if (sig == nullptr) return true;  // defensive: reject
      for (const auto& imp : sig->implicit) {
        if ((sensitive[v] & family_bit(imp.family)) != 0) return true;
      }
      return false;
    };
    x86::Opcode chosen = rng.pick(cands);
    for (int attempt = 0; attempt < 4 && reroute_conflict(chosen);
         ++attempt) {
      chosen = rng.pick(cands);
    }
    if (reroute_conflict(chosen)) continue;  // forced retention
    insts[v].opcode = chosen;
    if (config_.whole_instruction_replacement) {
      // Ablation: also re-randomize unpinned register operands.
      for (auto& op : insts[v].operands) {
        if (!op.is_reg()) continue;
        auto& r = op.as_reg();
        if ((pins.pinned_families[v] & family_bit(r.family)) != 0) continue;
        const auto& pool = reg_class(r) == RegClass::Vec
                               ? x86::vec_families()
                               : x86::substitutable_gpr_families();
        Instruction backup = insts[v];
        r.family = rng.pick(pool);
        if (r.high8 && !x86::reg_exists(r.family, 8, true)) r.high8 = false;
        if (!x86::is_valid(insts[v])) insts[v] = backup;
      }
    }
  }

  // 5. Edge perturbation: break non-retained hazards via operand renaming.
  //    `touched[v]` holds the families live instruction v touches. It is
  //    decoded once, on the first register edge, and refreshed only for an
  //    instruction a rename has changed.
  std::vector<FamilyMask> touched;
  for (const DepEdge* ep : free_edges) {
    const DepEdge& e = *ep;
    if (deleted[e.from] || deleted[e.to]) continue;  // already gone
    if (rng.bernoulli(config_.p_dep_retain)) continue;

    if (e.resource == DepResource::Memory) {
      // Shift the displacement of one endpoint's memory operand: breaks
      // syntactic address identity without touching register hazards.
      const std::size_t side = rng.bernoulli(0.5) ? e.from : e.to;
      const std::size_t other = side == e.from ? e.to : e.from;
      const auto try_shift = [&](std::size_t idx) {
        if (pins.mem_pinned[idx]) return false;
        for (auto& op : insts[idx].operands) {
          if (!op.is_mem()) continue;
          op.as_mem().disp += 8 * rng.range(1, 16);
          return true;
        }
        return false;
      };
      if (!try_shift(side)) try_shift(other);
      continue;
    }
    if (e.resource != DepResource::Register) continue;  // flags: unbreakable

    // Pick a rename target family: same class, not the carrying family,
    // not reserved by any preserved edge. Prefer families the block does not
    // touch at all, so that breaking one dependency does not accidentally
    // create a new one (which would distort the cost of unrelated feature
    // sets and bias precision estimates).
    if (touched.empty()) {
      touched.assign(n, 0);
      for (std::size_t v = 0; v < n; ++v) {
        if (!deleted[v]) touched[v] = touched_families(insts[v]);
      }
    }
    FamilyMask used = 0;
    for (std::size_t v = 0; v < n; ++v) used |= touched[v];
    const RegClass cls = x86::reg_class(e.family);
    std::vector<RegFamily> pool, fresh;
    const auto& base_pool = cls == RegClass::Vec
                                ? x86::vec_families()
                                : x86::substitutable_gpr_families();
    for (RegFamily f : base_pool) {
      const FamilyMask b = family_bit(f);
      if (f == e.family || (pins.globally_reserved & b) != 0) continue;
      pool.push_back(f);
      if ((used & b) == 0) fresh.push_back(f);
    }
    if (config_.prefer_fresh_rename && !fresh.empty()) pool = std::move(fresh);
    if (pool.empty()) continue;

    // Prefer renaming the consumer's occurrences; fall back to the producer.
    const auto try_rename = [&](std::size_t idx) {
      if ((pins.pinned_families[idx] & family_bit(e.family)) != 0) {
        return false;
      }
      const auto occs = occurrences_of(insts[idx], e.family);
      if (occs.empty()) return false;  // implicit operand: cannot rename
      const Instruction backup = insts[idx];
      const RegFamily target = rng.pick(pool);
      for (const auto& occ : occs) rename_occurrence(insts[idx], occ, target);
      if (!x86::is_valid(insts[idx])) {
        insts[idx] = backup;  // e.g. shift count must stay cl
        return false;
      }
      touched[idx] = touched_families(insts[idx]);
      return true;
    };
    if (!try_rename(e.to)) try_rename(e.from);
  }

  // 6. Materialize the perturbed block with the original-position mapping.
  PerturbedBlock out;
  for (std::size_t v = 0; v < n; ++v) {
    if (deleted[v]) continue;
    out.block.instructions.push_back(std::move(insts[v]));
    out.orig_index.push_back(v);
  }
  return out;
}

bool Perturber::contains(const PerturbedBlock& pb,
                         const FeatureSet& fs) const {
  std::optional<graph::DepGraph> pg;  // built lazily
  for (const Feature& f : fs.items()) {
    switch (f.type()) {
      case graph::FeatureType::NumInsts:
        if (pb.block.size() != f.as_num_insts().count) return false;
        break;
      case graph::FeatureType::Inst: {
        const auto& fi = f.as_inst();
        const auto pos = pb.position_of(fi.index);
        if (pos == PerturbedBlock::npos) return false;
        if (pb.block.instructions[pos].opcode != fi.opcode) return false;
        break;
      }
      case graph::FeatureType::Dep: {
        const auto& fd = f.as_dep();
        const auto pf = pb.position_of(fd.from);
        const auto pt = pb.position_of(fd.to);
        if (pf == PerturbedBlock::npos || pt == PerturbedBlock::npos) {
          return false;
        }
        if (!pg) pg = graph::DepGraph::build(pb.block, graph_options_);
        if (!pg->has_edge(pf, pt, fd.kind)) return false;
        break;
      }
    }
  }
  return true;
}

double Perturber::log10_space_size(const FeatureSet& preserve) const {
  const std::size_t n = block_.size();
  Pins pins(n);
  std::vector<DepEdge> preserved_edges;
  for (const Feature& f : preserve.items()) {
    switch (f.type()) {
      case graph::FeatureType::Inst: {
        const auto& fi = f.as_inst();
        if (fi.index < n) {
          pins.opcode_pinned[fi.index] = true;
          pins.delete_forbidden[fi.index] = true;
        }
        break;
      }
      case graph::FeatureType::NumInsts:
        pins.preserve_count = true;
        break;
      case graph::FeatureType::Dep: {
        const auto& fd = f.as_dep();
        for (const DepEdge& e : graph_.edges()) {
          if (e.from == fd.from && e.to == fd.to && e.kind == fd.kind) {
            pins.opcode_pinned[e.from] = true;
            pins.opcode_pinned[e.to] = true;
            pins.delete_forbidden[e.from] = true;
            pins.delete_forbidden[e.to] = true;
            if (e.resource == DepResource::Register) {
              pins.pinned_families[e.from] |= family_bit(e.family);
              pins.pinned_families[e.to] |= family_bit(e.family);
            }
          }
        }
        break;
      }
    }
  }

  double log10_total = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    // Opcode choices: retain + each replacement (+ delete).
    double opcode_choices = 1.0;
    if (!pins.opcode_pinned[v]) {
      opcode_choices += static_cast<double>(replacements_[v].size());
      if (!pins.preserve_count && !pins.delete_forbidden[v]) {
        opcode_choices += 1.0;
      }
    }
    log10_total += std::log10(opcode_choices);

    // Operand choices: every renameable register occurrence can take any
    // family of its class; memory displacements contribute a word-aligned
    // neighborhood factor.
    const auto& inst = block_.instructions[v];
    for (const auto& op : inst.operands) {
      const auto count_family = [&](RegFamily fam, RegClass cls) {
        if ((pins.pinned_families[v] & family_bit(fam)) != 0) return;
        const std::size_t pool = cls == RegClass::Vec
                                     ? x86::vec_families().size()
                                     : x86::substitutable_gpr_families().size();
        log10_total += std::log10(static_cast<double>(pool));
      };
      if (op.is_reg()) {
        const auto& r = op.as_reg();
        count_family(r.family, x86::reg_class(r));
      } else if (op.is_mem()) {
        const auto& m = op.as_mem();
        if (m.base) count_family(m.base->family, RegClass::Gpr);
        if (m.index) count_family(m.index->family, RegClass::Gpr);
        log10_total += std::log10(16.0);  // displacement neighborhood
      }
    }
  }
  return log10_total;
}

}  // namespace comet::perturb
