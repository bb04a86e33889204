#include "riscv/perturb.h"

#include <bit>
#include <cmath>
#include <optional>
#include <set>
#include <utility>

namespace comet::riscv {

std::size_t RvPerturbedBlock::position_of(std::size_t orig) const {
  for (std::size_t i = 0; i < orig_index.size(); ++i) {
    if (orig_index[i] == orig) return i;
  }
  return npos;
}

RvPerturber::RvPerturber(BasicBlock block, DepGraphOptions graph_options,
                         RvPerturbConfig config)
    : block_(std::move(block)),
      graph_options_(graph_options),
      config_(config),
      graph_(DepGraph::build(block_, graph_options)) {
  // Format equality is necessary but not sufficient: shift-immediates
  // (slli/srli/srai) take a 6-bit shamt while the other I-type opcodes
  // take a signed 12-bit immediate, so a candidate must also keep the
  // concrete instruction valid — one of the "instance-specific challenges"
  // Section 7 anticipates for new ISAs.
  replacements_.resize(block_.size());
  for (std::size_t i = 0; i < block_.size(); ++i) {
    const Instruction& inst = block_.instructions[i];
    for (const Opcode cand : replacement_opcodes(inst.opcode)) {
      Instruction probe = inst;
      probe.opcode = cand;
      if (is_valid(probe)) replacements_[i].push_back(cand);
    }
    used_regs_ |= (std::uint32_t{1} << inst.rd.index) |
                  (std::uint32_t{1} << inst.rs1.index) |
                  (std::uint32_t{1} << inst.rs2.index);
  }
  const auto& edges = graph_.edges();
  edge_group_.resize(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    edge_group_[k] = num_groups_;
    for (std::size_t m = 0; m < k; ++m) {
      if (edges[m].from == edges[k].from && edges[m].to == edges[k].to &&
          edges[m].kind == edges[k].kind) {
        edge_group_[k] = edge_group_[m];
        break;
      }
    }
    if (edge_group_[k] == num_groups_) ++num_groups_;
  }
}

namespace {

// A register the block does not name yet (`used`, bit r = register r),
// uniform over the free ones in ascending order, x0 excluded; t0 when none
// is free (pathological blocks).
Reg fresh_reg(std::uint32_t used, util::Rng& rng) {
  std::uint32_t pool = ~used & ~std::uint32_t{1};
  const int n_free = std::popcount(pool);
  if (n_free == 0) return Reg{5};
  for (std::size_t k = rng.index(static_cast<std::size_t>(n_free)); k > 0;
       --k) {
    pool &= pool - 1;  // drop the lowest free register
  }
  return Reg{static_cast<std::uint8_t>(std::countr_zero(pool))};
}

}  // namespace

RvPerturbedBlock RvPerturber::sample(const RvFeatureSet& preserve,
                                     util::Rng& rng) const {
  const std::size_t n = block_.size();
  const auto& edges = graph_.edges();

  // Per-instruction pins. Register occurrences are pinned by role, one
  // register mask for reads and one for writes: the role distinguishes the
  // read and write occurrences of the same register within one instruction
  // (e.g. `add a3, a3, a4`), so preserving a WAW hazard pins only the write
  // slots and leaves a coincident RAW's read slot free to rename —
  // otherwise every same-pair hazard would become an inseparable proxy for
  // the others.
  struct InstState {
    bool opcode_pinned = false;
    bool vertex_pinned = false;  // may not be deleted
    bool deleted = false;
    std::uint32_t read_pinned = 0;
    std::uint32_t write_pinned = 0;
  };
  std::vector<InstState> st(n);
  // Per (from, to, kind) group: preserved hazards are off-limits to the
  // edge-perturbation pass (only same-kind edges of a pair), and a broken
  // one is broken once.
  enum : std::uint8_t { kFree, kPreserved, kBroken };
  std::vector<std::uint8_t> group(num_groups_, kFree);
  bool preserve_eta = false;

  for (const auto& f : preserve.items()) {
    if (f.is_num_insts()) {
      preserve_eta = true;
    } else if (f.is_inst()) {
      st[f.as_inst().index].opcode_pinned = true;
      st[f.as_inst().index].vertex_pinned = true;
    } else {
      const auto& d = f.as_dep();
      // Pin the endpoints' opcodes and the hazard-carrying occurrences —
      // mirroring the x86 Γ.
      st[d.from].opcode_pinned = st[d.to].opcode_pinned = true;
      st[d.from].vertex_pinned = st[d.to].vertex_pinned = true;
      for (std::size_t k = 0; k < edges.size(); ++k) {
        const auto& e = edges[k];
        if (e.from != d.from || e.to != d.to || e.kind != d.kind) continue;
        group[edge_group_[k]] = kPreserved;
        if (e.memory) continue;
        const std::uint32_t bit = std::uint32_t{1} << e.reg.index;
        switch (e.kind) {
          case DepKind::RAW:
            st[e.from].write_pinned |= bit;
            st[e.to].read_pinned |= bit;
            break;
          case DepKind::WAR:
            st[e.from].read_pinned |= bit;
            st[e.to].write_pinned |= bit;
            break;
          case DepKind::WAW:
            st[e.from].write_pinned |= bit;
            st[e.to].write_pinned |= bit;
            break;
        }
      }
    }
  }

  RvPerturbedBlock pb;
  pb.block = block_;
  auto& out = pb.block.instructions;

  // --- vertex perturbation: opcode replacement or deletion ---
  for (std::size_t i = 0; i < n; ++i) {
    if (st[i].opcode_pinned) continue;
    if (rng.uniform() < config_.p_inst_retain) continue;
    const bool can_delete = !preserve_eta && !st[i].vertex_pinned;
    if (can_delete && rng.uniform() < config_.p_delete) {
      st[i].deleted = true;
      continue;
    }
    const auto& valid = replacements_[i];
    if (valid.empty()) continue;  // retained (Appendix D)
    out[i].opcode = valid[rng.index(valid.size())];
  }

  // --- edge perturbation: break unpreserved register hazards by renaming
  //     to a register unused in the block, memory hazards by shifting the
  //     offset ---
  std::uint32_t used = used_regs_;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto& e = edges[k];
    std::uint8_t& state = group[edge_group_[k]];
    if (state != kFree) continue;  // preserved, or already broken
    if (st[e.from].deleted || st[e.to].deleted) continue;  // edge already gone
    if (rng.uniform() < config_.p_dep_retain) continue;

    auto& inst = out[e.to];
    if (e.memory) {
      // Shift the consumer's offset; keeps the 12-bit range by wrapping.
      const std::int64_t shifted = inst.imm + 8;
      inst.imm = shifted <= 2047 ? shifted : inst.imm - 8;
      state = kBroken;
      continue;
    }

    // Register hazard: rename the consumer-side occurrence to a fresh
    // register (RAW renames the read; WAR/WAW rename the write).
    const std::uint8_t r = e.reg.index;
    const std::uint32_t pinned = e.kind == DepKind::RAW
                                     ? st[e.to].read_pinned
                                     : st[e.to].write_pinned;
    if ((pinned >> r) & 1u) continue;  // retained (App. D)
    const Reg fresh = fresh_reg(used, rng);
    used |= std::uint32_t{1} << fresh.index;
    switch (e.kind) {
      case DepKind::RAW:
        if (inst.rs1.index == r) inst.rs1 = fresh;
        if (inst.rs2.index == r) inst.rs2 = fresh;
        break;
      case DepKind::WAR:
      case DepKind::WAW:
        if (inst.rd.index == r) inst.rd = fresh;
        break;
    }
    state = kBroken;
  }

  // Drop deleted instructions in place.
  pb.orig_index.reserve(n);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (st[i].deleted) continue;
    out[kept++] = out[i];
    pb.orig_index.push_back(i);
  }
  out.resize(kept);
  return pb;
}

bool RvPerturber::contains(const RvPerturbedBlock& pb,
                           const RvFeatureSet& fs) const {
  // The perturbed block's dependency graph is built on the first
  // dependency feature only: instruction and η features do not need it.
  std::optional<DepGraph> g;
  for (const auto& f : fs.items()) {
    if (f.is_num_insts()) {
      if (pb.block.size() != f.as_num_insts().count) return false;
    } else if (f.is_inst()) {
      const std::size_t pos = pb.position_of(f.as_inst().index);
      if (pos == RvPerturbedBlock::npos ||
          pb.block.instructions[pos].opcode != f.as_inst().opcode) {
        return false;
      }
    } else {
      const auto& d = f.as_dep();
      const std::size_t from = pb.position_of(d.from);
      const std::size_t to = pb.position_of(d.to);
      if (from == RvPerturbedBlock::npos || to == RvPerturbedBlock::npos) {
        return false;
      }
      if (!g) g = DepGraph::build(pb.block, graph_options_);
      if (!g->has_edge(from, to, d.kind)) return false;
    }
  }
  return true;
}

double RvPerturber::log10_space_size(const RvFeatureSet& preserve) const {
  bool preserve_eta = false;
  std::vector<bool> pinned(block_.size(), false);
  for (const auto& f : preserve.items()) {
    if (f.is_num_insts()) preserve_eta = true;
    if (f.is_inst()) pinned[f.as_inst().index] = true;
    if (f.is_dep()) {
      pinned[f.as_dep().from] = true;
      pinned[f.as_dep().to] = true;
    }
  }
  double log10 = 0.0;
  for (std::size_t i = 0; i < block_.size(); ++i) {
    if (pinned[i]) continue;
    const double choices =
        1.0 + double(replacement_opcodes(block_.instructions[i].opcode).size()) +
        (preserve_eta ? 0.0 : 1.0);
    log10 += std::log10(choices);
  }
  // Each breakable hazard contributes the rename-target pool.
  std::set<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& e : graph_.edges()) {
    if (pinned[e.from] && pinned[e.to]) continue;
    if (pairs.insert({e.from, e.to}).second) log10 += std::log10(20.0);
  }
  return log10;
}

}  // namespace comet::riscv
