// The perturbation algorithm Γ mapped onto RISC-V (paper Section 7).
//
// Same independence structure as the x86 Γ (Algorithm 1): vertices perturb
// opcodes only (replacement within the encoding format, or deletion when η
// need not be preserved), edges perturb registers only (a hazard is broken
// by renaming its carrying occurrence to a register unused in the block),
// and the opcodes plus carrying registers of every preserved dependency are
// pinned.
//
// Instance-specific challenges, as the paper predicts, and how they land
// here:
//   * x0 is hardwired zero: it never carries a dependency, is never chosen
//     as a rename target for a destination, and writing to it is legal but
//     dead — the dependency graph (not the syntax) is what Γ must respect.
//   * sp-relative loads/stores share a base register by convention, so
//     memory hazards are broken by shifting the 12-bit offset rather than
//     renaming the base (renaming sp would perturb every other stack access
//     — a dependence between edge perturbations Γ must avoid).
#pragma once

#include <cstdint>
#include <vector>

#include "riscv/graph.h"
#include "util/rng.h"

namespace comet::riscv {

struct RvPerturbConfig {
  double p_inst_retain = 0.5;
  double p_dep_retain = 0.5;
  double p_delete = 0.33;
};

struct RvPerturbedBlock {
  BasicBlock block;
  std::vector<std::size_t> orig_index;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t position_of(std::size_t orig) const;
};

class RvPerturber {
 public:
  explicit RvPerturber(BasicBlock block, DepGraphOptions graph_options = {},
                       RvPerturbConfig config = {});

  const BasicBlock& block() const { return block_; }
  const DepGraph& dep_graph() const { return graph_; }

  /// Sample β' ~ D_F retaining every feature in `preserve`.
  RvPerturbedBlock sample(const RvFeatureSet& preserve, util::Rng& rng) const;

  /// Does the perturbed block still contain every feature in `fs`?
  bool contains(const RvPerturbedBlock& pb, const RvFeatureSet& fs) const;

  /// log10 estimate of |Π̂(F)| (Appendix F analogue).
  double log10_space_size(const RvFeatureSet& preserve) const;

 private:
  BasicBlock block_;
  DepGraphOptions graph_options_;
  RvPerturbConfig config_;
  DepGraph graph_;
  // Constants of the target block that sample() reads instead of
  // recomputing: each instruction's is_valid opcode replacements, the
  // registers the block names (bit r = register r), and for each edge of
  // graph_ the id of its (from, to, kind) group.
  std::vector<std::vector<Opcode>> replacements_;
  std::uint32_t used_regs_ = 0;
  std::vector<std::size_t> edge_group_;
  std::size_t num_groups_ = 0;
};

}  // namespace comet::riscv
