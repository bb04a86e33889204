// Embedded per-instruction reciprocal-throughput tables for Haswell and
// Skylake — the stand-in for the uops.info measurements the paper's crude
// interpretable cost model C draws its cost_inst values from (Appendix G).
//
// Values are approximate published reciprocal throughputs (cycles per
// instruction when run back-to-back), keyed by opcode class with
// opcode-specific overrides, and adjusted for memory operands: a load
// bounds the throughput below by the load-port limit, a store by the
// store-port limit. Exact agreement with real hardware is not the goal;
// what matters for the evaluation is a realistic *ordering* (divides are
// expensive, stores cost more than reg-reg moves, Skylake improves FP
// add/div over Haswell).
#pragma once

#include "cost/cost_model.h"
#include "x86/instruction.h"

namespace comet::cost {

/// Timing of one instruction on one microarchitecture.
struct InstTiming {
  double rthroughput = 0.0;  ///< reciprocal throughput (cycles)
  double latency = 0.0;      ///< result-ready latency (cycles)
};

/// Timing of `inst` on `uarch`, given its decoded semantics
/// `sem` == x86::semantics(inst). Accounts for the opcode, operand width,
/// and memory operands. Callers that already hold the decode (the pipeline
/// simulator) call this directly, so each instruction is decoded once.
InstTiming inst_timing(const x86::Instruction& inst, MicroArch uarch,
                       const x86::InstSemantics& sem);

/// Reciprocal throughput (cycles) of one instruction on `uarch`.
double inst_throughput(const x86::Instruction& inst, MicroArch uarch);

/// Instruction latency (cycles, result-ready time) on `uarch`; used by the
/// crude model's RAW dependency cost and kept consistent with the
/// simulators through inst_timing.
double inst_latency(const x86::Instruction& inst, MicroArch uarch);

}  // namespace comet::cost
