#include "sim/pipeline.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "cost/throughput_table.h"

namespace comet::sim {

namespace {

using cost::MicroArch;
using x86::OpClass;
using x86::Opcode;

constexpr int kNumPorts = 8;

// Execution-port mask (bit i = port i) for the compute uop of an opcode
// class, per microarchitecture. Port numbering follows Intel convention:
// 0/1/5/6 integer ALU, 0/1 FP, 2/3 load, 4 store-data, 7 store-address.
std::uint16_t compute_ports(OpClass cls, MicroArch u) {
  const bool skl = u == MicroArch::Skylake;
  switch (cls) {
    case OpClass::Mov:
    case OpClass::IntAlu:
    case OpClass::Stack:
      return 0b01100011;  // p0 p1 p5 p6
    case OpClass::Shift:
      return 0b01000001;  // p0 p6
    case OpClass::Lea:
      return 0b00100010;  // p1 p5
    case OpClass::IntMul:
      return 0b00000010;  // p1
    case OpClass::IntDiv:
      return 0b00000001;  // p0 (divider)
    case OpClass::Nop:
      return 0b01100011;
    case OpClass::FpMov:
      return 0b00100011;  // p0 p1 p5
    case OpClass::FpAdd:
      return skl ? 0b00000011   // SKL: p0 p1
                 : 0b00000010;  // HSW: p1 only
    case OpClass::FpMul:
    case OpClass::FpFma:
      return 0b00000011;  // p0 p1
    case OpClass::FpDiv:
      return 0b00000001;  // p0 (divider)
    case OpClass::VecInt:
      return 0b00100011;  // p0 p1 p5
    case OpClass::VecIntMul:
      return skl ? 0b00000011 : 0b00000001;
    case OpClass::Shuffle:
      return 0b00100000;  // p5
    case OpClass::Convert:
      return 0b00000011;
  }
  return 0b01100011;
}

constexpr std::uint16_t kLoadPorts = 0b00001100;       // p2 p3
constexpr std::uint16_t kStoreDataPorts = 0b00010000;  // p4
constexpr std::uint16_t kStoreAddrPorts = 0b10001100;  // p2 p3 p7

struct PortFile {
  std::array<double, kNumPorts> free_at{};  // next free cycle per port
  int last_port = -1;  ///< port chosen by the most recent dispatch

  /// Dispatch a uop with earliest start `ready` on any port in `mask`,
  /// occupying the chosen port for `occupancy` cycles. Returns start time.
  /// Ties on start time go to the least-loaded (earliest-free) port, so
  /// un-contended uops spread across their port set instead of queueing
  /// behind an arbitrary fixed pick — this is what makes the per-port
  /// pressure numbers in SimTrace meaningful.
  double dispatch(double ready, std::uint16_t mask, double occupancy) {
    int best = -1;
    double best_start = 0.0;
    for (int p = 0; p < kNumPorts; ++p) {
      if (!(mask & (1u << p))) continue;
      const double start = std::max(ready, free_at[p]);
      if (best < 0 || start < best_start ||
          (start == best_start && free_at[p] < free_at[best])) {
        best = p;
        best_start = start;
      }
    }
    last_port = best;
    if (best < 0) return ready;  // no port constraint
    free_at[best] = best_start + occupancy;
    return best_start;
  }
};

// Memory location key: syntactic identity of the address expression.
std::string mem_key(const x86::MemOperand& m) {
  std::string k;
  if (m.base) k += x86::reg_name(*m.base);
  k += '|';
  if (m.index) {
    k += x86::reg_name(*m.index);
    k += '*';
    k += std::to_string(int(m.scale));
  }
  k += '|';
  k += std::to_string(m.disp);
  return k;
}

// Fused-domain uops: one compute uop, one load uop, and a store-address
// plus a store-data uop.
int uops_of(const x86::InstSemantics& sem) {
  return 1 + (sem.loads() ? 1 : 0) + (sem.stores() ? 2 : 0);
}

/// Sentinel slot id: the instruction has no explicit memory access.
constexpr std::size_t kNoMemSlot = static_cast<std::size_t>(-1);

/// Everything the simulation loop needs from one instruction, decoded from
/// a single x86::semantics call before the loop starts.
struct DecodedInst {
  x86::InstSemantics sem;
  std::uint16_t ports;
  double latency;
  double occupancy;
  bool zero_idiom;
  bool load;
  bool store;
  bool stack_engine;  ///< push/pop: rsp is renamed at issue
  int uops;
  /// Per-block slot of the explicit memory operand's address expression;
  /// equal slots are the same location. kNoMemSlot without one.
  std::size_t mem_slot = kNoMemSlot;
};

DecodedInst decode(const x86::Instruction& inst, MicroArch u,
                   const SimOptions& opt,
                   std::vector<std::string>& mem_slots) {
  DecodedInst d;
  d.sem = x86::semantics(inst);
  const auto& inf = x86::info(inst.opcode);
  d.ports = compute_ports(inf.cls, u);
  d.load = d.sem.loads();
  d.store = d.sem.stores();
  d.stack_engine = inf.cls == OpClass::Stack;
  d.uops = uops_of(d.sem);

  const cost::InstTiming timing = cost::inst_timing(inst, u, d.sem);
  double lat = timing.latency * opt.latency_scale;
  if (opt.round_latencies) lat = std::max(1.0, std::round(lat));
  d.latency = lat;

  // Non-pipelined units (dividers) occupy their port for the reciprocal
  // throughput; pipelined ops occupy one cycle.
  const double rt = timing.rthroughput;
  const bool divider =
      inf.cls == OpClass::IntDiv || inf.cls == OpClass::FpDiv;
  d.occupancy = divider ? rt + opt.div_occupancy_extra
                        : std::min(1.0, std::max(0.25, rt));

  d.zero_idiom = opt.zero_idiom && is_zero_idiom(inst);

  if (d.sem.mem) {
    const std::string key = mem_key(d.sem.mem->mem);
    const auto it = std::find(mem_slots.begin(), mem_slots.end(), key);
    d.mem_slot = static_cast<std::size_t>(it - mem_slots.begin());
    if (it == mem_slots.end()) mem_slots.push_back(key);
  }
  return d;
}

/// Ready times of the values last written into a set of locations, with a
/// flag per location for "written yet".
class ReadyTable {
 public:
  explicit ReadyTable(std::size_t size) : ready_(size), written_(size) {}

  /// max(t, ready time of `slot`) if `slot` has been written, else t.
  double gate(double t, std::size_t slot) const {
    return written_[slot] ? std::max(t, ready_[slot]) : t;
  }
  void set(std::size_t slot, double t) {
    ready_[slot] = t;
    written_[slot] = 1;
  }
  void clear() { std::fill(written_.begin(), written_.end(), 0); }

 private:
  std::vector<double> ready_;
  std::vector<unsigned char> written_;
};

}  // namespace

bool is_zero_idiom(const x86::Instruction& inst) {
  switch (inst.opcode) {
    case Opcode::XOR:
    case Opcode::SUB:
    case Opcode::PXOR:
    case Opcode::XORPS:
    case Opcode::XORPD:
      break;
    case Opcode::VXORPS: {
      // vxorps dst, a, a with a == a.
      if (inst.operands.size() == 3 && inst.operands[1].is_reg() &&
          inst.operands[2].is_reg() &&
          inst.operands[1].as_reg() == inst.operands[2].as_reg()) {
        return true;
      }
      return false;
    }
    default:
      return false;
  }
  return inst.operands.size() == 2 && inst.operands[0].is_reg() &&
         inst.operands[1].is_reg() &&
         inst.operands[0].as_reg() == inst.operands[1].as_reg();
}

int uop_count(const x86::Instruction& inst) {
  return uops_of(x86::semantics(inst));
}

double simulate_throughput(const x86::BasicBlock& block,
                           cost::MicroArch uarch, const SimOptions& opt,
                           SimTrace* trace) {
  if (block.empty()) return 0.0;

  std::vector<DecodedInst> dec;
  dec.reserve(block.size());
  std::vector<std::string> mem_slots;
  int uops_per_iter = 0;
  for (const auto& inst : block.instructions) {
    dec.push_back(decode(inst, uarch, opt, mem_slots));
    uops_per_iter += dec.back().uops;
  }

  PortFile ports;
  const auto fam = [](x86::RegFamily f) { return static_cast<std::size_t>(f); };
  ReadyTable reg_ready(fam(x86::RegFamily::kCount));
  ReadyTable mem_ready(mem_slots.size());
  long uops_issued = 0;
  double iter_mark_mid = 0.0;
  double iter_mark_end = 0.0;
  const int n_iter = std::max(8, opt.iterations);
  const int mid = n_iter / 2;
  double max_finish = 0.0;

  if (trace != nullptr) {
    *trace = SimTrace{};
    trace->window_iterations = n_iter - mid;
    trace->uops_per_iteration = uops_per_iter;
    trace->frontend_stalls.assign(block.size(), 0);
    trace->dependency_stalls.assign(block.size(), 0);
    trace->port_stalls.assign(block.size(), 0);
  }

  // Record one dispatched uop into the trace's port-busy accounting.
  const auto note_busy = [&](bool in_window, double occupancy) {
    if (trace == nullptr || !in_window || ports.last_port < 0) return;
    trace->port_busy[ports.last_port] += occupancy;
  };

  for (int it = 0; it < n_iter; ++it) {
    const bool in_window = it >= mid;
    for (std::size_t i = 0; i < block.size(); ++i) {
      const auto& d = dec[i];

      // Front-end: in-order issue of fused-domain uops, W per cycle.
      const double frontend =
          static_cast<double>(uops_issued) / opt.issue_width;
      uops_issued += d.uops;

      double ready = frontend;
      if (!d.zero_idiom) {
        for (const auto& a : d.sem.regs) {
          if (a.read) ready = reg_ready.gate(ready, fam(a.reg.family));
        }
        // MCA-like configurations (no loop-carried tracking) follow
        // register dependencies within an iteration, and no memory ones.
        if (opt.model_loop_carried && d.sem.mem && d.sem.mem->read) {
          ready = mem_ready.gate(ready, d.mem_slot);
        }
      }
      const double dep_ready = ready;  // before port availability

      double finish;
      double start = ready;
      if (d.zero_idiom) {
        finish = frontend;  // handled at rename: no port, no latency
      } else if (opt.ignore_ports) {
        finish = ready + d.latency;
      } else {
        // Auxiliary memory uops contend on the load/store ports. The load
        // result gates the compute uop; store uops only occupy ports.
        if (d.load) {
          const double lstart = ports.dispatch(ready, kLoadPorts, 1.0);
          note_busy(in_window, 1.0);
          ready = std::max(ready, lstart);
          max_finish = std::max(max_finish, lstart + 1.0);
        }
        if (d.store) {
          const double sa = ports.dispatch(ready, kStoreAddrPorts, 1.0);
          note_busy(in_window, 1.0);
          const double sd = ports.dispatch(ready, kStoreDataPorts, 1.0);
          note_busy(in_window, 1.0);
          max_finish = std::max(max_finish, std::max(sa, sd) + 1.0);
        }
        start = ports.dispatch(ready, d.ports, d.occupancy);
        note_busy(in_window, d.occupancy);
        finish = start + d.latency;
      }

      // Stall attribution: what actually set this occurrence's start time?
      if (trace != nullptr && in_window && !d.zero_idiom) {
        constexpr double kTol = 1e-9;
        if (start > dep_ready + kTol) {
          ++trace->port_stalls[i];
        } else if (dep_ready > frontend + kTol) {
          ++trace->dependency_stalls[i];
        } else {
          ++trace->frontend_stalls[i];
        }
      }

      // The stack engine renames rsp at issue: push/pop do not put the
      // stack-pointer update on the latency-critical path.
      for (const auto& a : d.sem.regs) {
        if (!a.write) continue;
        if (d.stack_engine && a.reg.family == x86::RegFamily::RSP) {
          reg_ready.set(fam(a.reg.family), frontend + 1.0);
        } else {
          reg_ready.set(fam(a.reg.family), finish);
        }
      }
      if (d.sem.mem && d.sem.mem->write) mem_ready.set(d.mem_slot, finish);
      if (!opt.model_loop_carried && i + 1 == block.size()) {
        reg_ready.clear();
        mem_ready.clear();
      }
      max_finish = std::max(max_finish, finish);
    }
    if (it == mid - 1) iter_mark_mid = max_finish;
    if (it == n_iter - 1) iter_mark_end = max_finish;
  }

  const double cycles = iter_mark_end - iter_mark_mid;
  const double iters = static_cast<double>(n_iter - mid);
  return std::max(cycles / iters, 0.05);
}

}  // namespace comet::sim
