// Tests for the pipeline simulator and the simulation-based cost models
// (hardware oracle, uiCA stand-in, MCA-like static model).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "cost/throughput_table.h"
#include "sim/models.h"
#include "sim/pipeline.h"
#include "util/rng.h"
#include "x86/parser.h"

namespace cs = comet::sim;
namespace cc = comet::cost;
namespace cx = comet::x86;

namespace {
cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }
const cc::MicroArch HSW = cc::MicroArch::Haswell;
const cc::MicroArch SKL = cc::MicroArch::Skylake;
}  // namespace

TEST(Pipeline, EmptyBlockIsZero) {
  EXPECT_DOUBLE_EQ(cs::simulate_throughput(cx::BasicBlock{}, HSW), 0.0);
}

TEST(Pipeline, Deterministic) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  EXPECT_DOUBLE_EQ(cs::simulate_throughput(block, HSW),
                   cs::simulate_throughput(block, HSW));
}

TEST(Pipeline, IndependentMovsAreIssueBound) {
  // 4 independent moves on a 4-wide machine: ~1 cycle/iteration.
  const auto block = bb(R"(
    mov rax, 1
    mov rcx, 2
    mov rsi, 3
    mov rdi, 4
  )");
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_NEAR(tp, 1.0, 0.35);
}

TEST(Pipeline, LoopCarriedChainIsLatencyBound) {
  // add rax, rax feeds itself across iterations: >= 1 cycle each, and a
  // dependent 3-instruction chain runs ~3 cycles/iter.
  const auto chain = bb(R"(
    add rax, rcx
    add rax, rsi
    add rax, rdi
  )");
  const double tp = cs::simulate_throughput(chain, HSW);
  // rax chain is loop-carried: 3 dependent adds ~ 3 cycles.
  EXPECT_GT(tp, 2.0);
  EXPECT_LT(tp, 4.5);
}

TEST(Pipeline, DivDominatesThroughput) {
  const auto block = bb("div rcx\nmov rsi, 3");
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_GT(tp, 15.0);
}

TEST(Pipeline, ZeroIdiomBreaksDependency) {
  // Without idiom recognition the xor extends the rax chain; with it the
  // chain is cut every iteration.
  const auto block = bb(R"(
    xor eax, eax
    add rax, rcx
    add rax, rsi
  )");
  cs::SimOptions with;
  cs::SimOptions without;
  without.zero_idiom = false;
  EXPECT_LE(cs::simulate_throughput(block, HSW, with),
            cs::simulate_throughput(block, HSW, without));
}

TEST(Pipeline, IsZeroIdiomDetection) {
  EXPECT_TRUE(cs::is_zero_idiom(cx::parse_instruction("xor eax, eax")));
  EXPECT_TRUE(cs::is_zero_idiom(cx::parse_instruction("pxor xmm1, xmm1")));
  EXPECT_TRUE(
      cs::is_zero_idiom(cx::parse_instruction("vxorps xmm0, xmm5, xmm5")));
  EXPECT_FALSE(cs::is_zero_idiom(cx::parse_instruction("xor eax, ecx")));
  EXPECT_FALSE(
      cs::is_zero_idiom(cx::parse_instruction("vxorps xmm0, xmm5, xmm6")));
  EXPECT_FALSE(cs::is_zero_idiom(cx::parse_instruction("add rax, rax")));
}

TEST(Pipeline, UopCounts) {
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("add rax, rcx")), 1);
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("add rax, qword ptr [rdi]")),
            2);
  EXPECT_EQ(
      cs::uop_count(cx::parse_instruction("mov qword ptr [rdi], rax")), 3);
  EXPECT_EQ(cs::uop_count(cx::parse_instruction("push rbx")), 3);
}

TEST(Pipeline, StoreHeavyBlockBoundByStorePort) {
  // Two stores per iteration, one store-data port: >= 2 cycles.
  const auto block = bb(R"(
    mov qword ptr [rdi + 8], rax
    mov qword ptr [rdi + 16], rcx
  )");
  EXPECT_GE(cs::simulate_throughput(block, HSW), 1.8);
}

TEST(Pipeline, MoreIterationsConvergeToSameSlope) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  cs::SimOptions a, b;
  a.iterations = 32;
  b.iterations = 128;
  EXPECT_NEAR(cs::simulate_throughput(block, HSW, a),
              cs::simulate_throughput(block, HSW, b), 0.2);
}

// ---------- models ----------

TEST(Models, MotivatingBlockThroughputIsPlausible) {
  // Paper: Ithemal predicts 1.3 cycles for Listing 1(a) on Haswell.
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  const cs::HardwareOracle oracle(HSW);
  const double tp = oracle.predict(block);
  EXPECT_GT(tp, 0.5);
  EXPECT_LT(tp, 3.5);
}

TEST(Models, UiCATracksOracleClosely) {
  const cs::HardwareOracle oracle(HSW);
  const cs::UiCASimModel uica(HSW);
  for (const char* text : {
           "add rcx, rax\nmov rdx, rcx\npop rbx",
           "mov rax, 1\nmov rcx, 2\nmov rsi, 3\nmov rdi, 4",
           "imul rax, r15\nadd rax, 7\nshr rax, 3",
           "addss xmm0, xmm1\nmulss xmm2, xmm0\nmovss xmm3, xmm2",
       }) {
    const auto block = bb(text);
    const double o = oracle.predict(block);
    const double u = uica.predict(block);
    EXPECT_LT(std::abs(o - u) / o, 0.35) << text << " oracle=" << o
                                         << " uica=" << u;
  }
}

TEST(Models, McaIgnoresLoopCarriedDeps) {
  // Latency-bound chain: MCA-like static model underestimates.
  const auto chain = bb(R"(
    imul rax, rcx
    imul rax, rsi
  )");
  const cs::HardwareOracle oracle(HSW);
  const cs::McaLikeModel mca(HSW);
  EXPECT_LT(mca.predict(chain), oracle.predict(chain));
}

TEST(Models, MeasuredThroughputIsDeterministicAndNearOracle) {
  const auto block = bb("add rcx, rax\nmov rdx, rcx\npop rbx");
  const double m1 = cs::measured_throughput(block, HSW);
  const double m2 = cs::measured_throughput(block, HSW);
  EXPECT_DOUBLE_EQ(m1, m2);
  const cs::HardwareOracle oracle(HSW);
  EXPECT_NEAR(m1, oracle.predict(block), oracle.predict(block) * 0.025);
}

TEST(Models, MeasurementNoiseDiffersAcrossBlocks) {
  const auto b1 = bb("add rcx, rax\nmov rdx, rcx");
  const auto b2 = bb("add rcx, rax\nmov rsi, rcx");
  const cs::HardwareOracle oracle(HSW);
  const double r1 = cs::measured_throughput(b1, HSW) / oracle.predict(b1);
  const double r2 = cs::measured_throughput(b2, HSW) / oracle.predict(b2);
  EXPECT_NE(r1, r2);
}

TEST(Models, SkylakeFasterOnFpHeavyBlocks) {
  const auto block = bb(R"(
    divss xmm0, xmm1
    addss xmm2, xmm0
    mulss xmm3, xmm2
  )");
  const cs::HardwareOracle hsw(HSW);
  const cs::HardwareOracle skl(SKL);
  EXPECT_LT(skl.predict(block), hsw.predict(block));
}

TEST(Models, Names) {
  EXPECT_EQ(cs::HardwareOracle(HSW).name(), "oracle-HSW");
  EXPECT_EQ(cs::UiCASimModel(SKL).name(), "uica-SKL");
  EXPECT_EQ(cs::McaLikeModel(HSW).name(), "mca-HSW");
}

// Parameterized property: for a corpus of blocks, throughput is bounded
// below by the issue-width bound (n_uops / 4, slackened) and is finite.
class SimBounds : public ::testing::TestWithParam<const char*> {};

TEST_P(SimBounds, ThroughputRespectsIssueBound) {
  const auto block = bb(GetParam());
  int uops = 0;
  for (const auto& inst : block.instructions) uops += cs::uop_count(inst);
  const double tp = cs::simulate_throughput(block, HSW);
  EXPECT_GE(tp, uops / 4.0 * 0.7);
  EXPECT_LT(tp, 1000.0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, SimBounds,
    ::testing::Values("add rcx, rax\nmov rdx, rcx\npop rbx",
                      "mov rax, 1\nmov rcx, 2\nmov rsi, 3\nmov rdi, 4",
                      "div rcx\nmov rsi, 3",
                      "mov qword ptr [rdi + 8], rax\nmov rcx, qword ptr [rdi + 8]",
                      "vdivss xmm0, xmm0, xmm6\nvmulss xmm7, xmm0, xmm0",
                      "push rbx\npop rcx\npush rdx\npop rsi"));

// ---------- golden values ----------
//
// Recorded before the simulator decoded each instruction once per block;
// a pure performance change must reproduce every bit.

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

// Blocks covering the simulator's state: memory operands that alias while
// differing in access width, the rsp stack engine, zero idioms, dividers,
// and indexed read-modify-write memory.
const char* const kSimGoldenBlocks[] = {
    "add rcx, rax\nmov rdx, rcx\npop rbx",
    R"(
      mov dword ptr [rdi + 8], eax
      mov rcx, qword ptr [rdi + 8]
      add cl, byte ptr [rdi + 8]
      mov word ptr [rdi + 8], cx
      add rax, rcx
    )",
    R"(
      push rbx
      pop rcx
      push rdx
      mov rax, qword ptr [rsp + 8]
      pop rsi
      add rax, rsi
    )",
    R"(
      xor eax, eax
      add rax, rcx
      pxor xmm1, xmm1
      addps xmm1, xmm2
      vxorps xmm0, xmm5, xmm5
      sub edx, edx
      imul rdx, rax
      addss xmm0, xmm1
    )",
    R"(
      div rcx
      mov rsi, 3
      imul rax, r15
      sqrtsd xmm0, xmm1
      divss xmm2, xmm0
    )",
    R"(
      add qword ptr [rdi + rdx*8 + 16], rax
      mov rax, qword ptr [rdi + rdx*8 + 16]
      mov qword ptr [rsi], rax
      mov rbx, qword ptr [rsi + 8]
      add rbx, qword ptr [rsi]
    )",
};
constexpr std::size_t kNumSimGoldenBlocks = std::size(kSimGoldenBlocks);

// Oracle, uiCA-like and MCA-like configurations (as in models.cpp), plus
// the dependency-only configuration the bottleneck analysis uses.
std::vector<cs::SimOptions> golden_sim_options() {
  cs::SimOptions oracle;
  cs::SimOptions uica;
  uica.latency_scale = 1.05;
  uica.round_latencies = true;
  uica.div_occupancy_extra = 1.0;
  cs::SimOptions mca;
  mca.model_loop_carried = false;
  mca.zero_idiom = false;
  mca.round_latencies = true;
  cs::SimOptions dep_only;
  dep_only.ignore_ports = true;
  return {oracle, uica, mca, dep_only};
}

std::uint64_t trace_digest(const cs::SimTrace& t) {
  std::string acc;
  for (double b : t.port_busy) acc += std::to_string(bits_of(b)) + ',';
  acc += std::to_string(t.window_iterations) + ',' +
         std::to_string(t.uops_per_iteration) + ';';
  for (const auto* v : {&t.frontend_stalls, &t.dependency_stalls,
                        &t.port_stalls}) {
    for (int c : *v) acc += std::to_string(c) + ',';
    acc += ';';
  }
  return comet::util::fnv1a64(acc.data(), acc.size());
}

}  // namespace

TEST(SimGolden, ThroughputBitsAreStable) {
  // [block][options: oracle, uica, mca, dep-only][uarch: HSW, SKL]
  const std::uint64_t expected[kNumSimGoldenBlocks][4][2] = {
      {{0x3ff0000000000000ull, 0x3ff0000000000000ull},
       {0x3ff0000000000000ull, 0x3ff0000000000000ull},
       {0x3ff0000000000000ull, 0x3ff0000000000000ull},
       {0x3ff0000000000000ull, 0x3ff0000000000000ull}},
      {{0x4028000000000000ull, 0x4028000000000000ull},
       {0x4028000000000000ull, 0x4028000000000000ull},
       {0x4018000000000000ull, 0x4018000000000000ull},
       {0x4028000000000000ull, 0x4028000000000000ull}},
      {{0x400a000000000000ull, 0x400a000000000000ull},
       {0x400a000000000000ull, 0x400a000000000000ull},
       {0x400a000000000000ull, 0x400a000000000000ull},
       {0x400a000000000000ull, 0x400a000000000000ull}},
      {{0x4010000000000000ull, 0x4004200000000000ull},
       {0x4010000000000000ull, 0x4004200000000000ull},
       {0x4014000000000000ull, 0x4005800000000000ull},
       {0x4000000000000000ull, 0x4000000000000000ull}},
      {{0x4048800000000000ull, 0x4041800000000000ull},
       {0x404a000000000000ull, 0x4043000000000000ull},
       {0x4048800000000000ull, 0x4041800000000000ull},
       {0x4040000000000000ull, 0x403b000000000000ull}},
      {{0x4024000000000000ull, 0x4024000000000000ull},
       {0x4024000000000000ull, 0x4024000000000000ull},
       {0x4016000000000000ull, 0x4016000000000000ull},
       {0x4024000000000000ull, 0x4024000000000000ull}},
  };
  // FNV-1a of every SimTrace counter, per block, over options x uarch.
  const std::uint64_t expected_trace[kNumSimGoldenBlocks] = {
      0xffa2dc27ac955dc9ull,
      0x997bb53a708d003full,
      0x741bb5667719b521ull,
      0x9981dac39b20fa37ull,
      0x0e8623ba97e702ebull,
      0xc1db81b6a8051a71ull,
  };
  const auto options = golden_sim_options();
  const cc::MicroArch uarchs[] = {HSW, SKL};
  for (std::size_t b = 0; b < kNumSimGoldenBlocks; ++b) {
    const auto block = bb(kSimGoldenBlocks[b]);
    std::string traces;
    for (std::size_t o = 0; o < options.size(); ++o) {
      for (std::size_t u = 0; u < 2; ++u) {
        const double plain =
            cs::simulate_throughput(block, uarchs[u], options[o]);
        cs::SimTrace trace;
        const double traced =
            cs::simulate_throughput(block, uarchs[u], options[o], &trace);
        EXPECT_EQ(bits_of(plain), expected[b][o][u])
            << "block " << b << " options " << o << " uarch " << u;
        EXPECT_EQ(bits_of(traced), bits_of(plain))
            << "block " << b << " options " << o << " uarch " << u;
        traces += std::to_string(trace_digest(trace)) + ';';
      }
    }
    EXPECT_EQ(comet::util::fnv1a64(traces.data(), traces.size()),
              expected_trace[b])
        << "block " << b;
    // The cost models run exactly these configurations.
    EXPECT_EQ(bits_of(cs::HardwareOracle(HSW).predict(block)),
              expected[b][0][0]);
    EXPECT_EQ(bits_of(cs::UiCASimModel(HSW).predict(block)),
              expected[b][1][0]);
    EXPECT_EQ(bits_of(cs::McaLikeModel(SKL).predict(block)),
              expected[b][2][1]);
  }
}

TEST(SimGolden, InstructionTimingsAreStable) {
  struct Timing {
    const char* text;
    double latency_hsw, throughput_hsw, latency_skl, throughput_skl;
    int uops;
  };
  const Timing expected[] = {
      {"add rax, rcx", 1.0, 0.25, 1.0, 0.25, 1},
      {"add rax, qword ptr [rdi]", 5.0, 0.5, 5.0, 0.5, 2},
      {"add qword ptr [rdi], rax", 5.0, 1.0, 5.0, 1.0, 4},
      {"mov qword ptr [rdi], rax", 1.0, 1.0, 1.0, 1.0, 3},
      {"mov rax, qword ptr [rdi + 8]", 5.0, 0.5, 5.0, 0.5, 2},
      {"mov dword ptr [rdi + 8], eax", 1.0, 1.0, 1.0, 1.0, 3},
      {"push rbx", 2.0, 1.0, 2.0, 1.0, 3},
      {"pop rcx", 6.0, 1.0, 6.0, 1.0, 2},
      {"div rcx", 29.0, 22.0, 24.0, 18.0, 1},
      {"div ecx", 22.0, 10.0, 18.0, 9.0, 1},
      {"div cx", 17.0, 9.0, 14.0, 7.0, 1},
      {"div cl", 15.0, 8.0, 12.0, 6.0, 1},
      {"idiv rsi", 29.0, 22.0, 24.0, 18.0, 1},
      {"mul rsi", 4.0, 2.0, 4.0, 2.0, 1},
      {"imul rax, rcx", 3.0, 1.0, 3.0, 1.0, 1},
      {"imul rax, qword ptr [rdi + 8]", 7.0, 1.0, 7.0, 1.0, 2},
      {"shl rax, 3", 1.0, 0.5, 1.0, 0.5, 1},
      {"shl rax, cl", 1.0, 0.5, 1.0, 0.5, 1},
      {"lea rdx, [rax + 8]", 1.0, 0.5, 1.0, 0.5, 1},
      {"popcnt rax, rcx", 1.0, 0.25, 1.0, 0.25, 1},
      {"bsf rax, rcx", 3.0, 1.0, 3.0, 1.0, 1},
      {"xchg rax, rcx", 2.0, 1.0, 2.0, 1.0, 1},
      {"cdq", 1.0, 0.25, 1.0, 0.25, 1},
      {"nop", 0.0, 0.25, 0.0, 0.25, 1},
      {"vfmadd231ss xmm1, xmm2, xmm3", 5.0, 0.5, 4.0, 0.5, 1},
      {"pshufd xmm0, xmm1, 2", 1.0, 1.0, 1.0, 1.0, 1},
      {"cvtsi2ss xmm0, eax", 5.0, 1.0, 5.0, 1.0, 1},
      {"addss xmm0, xmm1", 3.0, 1.0, 4.0, 0.5, 1},
      {"addss xmm0, dword ptr [rdi]", 7.0, 1.0, 8.0, 0.5, 2},
      {"mulps xmm0, xmm1", 5.0, 0.5, 4.0, 0.5, 1},
      {"divss xmm0, xmm1", 13.0, 7.0, 11.0, 3.0, 1},
      {"divsd xmm0, xmm1", 20.0, 14.0, 14.0, 4.0, 1},
      {"sqrtpd xmm0, xmm1", 20.0, 16.0, 14.0, 8.0, 1},
      {"vdivps xmm0, xmm1, xmm2", 13.0, 7.0, 11.0, 5.0, 1},
      {"vdivss xmm0, xmm0, xmm6", 13.0, 7.0, 11.0, 3.0, 1},
      {"pmulld xmm0, xmm1", 10.0, 2.0, 8.0, 1.0, 1},
      {"xor eax, eax", 1.0, 0.25, 1.0, 0.25, 1},
  };
  for (const auto& t : expected) {
    const auto inst = cx::parse_instruction(t.text);
    EXPECT_EQ(bits_of(cc::inst_latency(inst, HSW)), bits_of(t.latency_hsw))
        << t.text;
    EXPECT_EQ(bits_of(cc::inst_throughput(inst, HSW)),
              bits_of(t.throughput_hsw))
        << t.text;
    EXPECT_EQ(bits_of(cc::inst_latency(inst, SKL)), bits_of(t.latency_skl))
        << t.text;
    EXPECT_EQ(bits_of(cc::inst_throughput(inst, SKL)),
              bits_of(t.throughput_skl))
        << t.text;
    EXPECT_EQ(cs::uop_count(inst), t.uops) << t.text;
  }
}
