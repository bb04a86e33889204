// Tests for the perturbation algorithm Γ: validity of outputs, feature
// preservation guarantees, diversity, deletion semantics, ablation modes,
// and perturbation-space size estimation.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "graph/features.h"
#include "perturb/perturber.h"
#include "x86/parser.h"

namespace cg = comet::graph;
namespace cp = comet::perturb;
namespace cx = comet::x86;
using comet::util::Rng;

namespace {

cx::BasicBlock bb(const char* text) { return cx::parse_block(text); }

const char* kMotivating = R"(
  add rcx, rax
  mov rdx, rcx
  pop rbx
)";

cg::Feature raw01() {
  return cg::Feature(cg::DepFeature{0, 1, cg::DepKind::RAW});
}

}  // namespace

TEST(Perturber, SamplesAreValidBlocks) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block)) << s.block.to_string();
    EXPECT_EQ(s.block.size(), s.orig_index.size());
  }
}

TEST(Perturber, OrigIndexIsStrictlyIncreasing) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    for (std::size_t k = 1; k < s.orig_index.size(); ++k) {
      EXPECT_LT(s.orig_index[k - 1], s.orig_index[k]);
    }
  }
}

TEST(Perturber, ProducesDiversePerturbations) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(3);
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    seen.insert(p.sample(cg::FeatureSet{}, rng).block.to_string());
  }
  // The space is huge; 300 draws should hit many distinct blocks.
  EXPECT_GT(seen.size(), 50u);
}

TEST(Perturber, PreservesInstructionFeature) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(4);
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(fs, rng);
    const auto pos = s.position_of(0);
    ASSERT_NE(pos, cp::PerturbedBlock::npos);
    EXPECT_EQ(s.block.instructions[pos].opcode, cx::Opcode::ADD);
    EXPECT_TRUE(p.contains(s, fs));
  }
}

TEST(Perturber, PreservesNumInstructions) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(5);
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::NumInstsFeature{3}));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(p.sample(fs, rng).block.size(), 3u);
  }
}

TEST(Perturber, PreservesRawDependency) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(6);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(fs, rng);
    EXPECT_TRUE(p.contains(s, fs)) << s.block.to_string();
  }
}

TEST(Perturber, PreservedDepPinsEndpointOpcodes) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(7);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(fs, rng);
    const auto p0 = s.position_of(0);
    const auto p1 = s.position_of(1);
    ASSERT_NE(p0, cp::PerturbedBlock::npos);
    ASSERT_NE(p1, cp::PerturbedBlock::npos);
    EXPECT_EQ(s.block.instructions[p0].opcode, cx::Opcode::ADD);
    EXPECT_EQ(s.block.instructions[p1].opcode, cx::Opcode::MOV);
  }
}

TEST(Perturber, UnpreservedDependencyIsSometimesBroken) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(8);
  int broken = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    cg::FeatureSet fs;
    fs.insert(raw01());
    broken += !p.contains(s, fs);
  }
  EXPECT_GT(broken, n / 10);  // dependency must break regularly
  EXPECT_LT(broken, n);       // but not always (retention happens)
}

TEST(Perturber, DeletionOccursWithoutEtaPreservation) {
  cp::Perturber p(bb(kMotivating));
  Rng rng(9);
  int deletions = 0;
  for (int i = 0; i < 500; ++i) {
    deletions += p.sample(cg::FeatureSet{}, rng).block.size() < 3;
  }
  EXPECT_GT(deletions, 50);
}

TEST(Perturber, LeaIsNeverReplaced) {
  // lea has no valid replacement opcode (Appendix D): its vertex perturbation
  // always falls back to retention (though it may still be deleted).
  cp::Perturber p(bb(R"(
    lea rdx, [rax + 1]
    mov rcx, rdx
  )"));
  Rng rng(10);
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    const auto pos = s.position_of(0);
    if (pos == cp::PerturbedBlock::npos) continue;  // deleted: allowed
    EXPECT_EQ(s.block.instructions[pos].opcode, cx::Opcode::LEA);
  }
}

TEST(Perturber, ImplicitDivDependencyCannotBeBrokenOnConsumerSide) {
  // div reads rax implicitly; the producer (mov rax, ...) write occurrence
  // is renameable though, so the dep can still break via the producer.
  cp::Perturber p(bb(R"(
    mov rax, 5
    div rcx
  )"));
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block));
    // div must never acquire explicit rax operands out of nowhere.
    for (const auto& inst : s.block.instructions) {
      EXPECT_LE(inst.operands.size(), 2u);
    }
  }
}

TEST(Perturber, ShiftCountRenamingRevertsToValid) {
  // The cl count of a shift cannot be renamed (fixed family); breaking the
  // rcx dependency must not produce an invalid instruction.
  cp::Perturber p(bb(R"(
    mov rcx, rax
    shl rdx, cl
  )"));
  Rng rng(12);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(cx::is_valid(p.sample(cg::FeatureSet{}, rng).block));
  }
}

TEST(Perturber, MemoryDependencyBreaksViaDisplacement) {
  cp::Perturber p(bb(R"(
    mov qword ptr [rdi + 8], rax
    mov rcx, qword ptr [rdi + 8]
  )"));
  Rng rng(13);
  int mem_dep_broken = 0;
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    if (s.block.size() < 2) continue;
    const auto g = cg::DepGraph::build(s.block);
    bool has_mem_raw = false;
    for (const auto& e : g.edges()) {
      has_mem_raw |= e.resource == cg::DepResource::Memory &&
                     e.kind == cg::DepKind::RAW;
    }
    mem_dep_broken += !has_mem_raw;
  }
  EXPECT_GT(mem_dep_broken, 30);
}

TEST(Perturber, ContainsChecksAllFeatureTypes) {
  cp::Perturber p(bb(kMotivating));
  cp::PerturbedBlock identity{p.block(), {0, 1, 2}};
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  fs.insert(raw01());
  fs.insert(cg::Feature(cg::NumInstsFeature{3}));
  EXPECT_TRUE(p.contains(identity, fs));

  cg::FeatureSet wrong;
  wrong.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::SUB}));
  EXPECT_FALSE(p.contains(identity, wrong));

  cg::FeatureSet wrong_eta;
  wrong_eta.insert(cg::Feature(cg::NumInstsFeature{4}));
  EXPECT_FALSE(p.contains(identity, wrong_eta));
}

TEST(Perturber, WholeInstructionReplacementStaysValid) {
  cp::PerturbConfig cfg;
  cfg.whole_instruction_replacement = true;
  cp::Perturber p(bb(kMotivating), {}, cfg);
  Rng rng(14);
  std::set<std::string> seen;
  for (int i = 0; i < 300; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_TRUE(cx::is_valid(s.block)) << s.block.to_string();
    seen.insert(s.block.to_string());
  }
  EXPECT_GT(seen.size(), 50u);
}

TEST(Perturber, ExplicitRetentionProbabilityOneFreezesDeps) {
  cp::PerturbConfig cfg;
  cfg.p_explicit_dep_retain = 1.0;
  cp::Perturber p(bb(kMotivating), {}, cfg);
  Rng rng(15);
  cg::FeatureSet fs;
  fs.insert(raw01());
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(p.contains(p.sample(cg::FeatureSet{}, rng), fs));
  }
}

TEST(Perturber, RetentionProbabilityOneIsIdentityForOpcodes) {
  cp::PerturbConfig cfg;
  cfg.p_inst_retain = 1.0;
  cfg.p_dep_retain = 1.0;
  cfg.p_explicit_dep_retain = 0.0;
  cp::Perturber p(bb(kMotivating), {}, cfg);
  Rng rng(16);
  for (int i = 0; i < 100; ++i) {
    const auto s = p.sample(cg::FeatureSet{}, rng);
    EXPECT_EQ(s.block, p.block());
  }
}

// ---------- perturbation space size (Appendix F) ----------

TEST(SpaceSize, Listing4MagnitudeIsAstronomical) {
  // Paper: |Π̂(∅)| ~ 1.94e38 for the 7-instruction AVX block. Our estimate
  // should land within a few orders of magnitude, and definitely >> 1e20.
  cp::Perturber p(bb(R"(
    vdivss xmm0, xmm0, xmm6
    vmulss xmm7, xmm0, xmm0
    vxorps xmm0, xmm0, xmm5
    vaddss xmm7, xmm7, xmm3
    vmulss xmm6, xmm6, xmm7
    vdivss xmm6, xmm3, xmm6
    vmulss xmm0, xmm6, xmm0
  )"));
  const double lg = p.log10_space_size(cg::FeatureSet{});
  EXPECT_GT(lg, 25.0);
  EXPECT_LT(lg, 55.0);
}

TEST(SpaceSize, ShrinksWhenFeaturesPreserved) {
  cp::Perturber p(bb(kMotivating));
  const double all = p.log10_space_size(cg::FeatureSet{});
  cg::FeatureSet fs;
  fs.insert(cg::Feature(cg::InstFeature{0, cx::Opcode::ADD}));
  const double constrained = p.log10_space_size(fs);
  EXPECT_LT(constrained, all);

  cg::FeatureSet fs2 = fs;
  fs2.insert(raw01());
  EXPECT_LE(p.log10_space_size(fs2), constrained);
}

TEST(SpaceSize, MonotonicityProperty) {
  // Π is monotonically decreasing in F (paper Theorem 1): adding features
  // never enlarges the space.
  cp::Perturber p(bb(R"(
    shl eax, 3
    imul rax, r15
    xor edx, edx
    add rax, 7
  )"));
  const auto all_feats = cg::extract_features(p.block());
  cg::FeatureSet acc;
  double prev = p.log10_space_size(acc);
  for (const auto& f : all_feats.items()) {
    acc.insert(f);
    const double cur = p.log10_space_size(acc);
    EXPECT_LE(cur, prev + 1e-9);
    prev = cur;
  }
}

// ---------- golden fingerprints ----------

namespace {

// Blocks chosen to reach every path of Γ that reads instruction semantics:
// implicit register accesses (div/mul/push/pop/cdq, shift by cl), vector
// renames, and memory-carried dependencies.
const char* const kGoldenBlocks[] = {
    kMotivating,
    R"(
      div rcx
      mul rsi
      push rbx
      pop rdx
      cdq
      shl rax, cl
      add rdx, rax
    )",
    R"(
      vaddps xmm0, xmm1, xmm2
      vmulps xmm3, xmm0, xmm0
      movaps xmm1, xmm3
      addss xmm2, xmm1
      vxorps xmm4, xmm3, xmm2
    )",
    R"(
      mov qword ptr [rdi + 8], rax
      mov rcx, qword ptr [rdi + 8]
      add rcx, qword ptr [rsi + rdx*4]
      mov dword ptr [rsi + rdx*4], ecx
      imul rax, rcx
    )",
};

// The four preserved sets: ∅, one instruction, the register dependency
// spanning the most instructions (so rerouting checks run), and η.
std::vector<cg::FeatureSet> golden_preserved_sets(const cp::Perturber& p) {
  std::vector<cg::FeatureSet> sets(4);
  sets[1].insert(cg::Feature(
      cg::InstFeature{0, p.block().instructions[0].opcode}));
  const cg::DepEdge* widest = nullptr;
  for (const auto& e : p.dep_graph().edges()) {
    if (e.resource != cg::DepResource::Register) continue;
    if (widest == nullptr || e.to - e.from > widest->to - widest->from) {
      widest = &e;
    }
  }
  if (widest != nullptr) {
    sets[2].insert(
        cg::Feature(cg::DepFeature{widest->from, widest->to, widest->kind}));
  }
  sets[3].insert(cg::Feature(cg::NumInstsFeature{p.block().size()}));
  return sets;
}

// FNV-1a over every sample's text and original-position mapping.
std::uint64_t golden_fingerprint(const char* text,
                                 const cp::PerturbConfig& cfg) {
  cp::Perturber p(bb(text), {}, cfg);
  std::string acc;
  Rng rng(20261018);
  for (const auto& fs : golden_preserved_sets(p)) {
    for (int i = 0; i < 150; ++i) {
      const auto s = p.sample(fs, rng);
      acc += s.block.to_string();
      for (std::size_t k : s.orig_index) acc += std::to_string(k) + ',';
      acc += ';';
    }
  }
  return comet::util::fnv1a64(acc.data(), acc.size());
}

}  // namespace

// Pins Γ's output bit for bit: the values were recorded before the family
// bitmask rewrite of the rename step and must never move under a pure
// performance change.
TEST(PerturberGolden, SampleFingerprintsAreStable) {
  cp::PerturbConfig plain;
  cp::PerturbConfig no_fresh;
  no_fresh.prefer_fresh_rename = false;
  cp::PerturbConfig whole;
  whole.whole_instruction_replacement = true;
  const cp::PerturbConfig configs[] = {plain, no_fresh, whole};
  const std::uint64_t expected[4][3] = {
      {11879432364697068818ull, 5225341245406898214ull,
       7926246511205688219ull},
      {15066650546494149370ull, 2873395567333580083ull,
       10734028727818159443ull},
      {2402239690039329358ull, 12275582594972314098ull,
       2199670045076309709ull},
      {17990578896080952762ull, 2953125255438296713ull,
       14496517035736874742ull},
  };
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(golden_fingerprint(kGoldenBlocks[b], configs[c]),
                expected[b][c])
          << "block " << b << " config " << c;
    }
  }
}
