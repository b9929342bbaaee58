// Differential reference-model test for the VPU's functional execution.
//
// The reference executes each vector instruction one element at a time,
// widening every operand to int64 and wrapping the result back to the
// element width, with every cross-element read range-checked per element:
// the textbook reading of the ISA in src/vpu/vinsn.hpp, independent of the
// width-native loops and block copies in src/vpu/vector_unit.cpp. After
// every instruction all 32 vector registers of the real VectorUnit must
// equal the reference's byte for byte.
//
// Coverage: a sweep over all 28 opcodes x 3 element widths x vl in
// {0, 1, capacity-1, capacity} x operand extremes (INT_MIN, -1, MAX) x
// register aliasing (distinct, vd == vs1, vd == vs2, vd == vs1 == vs2), with
// slide amounts 0 / vl / capacity / past capacity and strided gathers at
// strides 0-3 with offsets up to and past capacity; then a seeded random
// instruction stream on a minimum-VLEN unit, where capacity edges are hit
// often.
//
// Both builds of the lane pass run both sweeps: the portable one and the
// AVX2 one (skipped on hosts without AVX2), each reached directly through
// vpu::detail rather than the build the process picked. The seeded stream
// goes through the pass in short multi-instruction programs, prepared as
// vpu::Program (so a slide that only feeds the next vmacc.es runs folded
// into it).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"
#include "test_support.hpp"

namespace arcane::vpu {
namespace {

using Reg = std::vector<std::uint8_t>;

// =====================================================================
// Reference model: a register file of plain byte vectors, sources read in
// full before the destination is written.
// =====================================================================

template <typename T>
T get(const Reg& r, std::size_t i) {
  T v;
  std::memcpy(&v, r.data() + i * sizeof(T), sizeof(T));
  return v;
}
template <typename T>
void put(Reg& r, std::size_t i, T v) {
  std::memcpy(r.data() + i * sizeof(T), &v, sizeof(T));
}

template <typename T>
void ref_exec_typed(const VInsn& insn, Reg& d, const Reg& s1, const Reg& s2,
                    unsigned capacity) {
  const std::uint32_t vl = insn.vl;
  const T x = static_cast<T>(insn.scalar);
  auto wrap = [](std::int64_t v) { return static_cast<T>(v); };
  auto a = [&](std::uint32_t i) { return std::int64_t{get<T>(s1, i)}; };
  auto b = [&](std::uint32_t i) { return std::int64_t{get<T>(s2, i)}; };
  auto acc = [&](std::uint32_t i) { return std::int64_t{get<T>(d, i)}; };
  const unsigned sh = insn.scalar & (8u * sizeof(T) - 1u);
  using U = std::make_unsigned_t<T>;

  for (std::uint32_t i = 0; i < vl; ++i) {
    T r{};
    switch (insn.op) {
      case VOpc::kAddVV: r = wrap(a(i) + b(i)); break;
      case VOpc::kAddVX: r = wrap(a(i) + x); break;
      case VOpc::kSubVV: r = wrap(a(i) - b(i)); break;
      case VOpc::kSubVX: r = wrap(a(i) - x); break;
      case VOpc::kRsubVX: r = wrap(std::int64_t{x} - a(i)); break;
      case VOpc::kMulVV: r = wrap(a(i) * b(i)); break;
      case VOpc::kMulVX: r = wrap(a(i) * x); break;
      case VOpc::kMaccVV: r = wrap(acc(i) + a(i) * b(i)); break;
      case VOpc::kMaccVX: r = wrap(acc(i) + std::int64_t{x} * b(i)); break;
      case VOpc::kMaccEs: r = wrap(acc(i) + a(insn.scalar) * b(i)); break;
      case VOpc::kMinVV: r = wrap(std::min(a(i), b(i))); break;
      case VOpc::kMinVX: r = wrap(std::min(a(i), std::int64_t{x})); break;
      case VOpc::kMaxVV: r = wrap(std::max(a(i), b(i))); break;
      case VOpc::kMaxVX: r = wrap(std::max(a(i), std::int64_t{x})); break;
      case VOpc::kAndVV: r = wrap(a(i) & b(i)); break;
      case VOpc::kAndVX: r = wrap(a(i) & x); break;
      case VOpc::kOrVV: r = wrap(a(i) | b(i)); break;
      case VOpc::kOrVX: r = wrap(a(i) | x); break;
      case VOpc::kXorVV: r = wrap(a(i) ^ b(i)); break;
      case VOpc::kXorVX: r = wrap(a(i) ^ x); break;
      case VOpc::kSllVX: r = wrap(a(i) << sh); break;
      case VOpc::kSrlVX: r = static_cast<T>(static_cast<U>(get<T>(s1, i)) >> sh); break;
      case VOpc::kSraVX: r = wrap(a(i) >> sh); break;
      case VOpc::kSlideDownVX: {
        const std::uint64_t src = std::uint64_t{i} + insn.scalar;
        r = src < capacity ? get<T>(s1, src) : T{0};
        break;
      }
      case VOpc::kSlideUpVX:
        if (i < insn.scalar) continue;  // below the slide: untouched
        r = get<T>(s1, i - insn.scalar);
        break;
      case VOpc::kMvVV: r = get<T>(s1, i); break;
      case VOpc::kMvVX: r = x; break;
      case VOpc::kGatherStride: {
        const std::uint64_t src =
            std::uint64_t{i} * hi16(insn.scalar) + lo16(insn.scalar);
        r = src < capacity ? get<T>(s1, src) : T{0};
        break;
      }
      case VOpc::kOpcCount: FAIL() << "invalid opcode";
    }
    put<T>(d, i, r);
  }
}

class RefVpu {
 public:
  RefVpu(unsigned num_vregs, unsigned vlen_bytes)
      : regs_(num_vregs, Reg(vlen_bytes, 0)), vlen_(vlen_bytes) {}

  Reg& reg(unsigned i) { return regs_[i]; }

  void execute(const VInsn& insn) {
    const Reg s1 = regs_[insn.vs1];
    const Reg s2 = regs_[insn.vs2];
    Reg& d = regs_[insn.vd];
    switch (insn.et) {
      case ElemType::kWord: ref_exec_typed<std::int32_t>(insn, d, s1, s2, vlen_ / 4); break;
      case ElemType::kHalf: ref_exec_typed<std::int16_t>(insn, d, s1, s2, vlen_ / 2); break;
      case ElemType::kByte: ref_exec_typed<std::int8_t>(insn, d, s1, s2, vlen_); break;
    }
  }

 private:
  std::vector<Reg> regs_;
  unsigned vlen_;
};

// =====================================================================
// Harness: the real unit and the reference side by side.
// =====================================================================

using detail::LanePass;

class Pair {
 public:
  explicit Pair(unsigned vlen_bytes, LanePass pass = detail::lane_pass_portable)
      : pass_(pass),
        cfg_(make_cfg(vlen_bytes)),
        storage_(cfg_),
        vu_(cfg_.vpu, 0, storage_),
        ref_(cfg_.vpu.num_vregs, vlen_bytes) {}

  unsigned num_vregs() const { return cfg_.vpu.num_vregs; }
  unsigned vlen() const { return cfg_.vpu.vlen_bytes; }

  /// Seeds both register files: the first `extreme_regs` registers repeat
  /// (MIN, -1, MAX, 0, 1) at the element width of `et`, shifted by the
  /// register index; the rest hold random bytes.
  void fill(std::mt19937& rng, ElemType et, unsigned extreme_regs) {
    pristine_.assign(num_vregs(), Reg(vlen()));
    for (unsigned r = 0; r < num_vregs(); ++r) {
      Reg& bytes = pristine_[r];
      if (r < extreme_regs) {
        switch (et) {
          case ElemType::kWord: fill_extremes<std::int32_t>(bytes, r); break;
          case ElemType::kHalf: fill_extremes<std::int16_t>(bytes, r); break;
          case ElemType::kByte: fill_extremes<std::int8_t>(bytes, r); break;
        }
      } else {
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
      }
      restore(r);
    }
  }

  /// Puts register `r` on both sides back to its contents after fill().
  void restore(unsigned r) {
    std::memcpy(vu_.vreg(r).data(), pristine_[r].data(), vlen());
    ref_.reg(r) = pristine_[r];
  }

  /// Runs `prog` through the unit's lane pass in one call (prepared as one
  /// vpu::Program) and through the reference one instruction at a time;
  /// returns an empty string when
  /// every register matches, else a description of the first mismatching
  /// byte.
  std::string step(std::span<const VInsn> prog) {
    program_.prepare(prog, cfg_.vpu, /*dispatch_gap=*/0);
    detail::run_with(vu_, program_, 0, pass_);
    for (const VInsn& insn : prog) ref_.execute(insn);
    for (unsigned r = 0; r < num_vregs(); ++r) {
      const auto got = vu_.vreg(r);
      const Reg& want = ref_.reg(r);
      if (std::memcmp(got.data(), want.data(), vlen()) == 0) continue;
      unsigned byte = 0;
      while (got[byte] == want[byte]) ++byte;
      std::ostringstream os;
      for (const VInsn& insn : prog) os << vinsn_to_string(insn) << "; ";
      os << "v" << r << " byte " << byte << " is " << unsigned{got[byte]}
         << ", reference " << unsigned{want[byte]};
      return os.str();
    }
    return {};
  }
  std::string step(const VInsn& insn) { return step({&insn, 1}); }

  VectorUnit& unit() { return vu_; }

 private:
  static LlcConfig make_cfg(unsigned vlen_bytes) {
    LlcConfig c{};
    c.vpu.vlen_bytes = vlen_bytes;
    return c;
  }

  template <typename T>
  static void fill_extremes(Reg& bytes, unsigned phase) {
    const T pattern[] = {std::numeric_limits<T>::min(), T{-1},
                         std::numeric_limits<T>::max(), T{0}, T{1}};
    for (std::size_t i = 0; i < bytes.size() / sizeof(T); ++i)
      put<T>(bytes, i, pattern[(i + phase) % 5]);
  }

  LanePass pass_;
  Program program_;
  LlcConfig cfg_;
  LineStorage storage_;
  VectorUnit vu_;
  RefVpu ref_;
  std::vector<Reg> pristine_;
};

constexpr ElemType kWidths[] = {ElemType::kWord, ElemType::kHalf,
                                ElemType::kByte};

/// Scalar operands worth sweeping for `op` at element capacity `cap` and
/// vector length `vl`.
std::vector<std::uint32_t> scalars_for(VOpc op, unsigned cap, std::uint32_t vl,
                                       unsigned ebits) {
  switch (op) {
    case VOpc::kSlideDownVX:
    case VOpc::kSlideUpVX:
      return {0, 1, vl, cap - 1, cap, cap + 1, 0xFFFFFFFFu};
    case VOpc::kMaccEs:
      return {0, 1, cap - 1};
    case VOpc::kGatherStride: {
      std::vector<std::uint32_t> out;
      for (std::uint32_t stride : {0u, 1u, 2u, 3u})
        for (std::uint32_t off : {0u, 1u, cap / 2, cap - 1, cap, cap + 5, 0xFFFFu})
          out.push_back(pack16(stride, off));
      return out;
    }
    case VOpc::kSllVX:
    case VOpc::kSrlVX:
    case VOpc::kSraVX:
      return {0, 1, ebits - 1, ebits, 31, 0xFFFFFFFFu};
    default:
      if (!vinsn_uses_scalar(op)) return {0};
      // Sign-extended INT_MIN, -1 and MAX at every width, plus patterns
      // whose upper bits the narrower widths must ignore.
      return {0x80000000u, 0xFFFF8000u, 0xFFFFFF80u, 0xFFFFFFFFu,
              0x7FFFFFFFu, 0x7FFFu, 0x7Fu, 0u, 1u, 0x12345678u};
  }
}

// (vd, vs1, vs2) triples: distinct, vd == vs1, vd == vs2, all three equal.
// Registers 0-3 hold the extremes pattern, the rest random bytes.
constexpr std::array<std::array<std::uint8_t, 3>, 6> kAliasing = {{
    {8, 0, 1}, {9, 10, 2}, {3, 3, 11}, {12, 2, 12}, {1, 1, 1}, {13, 13, 13},
}};

// One build of the lane pass under test.
struct LaneBuild {
  const char* name;
  LanePass pass;
  bool needs_avx2;
};

void PrintTo(const LaneBuild& b, std::ostream* os) { *os << b.name; }

class VpuLaneBuildTest : public ::testing::TestWithParam<LaneBuild> {
 protected:
  void SetUp() override {
    if (GetParam().needs_avx2 && !detail::host_has_avx2())
      GTEST_SKIP() << "host has no AVX2";
  }
};

TEST_P(VpuLaneBuildTest, EveryOpcodeWidthAndEdgeMatchesReference) {
  Pair p(1024, GetParam().pass);
  std::mt19937 rng(0xA5C4E);
  unsigned checked = 0;
  for (ElemType et : kWidths) {
    const unsigned cap = p.vlen() / elem_bytes(et);
    p.fill(rng, et, 4);
    for (unsigned o = 0; o < static_cast<unsigned>(VOpc::kOpcCount); ++o) {
      const auto op = static_cast<VOpc>(o);
      for (std::uint32_t vl : {0u, 1u, cap - 1, cap}) {
        for (std::uint32_t scalar :
             scalars_for(op, cap, vl, 8 * elem_bytes(et))) {
          for (const auto& regs : kAliasing) {
            VInsn insn;
            insn.op = op;
            insn.et = et;
            insn.vd = regs[0];
            insn.vs1 = regs[1];
            insn.vs2 = regs[2];
            insn.vl = vl;
            insn.scalar = scalar;
            const std::string diff = p.step(insn);
            ASSERT_TRUE(diff.empty()) << diff;
            p.restore(insn.vd);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 28u * 3u * 4u * 6u);
}

TEST_P(VpuLaneBuildTest, RandomStreamMatchesReference) {
  // Minimum VLEN: 16 int32 elements, so random slide amounts, gather
  // offsets and vl values land on and past capacity often.
  Pair p(64, GetParam().pass);
  std::mt19937 rng(1009);
  p.fill(rng, ElemType::kByte, 8);
  const std::uint32_t edges[] = {0u, 1u, 0x7Fu, 0x80u, 0x7FFFu, 0x8000u,
                                 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu};
  // Programs of 1-8 instructions, so later instructions read what earlier
  // ones of the same pass wrote.
  std::vector<VInsn> prog;
  for (int n = 0; n < 4000; n += static_cast<int>(prog.size())) {
    prog.resize(std::min<std::size_t>(1 + rng() % 8, 4000 - n));
    for (VInsn& insn : prog) {
      insn.op = static_cast<VOpc>(rng() % static_cast<unsigned>(VOpc::kOpcCount));
      insn.et = kWidths[rng() % 3];
      const unsigned cap = p.vlen() / elem_bytes(insn.et);
      // Few registers, so the operands alias often.
      insn.vd = static_cast<std::uint8_t>(rng() % 6);
      insn.vs1 = static_cast<std::uint8_t>(rng() % 6);
      insn.vs2 = static_cast<std::uint8_t>(rng() % 6);
      insn.vl = rng() % (cap + 1);
      switch (insn.op) {
        case VOpc::kMaccEs: insn.scalar = rng() % cap; break;
        case VOpc::kGatherStride:
          insn.scalar = pack16(rng() % 4, rng() % (cap + 4));
          break;
        case VOpc::kSlideDownVX:
        case VOpc::kSlideUpVX: insn.scalar = rng() % (cap + 4); break;
        default:
          insn.scalar = rng() % 2 ? edges[rng() % std::size(edges)]
                                  : static_cast<std::uint32_t>(rng());
      }
    }
    const std::string diff = p.step(prog);
    ASSERT_TRUE(diff.empty()) << "program at instruction " << n << ": "
                              << diff;
  }
  EXPECT_EQ(p.unit().stats().instructions, 4000u);
}

INSTANTIATE_TEST_SUITE_P(
    LaneBuilds, VpuLaneBuildTest,
    ::testing::Values(LaneBuild{"Portable", detail::lane_pass_portable, false},
                      LaneBuild{"Avx2", detail::lane_pass_avx2, true}),
    [](const ::testing::TestParamInfo<LaneBuild>& info) {
      return std::string(info.param.name);
    });

TEST(VpuReferenceTest, MaccEsIndexPastCapacityStillAsserts) {
  Pair p(64);
  VInsn insn;
  insn.op = VOpc::kMaccEs;
  insn.et = ElemType::kHalf;
  insn.vd = 1;
  insn.vs1 = 2;
  insn.vs2 = 3;
  insn.vl = 4;
  insn.scalar = p.vlen() / 2;
  EXPECT_THROW(test::run_insn(p.unit(), insn), AssertionError);
  EXPECT_EQ(p.unit().stats().instructions, 0u);
}

}  // namespace
}  // namespace arcane::vpu
