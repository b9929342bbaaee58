#include "vpu/vector_unit.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define ARCANE_VPU_X86_BUILDS 1
#include <cpuid.h>
#endif

namespace arcane::vpu {
namespace {

// Lane arithmetic modulo 2^w: operands convert to uint32_t (defined for
// negative values), results convert back to T (modular since C++20). Not the
// element's own unsigned type: uint16_t * uint16_t would promote to int.
template <typename T>
constexpr std::uint32_t lane(T v) { return static_cast<std::uint32_t>(v); }

constexpr unsigned kLastElemType = static_cast<unsigned>(ElemType::kByte);

// Element-typed functional execution of one validated instruction. a/b point
// at the source registers (or a snapshot when a source aliases vd — see
// functional_pass()), so reads behave as if they all happen before any
// write, and the block copies below never overlap. Always inlined, so each
// build of the lane pass compiles the loops for its own instruction set.
template <typename T>
[[gnu::always_inline]] inline void exec_typed(const VInsn& insn,
                                              std::uint8_t* vd,
                                              const std::uint8_t* vs1,
                                              const std::uint8_t* vs2,
                                              unsigned capacity) {
  T* const d = reinterpret_cast<T*>(vd);
  const T* const a = reinterpret_cast<const T*>(vs1);
  const T* const b = reinterpret_cast<const T*>(vs2);
  const std::uint32_t vl = insn.vl;
  const T x = static_cast<T>(insn.scalar);
  const std::uint32_t ux = lane(x);

  switch (insn.op) {
    case VOpc::kAddVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) + lane(b[i])); break;
    case VOpc::kAddVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) + ux); break;
    case VOpc::kSubVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) - lane(b[i])); break;
    case VOpc::kSubVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) - ux); break;
    case VOpc::kRsubVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(ux - lane(a[i])); break;
    case VOpc::kMulVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) * lane(b[i])); break;
    case VOpc::kMulVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(a[i]) * ux); break;
    case VOpc::kMaccVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(d[i]) + lane(a[i]) * lane(b[i])); break;
    case VOpc::kMaccVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = static_cast<T>(lane(d[i]) + ux * lane(b[i])); break;
    case VOpc::kMaccEs: {
      // Validation has checked scalar < capacity.
      const std::uint32_t e = lane(a[insn.scalar]);
      for (std::uint32_t i = 0; i < vl; ++i)
        d[i] = static_cast<T>(lane(d[i]) + e * lane(b[i]));
      break;
    }
    case VOpc::kMinVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = std::min(a[i], b[i]); break;
    case VOpc::kMinVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = std::min(a[i], x); break;
    case VOpc::kMaxVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = std::max(a[i], b[i]); break;
    case VOpc::kMaxVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = std::max(a[i], x); break;
    case VOpc::kAndVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] & b[i]; break;
    case VOpc::kAndVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] & x; break;
    case VOpc::kOrVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] | b[i]; break;
    case VOpc::kOrVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] | x; break;
    case VOpc::kXorVV: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] ^ b[i]; break;
    case VOpc::kXorVX: for (std::uint32_t i = 0; i < vl; ++i) d[i] = a[i] ^ x; break;
    case VOpc::kSllVX: {
      const unsigned sh = insn.scalar & (8u * sizeof(T) - 1u);
      for (std::uint32_t i = 0; i < vl; ++i)
        d[i] = static_cast<T>(lane(a[i]) << sh);
      break;
    }
    case VOpc::kSrlVX: {
      const unsigned sh = insn.scalar & (8u * sizeof(T) - 1u);
      using U = std::make_unsigned_t<T>;
      for (std::uint32_t i = 0; i < vl; ++i)
        d[i] = static_cast<T>(static_cast<U>(a[i]) >> sh);
      break;
    }
    case VOpc::kSraVX: {
      const unsigned sh = insn.scalar & (8u * sizeof(T) - 1u);
      for (std::uint32_t i = 0; i < vl; ++i)
        d[i] = static_cast<T>(a[i] >> sh);
      break;
    }
    case VOpc::kSlideDownVX: {
      // Sources at or past VLEN read zero: copy the in-range prefix, then
      // zero-fill [n, vl).
      const std::uint32_t n =
          insn.scalar < capacity ? std::min(vl, capacity - insn.scalar) : 0;
      if (n != 0) std::memcpy(d, a + insn.scalar, n * sizeof(T));
      std::memset(d + n, 0, (vl - n) * sizeof(T));
      break;
    }
    case VOpc::kSlideUpVX:
      // Elements below the slide amount keep their old contents.
      if (insn.scalar < vl)
        std::memcpy(d + insn.scalar, a, (vl - insn.scalar) * sizeof(T));
      break;
    case VOpc::kMvVV:
      std::memcpy(d, a, vl * sizeof(T));
      break;
    case VOpc::kMvVX:
      std::fill_n(d, vl, x);
      break;
    case VOpc::kGatherStride: {
      // Source indices i*stride + off only grow with i, so the in-range
      // ones form a prefix [0, n); the rest read zero.
      const std::uint32_t stride = hi16(insn.scalar);
      const std::uint32_t off = lo16(insn.scalar);
      std::uint32_t n = 0;
      if (off < capacity)
        n = stride == 0 ? vl
                        : std::min(vl, (capacity - off - 1) / stride + 1);
      for (std::uint32_t i = 0; i < n; ++i) d[i] = a[i * stride + off];
      std::memset(d + n, 0, (vl - n) * sizeof(T));
      break;
    }
    case VOpc::kOpcCount:  // rejected by the pass
      break;
  }
}

// Raises the error for an instruction the lane pass found invalid, checking
// in the order a reader would: element type, vl, registers, opcode, then the
// vmacc.es element index. Every message names the instruction.
[[gnu::cold, gnu::noinline, noreturn]] void reject_insn(const VInsn& insn,
                                                        const VpuConfig& cfg) {
  const std::string text = vinsn_to_string(insn);
  ARCANE_CHECK(insn.et <= ElemType::kByte, "invalid element type in " << text);
  const unsigned ebytes = elem_bytes(insn.et);
  const unsigned capacity = cfg.vlen_bytes / ebytes;
  ARCANE_CHECK(insn.vl <= capacity, "vl exceeds VLEN/" << ebytes
                                                        << " capacity in "
                                                        << text);
  ARCANE_CHECK(insn.vd < cfg.num_vregs && insn.vs1 < cfg.num_vregs &&
                   insn.vs2 < cfg.num_vregs,
               "vector register index out of range in " << text);
  ARCANE_ASSERT(insn.op < VOpc::kOpcCount, "invalid vector opcode in " << text);
  ARCANE_ASSERT(insn.op != VOpc::kMaccEs || insn.scalar < capacity,
                "vmacc.es element index out of range in " << text);
  ARCANE_ASSERT(false, "no check failed for " << text);
}

// Elements per register at a valid instruction's width.
unsigned capacity_of(const VInsn& insn, const VpuConfig& cfg) {
  return cfg.vlen_bytes >> (2u - static_cast<unsigned>(insn.et));
}

// The checks reject_insn spells out, as plain compares: element type, vl,
// registers, opcode and the vmacc.es element index. An element is 4 >> et
// bytes and VLEN a power of two: shift, do not divide.
bool valid_insn(const VInsn& insn, const VpuConfig& cfg) {
  const unsigned et = static_cast<unsigned>(insn.et);
  if (et > kLastElemType) return false;
  const unsigned capacity = capacity_of(insn, cfg);
  const unsigned nregs = cfg.num_vregs;
  return insn.vl <= capacity && insn.vd < nregs && insn.vs1 < nregs &&
         insn.vs2 < nregs && insn.op < VOpc::kOpcCount &&
         (insn.op != VOpc::kMaccEs || insn.scalar < capacity);
}

void count_insn(sim::VpuStats& stats, const VInsn& insn) {
  ++stats.instructions;
  stats.elements += insn.vl;
  if (vinsn_is_mac(insn.op)) stats.macs += insn.vl;
}

// True when `slide` + `mac` may run as one MAC reading the slide's source
// at the slide amount: the MAC's only use of the slide's result is its
// vector operand, the source is not written in between, and the amount is
// in range, so the in-range elements are k..cap-1 and the zero-filled tail
// adds nothing. Whether the slide's own write may be dropped is the
// caller's question.
bool foldable(const VInsn& slide, const VInsn& mac, unsigned cap) {
  const unsigned tmp = slide.vd, in = slide.vs1;
  return slide.op == VOpc::kSlideDownVX && mac.op == VOpc::kMaccEs &&
         mac.vs2 == tmp && slide.et == mac.et && slide.vl == mac.vl &&
         tmp != in && tmp != mac.vd && tmp != mac.vs1 && in != mac.vd &&
         slide.scalar > 0 && slide.scalar < cap;
}

}  // namespace

void Program::prepare(std::span<const VInsn> prog, const VpuConfig& cfg,
                      unsigned dispatch_gap) {
  cfg_ = cfg;
  size_ = prog.size();
  valid_ = true;
  steps_.resize(prog.size());
  detail::Step* const first = steps_.data();
  detail::Step* out = first;

  // The slide of the last folded pair, while its own write may still be
  // needed. The first later instruction that names its register decides:
  // one that overwrites the slide's vl elements without reading the
  // register drops the slide's step; any other keeps it, and so does the
  // next fold or the end of the valid prefix. A MAC or a vslideup keeps
  // old elements, so it reads its destination.
  detail::Step* slide_step = nullptr;
  unsigned tmp = 0;
  std::uint32_t tmp_bytes = 0;
  std::size_t dropped = 0;

  // Validate, time, count and copy the valid prefix; the first invalid
  // instruction throws after it. Issue model: instruction i is dispatched
  // at (i+1) * gap after the start and executes after instruction i-1
  // completes, so the duration does not depend on the start time.
  sim::VpuStats delta;
  Cycle done = 0;
  for (std::size_t i = 0; i < prog.size(); ++i) {
    const VInsn& insn = prog[i];
    if (!valid_insn(insn, cfg)) [[unlikely]] {
      valid_ = false;
      bad_ = insn;
      break;
    }
    const Cycle lat = vinsn_cycles(insn, cfg);
    done = std::max<Cycle>((i + 1) * Cycle{dispatch_gap}, done) + lat;
    delta.busy_cycles += lat;
    count_insn(delta, insn);

    if (slide_step != nullptr &&
        (insn.vd == tmp || insn.vs1 == tmp || insn.vs2 == tmp)) {
      if (insn.vs1 != tmp && insn.vs2 != tmp && !vinsn_is_mac(insn.op) &&
          insn.op != VOpc::kSlideUpVX &&
          insn.vl * elem_bytes(insn.et) >= tmp_bytes) {
        slide_step->src_off = kDropped;
        ++dropped;
      }
      slide_step = nullptr;
    }
    *out++ = {insn, 0};

    // A vmacc.es reading the slide just before it reads the slide's source
    // at the slide amount instead: the in-range elements k..cap-1, since
    // the zero-filled tail adds nothing.
    const unsigned cap = capacity_of(insn, cfg);
    if (i > 0 && foldable(prog[i - 1], insn, cap)) {
      const VInsn& slide = prog[i - 1];
      detail::Step& mac = out[-1];
      mac.src_off = slide.scalar * elem_bytes(slide.et);
      mac.insn.vs2 = slide.vs1;
      mac.insn.vl = std::min(slide.vl, cap - slide.scalar);
      slide_step = out - 2;
      tmp = slide.vd;
      tmp_bytes = slide.vl * elem_bytes(slide.et);
    }
  }
  if (!valid_) delta.busy_cycles = 0;
  delta_ = delta;
  duration_ = done;
  steps_.resize(static_cast<std::size_t>(out - first));
  if (dropped != 0) {
    std::erase_if(steps_, [](const detail::Step& s) {
      return s.src_off == kDropped;
    });
  }
}

[[gnu::always_inline]] inline void VectorUnit::functional_pass(
    std::span<const detail::Step> steps) {
  // A VPU's registers are consecutive lines of the storage: register v
  // starts at regs + v * VLEN. Program::prepare validated every step.
  std::uint8_t* const regs = vreg(0).data();
  const std::size_t vlen = cfg_.vlen_bytes;

  for (const detail::Step& step : steps) {
    const VInsn& insn = step.insn;
    const unsigned capacity = capacity_of(insn, cfg_);

    // Snapshot a source only when it aliases the destination register, so
    // overlapping writes cannot corrupt reads (the hardware streams through
    // separate read/write ports). Non-aliasing sources — the overwhelmingly
    // common case in the kernel library — are read in place.
    std::uint8_t* const d = regs + insn.vd * vlen;
    const std::uint8_t* s1 = regs + insn.vs1 * vlen;
    const std::uint8_t* s2 = regs + insn.vs2 * vlen;
    if (insn.vs1 == insn.vd) {
      snap1_.resize(vlen);
      std::memcpy(snap1_.data(), s1, vlen);
      s1 = snap1_.data();
    }
    if (insn.vs2 == insn.vd) {
      snap2_.resize(vlen);
      std::memcpy(snap2_.data(), s2, vlen);
      s2 = snap2_.data();
    }
    s2 += step.src_off;

    switch (insn.et) {
      case ElemType::kWord: exec_typed<std::int32_t>(insn, d, s1, s2, capacity); break;
      case ElemType::kHalf: exec_typed<std::int16_t>(insn, d, s1, s2, capacity); break;
      case ElemType::kByte: exec_typed<std::int8_t>(insn, d, s1, s2, capacity); break;
    }
  }
}

namespace detail {

void lane_pass_portable(VectorUnit& vu, std::span<const Step> steps) {
  vu.functional_pass(steps);
}

#ifdef ARCANE_VPU_X86_BUILDS

// The same pass compiled for AVX2: 256-bit integer lanes and a native 32-bit
// vector multiply (vpmulld), which the baseline x86-64 target lacks. The
// lane arithmetic is exact integer math, so both builds write identical
// bytes.
[[gnu::target("avx2")]] void lane_pass_avx2(VectorUnit& vu,
                                            std::span<const Step> steps) {
  vu.functional_pass(steps);
}

bool host_has_avx2() {
  // Read with <cpuid.h> rather than __builtin_cpu_supports or
  // target_clones: those pull libgcc's CPU-model initializer into the
  // binary's startup code.
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & bit_OSXSAVE) == 0 || (c & bit_AVX) == 0) return false;
  // XCR0 bits 1 and 2: the OS saves XMM and YMM state on context switch.
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  if ((xcr0_lo & 0x6u) != 0x6u) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & bit_AVX2) != 0;
}

#else

void lane_pass_avx2(VectorUnit& vu, std::span<const Step> steps) {
  vu.functional_pass(steps);
}

bool host_has_avx2() { return false; }

#endif

Cycle run_with(VectorUnit& vu, const Program& prog, Cycle start,
               LanePass pass) {
  const VpuConfig& cfg = vu.config();
  ARCANE_ASSERT(prog.cfg_.vlen_bytes == cfg.vlen_bytes &&
                    prog.cfg_.num_vregs == cfg.num_vregs,
                "program prepared for another VPU geometry");
  pass(vu, prog.steps_);
  sim::VpuStats& stats = vu.stats();
  stats.instructions += prog.delta_.instructions;
  stats.elements += prog.delta_.elements;
  stats.macs += prog.delta_.macs;
  stats.busy_cycles += prog.delta_.busy_cycles;
  if (!prog.valid_) reject_insn(prog.bad_, cfg);
  return start + prog.duration_;
}

}  // namespace detail

namespace {

// The lane pass build this process runs, picked once at static init.
const detail::LanePass g_lane_pass = detail::host_has_avx2()
                                         ? detail::lane_pass_avx2
                                         : detail::lane_pass_portable;

}  // namespace

void VectorUnit::execute(const VInsn& insn) {
  if (!valid_insn(insn, cfg_)) [[unlikely]]
    reject_insn(insn, cfg_);
  const detail::Step step{insn, 0};
  g_lane_pass(*this, {&step, 1});
  count_insn(stats_, insn);
}

Cycle VectorUnit::run(const Program& prog, Cycle start) {
  return detail::run_with(*this, prog, start, g_lane_pass);
}

Cycle VectorUnit::run_program(std::span<const VInsn> prog, Cycle start,
                              unsigned dispatch_gap) {
  scratch_.prepare(prog, cfg_, dispatch_gap);
  return run(scratch_, start);
}

}  // namespace arcane::vpu
