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
    case VOpc::kMaccEs:    // swept by mac_run
    case VOpc::kOpcCount:  // rejected by the pass
      break;
  }
}

// Bytes of the accumulator a MAC run sweep keeps in registers at a time, and
// the most terms it gathers per pass over the accumulator.
constexpr std::uint32_t kBlock = 64;
constexpr unsigned kRunChunk = 32;

// acc += e * w over one VB-byte sub-vector of lanes, with w read at `p`.
// Bytes multiply as the two halves of 16-bit lanes: the low byte of w * e is
// the low product, and (w & 0xFF00) * e has the high one in its high byte.
template <typename T, typename UV, typename MV, typename M>
[[gnu::always_inline]] inline void mac_lanes(UV& acc, const std::uint8_t* p,
                                             M e) {
  MV w;
  std::memcpy(&w, p, sizeof w);
  if constexpr (sizeof(T) == 1) {
    acc += reinterpret_cast<UV>(((w * e) & 0x00FF) | ((w & 0xFF00) * e));
  } else {
    acc += w * e;
  }
}

// Executes the MAC run of `n` validated vmacc.es steps starting at `run`:
// vd[i] += e_j * src_j[i + off_j] for every term j, with e_j = vs1_j[idx_j]
// and src_j the term's vs2 read at its `src_off`. One 64-byte block of vd at
// a time stays in registers, as 64 / VB sub-vectors of VB bytes, while every
// term adds into it. The arithmetic is in T's own unsigned width, where the
// sum is exact modulo 2^w in any order. The last partial block is computed
// whole, reading up to 63 bytes past vl (LineStorage::kReadPad covers the
// last register), and stored only up to vl. Each e_j is read before the
// sweep writes vd, and a term's vs2 that is vd (single-term runs only) is
// read at offset 0, each block before it is stored, so reads behave as if
// they all happen first.
template <typename T, unsigned VB>
[[gnu::always_inline]] inline void mac_run(const detail::Step* run, unsigned n,
                                           std::uint8_t* regs,
                                           std::size_t vlen) {
  using U = std::make_unsigned_t<T>;
  using M = std::conditional_t<sizeof(T) == 1, std::uint16_t, U>;
  typedef U UV __attribute__((vector_size(VB)));
  typedef M MV __attribute__((vector_size(VB)));
  static_assert(kBlock == 2 * VB || kBlock == 4 * VB);
  constexpr bool kFour = kBlock == 4 * VB;

  const VInsn& head = run->insn;
  std::uint8_t* const d = regs + head.vd * vlen;
  const std::uint32_t bytes = head.vl * static_cast<std::uint32_t>(sizeof(T));
  M e[kRunChunk];
  const std::uint8_t* src[kRunChunk];
  for (unsigned c = 0; c < n; c += kRunChunk) {
    const unsigned m = std::min(n - c, kRunChunk);
    for (unsigned j = 0; j < m; ++j) {
      const detail::Step& s = run[c + j];
      const T* const a = reinterpret_cast<const T*>(regs + s.insn.vs1 * vlen);
      e[j] = static_cast<U>(a[s.insn.scalar]);
      src[j] = regs + s.insn.vs2 * vlen + s.src_off;
    }
    for (std::uint32_t b = 0; b < bytes; b += kBlock) {
      // The block as named sub-vectors, not an array, so that they stay in
      // registers across the terms.
      std::uint8_t* const q = d + b;
      UV a0, a1, a2{}, a3{};
      std::memcpy(&a0, q, VB);
      std::memcpy(&a1, q + VB, VB);
      if constexpr (kFour) {
        std::memcpy(&a2, q + 2 * VB, VB);
        std::memcpy(&a3, q + 3 * VB, VB);
      }
      for (unsigned j = 0; j < m; ++j) {
        const std::uint8_t* const p = src[j] + b;
        mac_lanes<T, UV, MV>(a0, p, e[j]);
        mac_lanes<T, UV, MV>(a1, p + VB, e[j]);
        if constexpr (kFour) {
          mac_lanes<T, UV, MV>(a2, p + 2 * VB, e[j]);
          mac_lanes<T, UV, MV>(a3, p + 3 * VB, e[j]);
        }
      }
      if (bytes - b >= kBlock) {
        std::memcpy(q, &a0, VB);
        std::memcpy(q + VB, &a1, VB);
        if constexpr (kFour) {
          std::memcpy(q + 2 * VB, &a2, VB);
          std::memcpy(q + 3 * VB, &a3, VB);
        }
      } else {
        const UV acc[4] = {a0, a1, a2, a3};
        std::memcpy(q, acc, bytes - b);
      }
    }
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

// True when `insn` overwrites register `reg`'s first `bytes` bytes without
// reading it. A MAC or a vslideup keeps old elements, so it reads its
// destination.
bool overwrites(const VInsn& insn, unsigned reg, std::uint32_t bytes) {
  return insn.vd == reg && insn.vs1 != reg && insn.vs2 != reg &&
         !vinsn_is_mac(insn.op) && insn.op != VOpc::kSlideUpVX &&
         insn.vl * elem_bytes(insn.et) >= bytes;
}

// True when the vmacc.es `term` may join the MAC run `head` starts: the same
// accumulator, element type and vl, and no source of either is the
// accumulator, so no term reads the block the sweep holds in registers.
bool joins(const VInsn& head, const VInsn& term) {
  const unsigned acc = head.vd;
  return term.vd == acc && term.et == head.et && term.vl == head.vl &&
         head.vs1 != acc && head.vs2 != acc && term.vs1 != acc &&
         term.vs2 != acc;
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

  // The slide of the last folded pair, held out of the steps while its own
  // write may still be needed. The first later instruction that names its
  // register decides: one that overwrites the slide's vl elements without
  // reading the register drops the slide; any other keeps it, and so do an
  // instruction that writes the slide's source, the next vslidedown and the
  // end of the valid prefix. A kept slide's step goes just before the
  // instruction that decided: the ones it moves past neither name its
  // register nor write its source, so every read sees the same bytes.
  bool held = false;
  VInsn slide;
  std::uint32_t tmp_bytes = 0;
  // The first step of the open MAC run.
  detail::Step* head = nullptr;

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

    if (held) {
      const unsigned tmp = slide.vd;
      const bool names = insn.vd == tmp || insn.vs1 == tmp || insn.vs2 == tmp;
      if (names || insn.vd == slide.vs1 || insn.op == VOpc::kSlideDownVX) {
        held = false;
        if (!names || !overwrites(insn, tmp, tmp_bytes)) *out++ = {slide};
      }
    }

    // A vmacc.es reading the slide just before it reads the slide's source
    // at the slide amount instead: the in-range elements k..cap-1, since
    // the zero-filled tail adds nothing. The MAC's step replaces the
    // slide's, the last one (a vslidedown decides any slide held before
    // it), and the slide is held.
    const unsigned cap = capacity_of(insn, cfg);
    if (i > 0 && foldable(prog[i - 1], insn, cap)) {
      slide = prog[i - 1];
      held = true;
      tmp_bytes = slide.vl * elem_bytes(slide.et);
      out[-1] = {insn, slide.scalar * elem_bytes(slide.et)};
      out[-1].insn.vs2 = slide.vs1;
      out[-1].insn.vl = std::min(slide.vl, cap - slide.scalar);
    } else {
      *out++ = {insn};
    }

    if (insn.op == VOpc::kMaccEs) {
      detail::Step* const mac = out - 1;
      if (head != nullptr && head + head->run == mac &&
          joins(head->insn, mac->insn))
        ++head->run;
      else
        head = mac;
    }
  }
  if (held) *out++ = {slide};
  if (!valid_) delta.busy_cycles = 0;
  delta_ = delta;
  duration_ = done;
  steps_.resize(static_cast<std::size_t>(out - first));
}

template <unsigned VB>
[[gnu::always_inline]] inline void VectorUnit::functional_pass(
    std::span<const detail::Step> steps) {
  // A VPU's registers are consecutive lines of the storage: register v
  // starts at regs + v * VLEN. Program::prepare validated every step.
  std::uint8_t* const regs = vreg(0).data();
  const std::size_t vlen = cfg_.vlen_bytes;

  for (std::size_t i = 0; i < steps.size(); ++i) {
    const detail::Step& step = steps[i];
    const VInsn& insn = step.insn;
    if (insn.op == VOpc::kMaccEs) {
      switch (insn.et) {
        case ElemType::kWord: mac_run<std::int32_t, VB>(&step, step.run, regs, vlen); break;
        case ElemType::kHalf: mac_run<std::int16_t, VB>(&step, step.run, regs, vlen); break;
        case ElemType::kByte: mac_run<std::int8_t, VB>(&step, step.run, regs, vlen); break;
      }
      i += step.run - 1;
      continue;
    }
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
  vu.functional_pass<16>(steps);
}

#ifdef ARCANE_VPU_X86_BUILDS

// The same pass compiled for AVX2: 256-bit integer lanes and a native 32-bit
// vector multiply (vpmulld), which the baseline x86-64 target lacks. The
// lane arithmetic is exact integer math, so both builds write identical
// bytes.
[[gnu::target("avx2")]] void lane_pass_avx2(VectorUnit& vu,
                                            std::span<const Step> steps) {
  vu.functional_pass<32>(steps);
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
  vu.functional_pass<16>(steps);
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

Cycle VectorUnit::run(const Program& prog, Cycle start) {
  return detail::run_with(*this, prog, start, g_lane_pass);
}

}  // namespace arcane::vpu
