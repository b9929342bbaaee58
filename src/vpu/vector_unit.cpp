#include "vpu/vector_unit.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "common/assert.hpp"

namespace arcane::vpu {
namespace {

// Lane arithmetic modulo 2^w: operands convert to uint32_t (defined for
// negative values), results convert back to T (modular since C++20). Not the
// element's own unsigned type: uint16_t * uint16_t would promote to int.
template <typename T>
constexpr std::uint32_t lane(T v) { return static_cast<std::uint32_t>(v); }

// Element-typed functional execution. a/b point at the source registers (or
// a snapshot when a source aliases vd — see execute()), so reads behave as if
// they all happen before any write, and the block copies below never overlap.
template <typename T>
void exec_typed(const VInsn& insn, T* d, const T* a, const T* b,
                unsigned capacity) {
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
      ARCANE_ASSERT(insn.scalar < capacity, "vmacc.es element index "
                                                << insn.scalar
                                                << " out of range");
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
    case VOpc::kOpcCount:
      ARCANE_ASSERT(false, "invalid vector opcode");
  }
}

}  // namespace

void VectorUnit::execute(const VInsn& insn) {
  const unsigned ebytes = elem_bytes(insn.et);
  // VLEN and element sizes are powers of two: shift, do not divide.
  const unsigned capacity =
      cfg_.vlen_bytes >> static_cast<unsigned>(std::countr_zero(ebytes));
  ARCANE_CHECK(insn.vl <= capacity, "vl " << insn.vl << " exceeds VLEN/"
                                          << ebytes << " capacity");
  ARCANE_CHECK(insn.vd < cfg_.num_vregs && insn.vs1 < cfg_.num_vregs &&
                   insn.vs2 < cfg_.num_vregs,
               "vector register index out of range");

  // Snapshot a source only when it aliases the destination register, so
  // overlapping writes cannot corrupt reads (the hardware streams through
  // separate read/write ports). Non-aliasing sources — the overwhelmingly
  // common case in the kernel library — are read in place, skipping two
  // VLEN-sized copies per instruction in the lane loop.
  auto src1 = vreg(insn.vs1);
  auto src2 = vreg(insn.vs2);
  const std::uint8_t* s1p = src1.data();
  const std::uint8_t* s2p = src2.data();
  if (insn.vs1 == insn.vd) {
    snap1_.resize(cfg_.vlen_bytes);
    std::memcpy(snap1_.data(), src1.data(), cfg_.vlen_bytes);
    s1p = snap1_.data();
  }
  if (insn.vs2 == insn.vd) {
    snap2_.resize(cfg_.vlen_bytes);
    std::memcpy(snap2_.data(), src2.data(), cfg_.vlen_bytes);
    s2p = snap2_.data();
  }

  auto run = [&](auto elem) {
    using T = decltype(elem);
    exec_typed<T>(insn, reinterpret_cast<T*>(vreg(insn.vd).data()),
                  reinterpret_cast<const T*>(s1p),
                  reinterpret_cast<const T*>(s2p), capacity);
  };
  switch (insn.et) {
    case ElemType::kWord: run(std::int32_t{}); break;
    case ElemType::kHalf: run(std::int16_t{}); break;
    case ElemType::kByte: run(std::int8_t{}); break;
    default:
      ARCANE_CHECK(false, "invalid element type "
                              << static_cast<unsigned>(insn.et));
  }

  ++stats_.instructions;
  stats_.elements += insn.vl;
  if (vinsn_is_mac(insn.op)) stats_.macs += insn.vl;
}

Cycle VectorUnit::run_program(std::span<const VInsn> prog, Cycle start,
                              unsigned dispatch_gap) {
  // Bounded-queue pipeline: instruction i enters the issue queue when the
  // eCPU has dispatched it AND a queue slot is free; it executes after its
  // predecessor completes (in-order single execution pipe).
  const unsigned depth = std::max(1u, cfg_.issue_queue);
  complete_.assign(prog.size() + 1, start);
  Cycle dispatch_ready = start;
  Cycle prev_complete = start;
  Cycle busy = 0;

  for (std::size_t i = 0; i < prog.size(); ++i) {
    execute(prog[i]);
    dispatch_ready += dispatch_gap;
    Cycle enqueue = dispatch_ready;
    if (i >= depth) enqueue = std::max(enqueue, complete_[i - depth]);
    const Cycle exec_start = std::max(enqueue, prev_complete);
    const Cycle lat = vinsn_cycles(prog[i], cfg_);
    prev_complete = exec_start + lat;
    complete_[i] = prev_complete;
    busy += lat;
  }
  stats_.busy_cycles += busy;
  return prev_complete;
}

}  // namespace arcane::vpu
