#include "cpu/cpu.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "cpu/run_loop.hpp"

namespace arcane::cpu {

using isa::DecodedInst;
using isa::Op;

const char* halt_reason_name(HaltReason r) {
  switch (r) {
    case HaltReason::kNone: return "none";
    case HaltReason::kEcall: return "ecall";
    case HaltReason::kEbreak: return "ebreak";
    case HaltReason::kIllegalInstruction: return "illegal-instruction";
    case HaltReason::kMisalignedAccess: return "misaligned-access";
    case HaltReason::kBusFault: return "bus-fault";
    case HaltReason::kMaxInstructions: return "max-instructions";
  }
  return "?";
}

HostCpu::HostCpu(const SystemConfig& cfg, mem::InstructionMemory& imem,
                 DataPort& port, Coprocessor* copro)
    : cfg_(cfg), timing_(cfg.cpu), imem_(&imem), port_(&port), copro_(copro) {
  // The block-entry fetch check computes imem size - 2.
  ARCANE_CHECK(imem.size() >= 2, "instruction memory holds no instruction");
  invalidate_decode_cache();
}

void HostCpu::invalidate_decode_cache() {
  const std::size_t n = imem_->size() / 2;
  if (decode_gen_.size() != n) {
    static_assert(std::is_trivially_destructible_v<Slot>,
                  "decode cache entries are never destroyed");
    decode_cache_.reset(static_cast<Slot*>(::operator new(n * sizeof(Slot))));
    decode_gen_.assign(n, 0);
    gen_ = 1;
    return;
  }
  if (++gen_ == 0) {  // stamp wrapped: reset the slate once per 2^32 loads
    std::fill(decode_gen_.begin(), decode_gen_.end(), 0u);
    gen_ = 1;
  }
}

void HostCpu::reset(Addr pc, Addr sp, Cycle start) {
  regs_.fill(0);
  regs_[reg_index(isa::Reg::kSp)] = sp;
  ARCANE_CHECK(pc % 2 == 0, "reset pc must be halfword aligned");
  pc_ = pc;
  time_ = start;
  start_ = start;
  hwloop_ = {};
  stats_ = {};
}

namespace {

/// Ops after which a straight-line block ends: control transfers, CSR
/// reads, hardware-loop setup, coprocessor offloads and the halting ops.
bool ends_block(Op op) {
  switch (op) {
    case Op::kJal: case Op::kJalr:
    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
    case Op::kBltu: case Op::kBgeu:
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
    case Op::kCvSetup: case Op::kXmnmc: case Op::kEcall: case Op::kEbreak:
      return true;
    default:
      return false;
  }
}

}  // namespace

HaltReason HostCpu::decode_block(std::size_t slot) {
  constexpr unsigned kMaxBlock = std::numeric_limits<std::uint16_t>::max();
  const std::uint32_t isize = imem_->size();
  // Pass 1: decode the straight-line run from `slot`. It stops after a
  // block-ending op, before an illegal op or a fetch past the end of imem,
  // or at an entry that is already valid, whose block it then extends.
  std::size_t pos = slot;
  unsigned len = 0, rvc = 0, tail = 0, tail_rvc = 0;
  while (len < kMaxBlock && 2 * pos + 2 <= isize) {
    if (decode_gen_[pos] == gen_) {
      if (len + decode_cache_[pos].block <= kMaxBlock) {
        tail = decode_cache_[pos].block;
        tail_rvc = decode_cache_[pos].block_rvc;
      }
      break;
    }
    const std::uint32_t word = imem_->fetch(imem_->base() + 2 * pos);
    // A 32-bit op whose upper half lies past the end is a fetch fault.
    if (!isa::is_rvc(word) && 2 * pos + 4 > isize) {
      if (len == 0) return HaltReason::kBusFault;
      break;
    }
    const DecodedInst d = isa::decode(word);
    if (d.op == Op::kIllegal) {
      if (len == 0) return HaltReason::kIllegalInstruction;
      break;
    }
    std::construct_at(decode_cache_.get() + pos, Slot{d, 0, 0});
    decode_gen_[pos] = gen_;
    ++len;
    rvc += d.is_compressed() ? 1 : 0;
    pos += d.size / 2;
    if (ends_block(d.op)) break;
  }
  // Pass 2: each decoded entry records the rest of the block from it.
  unsigned block = len + tail, block_rvc = rvc + tail_rvc;
  pos = slot;
  for (unsigned i = 0; i < len; ++i) {
    Slot& s = decode_cache_[pos];
    s.block = static_cast<std::uint16_t>(block--);
    s.block_rvc = static_cast<std::uint16_t>(block_rvc);
    block_rvc -= s.inst.is_compressed() ? 1 : 0;
    pos += s.inst.size / 2;
  }
  return HaltReason::kNone;
}

HostCpu::RunResult HostCpu::run(std::uint64_t max_instructions) {
  return run_on(*port_, max_instructions);
}

}  // namespace arcane::cpu
