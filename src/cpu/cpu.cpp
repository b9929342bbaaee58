#include "cpu/cpu.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <type_traits>

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "isa/disasm.hpp"

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
  // run()'s fetch check computes imem size - 2.
  ARCANE_CHECK(imem.size() >= 2, "instruction memory holds no instruction");
  invalidate_decode_cache();
}

void HostCpu::invalidate_decode_cache() {
  const std::size_t n = imem_->size() / 2;
  if (decode_gen_.size() != n) {
    static_assert(std::is_trivially_destructible_v<DecodedInst>,
                  "decode cache entries are never destroyed");
    decode_cache_.reset(
        static_cast<DecodedInst*>(::operator new(n * sizeof(DecodedInst))));
    decode_gen_.assign(n, 0);
    gen_ = 1;
    return;
  }
  if (++gen_ == 0) {  // stamp wrapped: reset the slate once per 2^32 loads
    std::fill(decode_gen_.begin(), decode_gen_.end(), 0u);
    gen_ = 1;
  }
}

void HostCpu::reset(Addr pc, Addr sp) {
  regs_.fill(0);
  regs_[reg_index(isa::Reg::kSp)] = sp;
  ARCANE_CHECK(pc % 2 == 0, "reset pc must be halfword aligned");
  pc_ = pc;
  time_ = 0;
  hwloop_ = {};
  stats_ = {};
}

HostCpu::RunResult HostCpu::run(std::uint64_t max_instructions) {
  // pc, time and the decode cache (no program loads mid-run) stay in
  // registers for the whole loop; halt() writes pc and time back.
  Addr pc = pc_;
  Cycle now = time_;
  const Addr ibase = imem_->base();
  const std::uint32_t isize = imem_->size();
  const bool pulp = xcvpulp();
  DecodedInst* const dcache = decode_cache_.get();
  std::uint32_t* const dgen = decode_gen_.data();
  const std::uint32_t gen = gen_;
  auto halt = [&](HaltReason why) {
    pc_ = pc;
    time_ = now;
    stats_.cycles = now;
    return RunResult{why, now, stats_.instructions, regs_[10], pc};
  };

  auto sext8 = [](std::uint32_t v) { return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(v))); };
  auto sext16 = [](std::uint32_t v) { return static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(v))); };

  // One load or store's data access. Misaligned accesses that cross a
  // 32-bit boundary split into two bus transactions, as on the CV32E40X
  // LSU; cycles past the base latency count as stall. False on a bus fault.
  auto mem_read = [&](Addr addr, unsigned bytes, std::uint32_t& raw) {
    const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
    std::uint8_t buf[4] = {0, 0, 0, 0};
    const Cycle start = now + timing_.load_base;
    Cycle done;
    try {
      done = port_->read(addr, p1, buf, now);
      if (p1 < bytes) done = port_->read(addr + p1, bytes - p1, buf + p1, done);
    } catch (const Error&) {
      return false;
    }
    std::memcpy(&raw, buf, 4);
    stats_.stall_cycles += (done > start) ? done - start : 0;
    now = std::max(done, start);
    ++stats_.loads;
    return true;
  };
  auto mem_write = [&](Addr addr, unsigned bytes, std::uint32_t value) {
    const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
    std::uint8_t buf[4];
    std::memcpy(buf, &value, 4);
    const Cycle start = now + timing_.store_base;
    Cycle done;
    try {
      done = port_->write(addr, p1, buf, now);
      if (p1 < bytes) done = port_->write(addr + p1, bytes - p1, buf + p1, done);
    } catch (const Error&) {
      return false;
    }
    stats_.stall_cycles += (done > start) ? done - start : 0;
    now = std::max(done, start);
    ++stats_.stores;
    return true;
  };

  for (std::uint64_t executed = 0; executed < max_instructions; ++executed) {
    // One compare covers pc below the base, past the end and wrapped pc + 2.
    if (pc - ibase > isize - 2) return halt(HaltReason::kBusFault);
    const std::size_t slot = (pc - ibase) >> 1;
    if (dgen[slot] != gen) {
      std::construct_at(dcache + slot, isa::decode(imem_->fetch(pc)));
      dgen[slot] = gen;
    }
    const DecodedInst& d = dcache[slot];
    if (d.op == Op::kIllegal) return halt(HaltReason::kIllegalInstruction);

    Addr next_pc = pc + d.size;
    const std::uint32_t rs1 = regs_[d.rs1];
    const std::uint32_t rs2 = regs_[d.rs2];
    std::uint32_t rd_val = 0;
    bool write_rd = false;

    ++stats_.instructions;
    if (d.is_compressed()) ++stats_.compressed_instructions;

    switch (d.op) {
      // ---- ALU ----
      case Op::kLui: rd_val = static_cast<std::uint32_t>(d.imm) << 12; write_rd = true; now += timing_.alu; break;
      case Op::kAuipc: rd_val = pc + (static_cast<std::uint32_t>(d.imm) << 12); write_rd = true; now += timing_.alu; break;
      case Op::kAddi: rd_val = rs1 + static_cast<std::uint32_t>(d.imm); write_rd = true; now += timing_.alu; break;
      case Op::kSlti: rd_val = static_cast<std::int32_t>(rs1) < d.imm ? 1 : 0; write_rd = true; now += timing_.alu; break;
      case Op::kSltiu: rd_val = rs1 < static_cast<std::uint32_t>(d.imm) ? 1 : 0; write_rd = true; now += timing_.alu; break;
      case Op::kXori: rd_val = rs1 ^ static_cast<std::uint32_t>(d.imm); write_rd = true; now += timing_.alu; break;
      case Op::kOri: rd_val = rs1 | static_cast<std::uint32_t>(d.imm); write_rd = true; now += timing_.alu; break;
      case Op::kAndi: rd_val = rs1 & static_cast<std::uint32_t>(d.imm); write_rd = true; now += timing_.alu; break;
      case Op::kSlli: rd_val = rs1 << (d.imm & 31); write_rd = true; now += timing_.alu; break;
      case Op::kSrli: rd_val = rs1 >> (d.imm & 31); write_rd = true; now += timing_.alu; break;
      case Op::kSrai: rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (d.imm & 31)); write_rd = true; now += timing_.alu; break;
      case Op::kAdd: rd_val = rs1 + rs2; write_rd = true; now += timing_.alu; break;
      case Op::kSub: rd_val = rs1 - rs2; write_rd = true; now += timing_.alu; break;
      case Op::kSll: rd_val = rs1 << (rs2 & 31); write_rd = true; now += timing_.alu; break;
      case Op::kSlt: rd_val = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? 1 : 0; write_rd = true; now += timing_.alu; break;
      case Op::kSltu: rd_val = rs1 < rs2 ? 1 : 0; write_rd = true; now += timing_.alu; break;
      case Op::kXor: rd_val = rs1 ^ rs2; write_rd = true; now += timing_.alu; break;
      case Op::kSrl: rd_val = rs1 >> (rs2 & 31); write_rd = true; now += timing_.alu; break;
      case Op::kSra: rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) >> (rs2 & 31)); write_rd = true; now += timing_.alu; break;
      case Op::kOr: rd_val = rs1 | rs2; write_rd = true; now += timing_.alu; break;
      case Op::kAnd: rd_val = rs1 & rs2; write_rd = true; now += timing_.alu; break;
      case Op::kFence: now += timing_.alu; break;

      // ---- jumps & branches ----
      case Op::kJal:
        rd_val = next_pc; write_rd = true;
        next_pc = pc + static_cast<Addr>(d.imm);
        now += timing_.jump;
        break;
      case Op::kJalr:
        rd_val = next_pc; write_rd = true;
        next_pc = (rs1 + static_cast<Addr>(d.imm)) & ~1u;
        now += timing_.jump;
        break;
      case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
      case Op::kBltu: case Op::kBgeu: {
        bool taken = false;
        switch (d.op) {
          case Op::kBeq: taken = rs1 == rs2; break;
          case Op::kBne: taken = rs1 != rs2; break;
          case Op::kBlt: taken = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2); break;
          case Op::kBge: taken = static_cast<std::int32_t>(rs1) >= static_cast<std::int32_t>(rs2); break;
          case Op::kBltu: taken = rs1 < rs2; break;
          default: taken = rs1 >= rs2; break;
        }
        ++stats_.branches;
        if (taken) {
          ++stats_.taken_branches;
          next_pc = pc + static_cast<Addr>(d.imm);
          now += timing_.branch_taken;
        } else {
          now += timing_.branch_not_taken;
        }
        break;
      }

      // ---- memory ----
      case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu: {
        const unsigned bytes = (d.op == Op::kLw) ? 4 : (d.op == Op::kLh || d.op == Op::kLhu) ? 2 : 1;
        std::uint32_t raw = 0;
        if (!mem_read(rs1 + static_cast<Addr>(d.imm), bytes, raw)) return halt(HaltReason::kBusFault);
        switch (d.op) {
          case Op::kLb: rd_val = sext8(raw); break;
          case Op::kLh: rd_val = sext16(raw); break;
          case Op::kLbu: rd_val = raw & 0xFFu; break;
          case Op::kLhu: rd_val = raw & 0xFFFFu; break;
          default: rd_val = raw; break;
        }
        write_rd = true;
        break;
      }
      case Op::kSb: case Op::kSh: case Op::kSw: {
        const unsigned bytes = (d.op == Op::kSw) ? 4 : (d.op == Op::kSh) ? 2 : 1;
        if (!mem_write(rs1 + static_cast<Addr>(d.imm), bytes, rs2)) return halt(HaltReason::kBusFault);
        break;
      }

      // ---- M ----
      case Op::kMul: rd_val = rs1 * rs2; write_rd = true; now += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulh: rd_val = static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::int64_t>(static_cast<std::int32_t>(rs2))) >> 32); write_rd = true; now += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulhsu: rd_val = static_cast<std::uint32_t>((static_cast<std::int64_t>(static_cast<std::int32_t>(rs1)) * static_cast<std::uint64_t>(rs2)) >> 32); write_rd = true; now += timing_.mul; ++stats_.mul_div; break;
      case Op::kMulhu: rd_val = static_cast<std::uint32_t>((static_cast<std::uint64_t>(rs1) * static_cast<std::uint64_t>(rs2)) >> 32); write_rd = true; now += timing_.mul; ++stats_.mul_div; break;
      case Op::kDiv:
        if (rs2 == 0) rd_val = 0xFFFF'FFFFu;
        else if (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu) rd_val = 0x8000'0000u;
        else rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) / static_cast<std::int32_t>(rs2));
        write_rd = true; now += timing_.div; ++stats_.mul_div; break;
      case Op::kDivu:
        rd_val = rs2 == 0 ? 0xFFFF'FFFFu : rs1 / rs2;
        write_rd = true; now += timing_.div; ++stats_.mul_div; break;
      case Op::kRem:
        if (rs2 == 0) rd_val = rs1;
        else if (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu) rd_val = 0;
        else rd_val = static_cast<std::uint32_t>(static_cast<std::int32_t>(rs1) % static_cast<std::int32_t>(rs2));
        write_rd = true; now += timing_.div; ++stats_.mul_div; break;
      case Op::kRemu:
        rd_val = rs2 == 0 ? rs1 : rs1 % rs2;
        write_rd = true; now += timing_.div; ++stats_.mul_div; break;

      // ---- Zicsr (reads of the counters; writes are ignored) ----
      case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
      case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
        const auto csr = static_cast<std::uint16_t>(d.imm);
        switch (csr) {
          case isa::kCsrMcycle: rd_val = static_cast<std::uint32_t>(now); break;
          case isa::kCsrMcycleH: rd_val = static_cast<std::uint32_t>(now >> 32); break;
          case isa::kCsrMinstret: rd_val = static_cast<std::uint32_t>(stats_.instructions); break;
          case isa::kCsrMinstretH: rd_val = static_cast<std::uint32_t>(stats_.instructions >> 32); break;
          case isa::kCsrMhartid: rd_val = 0; break;
          default: return halt(HaltReason::kIllegalInstruction);
        }
        write_rd = true;
        now += timing_.csr;
        break;
      }

      case Op::kEcall: now += timing_.alu; pc = next_pc; return halt(HaltReason::kEcall);
      case Op::kEbreak: now += timing_.alu; pc = next_pc; return halt(HaltReason::kEbreak);

      // ---- XCVPULP ----
      case Op::kCvLbPost: case Op::kCvLbuPost: case Op::kCvLhPost:
      case Op::kCvLhuPost: case Op::kCvLwPost: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned bytes = (d.op == Op::kCvLwPost) ? 4 : (d.op == Op::kCvLhPost || d.op == Op::kCvLhuPost) ? 2 : 1;
        std::uint32_t raw = 0;
        if (!mem_read(rs1, bytes, raw)) return halt(HaltReason::kBusFault);
        switch (d.op) {
          case Op::kCvLbPost: rd_val = sext8(raw); break;
          case Op::kCvLbuPost: rd_val = raw & 0xFFu; break;
          case Op::kCvLhPost: rd_val = sext16(raw); break;
          case Op::kCvLhuPost: rd_val = raw & 0xFFFFu; break;
          default: rd_val = raw; break;
        }
        write_rd = true;
        // Post-increment the pointer. rd == rs1 is architecturally
        // unpredictable; we define rd (the loaded value) to win.
        regs_[d.rs1] = rs1 + static_cast<std::uint32_t>(d.imm);
        if (d.rs1 == 0) regs_[0] = 0;
        break;
      }
      case Op::kCvSbPost: case Op::kCvShPost: case Op::kCvSwPost: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned bytes = (d.op == Op::kCvSwPost) ? 4 : (d.op == Op::kCvShPost) ? 2 : 1;
        if (!mem_write(rs1, bytes, rs2)) return halt(HaltReason::kBusFault);
        regs_[d.rs1] = rs1 + static_cast<std::uint32_t>(d.imm);
        if (d.rs1 == 0) regs_[0] = 0;
        break;
      }
      case Op::kCvMac:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = regs_[d.rd] + rs1 * rs2; write_rd = true;
        now += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvMax:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = static_cast<std::int32_t>(rs1) > static_cast<std::int32_t>(rs2) ? rs1 : rs2;
        write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvMin:
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        rd_val = static_cast<std::int32_t>(rs1) < static_cast<std::int32_t>(rs2) ? rs1 : rs2;
        write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      case Op::kCvAbs: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const auto v = static_cast<std::int32_t>(rs1);
        rd_val = static_cast<std::uint32_t>(v < 0 ? -v : v);
        write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kCvClip: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned b = d.rs2 & 31u;
        const std::int32_t hi_v = b == 0 ? 0 : (1 << (b - 1)) - 1;
        const std::int32_t lo_v = b == 0 ? -1 : -(1 << (b - 1));
        auto v = static_cast<std::int32_t>(rs1);
        v = v < lo_v ? lo_v : (v > hi_v ? hi_v : v);
        rd_val = static_cast<std::uint32_t>(v);
        write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kCvSetup: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        const unsigned l = d.rd & 1u;
        hwloop_[l].start = pc + 4;
        hwloop_[l].end = pc + 4 + static_cast<Addr>(d.imm);
        hwloop_[l].count = rs1;
        now += timing_.alu;
        break;
      }

      // ---- packed SIMD ----
      case Op::kPvAddB: case Op::kPvSubB: case Op::kPvMaxB: case Op::kPvMinB: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::uint32_t out = 0;
        for (unsigned i = 0; i < 4; ++i) {
          const auto a = static_cast<std::int8_t>(rs1 >> (8 * i));
          const auto b = static_cast<std::int8_t>(rs2 >> (8 * i));
          std::int8_t r;
          switch (d.op) {
            case Op::kPvAddB: r = static_cast<std::int8_t>(a + b); break;
            case Op::kPvSubB: r = static_cast<std::int8_t>(a - b); break;
            case Op::kPvMaxB: r = a > b ? a : b; break;
            default: r = a < b ? a : b; break;
          }
          out |= (static_cast<std::uint32_t>(static_cast<std::uint8_t>(r)) << (8 * i));
        }
        rd_val = out; write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvAddH: case Op::kPvSubH: case Op::kPvMaxH: case Op::kPvMinH: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::uint32_t out = 0;
        for (unsigned i = 0; i < 2; ++i) {
          const auto a = static_cast<std::int16_t>(rs1 >> (16 * i));
          const auto b = static_cast<std::int16_t>(rs2 >> (16 * i));
          std::int16_t r;
          switch (d.op) {
            case Op::kPvAddH: r = static_cast<std::int16_t>(a + b); break;
            case Op::kPvSubH: r = static_cast<std::int16_t>(a - b); break;
            case Op::kPvMaxH: r = a > b ? a : b; break;
            default: r = a < b ? a : b; break;
          }
          out |= (static_cast<std::uint32_t>(static_cast<std::uint16_t>(r)) << (16 * i));
        }
        rd_val = out; write_rd = true; now += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvSdotspB: case Op::kPvSdotupB: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::int64_t acc = static_cast<std::int32_t>(regs_[d.rd]);
        for (unsigned i = 0; i < 4; ++i) {
          if (d.op == Op::kPvSdotspB) {
            acc += static_cast<std::int64_t>(static_cast<std::int8_t>(rs1 >> (8 * i))) *
                   static_cast<std::int8_t>(rs2 >> (8 * i));
          } else {
            acc += static_cast<std::int64_t>((rs1 >> (8 * i)) & 0xFFu) *
                   ((rs2 >> (8 * i)) & 0xFFu);
          }
        }
        rd_val = static_cast<std::uint32_t>(acc); write_rd = true;
        now += timing_.simd; ++stats_.simd_ops;
        break;
      }
      case Op::kPvSdotspH: {
        if (!pulp) return halt(HaltReason::kIllegalInstruction);
        std::int64_t acc = static_cast<std::int32_t>(regs_[d.rd]);
        for (unsigned i = 0; i < 2; ++i) {
          acc += static_cast<std::int64_t>(static_cast<std::int16_t>(rs1 >> (16 * i))) *
                 static_cast<std::int16_t>(rs2 >> (16 * i));
        }
        rd_val = static_cast<std::uint32_t>(acc); write_rd = true;
        now += timing_.simd; ++stats_.simd_ops;
        break;
      }

      // ---- xmnmc offload ----
      case Op::kXmnmc: {
        if (copro_ == nullptr) return halt(HaltReason::kIllegalInstruction);
        now += timing_.offload_handshake;
        Coprocessor::IssueResult r;
        try {
          r = copro_->offload(d, rs1, rs2, regs_[d.rs3], now);
        } catch (const Error&) {
          return halt(HaltReason::kBusFault);
        }
        if (!r.accepted) return halt(HaltReason::kIllegalInstruction);
        stats_.stall_cycles += (r.complete_at > now) ? r.complete_at - now : 0;
        now = std::max(now, r.complete_at);
        ++stats_.offloads;
        break;
      }

      case Op::kIllegal:
      case Op::kOpCount:
        return halt(HaltReason::kIllegalInstruction);
    }

    if (write_rd && d.rd != 0) regs_[d.rd] = rd_val;

    // Hardware-loop back-edges (zero overhead). Inner loop (index 0) has
    // priority; a loop fires when the *sequential* next pc reaches its end,
    // which needs a non-zero count.
    if (pulp && (hwloop_[0].count | hwloop_[1].count) != 0 &&
        d.op != Op::kCvSetup) {
      for (unsigned l = 0; l < 2; ++l) {
        HwLoop& hl = hwloop_[l];
        if (hl.count > 1 && next_pc == hl.end && pc + d.size == next_pc) {
          --hl.count;
          next_pc = hl.start;
          ++stats_.hw_loop_iterations;
          break;
        }
        if (hl.count == 1 && next_pc == hl.end && pc + d.size == next_pc) {
          hl.count = 0;  // loop exhausted; fall through
          ++stats_.hw_loop_iterations;
          break;
        }
      }
    }

    pc = next_pc;
  }
  return halt(HaltReason::kMaxInstructions);
}

}  // namespace arcane::cpu
