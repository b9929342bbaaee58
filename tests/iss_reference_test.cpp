// Differential test of the block-threaded host ISS (HostCpu::run and the
// System's run_on<System>) against a test-local single-step reference
// model: one decode and one dispatch per instruction, the straightforward
// switch-loop semantics the block interpreter must reproduce exactly.
//
// Seeded generated programs, with and without RVC ops, cover hardware
// loops (nested, counts 0 and 1, branch/jump to pc+size at a loop end),
// post-increment with rd == rs1, cycle/instret CSR reads, instruction
// budgets that cut blocks, misaligned split accesses, bus faults and
// illegal ops inside blocks, fetches past the end of instruction memory
// and program reloads; directed cases cover loop ends that the ISS's
// arithmetic cut of RVC-free blocks must skip or order. Every comparison
// covers the RunResult, every CpuStats field, all registers and memory.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <vector>

#include "arcane/system.hpp"
#include "bridge/bridge.hpp"
#include "common/bits.hpp"
#include "cpu/cpu.hpp"
#include "isa/decode.hpp"
#include "isa/encode.hpp"
#include "mem/imem.hpp"

namespace arcane {
namespace {

using cpu::HaltReason;
using cpu::HostCpu;
using isa::DecodedInst;
using isa::Op;
namespace enc = isa::enc;

// ---------------------------------------------------------------------
// Reference model: one instruction per loop iteration.
// ---------------------------------------------------------------------

class RefIss {
 public:
  RefIss(const SystemConfig& cfg, const mem::InstructionMemory& imem,
         cpu::DataPort& port)
      : cfg_(cfg), t_(cfg.cpu), imem_(imem), port_(port) {}

  void reset(Addr pc, Addr sp) {
    regs = {};
    regs[2] = sp;
    pc_ = pc;
    now_ = 0;
    loops_ = {};
    stats = {};
  }

  HostCpu::RunResult run(std::uint64_t max_instructions) {
    const bool pulp = cfg_.host_cpu == HostCpuKind::kCv32e40px;
    auto halt = [&](HaltReason why) {
      stats.cycles = now_;
      return HostCpu::RunResult{why, now_, stats.instructions, regs[10], pc_};
    };
    auto sext8 = [](std::uint32_t v) {
      return static_cast<std::uint32_t>(static_cast<std::int8_t>(v));
    };
    auto sext16 = [](std::uint32_t v) {
      return static_cast<std::uint32_t>(static_cast<std::int16_t>(v));
    };
    auto mem_read = [&](Addr addr, unsigned bytes, std::uint32_t& raw) {
      const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
      std::uint8_t buf[4] = {0, 0, 0, 0};
      const Cycle start = now_ + t_.load_base;
      Cycle done;
      try {
        done = port_.read(addr, p1, buf, now_);
        if (p1 < bytes) done = port_.read(addr + p1, bytes - p1, buf + p1, done);
      } catch (const Error&) {
        return false;
      }
      std::memcpy(&raw, buf, 4);
      stats.stall_cycles += done > start ? done - start : 0;
      now_ = std::max(done, start);
      ++stats.loads;
      return true;
    };
    auto mem_write = [&](Addr addr, unsigned bytes, std::uint32_t value) {
      const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
      std::uint8_t buf[4];
      std::memcpy(buf, &value, 4);
      const Cycle start = now_ + t_.store_base;
      Cycle done;
      try {
        done = port_.write(addr, p1, buf, now_);
        if (p1 < bytes) done = port_.write(addr + p1, bytes - p1, buf + p1, done);
      } catch (const Error&) {
        return false;
      }
      stats.stall_cycles += done > start ? done - start : 0;
      now_ = std::max(done, start);
      ++stats.stores;
      return true;
    };

    for (std::uint64_t executed = 0; executed < max_instructions; ++executed) {
      const Addr off = pc_ - imem_.base();
      if (off > imem_.size() - 2) return halt(HaltReason::kBusFault);
      const std::uint32_t word = imem_.fetch(pc_);
      if (!isa::is_rvc(word) && off + 4 > imem_.size()) {
        return halt(HaltReason::kBusFault);  // upper half past the end
      }
      const DecodedInst d = isa::decode(word);
      if (d.op == Op::kIllegal) return halt(HaltReason::kIllegalInstruction);

      Addr next = pc_ + d.size;
      const std::uint32_t rs1 = regs[d.rs1];
      const std::uint32_t rs2 = regs[d.rs2];
      std::uint32_t rd_val = 0;
      bool write_rd = false;
      auto result = [&](std::uint32_t v, unsigned cost) {
        rd_val = v;
        write_rd = true;
        now_ += cost;
      };
      auto simd = [&](std::uint32_t v) {
        result(v, t_.simd);
        ++stats.simd_ops;
      };
      auto muldiv = [&](std::uint32_t v, unsigned cost) {
        result(v, cost);
        ++stats.mul_div;
      };
      const auto s1 = static_cast<std::int32_t>(rs1);
      const auto s2 = static_cast<std::int32_t>(rs2);
      const auto imm = static_cast<std::uint32_t>(d.imm);

      ++stats.instructions;
      if (d.is_compressed()) ++stats.compressed_instructions;

      const bool pulp_op =
          d.op >= Op::kCvLbPost && d.op <= Op::kPvSdotupB;
      if (pulp_op && !pulp) return halt(HaltReason::kIllegalInstruction);

      switch (d.op) {
        case Op::kLui: result(imm << 12, t_.alu); break;
        case Op::kAuipc: result(pc_ + (imm << 12), t_.alu); break;
        case Op::kAddi: result(rs1 + imm, t_.alu); break;
        case Op::kSlti: result(s1 < d.imm ? 1 : 0, t_.alu); break;
        case Op::kSltiu: result(rs1 < imm ? 1 : 0, t_.alu); break;
        case Op::kXori: result(rs1 ^ imm, t_.alu); break;
        case Op::kOri: result(rs1 | imm, t_.alu); break;
        case Op::kAndi: result(rs1 & imm, t_.alu); break;
        case Op::kSlli: result(rs1 << (imm & 31), t_.alu); break;
        case Op::kSrli: result(rs1 >> (imm & 31), t_.alu); break;
        case Op::kSrai:
          result(static_cast<std::uint32_t>(s1 >> (imm & 31)), t_.alu);
          break;
        case Op::kAdd: result(rs1 + rs2, t_.alu); break;
        case Op::kSub: result(rs1 - rs2, t_.alu); break;
        case Op::kSll: result(rs1 << (rs2 & 31), t_.alu); break;
        case Op::kSlt: result(s1 < s2 ? 1 : 0, t_.alu); break;
        case Op::kSltu: result(rs1 < rs2 ? 1 : 0, t_.alu); break;
        case Op::kXor: result(rs1 ^ rs2, t_.alu); break;
        case Op::kSrl: result(rs1 >> (rs2 & 31), t_.alu); break;
        case Op::kSra:
          result(static_cast<std::uint32_t>(s1 >> (rs2 & 31)), t_.alu);
          break;
        case Op::kOr: result(rs1 | rs2, t_.alu); break;
        case Op::kAnd: result(rs1 & rs2, t_.alu); break;
        case Op::kFence: now_ += t_.alu; break;

        case Op::kJal:
          result(next, t_.jump);
          next = pc_ + imm;
          break;
        case Op::kJalr:
          result(next, t_.jump);
          next = (rs1 + imm) & ~1u;
          break;
        case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge:
        case Op::kBltu: case Op::kBgeu: {
          bool taken = false;
          switch (d.op) {
            case Op::kBeq: taken = rs1 == rs2; break;
            case Op::kBne: taken = rs1 != rs2; break;
            case Op::kBlt: taken = s1 < s2; break;
            case Op::kBge: taken = s1 >= s2; break;
            case Op::kBltu: taken = rs1 < rs2; break;
            default: taken = rs1 >= rs2; break;
          }
          ++stats.branches;
          if (taken) {
            ++stats.taken_branches;
            next = pc_ + imm;
            now_ += t_.branch_taken;
          } else {
            now_ += t_.branch_not_taken;
          }
          break;
        }

        case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu:
        case Op::kLhu: case Op::kCvLbPost: case Op::kCvLbuPost:
        case Op::kCvLhPost: case Op::kCvLhuPost: case Op::kCvLwPost: {
          const bool post = pulp_op;
          const bool word_op = d.op == Op::kLw || d.op == Op::kCvLwPost;
          const bool half = d.op == Op::kLh || d.op == Op::kLhu ||
                            d.op == Op::kCvLhPost || d.op == Op::kCvLhuPost;
          std::uint32_t raw = 0;
          if (!mem_read(post ? rs1 : rs1 + imm, word_op ? 4 : half ? 2 : 1,
                        raw)) {
            return halt(HaltReason::kBusFault);
          }
          switch (d.op) {
            case Op::kLb: case Op::kCvLbPost: rd_val = sext8(raw); break;
            case Op::kLh: case Op::kCvLhPost: rd_val = sext16(raw); break;
            case Op::kLbu: case Op::kCvLbuPost: rd_val = raw & 0xFFu; break;
            case Op::kLhu: case Op::kCvLhuPost: rd_val = raw & 0xFFFFu; break;
            default: rd_val = raw; break;
          }
          write_rd = true;
          if (post) {  // pointer first, so rd wins when rd == rs1
            regs[d.rs1] = rs1 + imm;
            regs[0] = 0;
          }
          break;
        }
        case Op::kSb: case Op::kSh: case Op::kSw: case Op::kCvSbPost:
        case Op::kCvShPost: case Op::kCvSwPost: {
          const bool post = pulp_op;
          const unsigned bytes =
              (d.op == Op::kSw || d.op == Op::kCvSwPost)   ? 4
              : (d.op == Op::kSh || d.op == Op::kCvShPost) ? 2
                                                           : 1;
          if (!mem_write(post ? rs1 : rs1 + imm, bytes, rs2)) {
            return halt(HaltReason::kBusFault);
          }
          if (post) {
            regs[d.rs1] = rs1 + imm;
            regs[0] = 0;
          }
          break;
        }

        case Op::kMul: muldiv(rs1 * rs2, t_.mul); break;
        case Op::kMulh:
          muldiv(static_cast<std::uint32_t>(
                     (static_cast<std::int64_t>(s1) * s2) >> 32),
                 t_.mul);
          break;
        case Op::kMulhsu:
          muldiv(static_cast<std::uint32_t>(
                     (static_cast<std::int64_t>(s1) *
                      static_cast<std::int64_t>(rs2)) >> 32),
                 t_.mul);
          break;
        case Op::kMulhu:
          muldiv(static_cast<std::uint32_t>(
                     (static_cast<std::uint64_t>(rs1) * rs2) >> 32),
                 t_.mul);
          break;
        case Op::kDiv:
          muldiv(rs2 == 0 ? 0xFFFF'FFFFu
                 : (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu)
                     ? 0x8000'0000u
                     : static_cast<std::uint32_t>(s1 / s2),
                 t_.div);
          break;
        case Op::kDivu:
          muldiv(rs2 == 0 ? 0xFFFF'FFFFu : rs1 / rs2, t_.div);
          break;
        case Op::kRem:
          muldiv(rs2 == 0 ? rs1
                 : (rs1 == 0x8000'0000u && rs2 == 0xFFFF'FFFFu)
                     ? 0u
                     : static_cast<std::uint32_t>(s1 % s2),
                 t_.div);
          break;
        case Op::kRemu: muldiv(rs2 == 0 ? rs1 : rs1 % rs2, t_.div); break;

        case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
        case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
          std::uint32_t v = 0;
          switch (static_cast<std::uint16_t>(d.imm)) {
            case isa::kCsrMcycle: v = static_cast<std::uint32_t>(now_); break;
            case isa::kCsrMcycleH:
              v = static_cast<std::uint32_t>(now_ >> 32);
              break;
            case isa::kCsrMinstret:
              v = static_cast<std::uint32_t>(stats.instructions);
              break;
            case isa::kCsrMinstretH:
              v = static_cast<std::uint32_t>(stats.instructions >> 32);
              break;
            case isa::kCsrMhartid: v = 0; break;
            default: return halt(HaltReason::kIllegalInstruction);
          }
          result(v, t_.csr);
          break;
        }

        case Op::kEcall: case Op::kEbreak:
          now_ += t_.alu;
          pc_ = next;
          return halt(d.op == Op::kEcall ? HaltReason::kEcall
                                         : HaltReason::kEbreak);

        case Op::kCvMac: simd(regs[d.rd] + rs1 * rs2); break;
        case Op::kCvMax: simd(s1 > s2 ? rs1 : rs2); break;
        case Op::kCvMin: simd(s1 < s2 ? rs1 : rs2); break;
        case Op::kCvAbs: simd(s1 < 0 ? 0u - rs1 : rs1); break;
        case Op::kCvClip: {
          const unsigned b = d.rs2 & 31u;
          const std::int32_t hi = b == 0 ? 0 : (1 << (b - 1)) - 1;
          const std::int32_t lo = b == 0 ? -1 : -(1 << (b - 1));
          simd(static_cast<std::uint32_t>(s1 < lo ? lo : s1 > hi ? hi : s1));
          break;
        }
        case Op::kCvSetup: {
          Loop& l = loops_[d.rd & 1u];
          l.start = pc_ + 4;
          l.end = pc_ + 4 + imm;
          l.count = rs1;
          now_ += t_.alu;
          break;
        }
        case Op::kPvAddB: case Op::kPvSubB: case Op::kPvMaxB:
        case Op::kPvMinB: case Op::kPvAddH: case Op::kPvSubH:
        case Op::kPvMaxH: case Op::kPvMinH: {
          const bool byte = d.op == Op::kPvAddB || d.op == Op::kPvSubB ||
                            d.op == Op::kPvMaxB || d.op == Op::kPvMinB;
          const unsigned w = byte ? 8 : 16;
          std::uint32_t out = 0;
          for (unsigned i = 0; i < 32 / w; ++i) {
            const std::int32_t a = byte ? sext8(rs1 >> (w * i))
                                        : sext16(rs1 >> (w * i));
            const std::int32_t b = byte ? sext8(rs2 >> (w * i))
                                        : sext16(rs2 >> (w * i));
            std::int32_t r;
            switch (d.op) {
              case Op::kPvAddB: case Op::kPvAddH: r = a + b; break;
              case Op::kPvSubB: case Op::kPvSubH: r = a - b; break;
              case Op::kPvMaxB: case Op::kPvMaxH: r = a > b ? a : b; break;
              default: r = a < b ? a : b; break;
            }
            out |= (static_cast<std::uint32_t>(r) & ((1u << w) - 1)) << (w * i);
          }
          simd(out);
          break;
        }
        case Op::kPvSdotspB: case Op::kPvSdotupB: case Op::kPvSdotspH: {
          auto acc = static_cast<std::int64_t>(
              static_cast<std::int32_t>(regs[d.rd]));
          for (unsigned i = 0; i < 4; ++i) {
            if (d.op == Op::kPvSdotspB) {
              acc += static_cast<std::int64_t>(
                         static_cast<std::int8_t>(rs1 >> (8 * i))) *
                     static_cast<std::int8_t>(rs2 >> (8 * i));
            } else if (d.op == Op::kPvSdotupB) {
              acc += static_cast<std::int64_t>((rs1 >> (8 * i)) & 0xFFu) *
                     ((rs2 >> (8 * i)) & 0xFFu);
            } else if (i < 2) {
              acc += static_cast<std::int64_t>(
                         static_cast<std::int16_t>(rs1 >> (16 * i))) *
                     static_cast<std::int16_t>(rs2 >> (16 * i));
            }
          }
          simd(static_cast<std::uint32_t>(acc));
          break;
        }

        case Op::kXmnmc:  // no coprocessor attached in this test
        case Op::kIllegal:
        case Op::kOpCount:
          return halt(HaltReason::kIllegalInstruction);
      }

      if (write_rd && d.rd != 0) regs[d.rd] = rd_val;

      // Hardware-loop back-edge: the inner loop (0) first; fires when the
      // sequential next pc reaches a loop end with a non-zero count.
      if (d.op != Op::kCvSetup && next == pc_ + d.size) {
        for (Loop& l : loops_) {
          if (l.count != 0 && next == l.end) {
            if (--l.count != 0) next = l.start;
            ++stats.hw_loop_iterations;
            break;
          }
        }
      }
      pc_ = next;
    }
    return halt(HaltReason::kMaxInstructions);
  }

  std::array<std::uint32_t, 32> regs{};
  sim::CpuStats stats;

 private:
  struct Loop {
    Addr start = 0, end = 0;
    std::uint32_t count = 0;
  };
  SystemConfig cfg_;
  CpuTiming t_;
  const mem::InstructionMemory& imem_;
  cpu::DataPort& port_;
  Addr pc_ = 0;
  Cycle now_ = 0;
  std::array<Loop, 2> loops_{};
};

// ---------------------------------------------------------------------
// A flat data port with address-dependent latency (so stalls vary).
// ---------------------------------------------------------------------

class FlatPort final : public cpu::DataPort {
 public:
  FlatPort(Addr base, std::uint32_t size) : base_(base), mem_(size) {
    for (std::uint32_t i = 0; i < size; ++i) {
      mem_[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
  }
  Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) override {
    std::memcpy(out, at(addr, bytes), bytes);
    return now + 1 + ((addr >> 3) % 3);
  }
  Cycle write(Addr addr, unsigned bytes, const void* in, Cycle now) override {
    std::memcpy(at(addr, bytes), in, bytes);
    return now + 1 + ((addr >> 4) % 2);
  }
  const std::vector<std::uint8_t>& bytes() const { return mem_; }

 private:
  std::uint8_t* at(Addr addr, unsigned bytes) {
    if (!range_within(addr, bytes, base_, size())) throw Error("bus fault");
    return mem_.data() + (addr - base_);
  }
  std::uint32_t size() const { return static_cast<std::uint32_t>(mem_.size()); }

  Addr base_;
  std::vector<std::uint8_t> mem_;
};

// ---------------------------------------------------------------------
// Program builder over halfwords (RVC and 32-bit ops mixed, any 16-bit
// alignment) with label fix-ups.
// ---------------------------------------------------------------------

constexpr std::uint16_t c_li(unsigned rd, std::int32_t imm) {
  const auto u = static_cast<std::uint32_t>(imm);
  return static_cast<std::uint16_t>(0x4001u | (bit(u, 5) << 12) | (rd << 7) |
                                    (bits(u, 4, 0) << 2));
}
constexpr std::uint16_t c_addi(unsigned rd, std::int32_t imm) {
  const auto u = static_cast<std::uint32_t>(imm);
  return static_cast<std::uint16_t>(0x0001u | (bit(u, 5) << 12) | (rd << 7) |
                                    (bits(u, 4, 0) << 2));
}
constexpr std::uint16_t c_j(std::int32_t off) {
  const auto u = static_cast<std::uint32_t>(off);
  return static_cast<std::uint16_t>(
      0xA001u | (bit(u, 11) << 12) | (bit(u, 4) << 11) | (bits(u, 9, 8) << 9) |
      (bit(u, 10) << 8) | (bit(u, 6) << 7) | (bit(u, 7) << 6) |
      (bits(u, 3, 1) << 3) | (bit(u, 5) << 2));
}
constexpr std::uint16_t c_bnez(unsigned rs1_prime, std::int32_t off) {
  const auto u = static_cast<std::uint32_t>(off);
  return static_cast<std::uint16_t>(
      0xE001u | (bit(u, 8) << 12) | (bits(u, 4, 3) << 10) | (rs1_prime << 7) |
      (bits(u, 7, 6) << 5) | (bits(u, 2, 1) << 3) | (bit(u, 5) << 2));
}
constexpr std::uint16_t kCNop = 0x0001;

TEST(IssReferenceTest, CompressedEncodersMatchTheDecoder) {
  EXPECT_EQ(isa::expand_rvc(c_li(9, -7)), enc::addi(9, 0, -7));
  EXPECT_EQ(isa::expand_rvc(c_addi(12, 31)), enc::addi(12, 12, 31));
  EXPECT_EQ(isa::expand_rvc(c_j(2)), enc::jal(0, 2));
  EXPECT_EQ(isa::expand_rvc(c_j(-1000)), enc::jal(0, -1000));
  EXPECT_EQ(isa::expand_rvc(c_bnez(1, 2)), enc::bne(9, 0, 2));
  EXPECT_EQ(isa::expand_rvc(c_bnez(2, -60)), enc::bne(10, 0, -60));
}

class Program {
 public:
  int label() {
    labels_.push_back(-1);
    return static_cast<int>(labels_.size()) - 1;
  }
  void bind(int l) { labels_[l] = static_cast<std::int64_t>(bytes()); }
  void op16(std::uint16_t h) { half_.push_back(h); }
  void op32(std::uint32_t w) {
    half_.push_back(static_cast<std::uint16_t>(w));
    half_.push_back(static_cast<std::uint16_t>(w >> 16));
  }
  /// A 32-bit op whose encoding depends on the byte offset from `from`
  /// (default: its own address) to label `l`.
  void op32_to(int l, std::function<std::uint32_t(std::int32_t)> make,
               std::size_t from = ~std::size_t{0}) {
    fixes_.push_back({half_.size(), from == ~std::size_t{0} ? bytes() : from,
                      l, false, std::move(make)});
    op32(0);
  }
  void op16_to(int l, std::function<std::uint32_t(std::int32_t)> make) {
    fixes_.push_back({half_.size(), bytes(), l, true, std::move(make)});
    op16(0);
  }
  std::size_t bytes() const { return half_.size() * 2; }

  std::vector<std::uint32_t> words() {
    for (const Fix& f : fixes_) {
      const auto off = static_cast<std::int32_t>(labels_[f.label] -
                                                 static_cast<std::int64_t>(f.from));
      const std::uint32_t w = f.make(off);
      half_[f.at] = static_cast<std::uint16_t>(w);
      if (!f.rvc) half_[f.at + 1] = static_cast<std::uint16_t>(w >> 16);
    }
    if (half_.size() % 2 != 0) half_.push_back(kCNop);
    std::vector<std::uint32_t> out(half_.size() / 2);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = half_[2 * i] | (static_cast<std::uint32_t>(half_[2 * i + 1]) << 16);
    }
    return out;
  }

 private:
  struct Fix {
    std::size_t at;    // halfword index
    std::size_t from;  // byte offset the displacement is relative to
    int label;
    bool rvc;
    std::function<std::uint32_t(std::int32_t)> make;
  };
  std::vector<std::uint16_t> half_;
  std::vector<std::int64_t> labels_;
  std::vector<Fix> fixes_;
};

/// rd = v (lui + addi).
void li(Program& p, unsigned rd, std::uint32_t v) {
  const std::int32_t lo = sign_extend(v, 12);
  p.op32(enc::lui(rd, static_cast<std::int32_t>(
                          (v - static_cast<std::uint32_t>(lo)) >> 12)));
  p.op32(enc::addi(rd, rd, lo));
}

// ---------------------------------------------------------------------
// Seeded structured program generator. Control flow is forward except for
// counted loops and hardware loops with small counts, so every program
// terminates. Dedicated registers: x5 data pointer, x6 post-increment
// pointer, x7 unmapped address, x28/x29 loop counters, x30/x31 hardware-
// loop counts, x20 jalr target.
// ---------------------------------------------------------------------

struct GenOptions {
  bool pulp = true;
  Addr data = 0;       // base of a >= 16 KiB mapped data window
  Addr unmapped = 0;   // an address the port faults on
  bool abnormal_ends = true;
  bool xmnmc = true;  // may end in an xmnmc op (no coprocessor attached)
  /// May emit RVC ops; else each becomes its 32-bit expansion, so every
  /// block is RVC-free (the ISS computes hardware-loop cuts there).
  bool rvc = true;
};

class Generator {
 public:
  Generator(std::uint64_t seed, GenOptions opt) : rng_(seed), opt_(opt) {}

  Program make() {
    Program p;
    li(p, 5, opt_.data + 0x1000);
    li(p, 6, opt_.data + 0x2800);
    li(p, 7, opt_.unmapped);
    for (unsigned r : {8u, 9u, 10u, 11u, 12u, 13u}) {
      li(p, r, static_cast<std::int32_t>(rng_()));
    }
    block(p, 0, 8 + pick(16), -1);
    if (opt_.abnormal_ends && pick(8) == 0) abnormal(p);
    p.op32(enc::ecall());
    return p;
  }

 private:
  unsigned pick(unsigned n) { return static_cast<unsigned>(rng_() % n); }
  unsigned scratch() {
    static constexpr unsigned kRegs[] = {0,  1,  3,  4,  8,  9,  10, 11, 12,
                                         13, 14, 15, 16, 17, 18, 21, 22, 23};
    return kRegs[pick(sizeof(kRegs) / sizeof(kRegs[0]))];
  }
  unsigned any_src() { return pick(4) == 0 ? pick(32) : scratch(); }
  /// An RVC op, or its 32-bit expansion when the options exclude RVC.
  void op16(Program& p, std::uint16_t h) const {
    if (opt_.rvc) {
      p.op16(h);
    } else {
      p.op32(isa::expand_rvc(h));
    }
  }
  /// A label-relative RVC op, or the 32-bit op it expands to (`wide`, at
  /// its full displacement range).
  void op16_to(Program& p, int l, std::function<std::uint32_t(std::int32_t)> rvc,
               std::function<std::uint32_t(std::int32_t)> wide) const {
    if (opt_.rvc) {
      p.op16_to(l, std::move(rvc));
    } else {
      p.op32_to(l, std::move(wide));
    }
  }

  void alu(Program& p) {
    using Rop = std::uint32_t (*)(unsigned, unsigned, unsigned);
    using Iop = std::uint32_t (*)(unsigned, unsigned, std::int32_t);
    static constexpr Rop kR[] = {enc::add,  enc::sub,    enc::sll,   enc::slt,
                                 enc::sltu, enc::xor_,   enc::srl,   enc::sra,
                                 enc::or_,  enc::and_,   enc::mul,   enc::mulh,
                                 enc::mulhsu, enc::mulhu, enc::div,  enc::divu,
                                 enc::rem,  enc::remu};
    static constexpr Iop kI[] = {enc::addi, enc::slti, enc::sltiu,
                                 enc::xori, enc::ori,  enc::andi};
    switch (pick(6)) {
      case 0: case 1:
        p.op32(kR[pick(std::size(kR))](scratch(), any_src(), any_src()));
        break;
      case 2:
        p.op32(kI[pick(std::size(kI))](scratch(), any_src(),
                                       static_cast<std::int32_t>(pick(4096)) - 2048));
        break;
      case 3: {
        static constexpr Rop kS[] = {enc::slli, enc::srli, enc::srai};
        p.op32(kS[pick(3)](scratch(), any_src(), pick(32)));
        break;
      }
      case 4:
        p.op32(pick(2) ? enc::lui(scratch(), static_cast<std::int32_t>(pick(1u << 20)))
                       : enc::auipc(scratch(), static_cast<std::int32_t>(pick(1u << 20))));
        break;
      default: {  // RVC
        const unsigned rd = 8 + pick(8);
        const auto imm = static_cast<std::int32_t>(pick(64)) - 32;
        op16(p, pick(3) == 0 ? kCNop : pick(2) ? c_li(rd, imm) : c_addi(rd, imm));
        break;
      }
    }
  }

  void memory(Program& p) {
    const auto off = static_cast<std::int32_t>(pick(2048)) - 1024;  // any alignment
    switch (pick(8)) {
      case 0: p.op32(enc::lw(scratch(), 5, off)); break;
      case 1: p.op32(enc::lh(scratch(), 5, off)); break;
      case 2: p.op32(enc::lhu(scratch(), 5, off)); break;
      case 3: p.op32(enc::lb(scratch(), 5, off)); break;
      case 4: p.op32(enc::lbu(scratch(), 5, off)); break;
      case 5: p.op32(enc::sw(5, any_src(), off)); break;
      case 6: p.op32(enc::sh(5, any_src(), off)); break;
      default: p.op32(enc::sb(5, any_src(), off)); break;
    }
  }

  void pulp_op(Program& p) {
    const auto inc = static_cast<std::int32_t>(pick(17)) - 8;
    switch (pick(10)) {
      case 0: {
        using Post = std::uint32_t (*)(unsigned, unsigned, std::int32_t);
        static constexpr Post kLd[] = {enc::cv_lb_post, enc::cv_lbu_post,
                                       enc::cv_lh_post, enc::cv_lhu_post,
                                       enc::cv_lw_post};
        if (pick(6) == 0) {  // rd == rs1: the loaded value wins
          p.op32(kLd[pick(5)](6, 6, inc));
          li(p, 6, opt_.data + 0x2800);
        } else {
          p.op32(kLd[pick(5)](scratch(), 6, inc));
        }
        break;
      }
      case 1: {
        using Post = std::uint32_t (*)(unsigned, unsigned, std::int32_t);
        static constexpr Post kSt[] = {enc::cv_sb_post, enc::cv_sh_post,
                                       enc::cv_sw_post};
        p.op32(kSt[pick(3)](6, any_src(), inc));
        break;
      }
      case 2: p.op32(enc::cv_mac(scratch(), any_src(), any_src())); break;
      case 3: p.op32(enc::cv_max(scratch(), any_src(), any_src())); break;
      case 4: p.op32(enc::cv_min(scratch(), any_src(), any_src())); break;
      case 5: p.op32(enc::cv_abs(scratch(), any_src())); break;
      case 6: p.op32(enc::cv_clip(scratch(), any_src(), pick(32))); break;
      default: {
        using Pv = std::uint32_t (*)(unsigned, unsigned, unsigned);
        static constexpr Pv kPv[] = {
            enc::pv_add_b,    enc::pv_add_h,    enc::pv_sub_b, enc::pv_sub_h,
            enc::pv_max_b,    enc::pv_max_h,    enc::pv_min_b, enc::pv_min_h,
            enc::pv_sdotsp_b, enc::pv_sdotsp_h, enc::pv_sdotup_b};
        p.op32(kPv[pick(std::size(kPv))](scratch(), any_src(), any_src()));
        break;
      }
    }
  }

  void csr(Program& p) {
    static constexpr unsigned kCsrs[] = {isa::kCsrMcycle, isa::kCsrMcycleH,
                                         isa::kCsrMinstret, isa::kCsrMinstretH,
                                         isa::kCsrMhartid};
    p.op32(enc::csrrs(scratch(), kCsrs[pick(5)], 0));
  }

  /// An op that ends the program abnormally (or, for an ebreak, normally).
  void abnormal(Program& p) {
    switch (pick(5)) {
      case 0: p.op32(0xFFFF'FFFFu); break;                 // illegal
      case 1: p.op32(enc::lw(scratch(), 7, 0)); break;     // bus fault
      case 2: p.op32(enc::csrrs(scratch(), 0x7C0, 0)); break;  // unknown CSR
      case 3: p.op32(enc::ebreak()); break;
      default:  // an XCVPULP op (illegal on the plain core) or xmnmc
        p.op32(!opt_.pulp  ? enc::pv_add_b(10, 11, 12)
               : opt_.xmnmc ? enc::xmnmc(3, 0, 10, 11, 12)
                            : 0xFFFF'FFFFu);
        break;
    }
  }

  /// `len` random items. `hw` is the innermost active hardware loop index
  /// (-1 none); only loop 1 may enclose loop 0.
  void block(Program& p, int depth, unsigned len, int hw) {
    for (unsigned i = 0; i < len; ++i) {
      const unsigned kind = pick(depth < 2 ? 16 : 10);
      if (kind < 4) {
        alu(p);
      } else if (kind < 6) {
        memory(p);
      } else if (kind == 6) {
        if (opt_.pulp) pulp_op(p);
        else alu(p);
      } else if (kind == 7) {
        csr(p);
      } else if (kind == 8) {
        alu(p);
        if (opt_.abnormal_ends && pick(60) == 0) abnormal(p);
      } else if (kind == 9 || kind == 10) {
        forward(p, depth, hw);
      } else if (kind == 11 || kind == 12) {
        counted_loop(p, depth, hw);
      } else if (opt_.pulp && hw != 0) {
        hw_loop(p, depth, hw == 1 ? 0 : static_cast<int>(pick(2)));
      } else {
        alu(p);
      }
    }
  }

  /// A forward branch, jal, c.j or jalr over a sub-block.
  void forward(Program& p, int depth, int hw) {
    const int skip = p.label();
    switch (pick(5)) {
      case 0: case 1: {
        using Br = std::uint32_t (*)(unsigned, unsigned, std::int32_t);
        static constexpr Br kBr[] = {enc::beq, enc::bne,  enc::blt,
                                     enc::bge, enc::bltu, enc::bgeu};
        const Br br = kBr[pick(6)];
        const unsigned a = any_src(), b = any_src();
        p.op32_to(skip, [=](std::int32_t off) { return br(a, b, off); });
        break;
      }
      case 2: {
        const unsigned rd = scratch();
        p.op32_to(skip, [=](std::int32_t off) { return enc::jal(rd, off); });
        break;
      }
      case 3:
        if (pick(2)) {
          op16_to(p, skip, [](std::int32_t off) { return c_j(off); },
                  [](std::int32_t off) { return enc::jal(0, off); });
        } else {
          const unsigned rs = pick(8);
          op16_to(p, skip, [=](std::int32_t off) { return c_bnez(rs, off); },
                  [=](std::int32_t off) { return enc::bne(8 + rs, 0, off); });
        }
        break;
      default: {
        const std::size_t at = p.bytes();
        p.op32(enc::auipc(20, 0));
        p.op32_to(skip, [](std::int32_t off) { return enc::addi(20, 20, off); },
                  at);
        p.op32(enc::jalr(scratch(), 20, 0));
        break;
      }
    }
    block(p, depth + 1, 1 + pick(3), hw);
    p.bind(skip);
  }

  void counted_loop(Program& p, int depth, int hw) {
    const unsigned ctr = 28 + static_cast<unsigned>(depth);
    p.op32(enc::addi(ctr, 0, 1 + static_cast<std::int32_t>(pick(4))));
    const int top = p.label();
    p.bind(top);
    block(p, depth + 1, 1 + pick(4), hw);
    p.op32(enc::addi(ctr, ctr, -1));
    p.op32_to(top, [=](std::int32_t off) { return enc::bne(ctr, 0, off); });
  }

  /// cv.setup with a count of 0..4 over a short body; the body's last op is
  /// sometimes a branch or jump to pc+size, a not-taken branch, a CSR read
  /// or an RVC op.
  void hw_loop(Program& p, int depth, int idx) {
    const unsigned count_reg = 30 + static_cast<unsigned>(idx);
    p.op32(enc::addi(count_reg, 0, static_cast<std::int32_t>(pick(5))));
    const int end = p.label();
    p.op32_to(end, [=](std::int32_t off) {
      return enc::cv_setup(static_cast<unsigned>(idx), count_reg, off - 4);
    });
    block(p, depth + 1, 1 + pick(4), idx);
    switch (pick(7)) {
      case 0: p.op32(enc::jal(0, 4)); break;
      case 1: p.op32(enc::beq(0, 0, 4)); break;
      case 2: p.op32(enc::bne(0, 0, 4)); break;
      case 3: op16(p, c_j(2)); break;
      case 4: csr(p); break;
      case 5: op16(p, kCNop); break;
      default: break;
    }
    p.bind(end);
  }

  std::mt19937_64 rng_;
  GenOptions opt_;
};

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

void expect_same_stats(const sim::CpuStats& got, const sim::CpuStats& want) {
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.compressed_instructions, want.compressed_instructions);
  EXPECT_EQ(got.loads, want.loads);
  EXPECT_EQ(got.stores, want.stores);
  EXPECT_EQ(got.branches, want.branches);
  EXPECT_EQ(got.taken_branches, want.taken_branches);
  EXPECT_EQ(got.mul_div, want.mul_div);
  EXPECT_EQ(got.simd_ops, want.simd_ops);
  EXPECT_EQ(got.hw_loop_iterations, want.hw_loop_iterations);
  EXPECT_EQ(got.offloads, want.offloads);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.stall_cycles, want.stall_cycles);
}

void expect_same_result(const HostCpu::RunResult& got,
                        const HostCpu::RunResult& want) {
  EXPECT_EQ(got.reason, want.reason);
  EXPECT_EQ(got.cycles, want.cycles);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.exit_code, want.exit_code);
  EXPECT_EQ(got.pc, want.pc);
}

void expect_same_regs(const HostCpu& got, const RefIss& want) {
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(got.reg(r), want.regs[r]) << "x" << r;
  }
}

constexpr std::uint32_t kFlatBytes = 64u << 10;
constexpr Addr kUnmapped = 0x7000'0000;

/// Budget schedule: a whole run, or runs of 1..64 instructions resumed
/// until the program halts (cutting blocks at arbitrary points).
std::uint64_t next_budget(std::mt19937_64& rng, bool chunked) {
  return chunked ? 1 + rng() % 64 : 200'000;
}

/// One HostCpu and one RefIss over twin flat ports; programs are reloaded
/// into the same instruction memories between runs.
struct FlatRig {
  explicit FlatRig(HostCpuKind kind) : cfg(SystemConfig::paper(4)) {
    cfg.host_cpu = kind;
    imem = std::make_unique<mem::InstructionMemory>(cfg.mem.imem_base,
                                                    cfg.mem.imem_bytes);
    port = std::make_unique<FlatPort>(cfg.mem.data_base, kFlatBytes);
    ref_port = std::make_unique<FlatPort>(cfg.mem.data_base, kFlatBytes);
    iss = std::make_unique<HostCpu>(cfg, *imem, *port);
    ref = std::make_unique<RefIss>(cfg, *imem, *ref_port);
  }

  void load(const std::vector<std::uint32_t>& words, Addr base, Addr sp) {
    imem->load(base, words);
    iss->invalidate_decode_cache();
    iss->reset(base, sp);
    ref->reset(base, sp);
  }

  /// Runs both to a halt other than the budget, comparing after each run;
  /// `next()` gives each run's instruction budget.
  template <typename Budget>
  void run_and_compare(Budget next) {
    for (int guard = 0; guard < 100'000; ++guard) {
      const std::uint64_t budget = next();
      const auto got = iss->run(budget);
      const auto want = ref->run(budget);
      expect_same_result(got, want);
      expect_same_stats(iss->stats(), ref->stats);
      expect_same_regs(*iss, *ref);
      if (::testing::Test::HasFailure()) return;
      if (got.reason != HaltReason::kMaxInstructions) break;
    }
    EXPECT_EQ(port->bytes(), ref_port->bytes());
  }
  void run_and_compare(std::mt19937_64& rng, bool chunked) {
    run_and_compare([&] { return next_budget(rng, chunked); });
  }

  SystemConfig cfg;
  std::unique_ptr<mem::InstructionMemory> imem;
  std::unique_ptr<FlatPort> port, ref_port;
  std::unique_ptr<HostCpu> iss;
  std::unique_ptr<RefIss> ref;
};

struct Case {
  HostCpuKind kind;
  bool chunked;
  bool rvc;  // GenOptions::rvc
};

class IssFlatTest : public ::testing::TestWithParam<Case> {};

TEST_P(IssFlatTest, MatchesReferenceOnGeneratedPrograms) {
  const Case c = GetParam();
  FlatRig rig(c.kind);
  GenOptions opt;
  opt.pulp = c.kind == HostCpuKind::kCv32e40px;
  opt.data = rig.cfg.mem.data_base;
  opt.unmapped = kUnmapped;
  opt.rvc = c.rvc;
  std::mt19937_64 budgets(99);
  // Consecutive programs reuse the CPU: each load invalidates the decode
  // cache of the previous program at the same addresses.
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Program p =
        Generator(seed * 7919 + (opt.pulp ? 1 : 0) + (opt.rvc ? 0 : 2), opt)
            .make();
    rig.load(p.words(), rig.cfg.mem.imem_base, rig.cfg.mem.data_base + 0x3000);
    rig.run_and_compare(budgets, c.chunked);
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cores, IssFlatTest,
    ::testing::Values(Case{HostCpuKind::kCv32e40x, false, true},
                      Case{HostCpuKind::kCv32e40x, true, true},
                      Case{HostCpuKind::kCv32e40px, false, true},
                      Case{HostCpuKind::kCv32e40px, true, true},
                      Case{HostCpuKind::kCv32e40x, false, false},
                      Case{HostCpuKind::kCv32e40x, true, false},
                      Case{HostCpuKind::kCv32e40px, false, false},
                      Case{HostCpuKind::kCv32e40px, true, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.kind == HostCpuKind::kCv32e40px
                             ? "pulp"
                             : "scalar") +
             (info.param.chunked ? "_chunked" : "_whole") +
             (info.param.rvc ? "" : "_rvc_free");
    });

TEST(IssReferenceTest, MatchesReferenceThroughTheSystemPort) {
  // The System instantiation (run_on<System>, inline LLC hit path) against
  // the reference driving a twin System's data port: same LLC traffic, so
  // timing, stalls and cache statistics must agree too.
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40px;
  std::mt19937_64 budgets(7);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    System sys(cfg), twin(cfg);
    std::vector<std::uint8_t> init(16u << 10);
    for (std::size_t i = 0; i < init.size(); ++i) {
      init[i] = static_cast<std::uint8_t>(i * 13 + seed);
    }
    sys.write_bytes(sys.data_base(), init);
    twin.write_bytes(twin.data_base(), init);
    GenOptions opt;
    opt.data = sys.data_base();
    opt.unmapped = kUnmapped;
    opt.abnormal_ends = seed % 2 == 0;
    opt.xmnmc = false;  // the System's bridge would accept it
    Program p = Generator(seed, opt).make();
    const auto words = p.words();
    mem::InstructionMemory imem(cfg.mem.imem_base, cfg.mem.imem_bytes);
    imem.load(cfg.mem.imem_base, words);
    RefIss ref(cfg, imem, twin);
    sys.load_program(words);
    ref.reset(cfg.mem.imem_base, sys.stack_top());
    const bool chunked = seed % 3 == 0;
    for (int guard = 0; guard < 100'000; ++guard) {
      const std::uint64_t budget = next_budget(budgets, chunked);
      const auto got = sys.run_unchecked(budget);
      const auto want = ref.run(budget);
      expect_same_result(got, want);
      expect_same_stats(sys.host().stats(), ref.stats);
      expect_same_regs(sys.host(), ref);
      if (HasFailure()) return;
      if (got.reason != HaltReason::kMaxInstructions) break;
    }
    const auto& a = sys.llc().stats();
    const auto& b = twin.llc().stats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    std::vector<std::uint8_t> got(init.size()), want(init.size());
    sys.read_bytes(sys.data_base(), got);
    twin.read_bytes(twin.data_base(), want);
    EXPECT_EQ(got, want);
  }
}

void expect_same_llc_stats(const sim::CacheStats& got,
                           const sim::CacheStats& want) {
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.writes, want.writes);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.writebacks, want.writebacks);
  EXPECT_EQ(got.refills, want.refills);
  EXPECT_EQ(got.stalls.total(), want.stalls.total());
}

/// One load or store op of the routing test: its encoder (rd or rs2 first,
/// then the address register and the offset or increment), width, kind.
struct MemOp {
  const char* name;
  std::uint32_t (*make)(unsigned, unsigned, std::int32_t);
  unsigned bytes;
  bool store;
  bool sign;  // a load that sign-extends
  bool post;  // XCVPULP post-increment
};

/// s-type encoders take (rs1, rs2, imm): the address register first.
template <std::uint32_t (*kEnc)(unsigned, unsigned, std::int32_t)>
std::uint32_t store_of(unsigned value_reg, unsigned addr_reg,
                       std::int32_t imm) {
  return kEnc(addr_reg, value_reg, imm);
}

TEST(IssReferenceTest, NarrowAccessesAtTheDataRegionEdgesRouteLikeTheReference) {
  // Every load and store width, at offsets 0-3 of the data region's first
  // and last word, of the first word past its end and the word just below
  // its base, and of a bridge MMIO register. Each program makes two
  // accesses at one address (a miss, then an inline hit, inside the
  // region) and halts: in the region and in the MMIO window with an ecall,
  // elsewhere with a bus fault, at the first part that leaves them. The
  // System instantiation runs against the reference on a twin System, and
  // every loaded value and stored byte is checked against the data (a load
  // within the MMIO register against that register's byte lanes).
  SystemConfig cfg = SystemConfig::paper(4);
  cfg.host_cpu = HostCpuKind::kCv32e40px;
  const Addr base = cfg.mem.data_base;
  const Addr end = base + cfg.mem.data_bytes;
  constexpr std::uint32_t kEdge = 64;  // bytes seeded at each region edge
  const auto seeded = [](Addr off_from_edge) {  // bit 7 set in every byte
    return static_cast<std::uint8_t>(0x80u | (off_from_edge * 37u + 5u));
  };
  const std::uint32_t kValue0 = 0x8180'8F80u;  // bits 7 and 15 set
  const std::uint32_t kValue1 = 0xFE7F'80FFu;
  const MemOp ops[] = {
      {"lb", enc::lb, 1, false, true, false},
      {"lbu", enc::lbu, 1, false, false, false},
      {"lh", enc::lh, 2, false, true, false},
      {"lhu", enc::lhu, 2, false, false, false},
      {"lw", enc::lw, 4, false, false, false},
      {"cv.lb", enc::cv_lb_post, 1, false, true, true},
      {"cv.lbu", enc::cv_lbu_post, 1, false, false, true},
      {"cv.lh", enc::cv_lh_post, 2, false, true, true},
      {"cv.lhu", enc::cv_lhu_post, 2, false, false, true},
      {"cv.lw", enc::cv_lw_post, 4, false, false, true},
      {"sb", store_of<enc::sb>, 1, true, false, false},
      {"sh", store_of<enc::sh>, 2, true, false, false},
      {"sw", store_of<enc::sw>, 4, true, false, false},
      {"cv.sb", store_of<enc::cv_sb_post>, 1, true, false, true},
      {"cv.sh", store_of<enc::cv_sh_post>, 2, true, false, true},
      {"cv.sw", store_of<enc::cv_sw_post>, 4, true, false, true},
  };
  const Addr words[] = {base, end - 4, end, base - 4,
                        cfg.mem.mmio_base + bridge::kRegMagic};
  for (const MemOp& op : ops) {
    for (const Addr word : words) {
      for (Addr off = 0; off < 4; ++off) {
        const Addr addr = word + off;
        SCOPED_TRACE(::testing::Message() << op.name << " at 0x" << std::hex
                                          << addr);
        System sys(cfg), twin(cfg);
        std::vector<std::uint8_t> head(kEdge), tail(kEdge);
        for (Addr i = 0; i < kEdge; ++i) {
          head[i] = seeded(i);
          tail[i] = seeded(kEdge + i);
        }
        for (System* s : {&sys, &twin}) {
          s->write_bytes(base, head);
          s->write_bytes(end - kEdge, tail);
        }
        // x5 the address; x6 and x7 the stored values; loads land in x10
        // and x11. A post-increment op moves x5 by 0, then by 4.
        Program p;
        li(p, 5, addr);
        li(p, 6, kValue0);
        li(p, 7, kValue1);
        p.op32(op.make(op.store ? 6 : 10, 5, 0));
        p.op32(op.make(op.store ? 7 : 11, 5, op.post ? 4 : 0));
        p.op32(enc::ecall());
        const auto prog = p.words();
        mem::InstructionMemory imem(cfg.mem.imem_base, cfg.mem.imem_bytes);
        imem.load(cfg.mem.imem_base, prog);
        RefIss ref(cfg, imem, twin);
        sys.load_program(prog);
        ref.reset(cfg.mem.imem_base, sys.stack_top());
        const auto got = sys.run_unchecked(1000);
        const auto want = ref.run(1000);
        expect_same_result(got, want);
        expect_same_stats(sys.host().stats(), ref.stats);
        expect_same_regs(sys.host(), ref);
        expect_same_llc_stats(sys.llc().stats(), twin.llc().stats());

        // What the two accesses must do. An access splits at the 32-bit
        // boundary; a part outside both windows faults and ends the run,
        // so a store whose first part lies in the region leaves it there.
        const unsigned p1 = std::min(op.bytes, 4u - (addr & 3u));
        const bool in_data = range_within(addr, op.bytes, base, end - base);
        const bool mapped =
            in_data || range_within(addr, op.bytes, cfg.mem.mmio_base,
                                    cfg.mem.mmio_bytes);
        EXPECT_EQ(got.reason,
                  mapped ? HaltReason::kEcall : HaltReason::kBusFault);
        EXPECT_EQ(sys.host().stats().loads, op.store || !mapped ? 0u : 2u);
        EXPECT_EQ(sys.host().stats().stores, op.store && mapped ? 2u : 0u);
        auto edge_byte = [&](Addr a) -> std::uint8_t& {
          return a < base + kEdge ? head[a - base] : tail[a - (end - kEdge)];
        };
        auto put = [&](unsigned bytes, std::uint32_t v) {
          for (unsigned i = 0; i < bytes; ++i) {
            edge_byte(addr + i) = static_cast<std::uint8_t>(v >> (8 * i));
          }
        };
        if (op.store && in_data) {
          put(op.bytes, kValue1);
        } else if (op.store && range_within(addr, p1, base, end - base)) {
          put(p1, kValue0);
        }
        std::vector<std::uint8_t> got_head(kEdge), got_tail(kEdge);
        std::vector<std::uint8_t> twin_head(kEdge), twin_tail(kEdge);
        sys.read_bytes(base, got_head);
        sys.read_bytes(end - kEdge, got_tail);
        twin.read_bytes(base, twin_head);
        twin.read_bytes(end - kEdge, twin_tail);
        EXPECT_EQ(got_head, twin_head);
        EXPECT_EQ(got_tail, twin_tail);
        EXPECT_EQ(got_head, head);
        EXPECT_EQ(got_tail, tail);
        if (!op.store && in_data) {
          std::uint32_t datum = 0;
          for (unsigned i = 0; i < op.bytes; ++i) {
            datum |= static_cast<std::uint32_t>(edge_byte(addr + i)) << (8 * i);
          }
          if (op.sign) {
            datum = static_cast<std::uint32_t>(sign_extend(datum, 8 * op.bytes));
          }
          EXPECT_EQ(sys.host().reg(10), datum);
          EXPECT_EQ(sys.host().reg(11), datum);
        }
        if (!op.store && mapped && !in_data && off + op.bytes <= 4) {
          // A load inside the magic register reads its byte lanes (no lane
          // sets bit 7, so sign extension changes nothing).
          constexpr std::uint8_t kMagicLanes[] = {0x41, 0x43, 0x52, 0x41};
          std::uint32_t datum = 0;
          for (unsigned i = 0; i < op.bytes; ++i) {
            datum |= static_cast<std::uint32_t>(kMagicLanes[off + i])
                     << (8 * i);
          }
          EXPECT_EQ(sys.host().reg(10), datum);
          EXPECT_EQ(sys.host().reg(11), datum);
        }
        if (mapped) {
          EXPECT_EQ(sys.host().reg(5), addr + (op.post ? 4 : 0));
        }
        if (HasFailure()) return;
      }
    }
  }
}

TEST(IssReferenceTest, DirectAccessesPastTheDataRegionEndFault) {
  // System::read and write calls of 2 and 4 bytes that start in the data
  // region's last line and run past its end raise the bus-fault Error, with
  // that line resident or not; one that crosses a line inside the region
  // is an LLC invariant violation (the ISS never issues either: it splits
  // at 32-bit boundaries).
  for (const bool resident : {false, true}) {
    SCOPED_TRACE(resident ? "resident" : "absent");
    System sys(SystemConfig::paper(4));
    const Addr end = sys.data_base() + sys.data_size();
    const unsigned line_bytes = sys.config().llc.line_bytes();
    std::uint8_t buf[4] = {0x80, 0x81, 0x82, 0x83};
    if (resident) {
      sys.read(end - 4, 4, buf, 0);
      sys.read(sys.data_base() + line_bytes - 4, 4, buf, 0);
    }
    for (const unsigned bytes : {2u, 4u}) {
      for (Addr back = 1; back < bytes; ++back) {
        const Addr addr = end - back;
        SCOPED_TRACE(::testing::Message() << bytes << " bytes at end - "
                                          << back);
        try {
          sys.read(addr, bytes, buf, 0);
          ADD_FAILURE() << "read did not fault";
        } catch (const AssertionError& e) {
          ADD_FAILURE() << "read raised an invariant violation: " << e.what();
        } catch (const Error& e) {
          EXPECT_STREQ(e.what(), "bus fault: read outside mapped regions");
        }
        try {
          sys.write(addr, bytes, buf, 0);
          ADD_FAILURE() << "write did not fault";
        } catch (const AssertionError& e) {
          ADD_FAILURE() << "write raised an invariant violation: " << e.what();
        } catch (const Error& e) {
          EXPECT_STREQ(e.what(), "bus fault: write outside mapped regions");
        }
        const Addr inside = sys.data_base() + line_bytes - back;
        for (const bool write : {false, true}) {
          try {
            if (write) {
              sys.write(inside, bytes, buf, 0);
            } else {
              sys.read(inside, bytes, buf, 0);
            }
            ADD_FAILURE() << "a line-crossing access was accepted";
          } catch (const AssertionError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "host access crosses a cache line"),
                      std::string::npos)
                << e.what();
          }
        }
      }
    }
  }
}

TEST(IssReferenceTest, FetchPastTheEndOfInstructionMemory) {
  // Straight-line code that runs into the last halfword of imem, which
  // holds the low half of a 32-bit op: a bus fault at that pc, with the
  // op not counted, under every budget (so also entered mid-block).
  // cpu_test covers a jump straight to the truncated op.
  FlatRig rig(HostCpuKind::kCv32e40x);
  const Addr end = rig.cfg.mem.imem_base + rig.cfg.mem.imem_bytes;
  const std::uint32_t addi = enc::addi(10, 10, 5);
  const std::vector<std::uint32_t> tail = {
      enc::addi(10, 0, 1), enc::addi(10, 10, 2),
      c_addi(10, 3) | ((addi & 0xFFFFu) << 16)};
  const Addr tail_base = end - 4 * static_cast<Addr>(tail.size());
  for (std::uint64_t budget : {1ull, 2ull, 3ull, 4ull, 100ull}) {
    SCOPED_TRACE(::testing::Message() << "budget " << budget);
    std::mt19937_64 rng(budget);
    rig.load(tail, tail_base, rig.cfg.mem.data_base + 0x100);
    const auto first = rig.iss->run(budget);
    const auto want = rig.ref->run(budget);
    expect_same_result(first, want);
    rig.run_and_compare(rng, false);
    EXPECT_EQ(rig.iss->pc(), end - 2);
    EXPECT_EQ(rig.iss->stats().instructions, 3u);
    EXPECT_EQ(rig.iss->reg(10), 6u);
  }
}

TEST(IssReferenceTest, HardwareLoopEndInsideAnRvcFreeOpNeverFires) {
  // A loop end 1, 2, 6 or 10 bytes into the RVC-free block after cv.setup
  // (inside its first, second or third op): no sequential pc reaches it, so
  // the loop never fires and the block runs whole. The block starts at a
  // word boundary, or past one RVC op at a halfword boundary.
  FlatRig rig(HostCpuKind::kCv32e40px);
  for (bool shifted : {false, true}) {
    for (std::int32_t into : {1, 2, 6, 10}) {
      Program p;
      if (shifted) p.op16(kCNop);
      p.op32(enc::addi(30, 0, 3));
      p.op32(enc::cv_setup(0, 30, into));  // the end: `into` bytes past it
      for (std::int32_t i = 1; i <= 6; ++i) p.op32(enc::addi(10, 10, i));
      p.op32(enc::ecall());
      const auto words = p.words();
      for (std::uint64_t budget : {1, 2, 3, 4, 5, 100}) {
        SCOPED_TRACE(::testing::Message() << "shifted " << shifted << " into "
                                          << into << " budget " << budget);
        rig.load(words, rig.cfg.mem.imem_base, rig.cfg.mem.data_base + 0x100);
        rig.run_and_compare([budget] { return budget; });
        EXPECT_EQ(rig.iss->stats().hw_loop_iterations, 0u);
        EXPECT_EQ(rig.iss->stats().instructions, shifted ? 10u : 9u);
        EXPECT_EQ(rig.iss->reg(10), 21u);
        if (HasFailure()) return;
      }
    }
  }
}

TEST(IssReferenceTest, BothLoopEndsInOneBlockUnderSmallBudgets) {
  // Loop 1 re-arms loop 0 on every pass; the RVC-free block after loop 0's
  // cv.setup (bytes 16..40) holds both loop ends: loop 0's before loop 1's,
  // after it, or at the same address. Budgets of 1-5 instructions per run
  // enter that block with less budget than its loop cut.
  FlatRig rig(HostCpuKind::kCv32e40px);
  struct Ends {
    Addr end0, end1;
  };
  for (const Ends ends : {Ends{24, 28}, Ends{28, 24}, Ends{24, 24}}) {
    Program p;
    p.op32(enc::addi(31, 0, 3));
    p.op32(enc::cv_setup(1, 31, static_cast<std::int32_t>(ends.end1) - 8));
    p.op32(enc::addi(30, 0, 2));                                    // 8
    p.op32(enc::cv_setup(0, 30, static_cast<std::int32_t>(ends.end0) - 16));
    for (unsigned r = 10; r <= 14; ++r) p.op32(enc::addi(r, r, 1));  // 16
    p.op32(enc::ecall());                                           // 36
    const auto words = p.words();
    for (std::uint64_t budget : {1, 2, 3, 4, 5, 200'000}) {
      SCOPED_TRACE(::testing::Message() << "ends " << ends.end0 << "/"
                                        << ends.end1 << " budget " << budget);
      rig.load(words, rig.cfg.mem.imem_base, rig.cfg.mem.data_base + 0x100);
      rig.run_and_compare([budget] { return budget; });
      EXPECT_GE(rig.iss->stats().hw_loop_iterations, 2u);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace arcane
