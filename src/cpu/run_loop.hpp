// The host ISS run loop: a block-threaded interpreter over the decode cache.
//
// Every opcode has a handler label (labels as values, a GCC/Clang
// extension). A handler executes its instruction, steps the slot cursor
// and pc (`step`), and dispatches on the next slot's opcode through the
// handler table (ARCANE_ISS_NEXT): no loop overhead and no per-instruction
// checks. The compiler merges the handlers' identical dispatch tails: GCC
// 12 at -O3 leaves four indirect jumps in run_on<System> (the block
// entry's and three shared tails), reached by direct jumps. The loop is
// bound by latency, not by jump sites: each instruction waits for the
// load of its opcode and then of its handler address. (Un-duplicating the
// tails with GCC's -fno-crossjumping -fno-gcse and a larger
// max-goto-duplication-insns measured no faster.)
//
// Bounds, decode generation, instruction budget and hardware-loop ends are
// checked once per straight-line block (cpu.hpp, HostCpu::Slot), at
// `enter`, which also shortens the block to the budget and to the first
// active hardware-loop end inside it: computed from the end's distance
// when the block holds no RVC op, else by walking the block.
//
// The datum rule: a load reads its buffer back at the width the port
// wrote it, never wider. The port's hit path stores a 1- or 2-byte datum;
// reading 4 bytes back would need bytes from two stores, which the host
// core cannot forward from its store buffer, so every lb/lh would wait for
// both stores to reach L1 (cpu-conv's scalar int8 conv does two lb per
// 8-instruction tap). lb/lh then sign-extend and lbu/lhu mask, as before.
//
// Included by the two translation units that instantiate HostCpu::run_on:
// cpu.cpp (the DataPort interface, for HostCpu::run) and arcane/system.cpp
// (the `final` System, whose inline LLC hit path then lands in the loads
// and stores below).
#ifndef ARCANE_CPU_RUN_LOOP_HPP_
#define ARCANE_CPU_RUN_LOOP_HPP_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>

#include "common/assert.hpp"
#include "cpu/cpu.hpp"

namespace arcane::cpu {

namespace detail {

inline std::uint32_t sext8(std::uint32_t v) {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(static_cast<std::int8_t>(v)));
}
inline std::uint32_t sext16(std::uint32_t v) {
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(static_cast<std::int16_t>(v)));
}

/// Packed-SIMD lane loop: `f` on each signed lane pair of `a` and `b`
/// (`Lane` = int8_t or int16_t), results truncated back to the lane width.
template <typename Lane, typename F>
std::uint32_t lanes(std::uint32_t a, std::uint32_t b, F f) {
  constexpr unsigned kBits = 8 * sizeof(Lane);
  constexpr std::uint32_t kMask = (1u << kBits) - 1;
  std::uint32_t out = 0;
  for (unsigned i = 0; i < 32 / kBits; ++i) {
    const auto r = f(static_cast<Lane>(a >> (kBits * i)),
                     static_cast<Lane>(b >> (kBits * i)));
    out |= (static_cast<std::uint32_t>(r) & kMask) << (kBits * i);
  }
  return out;
}

/// A misaligned access that crosses a 32-bit boundary: two bus
/// transactions, the second starting when the first completes. Out of line,
/// so that each load and store handler inlines only the aligned access.
template <typename Port>
[[gnu::noinline]] Cycle split_read(Port& port, Addr addr, unsigned head,
                                   unsigned bytes, std::uint8_t* buf,
                                   Cycle t) {
  const Cycle done = port.read(addr, head, buf, t);
  return port.read(addr + head, bytes - head, buf + head, done);
}
template <typename Port>
[[gnu::noinline]] Cycle split_write(Port& port, Addr addr, unsigned head,
                                    unsigned bytes, const std::uint8_t* buf,
                                    Cycle t) {
  const Cycle done = port.write(addr, head, buf, t);
  return port.write(addr + head, bytes - head, buf + head, done);
}

}  // namespace detail

inline Addr HostCpu::close_hw_loop(Addr next) {
  for (HwLoop& hl : hwloop_) {
    if (hl.count != 0 && next == hl.end) {
      if (--hl.count != 0) next = hl.start;  // else exhausted: fall through
      ++stats_.hw_loop_iterations;
      break;
    }
  }
  return next;
}

// Executes the current instruction's successor: ends the block after its
// last instruction, else steps e and pc to the next instruction (`step`
// in run_on) and jumps to its handler.
#define ARCANE_ISS_NEXT()                              \
  do {                                                 \
    if (--n == 0) {                                    \
      pc += d.size;                                    \
      goto fell_through;                               \
    }                                                  \
    pc += step(e);                                     \
    goto* ops[static_cast<unsigned>(e->inst.op)];      \
  } while (false)

// Register-register/immediate op: rd = expr over a = rs1, b = rs2, d.imm.
#define ARCANE_ISS_ALU(label, expr, cost)                 \
  label : {                                               \
    const DecodedInst& d = e->inst;                       \
    [[maybe_unused]] const std::uint32_t a = x[d.rs1];    \
    [[maybe_unused]] const std::uint32_t b = x[d.rs2];    \
    set(d.rd, (expr));                                    \
    now += (cost);                                        \
    ARCANE_ISS_NEXT();                                    \
  }

// Load of `bytes` at `addr`: rd = value over `raw`; `post` (the XCVPULP
// pointer post-increment) runs first, so rd wins when rd == rs1.
#define ARCANE_ISS_LOAD(label, addr, bytes, value, post)                    \
  label : {                                                                 \
    const DecodedInst& d = e->inst;                                         \
    const std::uint32_t a = x[d.rs1];                                       \
    std::uint32_t raw = 0;                                                  \
    const Cycle t = load((addr), (bytes), raw, now);                        \
    if (t == kFault) return halt_in_block(HaltReason::kBusFault, e, n, pc, now); \
    now = t;                                                                \
    post;                                                                   \
    set(d.rd, (value));                                                     \
    ARCANE_ISS_NEXT();                                                      \
  }

#define ARCANE_ISS_STORE(label, addr, bytes, post)                          \
  label : {                                                                 \
    const DecodedInst& d = e->inst;                                         \
    const std::uint32_t a = x[d.rs1];                                       \
    const Cycle t = store((addr), (bytes), x[d.rs2], now);                  \
    if (t == kFault) return halt_in_block(HaltReason::kBusFault, e, n, pc, now); \
    now = t;                                                                \
    post;                                                                   \
    ARCANE_ISS_NEXT();                                                      \
  }

// Conditional branch over a = rs1, b = rs2; ends the block.
#define ARCANE_ISS_BRANCH(label, cond)                  \
  label : {                                             \
    const DecodedInst& d = e->inst;                     \
    const std::uint32_t a = x[d.rs1];                   \
    const std::uint32_t b = x[d.rs2];                   \
    fall = pc + d.size;                                 \
    ++stats_.branches;                                  \
    if (cond) {                                         \
      ++stats_.taken_branches;                          \
      pc += static_cast<Addr>(d.imm);                   \
      now += tm.branch_taken;                           \
    } else {                                            \
      pc = fall;                                        \
      now += tm.branch_not_taken;                       \
    }                                                   \
    goto jumped;                                        \
  }

template <typename Port>
HostCpu::RunResult HostCpu::run_on(Port& port,
                                   std::uint64_t max_instructions) {
  using detail::lanes;
  using detail::sext16;
  using detail::sext8;
  using isa::DecodedInst;
  using isa::Op;
  constexpr Cycle kFault = ~Cycle{0};  // load/store: the port faulted

  // pc, time and the block cursor stay in registers for the whole loop;
  // halt() writes pc and time back.
  Addr pc = pc_;
  Cycle now = time_;
  const Addr ibase = imem_->base();
  const std::uint32_t isize = imem_->size();
  const Slot* const dcache = decode_cache_.get();
  const std::uint32_t* const dgen = decode_gen_.data();
  const std::uint32_t gen = gen_;
  const CpuTiming tm = timing_;
  std::uint32_t* const x = regs_.data();
  std::uint64_t budget = max_instructions;  // not yet handed to a block
  const Slot* e = nullptr;  // entry of the executing instruction
  unsigned n = 0;  // instructions left in the block, the executing one too
  Addr fall = 0;   // fall-through pc of a block-ending branch or jump

  // Steps a slot cursor past one instruction and returns its size in
  // bytes: 2 slots and 4 bytes for a 32-bit op, 1 and 2 for an RVC op. A
  // branch on the size rather than `s += size >> 1`: the branch is
  // predicted, so the next slot's address, and with it the next handler,
  // does not wait for the load of this slot's size.
  auto step = [](const Slot*& s) __attribute__((always_inline)) -> Addr {
    if (s->inst.size == 4) [[likely]] {
      s += 2;
      return 4;
    }
    s += 1;
    return 2;
  };
  auto halt = [this](HaltReason why, Addr at, Cycle t) {
    pc_ = at;
    time_ = t;
    stats_.cycles = t;
    return RunResult{why, t, stats_.instructions, regs_[10], at, start_};
  };
  // A halt inside a block: `enter` counted the whole block, but only the
  // halting instruction retires its count.
  auto halt_in_block = [this, &halt, &step](HaltReason why, const Slot* s,
                                            unsigned left, Addr at, Cycle t) {
    for (; left > 1; --left) {
      step(s);
      --stats_.instructions;
      stats_.compressed_instructions -= s->inst.is_compressed() ? 1 : 0;
    }
    return halt(why, at, t);
  };
  auto set = [x](unsigned rd, std::uint32_t v) {
    x[rd] = v;
    x[0] = 0;
  };
  // One load or store's data access at time `t`; returns its completion
  // time, or kFault on a bus fault. Misaligned accesses that cross a 32-bit
  // boundary split into two bus transactions, as on the CV32E40X LSU;
  // cycles past the base latency count as stall. Forced inline: the port's
  // hit path must land in every handler.
  auto load = [this, &port, &tm](Addr addr, unsigned bytes,
                                 std::uint32_t& raw, Cycle t)
      __attribute__((always_inline)) -> Cycle {
    const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
    std::uint8_t buf[4];  // the read(s) write all `bytes` of it
    const Cycle start = t + tm.load_base;
    Cycle done;
    try {
      done = p1 == bytes
                 ? port.read(addr, bytes, buf, t)
                 : detail::split_read(port, addr, p1, bytes, buf, t);
    } catch (const Error&) {
      return kFault;
    }
    // Back at the width the port wrote: the datum rule above.
    if (bytes == 1) {
      raw = buf[0];
    } else if (bytes == 2) {
      std::uint16_t half;
      std::memcpy(&half, buf, 2);
      raw = half;
    } else {
      std::memcpy(&raw, buf, 4);
    }
    stats_.stall_cycles += (done > start) ? done - start : 0;
    ++stats_.loads;
    return std::max(done, start);
  };
  auto store = [this, &port, &tm](Addr addr, unsigned bytes,
                                  std::uint32_t value, Cycle t)
      __attribute__((always_inline)) -> Cycle {
    const unsigned p1 = std::min(bytes, 4u - (addr & 3u));
    std::uint8_t buf[4];
    std::memcpy(buf, &value, 4);
    const Cycle start = t + tm.store_base;
    Cycle done;
    try {
      done = p1 == bytes
                 ? port.write(addr, bytes, buf, t)
                 : detail::split_write(port, addr, p1, bytes, buf, t);
    } catch (const Error&) {
      return kFault;
    }
    stats_.stall_cycles += (done > start) ? done - start : 0;
    ++stats_.stores;
    return std::max(done, start);
  };

  // Handler of every opcode. XCVPULP ops on a plain CV32E40X are illegal
  // (counted, as the core decodes them before rejecting them).
  constexpr auto kOps = static_cast<unsigned>(Op::kOpCount);
  void* ops[kOps];
  std::fill_n(ops, kOps, &&op_unhandled);
  auto on = [&ops](Op op, void* handler) {
    ops[static_cast<unsigned>(op)] = handler;
  };
  on(Op::kLui, &&op_lui);
  on(Op::kAuipc, &&op_auipc);
  on(Op::kJal, &&op_jal);
  on(Op::kJalr, &&op_jalr);
  on(Op::kBeq, &&op_beq);
  on(Op::kBne, &&op_bne);
  on(Op::kBlt, &&op_blt);
  on(Op::kBge, &&op_bge);
  on(Op::kBltu, &&op_bltu);
  on(Op::kBgeu, &&op_bgeu);
  on(Op::kLb, &&op_lb);
  on(Op::kLh, &&op_lh);
  on(Op::kLw, &&op_lw);
  on(Op::kLbu, &&op_lbu);
  on(Op::kLhu, &&op_lhu);
  on(Op::kSb, &&op_sb);
  on(Op::kSh, &&op_sh);
  on(Op::kSw, &&op_sw);
  on(Op::kAddi, &&op_addi);
  on(Op::kSlti, &&op_slti);
  on(Op::kSltiu, &&op_sltiu);
  on(Op::kXori, &&op_xori);
  on(Op::kOri, &&op_ori);
  on(Op::kAndi, &&op_andi);
  on(Op::kSlli, &&op_slli);
  on(Op::kSrli, &&op_srli);
  on(Op::kSrai, &&op_srai);
  on(Op::kAdd, &&op_add);
  on(Op::kSub, &&op_sub);
  on(Op::kSll, &&op_sll);
  on(Op::kSlt, &&op_slt);
  on(Op::kSltu, &&op_sltu);
  on(Op::kXor, &&op_xor);
  on(Op::kSrl, &&op_srl);
  on(Op::kSra, &&op_sra);
  on(Op::kOr, &&op_or);
  on(Op::kAnd, &&op_and);
  on(Op::kFence, &&op_fence);
  on(Op::kEcall, &&op_ecall);
  on(Op::kEbreak, &&op_ebreak);
  on(Op::kMul, &&op_mul);
  on(Op::kMulh, &&op_mulh);
  on(Op::kMulhsu, &&op_mulhsu);
  on(Op::kMulhu, &&op_mulhu);
  on(Op::kDiv, &&op_div);
  on(Op::kDivu, &&op_divu);
  on(Op::kRem, &&op_rem);
  on(Op::kRemu, &&op_remu);
  for (Op op : {Op::kCsrrw, Op::kCsrrs, Op::kCsrrc, Op::kCsrrwi,
                Op::kCsrrsi, Op::kCsrrci}) {
    on(op, &&op_csr);
  }
  on(Op::kXmnmc, &&op_xmnmc);
  if (xcvpulp()) {
    on(Op::kCvLbPost, &&op_cv_lb_post);
    on(Op::kCvLbuPost, &&op_cv_lbu_post);
    on(Op::kCvLhPost, &&op_cv_lh_post);
    on(Op::kCvLhuPost, &&op_cv_lhu_post);
    on(Op::kCvLwPost, &&op_cv_lw_post);
    on(Op::kCvSbPost, &&op_cv_sb_post);
    on(Op::kCvShPost, &&op_cv_sh_post);
    on(Op::kCvSwPost, &&op_cv_sw_post);
    on(Op::kCvSetup, &&op_cv_setup);
    on(Op::kCvMac, &&op_cv_mac);
    on(Op::kCvMax, &&op_cv_max);
    on(Op::kCvMin, &&op_cv_min);
    on(Op::kCvAbs, &&op_cv_abs);
    on(Op::kCvClip, &&op_cv_clip);
    on(Op::kPvAddB, &&op_pv_add_b);
    on(Op::kPvAddH, &&op_pv_add_h);
    on(Op::kPvSubB, &&op_pv_sub_b);
    on(Op::kPvSubH, &&op_pv_sub_h);
    on(Op::kPvMaxB, &&op_pv_max_b);
    on(Op::kPvMaxH, &&op_pv_max_h);
    on(Op::kPvMinB, &&op_pv_min_b);
    on(Op::kPvMinH, &&op_pv_min_h);
    on(Op::kPvSdotspB, &&op_pv_sdotsp_b);
    on(Op::kPvSdotspH, &&op_pv_sdotsp_h);
    on(Op::kPvSdotupB, &&op_pv_sdotup_b);
  } else {
    // The XCVPULP ops sit between Zicsr and xmnmc in isa::Op.
    for (auto op = static_cast<unsigned>(Op::kCvLbPost);
         op <= static_cast<unsigned>(Op::kPvSdotupB); ++op) {
      ops[op] = &&op_needs_pulp;
    }
  }

enter : {
  // Block entry: budget, bounds, decode generation, then the block's
  // length cut to the budget and to the first active hardware-loop end.
  if (budget == 0) return halt(HaltReason::kMaxInstructions, pc, now);
  // One compare covers pc below the base, past the end and wrapped pc + 2.
  if (pc - ibase > isize - 2) return halt(HaltReason::kBusFault, pc, now);
  const std::size_t slot = (pc - ibase) >> 1;
  if (dgen[slot] != gen) {
    const HaltReason why = decode_block(slot);
    if (why != HaltReason::kNone) return halt(why, pc, now);
  }
  e = dcache + slot;
  n = e->block;
  unsigned rvc = e->block_rvc;
  const HwLoop& l0 = hwloop_[0];
  const HwLoop& l1 = hwloop_[1];
  const bool looping = (l0.count | l1.count) != 0;
  if (rvc == 0) {
    // No RVC op: the i-th instruction ends at pc + 4i, so a loop end cuts
    // the block only at a positive multiple of 4 bytes from pc (an end
    // that falls mid-instruction never fires).
    if (n > budget) n = static_cast<unsigned>(budget);
    if (looping) {
      for (const HwLoop* l : {&l0, &l1}) {
        const Addr span = l->end - pc;
        if (l->count != 0 && span != 0 && span % 4 == 0 && span / 4 < n) {
          n = span / 4;
        }
      }
    }
  } else if (n > budget || looping) {
    const unsigned limit = n > budget ? static_cast<unsigned>(budget) : n;
    const Slot* s = e;
    Addr next = pc;
    n = 0;
    rvc = 0;
    while (n < limit) {
      ++n;
      rvc += s->inst.is_compressed() ? 1 : 0;
      next += step(s);
      if (looping && ((l0.count != 0 && next == l0.end) ||
                      (l1.count != 0 && next == l1.end))) {
        break;
      }
    }
  }
  budget -= n;
  stats_.instructions += n;
  stats_.compressed_instructions += rvc;
  goto* ops[static_cast<unsigned>(e->inst.op)];
}

fell_through:  // the block's last instruction fell through to pc
  if ((hwloop_[0].count | hwloop_[1].count) != 0) pc = close_hw_loop(pc);
  goto enter;

jumped:  // the block ended in a branch or jump from `fall`'s predecessor
  if (pc == fall) goto fell_through;
  goto enter;

  // ---- ALU ----
  ARCANE_ISS_ALU(op_lui, static_cast<std::uint32_t>(d.imm) << 12, tm.alu)
  ARCANE_ISS_ALU(op_auipc, pc + (static_cast<std::uint32_t>(d.imm) << 12),
                 tm.alu)
  ARCANE_ISS_ALU(op_addi, a + static_cast<std::uint32_t>(d.imm), tm.alu)
  ARCANE_ISS_ALU(op_slti, static_cast<std::int32_t>(a) < d.imm ? 1u : 0u,
                 tm.alu)
  ARCANE_ISS_ALU(op_sltiu, a < static_cast<std::uint32_t>(d.imm) ? 1u : 0u,
                 tm.alu)
  ARCANE_ISS_ALU(op_xori, a ^ static_cast<std::uint32_t>(d.imm), tm.alu)
  ARCANE_ISS_ALU(op_ori, a | static_cast<std::uint32_t>(d.imm), tm.alu)
  ARCANE_ISS_ALU(op_andi, a & static_cast<std::uint32_t>(d.imm), tm.alu)
  ARCANE_ISS_ALU(op_slli, a << (d.imm & 31), tm.alu)
  ARCANE_ISS_ALU(op_srli, a >> (d.imm & 31), tm.alu)
  ARCANE_ISS_ALU(op_srai,
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                            (d.imm & 31)),
                 tm.alu)
  ARCANE_ISS_ALU(op_add, a + b, tm.alu)
  ARCANE_ISS_ALU(op_sub, a - b, tm.alu)
  ARCANE_ISS_ALU(op_sll, a << (b & 31), tm.alu)
  ARCANE_ISS_ALU(op_slt,
                 static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b)
                     ? 1u
                     : 0u,
                 tm.alu)
  ARCANE_ISS_ALU(op_sltu, a < b ? 1u : 0u, tm.alu)
  ARCANE_ISS_ALU(op_xor, a ^ b, tm.alu)
  ARCANE_ISS_ALU(op_srl, a >> (b & 31), tm.alu)
  ARCANE_ISS_ALU(op_sra,
                 static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                            (b & 31)),
                 tm.alu)
  ARCANE_ISS_ALU(op_or, a | b, tm.alu)
  ARCANE_ISS_ALU(op_and, a & b, tm.alu)

op_fence : {
  const DecodedInst& d = e->inst;
  now += tm.alu;
  ARCANE_ISS_NEXT();
}

  // ---- jumps & branches (block ends) ----
op_jal : {
  const DecodedInst& d = e->inst;
  fall = pc + d.size;
  set(d.rd, fall);
  pc += static_cast<Addr>(d.imm);
  now += tm.jump;
  goto jumped;
}
op_jalr : {
  const DecodedInst& d = e->inst;
  fall = pc + d.size;
  pc = (x[d.rs1] + static_cast<Addr>(d.imm)) & ~1u;
  set(d.rd, fall);
  now += tm.jump;
  goto jumped;
}
  ARCANE_ISS_BRANCH(op_beq, a == b)
  ARCANE_ISS_BRANCH(op_bne, a != b)
  ARCANE_ISS_BRANCH(op_blt,
                    static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b))
  ARCANE_ISS_BRANCH(op_bge, static_cast<std::int32_t>(a) >=
                                static_cast<std::int32_t>(b))
  ARCANE_ISS_BRANCH(op_bltu, a < b)
  ARCANE_ISS_BRANCH(op_bgeu, a >= b)

  // ---- memory ----
  ARCANE_ISS_LOAD(op_lb, a + static_cast<Addr>(d.imm), 1, sext8(raw), )
  ARCANE_ISS_LOAD(op_lh, a + static_cast<Addr>(d.imm), 2, sext16(raw), )
  ARCANE_ISS_LOAD(op_lw, a + static_cast<Addr>(d.imm), 4, raw, )
  ARCANE_ISS_LOAD(op_lbu, a + static_cast<Addr>(d.imm), 1, raw & 0xFFu, )
  ARCANE_ISS_LOAD(op_lhu, a + static_cast<Addr>(d.imm), 2, raw & 0xFFFFu, )
  ARCANE_ISS_STORE(op_sb, a + static_cast<Addr>(d.imm), 1, )
  ARCANE_ISS_STORE(op_sh, a + static_cast<Addr>(d.imm), 2, )
  ARCANE_ISS_STORE(op_sw, a + static_cast<Addr>(d.imm), 4, )

  // ---- M ----
#define ARCANE_ISS_MUL(label, expr) \
  ARCANE_ISS_ALU(label, (++stats_.mul_div, (expr)), tm.mul)
#define ARCANE_ISS_DIV(label, expr) \
  ARCANE_ISS_ALU(label, (++stats_.mul_div, (expr)), tm.div)
  ARCANE_ISS_MUL(op_mul, a * b)
  ARCANE_ISS_MUL(op_mulh,
                 static_cast<std::uint32_t>(
                     (static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                      static_cast<std::int64_t>(static_cast<std::int32_t>(b))) >>
                     32))
  ARCANE_ISS_MUL(op_mulhsu,
                 static_cast<std::uint32_t>(
                     (static_cast<std::int64_t>(static_cast<std::int32_t>(a)) *
                      static_cast<std::int64_t>(b)) >>
                     32))
  ARCANE_ISS_MUL(op_mulhu,
                 static_cast<std::uint32_t>((static_cast<std::uint64_t>(a) *
                                             static_cast<std::uint64_t>(b)) >>
                                            32))
  ARCANE_ISS_DIV(op_div,
                 b == 0 ? 0xFFFF'FFFFu
                 : (a == 0x8000'0000u && b == 0xFFFF'FFFFu)
                     ? 0x8000'0000u
                     : static_cast<std::uint32_t>(static_cast<std::int32_t>(a) /
                                                  static_cast<std::int32_t>(b)))
  ARCANE_ISS_DIV(op_divu, b == 0 ? 0xFFFF'FFFFu : a / b)
  ARCANE_ISS_DIV(op_rem,
                 b == 0 ? a
                 : (a == 0x8000'0000u && b == 0xFFFF'FFFFu)
                     ? 0u
                     : static_cast<std::uint32_t>(static_cast<std::int32_t>(a) %
                                                  static_cast<std::int32_t>(b)))
  ARCANE_ISS_DIV(op_remu, b == 0 ? a : a % b)
#undef ARCANE_ISS_MUL
#undef ARCANE_ISS_DIV

  // ---- Zicsr: reads of the counters, writes ignored (block ends) ----
op_csr : {
  const DecodedInst& d = e->inst;
  std::uint32_t v = 0;
  switch (static_cast<std::uint16_t>(d.imm)) {
    case isa::kCsrMcycle: v = static_cast<std::uint32_t>(now); break;
    case isa::kCsrMcycleH: v = static_cast<std::uint32_t>(now >> 32); break;
    case isa::kCsrMinstret:
      v = static_cast<std::uint32_t>(stats_.instructions);
      break;
    case isa::kCsrMinstretH:
      v = static_cast<std::uint32_t>(stats_.instructions >> 32);
      break;
    case isa::kCsrMhartid: v = 0; break;
    default:
      return halt_in_block(HaltReason::kIllegalInstruction, e, n, pc, now);
  }
  set(d.rd, v);
  now += tm.csr;
  pc += d.size;
  goto fell_through;
}

op_ecall : {
  const DecodedInst& d = e->inst;
  return halt(HaltReason::kEcall, pc + d.size, now + tm.alu);
}
op_ebreak : {
  const DecodedInst& d = e->inst;
  return halt(HaltReason::kEbreak, pc + d.size, now + tm.alu);
}

  // ---- XCVPULP post-increment memory: rd == rs1 is architecturally
  // unpredictable; we define rd (the loaded value) to win ----
#define ARCANE_ISS_POST set(d.rs1, a + static_cast<std::uint32_t>(d.imm))
  ARCANE_ISS_LOAD(op_cv_lb_post, a, 1, sext8(raw), ARCANE_ISS_POST)
  ARCANE_ISS_LOAD(op_cv_lbu_post, a, 1, raw & 0xFFu, ARCANE_ISS_POST)
  ARCANE_ISS_LOAD(op_cv_lh_post, a, 2, sext16(raw), ARCANE_ISS_POST)
  ARCANE_ISS_LOAD(op_cv_lhu_post, a, 2, raw & 0xFFFFu, ARCANE_ISS_POST)
  ARCANE_ISS_LOAD(op_cv_lw_post, a, 4, raw, ARCANE_ISS_POST)
  ARCANE_ISS_STORE(op_cv_sb_post, a, 1, ARCANE_ISS_POST)
  ARCANE_ISS_STORE(op_cv_sh_post, a, 2, ARCANE_ISS_POST)
  ARCANE_ISS_STORE(op_cv_sw_post, a, 4, ARCANE_ISS_POST)
#undef ARCANE_ISS_POST

  // ---- XCVPULP scalar DSP and packed SIMD ----
#define ARCANE_ISS_SIMD(label, expr) \
  ARCANE_ISS_ALU(label, (++stats_.simd_ops, (expr)), tm.simd)
  ARCANE_ISS_SIMD(op_cv_mac, x[d.rd] + a * b)
  ARCANE_ISS_SIMD(op_cv_max,
                  static_cast<std::int32_t>(a) > static_cast<std::int32_t>(b)
                      ? a
                      : b)
  ARCANE_ISS_SIMD(op_cv_min,
                  static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b)
                      ? a
                      : b)
  ARCANE_ISS_SIMD(op_cv_abs, static_cast<std::int32_t>(a) < 0 ? 0u - a : a)
  ARCANE_ISS_SIMD(op_cv_clip, [&] {
    const unsigned bits = d.rs2 & 31u;
    const std::int32_t hi = bits == 0 ? 0 : (1 << (bits - 1)) - 1;
    const std::int32_t lo = bits == 0 ? -1 : -(1 << (bits - 1));
    return static_cast<std::uint32_t>(
        std::clamp(static_cast<std::int32_t>(a), lo, hi));
  }())
  ARCANE_ISS_SIMD(op_pv_add_b, lanes<std::int8_t>(a, b, std::plus<>{}))
  ARCANE_ISS_SIMD(op_pv_add_h, lanes<std::int16_t>(a, b, std::plus<>{}))
  ARCANE_ISS_SIMD(op_pv_sub_b, lanes<std::int8_t>(a, b, std::minus<>{}))
  ARCANE_ISS_SIMD(op_pv_sub_h, lanes<std::int16_t>(a, b, std::minus<>{}))
  ARCANE_ISS_SIMD(op_pv_max_b,
                  lanes<std::int8_t>(a, b, [](auto p, auto q) {
                    return std::max(p, q);
                  }))
  ARCANE_ISS_SIMD(op_pv_max_h,
                  lanes<std::int16_t>(a, b, [](auto p, auto q) {
                    return std::max(p, q);
                  }))
  ARCANE_ISS_SIMD(op_pv_min_b,
                  lanes<std::int8_t>(a, b, [](auto p, auto q) {
                    return std::min(p, q);
                  }))
  ARCANE_ISS_SIMD(op_pv_min_h,
                  lanes<std::int16_t>(a, b, [](auto p, auto q) {
                    return std::min(p, q);
                  }))
  ARCANE_ISS_SIMD(op_pv_sdotsp_b, [&] {
    auto acc = static_cast<std::int64_t>(static_cast<std::int32_t>(x[d.rd]));
    for (unsigned i = 0; i < 4; ++i) {
      acc += static_cast<std::int64_t>(static_cast<std::int8_t>(a >> (8 * i))) *
             static_cast<std::int8_t>(b >> (8 * i));
    }
    return static_cast<std::uint32_t>(acc);
  }())
  ARCANE_ISS_SIMD(op_pv_sdotup_b, [&] {
    auto acc = static_cast<std::int64_t>(static_cast<std::int32_t>(x[d.rd]));
    for (unsigned i = 0; i < 4; ++i) {
      acc += static_cast<std::int64_t>((a >> (8 * i)) & 0xFFu) *
             ((b >> (8 * i)) & 0xFFu);
    }
    return static_cast<std::uint32_t>(acc);
  }())
  ARCANE_ISS_SIMD(op_pv_sdotsp_h, [&] {
    auto acc = static_cast<std::int64_t>(static_cast<std::int32_t>(x[d.rd]));
    for (unsigned i = 0; i < 2; ++i) {
      acc +=
          static_cast<std::int64_t>(static_cast<std::int16_t>(a >> (16 * i))) *
          static_cast<std::int16_t>(b >> (16 * i));
    }
    return static_cast<std::uint32_t>(acc);
  }())
#undef ARCANE_ISS_SIMD

op_cv_setup : {  // hardware-loop state changes: block ends, no back-edge
  const DecodedInst& d = e->inst;
  HwLoop& hl = hwloop_[d.rd & 1u];
  hl.start = pc + 4;
  hl.end = pc + 4 + static_cast<Addr>(d.imm);
  hl.count = x[d.rs1];
  now += tm.alu;
  pc += d.size;
  goto enter;
}

op_needs_pulp:
  return halt_in_block(HaltReason::kIllegalInstruction, e, n, pc, now);

  // ---- xmnmc offload (block ends) ----
op_xmnmc : {
  const DecodedInst& d = e->inst;
  if (copro_ == nullptr) {
    return halt(HaltReason::kIllegalInstruction, pc, now);
  }
  now += tm.offload_handshake;
  Coprocessor::IssueResult r;
  try {
    r = copro_->offload(d, x[d.rs1], x[d.rs2], x[d.rs3], now);
  } catch (const Error&) {
    return halt(HaltReason::kBusFault, pc, now);
  }
  if (!r.accepted) return halt(HaltReason::kIllegalInstruction, pc, now);
  stats_.stall_cycles += (r.complete_at > now) ? r.complete_at - now : 0;
  now = std::max(now, r.complete_at);
  ++stats_.offloads;
  pc += d.size;
  goto fell_through;
}

op_unhandled:  // decode_block never admits kIllegal into a block
  ARCANE_ASSERT(false, "no ISS handler for op " << static_cast<unsigned>(
                           e->inst.op));
  return halt(HaltReason::kIllegalInstruction, pc, now);
}

#undef ARCANE_ISS_NEXT
#undef ARCANE_ISS_ALU
#undef ARCANE_ISS_LOAD
#undef ARCANE_ISS_STORE
#undef ARCANE_ISS_BRANCH

}  // namespace arcane::cpu

#endif  // ARCANE_CPU_RUN_LOOP_HPP_
