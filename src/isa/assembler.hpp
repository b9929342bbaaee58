// Programmatic RV32 assembler.
//
// Host applications and the baseline kernels (scalar and XCVPULP) are
// written against this builder, executed by the ISS, and validated against
// the golden models — the repo's substitute for a cross-compilation
// toolchain (see DESIGN.md, "Substitutions").
//
// Usage:
//   Assembler a(kTextBase);
//   auto loop = a.label();
//   a.li(Reg::kA0, 10);
//   a.bind(loop);
//   a.addi(Reg::kA0, Reg::kA0, -1);
//   a.bnez(Reg::kA0, loop);
//   a.ecall();                       // halt convention
//   std::vector<uint32_t> img = a.finish();
#ifndef ARCANE_ISA_ASSEMBLER_HPP_
#define ARCANE_ISA_ASSEMBLER_HPP_

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "isa/rv32.hpp"

namespace arcane::isa {

class Assembler {
 public:
  /// Opaque label handle. Forward references are resolved in finish().
  struct Label {
    int id = -1;
  };

  explicit Assembler(Addr base = 0) : base_(base) {}

  Addr base() const { return base_; }
  /// Address of the next emitted instruction.
  Addr pc() const { return base_ + static_cast<Addr>(code_.size() * 4); }

  Label label();            // create an unbound label
  Label here();             // create a label bound at the current pc
  void bind(Label l);       // bind an existing label at the current pc

  /// Finalize: resolve all fixups. Throws arcane::Error on unbound labels or
  /// out-of-range offsets.
  std::vector<std::uint32_t> finish();

  // ---- raw escape hatch ----
  void word(std::uint32_t w) { code_.push_back(w); }

  // ---- RV32I ----
  void lui(Reg rd, std::int32_t imm20);
  void auipc(Reg rd, std::int32_t imm20);
  void jal(Reg rd, Label target);
  void jalr(Reg rd, Reg rs1, std::int32_t off);
  void beq(Reg rs1, Reg rs2, Label t);
  void bne(Reg rs1, Reg rs2, Label t);
  void blt(Reg rs1, Reg rs2, Label t);
  void bge(Reg rs1, Reg rs2, Label t);
  void bltu(Reg rs1, Reg rs2, Label t);
  void bgeu(Reg rs1, Reg rs2, Label t);
  void lb(Reg rd, Reg rs1, std::int32_t off);
  void lh(Reg rd, Reg rs1, std::int32_t off);
  void lw(Reg rd, Reg rs1, std::int32_t off);
  void lbu(Reg rd, Reg rs1, std::int32_t off);
  void lhu(Reg rd, Reg rs1, std::int32_t off);
  void sb(Reg rs2, Reg rs1, std::int32_t off);  // store rs2 to off(rs1)
  void sh(Reg rs2, Reg rs1, std::int32_t off);
  void sw(Reg rs2, Reg rs1, std::int32_t off);
  void addi(Reg rd, Reg rs1, std::int32_t imm);
  void slti(Reg rd, Reg rs1, std::int32_t imm);
  void sltiu(Reg rd, Reg rs1, std::int32_t imm);
  void xori(Reg rd, Reg rs1, std::int32_t imm);
  void ori(Reg rd, Reg rs1, std::int32_t imm);
  void andi(Reg rd, Reg rs1, std::int32_t imm);
  void slli(Reg rd, Reg rs1, unsigned sh);
  void srli(Reg rd, Reg rs1, unsigned sh);
  void srai(Reg rd, Reg rs1, unsigned sh);
  void add(Reg rd, Reg rs1, Reg rs2);
  void sub(Reg rd, Reg rs1, Reg rs2);
  void sll(Reg rd, Reg rs1, Reg rs2);
  void slt(Reg rd, Reg rs1, Reg rs2);
  void sltu(Reg rd, Reg rs1, Reg rs2);
  void xor_(Reg rd, Reg rs1, Reg rs2);
  void srl(Reg rd, Reg rs1, Reg rs2);
  void sra(Reg rd, Reg rs1, Reg rs2);
  void or_(Reg rd, Reg rs1, Reg rs2);
  void and_(Reg rd, Reg rs1, Reg rs2);
  void ecall();
  void ebreak();

  // ---- M ----
  void mul(Reg rd, Reg rs1, Reg rs2);
  void mulh(Reg rd, Reg rs1, Reg rs2);
  void mulhsu(Reg rd, Reg rs1, Reg rs2);
  void mulhu(Reg rd, Reg rs1, Reg rs2);
  void div(Reg rd, Reg rs1, Reg rs2);
  void divu(Reg rd, Reg rs1, Reg rs2);
  void rem(Reg rd, Reg rs1, Reg rs2);
  void remu(Reg rd, Reg rs1, Reg rs2);

  // ---- Zicsr ----
  void csrrw(Reg rd, unsigned csr, Reg rs1);
  void csrrs(Reg rd, unsigned csr, Reg rs1);
  void csrr(Reg rd, unsigned csr) { csrrs(rd, csr, Reg::kZero); }

  // ---- XCVPULP ----
  void cv_lb_post(Reg rd, Reg rs1, std::int32_t inc);
  void cv_lbu_post(Reg rd, Reg rs1, std::int32_t inc);
  void cv_lh_post(Reg rd, Reg rs1, std::int32_t inc);
  void cv_lhu_post(Reg rd, Reg rs1, std::int32_t inc);
  void cv_lw_post(Reg rd, Reg rs1, std::int32_t inc);
  void cv_sb_post(Reg rs2, Reg rs1, std::int32_t inc);
  void cv_sh_post(Reg rs2, Reg rs1, std::int32_t inc);
  void cv_sw_post(Reg rs2, Reg rs1, std::int32_t inc);
  void cv_mac(Reg rd, Reg rs1, Reg rs2);
  void cv_max(Reg rd, Reg rs1, Reg rs2);
  void cv_min(Reg rd, Reg rs1, Reg rs2);
  void cv_abs(Reg rd, Reg rs1);
  /// Clip rs1 to the signed `bits`-wide range [-2^(b-1), 2^(b-1)-1].
  void cv_clip(Reg rd, Reg rs1, unsigned bits);
  /// Hardware loop: iterate the body [next pc, end) `count`-register times.
  void cv_setup(unsigned loop, Reg count, Label end);
  void pv_add_b(Reg rd, Reg rs1, Reg rs2);
  void pv_add_h(Reg rd, Reg rs1, Reg rs2);
  void pv_sub_b(Reg rd, Reg rs1, Reg rs2);
  void pv_sub_h(Reg rd, Reg rs1, Reg rs2);
  void pv_max_b(Reg rd, Reg rs1, Reg rs2);
  void pv_max_h(Reg rd, Reg rs1, Reg rs2);
  void pv_min_b(Reg rd, Reg rs1, Reg rs2);
  void pv_min_h(Reg rd, Reg rs1, Reg rs2);
  void pv_sdotsp_b(Reg rd, Reg rs1, Reg rs2);
  void pv_sdotsp_h(Reg rd, Reg rs1, Reg rs2);
  void pv_sdotup_b(Reg rd, Reg rs1, Reg rs2);

  // ---- xmnmc ----
  void xmnmc(unsigned func5, ElemType et, Reg rs1, Reg rs2, Reg rs3);

  // ---- pseudo-instructions ----
  void nop() { addi(Reg::kZero, Reg::kZero, 0); }
  void mv(Reg rd, Reg rs) { addi(rd, rs, 0); }
  void neg(Reg rd, Reg rs) { sub(rd, Reg::kZero, rs); }
  void li(Reg rd, std::int32_t value);
  void la(Reg rd, Addr addr) { li(rd, static_cast<std::int32_t>(addr)); }
  void j(Label t) { jal(Reg::kZero, t); }
  void beqz(Reg rs, Label t) { beq(rs, Reg::kZero, t); }
  void bnez(Reg rs, Label t) { bne(rs, Reg::kZero, t); }
  void blez(Reg rs, Label t) { bge(Reg::kZero, rs, t); }
  void bgtz(Reg rs, Label t) { blt(Reg::kZero, rs, t); }
  void ret() { jalr(Reg::kZero, Reg::kRa, 0); }
  void call(Label t) { jal(Reg::kRa, t); }

 private:
  enum class FixKind : std::uint8_t { kBranch, kJal, kCvSetup };
  struct Fixup {
    std::size_t index;  // word index into code_
    int label;
    FixKind kind;
  };

  void emit_branch(unsigned f3, Reg rs1, Reg rs2, Label t);
  Addr addr_of(std::size_t index) const {
    return base_ + static_cast<Addr>(index * 4);
  }

  Addr base_;
  std::vector<std::uint32_t> code_;
  std::vector<std::int64_t> label_addr_;  // -1 = unbound
  std::vector<Fixup> fixups_;
};

}  // namespace arcane::isa

#endif  // ARCANE_ISA_ASSEMBLER_HPP_
