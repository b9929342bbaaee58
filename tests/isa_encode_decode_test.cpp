// Encoder/decoder round-trip and field-extraction tests for every
// instruction the simulator understands.
#include <gtest/gtest.h>

#include "isa/decode.hpp"
#include "isa/encode.hpp"
#include "isa/rv32.hpp"

#include "disasm.hpp"

namespace arcane::isa {
namespace {

DecodedInst dec(std::uint32_t w) { return decode(w); }

TEST(IsaEncodeDecode, RTypeFields) {
  const auto d = dec(enc::add(3, 4, 5));
  EXPECT_EQ(d.op, Op::kAdd);
  EXPECT_EQ(d.rd, 3);
  EXPECT_EQ(d.rs1, 4);
  EXPECT_EQ(d.rs2, 5);
  EXPECT_EQ(d.size, 4);
}

TEST(IsaEncodeDecode, ITypeImmediateSignExtension) {
  EXPECT_EQ(dec(enc::addi(1, 2, -1)).imm, -1);
  EXPECT_EQ(dec(enc::addi(1, 2, 2047)).imm, 2047);
  EXPECT_EQ(dec(enc::addi(1, 2, -2048)).imm, -2048);
  EXPECT_EQ(dec(enc::lw(1, 2, -4)).imm, -4);
}

TEST(IsaEncodeDecode, STypeImmediate) {
  for (std::int32_t imm : {-2048, -1, 0, 1, 5, 2047}) {
    const auto d = dec(enc::sw(10, 11, imm));
    EXPECT_EQ(d.op, Op::kSw);
    EXPECT_EQ(d.imm, imm);
    EXPECT_EQ(d.rs1, 10);
    EXPECT_EQ(d.rs2, 11);
  }
}

TEST(IsaEncodeDecode, BTypeOffsets) {
  for (std::int32_t off : {-4096, -2, 0, 2, 8, 4094}) {
    const auto d = dec(enc::beq(1, 2, off));
    EXPECT_EQ(d.op, Op::kBeq);
    EXPECT_EQ(d.imm, off) << off;
  }
}

TEST(IsaEncodeDecode, JTypeOffsets) {
  for (std::int32_t off : {-1048576, -2, 0, 2, 4096, 1048574}) {
    const auto d = dec(enc::jal(1, off));
    EXPECT_EQ(d.op, Op::kJal);
    EXPECT_EQ(d.imm, off) << off;
  }
}

TEST(IsaEncodeDecode, UType) {
  const auto d = dec(enc::lui(7, 0xFFFFF));
  EXPECT_EQ(d.op, Op::kLui);
  EXPECT_EQ(d.imm, 0xFFFFF);
}

TEST(IsaEncodeDecode, ShiftImmediates) {
  EXPECT_EQ(dec(enc::slli(1, 2, 31)).imm, 31);
  EXPECT_EQ(dec(enc::srai(1, 2, 7)).op, Op::kSrai);
  EXPECT_EQ(dec(enc::srai(1, 2, 7)).imm, 7);
  EXPECT_EQ(dec(enc::srli(1, 2, 7)).op, Op::kSrli);
}

struct OpCase {
  std::uint32_t word;
  Op op;
};

class AllOpsRoundTrip : public ::testing::TestWithParam<OpCase> {};

TEST_P(AllOpsRoundTrip, DecodesToExpectedOp) {
  const auto d = dec(GetParam().word);
  EXPECT_EQ(d.op, GetParam().op) << disassemble(d);
  EXPECT_EQ(d.raw, GetParam().word);
}

INSTANTIATE_TEST_SUITE_P(
    Rv32im, AllOpsRoundTrip,
    ::testing::Values(
        OpCase{enc::lui(1, 5), Op::kLui}, OpCase{enc::auipc(1, 5), Op::kAuipc},
        OpCase{enc::jal(1, 8), Op::kJal}, OpCase{enc::jalr(1, 2, 4), Op::kJalr},
        OpCase{enc::beq(1, 2, 8), Op::kBeq}, OpCase{enc::bne(1, 2, 8), Op::kBne},
        OpCase{enc::blt(1, 2, 8), Op::kBlt}, OpCase{enc::bge(1, 2, 8), Op::kBge},
        OpCase{enc::bltu(1, 2, 8), Op::kBltu},
        OpCase{enc::bgeu(1, 2, 8), Op::kBgeu},
        OpCase{enc::lb(1, 2, 0), Op::kLb}, OpCase{enc::lh(1, 2, 0), Op::kLh},
        OpCase{enc::lw(1, 2, 0), Op::kLw}, OpCase{enc::lbu(1, 2, 0), Op::kLbu},
        OpCase{enc::lhu(1, 2, 0), Op::kLhu}, OpCase{enc::sb(1, 2, 0), Op::kSb},
        OpCase{enc::sh(1, 2, 0), Op::kSh}, OpCase{enc::sw(1, 2, 0), Op::kSw},
        OpCase{enc::addi(1, 2, 3), Op::kAddi},
        OpCase{enc::slti(1, 2, 3), Op::kSlti},
        OpCase{enc::sltiu(1, 2, 3), Op::kSltiu},
        OpCase{enc::xori(1, 2, 3), Op::kXori},
        OpCase{enc::ori(1, 2, 3), Op::kOri},
        OpCase{enc::andi(1, 2, 3), Op::kAndi},
        OpCase{enc::slli(1, 2, 3), Op::kSlli},
        OpCase{enc::srli(1, 2, 3), Op::kSrli},
        OpCase{enc::srai(1, 2, 3), Op::kSrai},
        OpCase{enc::add(1, 2, 3), Op::kAdd}, OpCase{enc::sub(1, 2, 3), Op::kSub},
        OpCase{enc::sll(1, 2, 3), Op::kSll}, OpCase{enc::slt(1, 2, 3), Op::kSlt},
        OpCase{enc::sltu(1, 2, 3), Op::kSltu},
        OpCase{enc::xor_(1, 2, 3), Op::kXor},
        OpCase{enc::srl(1, 2, 3), Op::kSrl}, OpCase{enc::sra(1, 2, 3), Op::kSra},
        OpCase{enc::or_(1, 2, 3), Op::kOr}, OpCase{enc::and_(1, 2, 3), Op::kAnd},
        OpCase{enc::fence(), Op::kFence}, OpCase{enc::ecall(), Op::kEcall},
        OpCase{enc::ebreak(), Op::kEbreak},
        OpCase{enc::mul(1, 2, 3), Op::kMul},
        OpCase{enc::mulh(1, 2, 3), Op::kMulh},
        OpCase{enc::mulhsu(1, 2, 3), Op::kMulhsu},
        OpCase{enc::mulhu(1, 2, 3), Op::kMulhu},
        OpCase{enc::div(1, 2, 3), Op::kDiv},
        OpCase{enc::divu(1, 2, 3), Op::kDivu},
        OpCase{enc::rem(1, 2, 3), Op::kRem},
        OpCase{enc::remu(1, 2, 3), Op::kRemu},
        OpCase{enc::csrrw(1, 0xB00, 2), Op::kCsrrw},
        OpCase{enc::csrrs(1, 0xB00, 2), Op::kCsrrs}));

INSTANTIATE_TEST_SUITE_P(
    Xcvpulp, AllOpsRoundTrip,
    ::testing::Values(
        OpCase{enc::cv_lb_post(1, 2, 1), Op::kCvLbPost},
        OpCase{enc::cv_lbu_post(1, 2, 1), Op::kCvLbuPost},
        OpCase{enc::cv_lh_post(1, 2, 2), Op::kCvLhPost},
        OpCase{enc::cv_lhu_post(1, 2, 2), Op::kCvLhuPost},
        OpCase{enc::cv_lw_post(1, 2, 4), Op::kCvLwPost},
        OpCase{enc::cv_sb_post(1, 2, 1), Op::kCvSbPost},
        OpCase{enc::cv_sh_post(1, 2, 2), Op::kCvShPost},
        OpCase{enc::cv_sw_post(1, 2, 4), Op::kCvSwPost},
        OpCase{enc::cv_mac(1, 2, 3), Op::kCvMac},
        OpCase{enc::cv_max(1, 2, 3), Op::kCvMax},
        OpCase{enc::cv_min(1, 2, 3), Op::kCvMin},
        OpCase{enc::cv_abs(1, 2), Op::kCvAbs},
        OpCase{enc::cv_clip(1, 2, 8), Op::kCvClip},
        OpCase{enc::cv_setup(0, 2, 16), Op::kCvSetup},
        OpCase{enc::pv_add_b(1, 2, 3), Op::kPvAddB},
        OpCase{enc::pv_add_h(1, 2, 3), Op::kPvAddH},
        OpCase{enc::pv_sub_b(1, 2, 3), Op::kPvSubB},
        OpCase{enc::pv_sub_h(1, 2, 3), Op::kPvSubH},
        OpCase{enc::pv_min_b(1, 2, 3), Op::kPvMinB},
        OpCase{enc::pv_min_h(1, 2, 3), Op::kPvMinH},
        OpCase{enc::pv_max_b(1, 2, 3), Op::kPvMaxB},
        OpCase{enc::pv_max_h(1, 2, 3), Op::kPvMaxH},
        OpCase{enc::pv_sdotsp_b(1, 2, 3), Op::kPvSdotspB},
        OpCase{enc::pv_sdotsp_h(1, 2, 3), Op::kPvSdotspH},
        OpCase{enc::pv_sdotup_b(1, 2, 3), Op::kPvSdotupB}));

TEST(IsaEncodeDecode, XmnmcFields) {
  const auto d = dec(enc::xmnmc(4, 2, 10, 11, 12));
  EXPECT_EQ(d.op, Op::kXmnmc);
  EXPECT_EQ(d.func5, 4);
  EXPECT_EQ(d.funct3, 2);  // element size .b
  EXPECT_EQ(d.rs1, 10);
  EXPECT_EQ(d.rs2, 11);
  EXPECT_EQ(d.rs3, 12);
}

TEST(IsaEncodeDecode, XmnmcXmrUsesFunc5Of31) {
  const auto d = dec(enc::xmnmc(enc::kXmrFunc5, 0, 5, 6, 7));
  EXPECT_EQ(d.op, Op::kXmnmc);
  EXPECT_EQ(d.func5, 31);
}

TEST(IsaEncodeDecode, IllegalEncodings) {
  EXPECT_EQ(dec(0xFFFFFFFFu).op, Op::kIllegal);
  // funct7 garbage on OP
  EXPECT_EQ(dec(enc::r_type(kOpcOp, 0, 0x15, 1, 2, 3)).op, Op::kIllegal);
  // bad branch funct3
  EXPECT_EQ(dec(enc::b_type(kOpcBranch, 2, 1, 2, 8)).op, Op::kIllegal);
  // bad load funct3
  EXPECT_EQ(dec(enc::i_type(kOpcLoad, 3, 1, 2, 0)).op, Op::kIllegal);
}

TEST(IsaEncodeDecode, OpClassCoversEveryOp) {
  for (unsigned i = 1; i < static_cast<unsigned>(Op::kOpCount); ++i) {
    const Op op = static_cast<Op>(i);
    EXPECT_NE(op_class(op), OpClass::kIllegal) << op_name(op);
    EXPECT_STRNE(op_name(op), "?");
  }
}

TEST(IsaEncodeDecode, DisassemblerProducesMnemonics) {
  EXPECT_EQ(disassemble(dec(enc::addi(10, 10, -1))), "addi a0, a0, -1");
  EXPECT_EQ(disassemble(dec(enc::add(10, 11, 12))), "add a0, a1, a2");
  EXPECT_EQ(disassemble(dec(enc::lw(10, 2, 8))), "lw a0, 8(sp)");
  EXPECT_EQ(disassemble(dec(enc::sw(2, 10, 8))), "sw a0, 8(sp)");
  const auto br = disassemble(dec(enc::beq(1, 2, 16)), 0x100);
  EXPECT_NE(br.find("0x110"), std::string::npos) << br;
}

}  // namespace
}  // namespace arcane::isa
