// Vector unit functional semantics: every opcode across element widths.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"
#include "test_support.hpp"

namespace arcane::vpu {
namespace {

struct Fixture {
  LlcConfig cfg{};
  LineStorage storage{cfg};
  VectorUnit vu{cfg.vpu, 0, storage};

  template <typename T>
  void set(unsigned vreg, const std::vector<T>& vals) {
    auto r = vu.vreg(vreg);
    std::memcpy(r.data(), vals.data(), vals.size() * sizeof(T));
  }
  template <typename T>
  std::vector<T> get(unsigned vreg, std::size_t n) {
    std::vector<T> out(n);
    std::memcpy(out.data(), vu.vreg(vreg).data(), n * sizeof(T));
    return out;
  }
};

template <typename T>
constexpr ElemType workloads_elem();
template <>
constexpr ElemType workloads_elem<std::int32_t>() { return ElemType::kWord; }
template <>
constexpr ElemType workloads_elem<std::int16_t>() { return ElemType::kHalf; }
template <>
constexpr ElemType workloads_elem<std::int8_t>() { return ElemType::kByte; }

template <typename T>
VInsn mk(VOpc op, unsigned vd, unsigned vs1, unsigned vs2, std::uint32_t vl,
         std::uint32_t scalar = 0) {
  VInsn i;
  i.op = op;
  i.vd = static_cast<std::uint8_t>(vd);
  i.vs1 = static_cast<std::uint8_t>(vs1);
  i.vs2 = static_cast<std::uint8_t>(vs2);
  i.et = workloads_elem<T>();
  i.vl = vl;
  i.scalar = scalar;
  return i;
}

template <typename T>
class VpuTypedTest : public ::testing::Test {};
using ElemTypes = ::testing::Types<std::int32_t, std::int16_t, std::int8_t>;
TYPED_TEST_SUITE(VpuTypedTest, ElemTypes);

TYPED_TEST(VpuTypedTest, AddSubMulVV) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {1, 2, 3, 4});
  f.set<T>(2, {10, 20, 30, 40});
  test::run_insn(f.vu, mk<T>(VOpc::kAddVV, 3, 1, 2, 4));
  EXPECT_EQ((f.get<T>(3, 4)), (std::vector<T>{11, 22, 33, 44}));
  test::run_insn(f.vu, mk<T>(VOpc::kSubVV, 3, 2, 1, 4));
  EXPECT_EQ((f.get<T>(3, 4)), (std::vector<T>{9, 18, 27, 36}));
  test::run_insn(f.vu, mk<T>(VOpc::kMulVV, 3, 1, 2, 4));
  EXPECT_EQ((f.get<T>(3, 4)),
            (std::vector<T>{10, 40, 90, static_cast<T>(160)}));
}

TYPED_TEST(VpuTypedTest, ScalarForms) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {5, -5, 7, 0});
  test::run_insn(f.vu,
                 mk<T>(VOpc::kAddVX, 2, 1, 0, 4, static_cast<std::uint32_t>(-1)));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{4, -6, 6, -1}));
  test::run_insn(f.vu, mk<T>(VOpc::kRsubVX, 2, 1, 0, 4, 10));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{5, 15, 3, 10}));
  test::run_insn(f.vu, mk<T>(VOpc::kMulVX, 2, 1, 0, 4, 3));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{15, -15, 21, 0}));
  test::run_insn(f.vu, mk<T>(VOpc::kMaxVX, 2, 1, 0, 4, 0));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{5, 0, 7, 0}));
  test::run_insn(f.vu, mk<T>(VOpc::kMinVX, 2, 1, 0, 4, 0));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{0, -5, 0, 0}));
}

TYPED_TEST(VpuTypedTest, MacForms) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {1, 2, 3, 4});     // vs1
  f.set<T>(2, {5, 6, 7, 8});     // vs2
  f.set<T>(3, {100, 0, -1, 50}); // acc
  test::run_insn(f.vu, mk<T>(VOpc::kMaccVV, 3, 1, 2, 4));
  EXPECT_EQ((f.get<T>(3, 4)), (std::vector<T>{105, 12, 20, 82}));
  test::run_insn(f.vu, mk<T>(VOpc::kMaccVX, 3, 0, 2, 4, 2));  // acc += 2*vs2
  EXPECT_EQ((f.get<T>(3, 4)), (std::vector<T>{115, 24, 34, 98}));
  // MaccEs: acc += vs1[1] * vs2 = 2 * vs2
  test::run_insn(f.vu, mk<T>(VOpc::kMaccEs, 3, 1, 2, 4, 1));
  EXPECT_EQ((f.get<T>(3, 4)), (std::vector<T>{125, 36, 48, 114}));
}

TYPED_TEST(VpuTypedTest, WrapAroundSemantics) {
  using T = TypeParam;
  Fixture f;
  const T maxv = std::numeric_limits<T>::max();
  f.set<T>(1, {maxv});
  test::run_insn(f.vu, mk<T>(VOpc::kAddVX, 2, 1, 0, 1, 1));
  EXPECT_EQ(f.get<T>(2, 1)[0], std::numeric_limits<T>::min());
}

TYPED_TEST(VpuTypedTest, Shifts) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {-8, 8, 1, -1});
  test::run_insn(f.vu, mk<T>(VOpc::kSraVX, 2, 1, 0, 4, 1));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{-4, 4, 0, -1}));
  test::run_insn(f.vu, mk<T>(VOpc::kSllVX, 2, 1, 0, 4, 2));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{-32, 32, 4, -4}));
  test::run_insn(f.vu, mk<T>(VOpc::kSrlVX, 2, 1, 0, 1, 1));
  using U = std::make_unsigned_t<T>;
  EXPECT_EQ(static_cast<U>(f.get<T>(2, 1)[0]),
            static_cast<U>(static_cast<U>(static_cast<T>(-8)) >> 1));
}

TYPED_TEST(VpuTypedTest, Bitwise) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {0b1100, 0b1010});
  f.set<T>(2, {0b1010, 0b0110});
  test::run_insn(f.vu, mk<T>(VOpc::kAndVV, 3, 1, 2, 2));
  EXPECT_EQ((f.get<T>(3, 2)), (std::vector<T>{0b1000, 0b0010}));
  test::run_insn(f.vu, mk<T>(VOpc::kOrVV, 3, 1, 2, 2));
  EXPECT_EQ((f.get<T>(3, 2)), (std::vector<T>{0b1110, 0b1110}));
  test::run_insn(f.vu, mk<T>(VOpc::kXorVX, 3, 1, 0, 2, 0b1111));
  EXPECT_EQ((f.get<T>(3, 2)), (std::vector<T>{0b0011, 0b0101}));
}

TYPED_TEST(VpuTypedTest, Slides) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {1, 2, 3, 4, 5, 6});
  test::run_insn(f.vu, mk<T>(VOpc::kSlideDownVX, 2, 1, 0, 4, 2));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{3, 4, 5, 6}));
  f.set<T>(2, {9, 9, 9, 9});
  test::run_insn(f.vu, mk<T>(VOpc::kSlideUpVX, 2, 1, 0, 4, 2));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{9, 9, 1, 2}));
}

TYPED_TEST(VpuTypedTest, SlideDownPastCapacityReadsZero) {
  using T = TypeParam;
  Fixture f;
  const unsigned cap = f.cfg.vpu.vlen_bytes / sizeof(T);
  f.set<T>(1, {7});
  test::run_insn(f.vu, mk<T>(VOpc::kSlideDownVX, 2, 1, 0, 2, cap - 1));
  auto out = f.get<T>(2, 2);
  EXPECT_EQ(out[1], T{0});  // reads beyond VLEN
}

TYPED_TEST(VpuTypedTest, MoveAndSplat) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {1, 2, 3});
  test::run_insn(f.vu, mk<T>(VOpc::kMvVV, 2, 1, 0, 3));
  EXPECT_EQ((f.get<T>(2, 3)), (std::vector<T>{1, 2, 3}));
  test::run_insn(f.vu, mk<T>(VOpc::kMvVX, 2, 0, 0, 3, 42));
  EXPECT_EQ((f.get<T>(2, 3)), (std::vector<T>{42, 42, 42}));
}

TYPED_TEST(VpuTypedTest, GatherStride) {
  using T = TypeParam;
  Fixture f;
  f.set<T>(1, {0, 1, 2, 3, 4, 5, 6, 7});
  test::run_insn(f.vu, mk<T>(VOpc::kGatherStride, 2, 1, 0, 4, pack16(2, 0)));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{0, 2, 4, 6}));
  test::run_insn(f.vu, mk<T>(VOpc::kGatherStride, 2, 1, 0, 4, pack16(2, 1)));
  EXPECT_EQ((f.get<T>(2, 4)), (std::vector<T>{1, 3, 5, 7}));
}

TEST(VpuTest, AliasedDestinationIsReadSafe) {
  Fixture f;
  f.set<std::int32_t>(1, {1, 2, 3, 4});
  // vd == vs1: slide down by 1 in place must not observe its own writes.
  test::run_insn(f.vu, mk<std::int32_t>(VOpc::kSlideDownVX, 1, 1, 0, 4, 1));
  EXPECT_EQ((f.get<std::int32_t>(1, 4)), (std::vector<std::int32_t>{2, 3, 4, 0}));
}

TEST(VpuTest, VlExceedingCapacityThrows) {
  Fixture f;
  const unsigned cap = f.cfg.vpu.vlen_bytes / 4;
  EXPECT_THROW(
      test::run_insn(f.vu, mk<std::int32_t>(VOpc::kAddVV, 0, 1, 2, cap + 1)),
      Error);
}

TEST(VpuTest, BadRegisterIndexThrows) {
  Fixture f;
  auto insn = mk<std::int32_t>(VOpc::kAddVV, 0, 1, 2, 4);
  insn.vd = 32;
  EXPECT_THROW(test::run_insn(f.vu, insn), Error);
}

TEST(VpuTest, StatsTrackMacsAndElements) {
  Fixture f;
  test::run_insn(f.vu, mk<std::int32_t>(VOpc::kMaccVV, 3, 1, 2, 10));
  test::run_insn(f.vu, mk<std::int32_t>(VOpc::kAddVV, 3, 1, 2, 5));
  EXPECT_EQ(f.vu.stats().instructions, 2u);
  EXPECT_EQ(f.vu.stats().elements, 15u);
  EXPECT_EQ(f.vu.stats().macs, 10u);
}

TEST(VpuTest, EncodeDecodeVinsnRoundTrip) {
  VInsn i;
  i.op = VOpc::kMaccEs;
  i.vd = 7;
  i.vs1 = 13;
  i.vs2 = 29;
  i.et = ElemType::kByte;
  i.vl = 240;
  i.scalar = 5;
  const auto w = encode_vinsn(i);
  const auto d = decode_vinsn(w, i.vl, i.scalar);
  EXPECT_EQ(d, i);
}

TEST(VpuTest, DecodeRejectsReservedElementSize) {
  VInsn i;
  i.op = VOpc::kMvVX;
  i.vl = 4;
  const std::uint32_t w = encode_vinsn(i) | place(3u, 10, 9);  // esize 3
  EXPECT_THROW(decode_vinsn(w, i.vl, 0), Error);
}

TEST(VpuTest, ExecuteRejectsUnknownElementType) {
  Fixture f;
  auto insn = mk<std::int32_t>(VOpc::kMvVX, 0, 0, 0, 4, 7);
  insn.et = static_cast<ElemType>(3);
  EXPECT_THROW(test::run_insn(f.vu, insn), Error);
  EXPECT_EQ(f.vu.stats().instructions, 0u);
  EXPECT_EQ(f.vu.stats().elements, 0u);
}

TEST(VpuTest, VinsnToStringMentionsOpcode) {
  VInsn i;
  i.op = VOpc::kMaccVX;
  i.et = ElemType::kHalf;
  i.vl = 12;
  i.scalar = 3;
  const auto s = vinsn_to_string(i);
  EXPECT_NE(s.find("vmacc.vx"), std::string::npos);
  EXPECT_NE(s.find("vl=12"), std::string::npos);
}

}  // namespace
}  // namespace arcane::vpu
