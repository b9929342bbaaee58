// Software-defined ISA extensibility (paper §IV): register a brand-new
// matrix kernel — xmk8 "AXPBY" (D = alpha*ms1 + beta*ms2) — in the C-RT
// kernel library *without touching any hardware model*, then invoke it from
// the host through the same custom-2 opcode.
//
// This is the paper's key usability claim: the in-cache ISA is defined by
// the reprogrammable software decoder, so users extend it like a library.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "kernels/planner_util.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Matrix;

namespace {

/// Planner for xmk8: tiled element-wise D = alpha*ms1 + beta*ms2. A planner
/// validates and plans an op, then builds each tile on demand: its DMA
/// transfers, the key naming its micro-program, and that program, which
/// the C-RT asks for only the first time it meets the key.
class AxpbyPlanner final : public crt::Planner {
 public:
  crt::Plan plan(const crt::KernelOp& op,
                 const SystemConfig& cfg) const override {
    const kernels::Geometry g(op.et, cfg);
    const auto& a = op.ms1.shape;
    const auto& b = op.ms2.shape;
    if (a.rows != b.rows || a.cols != b.cols ||
        op.md.shape.rows != a.rows || op.md.shape.cols != a.cols) {
      return crt::Plan::fail("axpby: shape mismatch");
    }
    if (a.cols > g.cap) return crt::Plan::fail("axpby: row exceeds VLEN");

    // Layout: rt rows of A, rt rows of B, rt rows of D.
    Params p;
    p.a = op.ms1.addr;
    p.b = op.ms2.addr;
    p.d = op.md.addr;
    p.a_stride = a.stride * g.es;
    p.b_stride = b.stride * g.es;
    p.d_stride = op.md.shape.stride * g.es;
    p.rows = a.rows;
    p.cols = a.cols;
    p.rt = std::min<std::uint32_t>(g.nv / 3, a.rows);
    p.es = g.es;
    p.et = op.et;
    p.alpha = kernels::sx16(op.f.alpha);
    p.beta = kernels::sx16(op.f.beta);
    return kernels::one_chain_plan(*this, op, ceil_div(p.rows, p.rt),
                                   3 * p.rt, p);
  }

  kernels::Shape tile(const crt::Plan& plan, unsigned, unsigned i,
                      crt::Tile& t) const override {
    const Params& p = plan.params<Params>();
    const std::uint32_t r0 = i * p.rt;
    const std::uint32_t rc = rows(p, i);
    const std::uint32_t row_b = p.cols * p.es;
    kernels::load_rows(t, p.a, p.a_stride, row_b, r0, rc, 0);
    kernels::load_rows(t, p.b, p.b_stride, row_b, r0, rc,
                       static_cast<std::uint8_t>(p.rt));
    kernels::store_rows(t, p.d, p.d_stride, row_b, r0, rc,
                        static_cast<std::uint8_t>(2 * p.rt));
    // Everything program() reads besides the element type.
    return {rc, p.cols, p.rt, static_cast<std::uint32_t>(p.alpha),
            static_cast<std::uint32_t>(p.beta)};
  }

  void program(const crt::Plan& plan, unsigned, unsigned i,
               std::vector<vpu::VInsn>& prog) const override {
    const Params& p = plan.params<Params>();
    for (std::uint32_t r = 0; r < rows(p, i); ++r) {
      const unsigned va = r, vb = p.rt + r, vd = 2 * p.rt + r;
      // vd = alpha*A; vd += beta*B  (two MACs via a zeroed accumulator)
      kernels::emit_zero(prog, vd, p.et, p.cols);
      prog.push_back(kernels::vop(vpu::VOpc::kMaccVX, vd, 0, va, p.et, p.cols,
                                  static_cast<std::uint32_t>(p.alpha)));
      prog.push_back(kernels::vop(vpu::VOpc::kMaccVX, vd, 0, vb, p.et, p.cols,
                                  static_cast<std::uint32_t>(p.beta)));
    }
  }

 private:
  /// The plan's parameter block: plain data, copied into the plan.
  struct Params {
    Addr a, b, d;
    std::uint32_t a_stride, b_stride, d_stride;
    std::uint32_t rows, cols, rt;
    unsigned es;
    ElemType et;
    std::int32_t alpha, beta;
  };
  static std::uint32_t rows(const Params& p, unsigned i) {
    return std::min(p.rt, p.rows - i * p.rt);
  }
};

}  // namespace

int main() {
  // 1. Extend the ISA: drop the new kernel into the library before "C-RT
  //    compilation" (System construction).
  static const AxpbyPlanner axpby;
  auto lib = crt::KernelLibrary::with_builtins();
  lib.register_kernel(crt::KernelInfo{
      /*func5=*/8, "xmk8", "AXPBY: D = alpha*ms1 + beta*ms2",
      /*uses_ms1=*/true, /*uses_ms2=*/true, /*uses_ms3=*/false, &axpby});
  System sys(SystemConfig::paper(4), std::move(lib));

  // 2. Use it from the host like any other xmnmc instruction.
  workloads::Rng rng(123);
  auto A = Matrix<std::int32_t>::random(20, 30, rng, -50, 50);
  auto B = Matrix<std::int32_t>::random(20, 30, rng, -50, 50);
  const Addr a = sys.data_base() + 0x1000;
  const Addr b = sys.data_base() + 0x10000;
  const Addr d = sys.data_base() + 0x20000;
  workloads::store_matrix(sys, a, A);
  workloads::store_matrix(sys, b, B);

  const std::int16_t alpha = 3, beta = -2;
  XProgram prog;
  prog.xmr(0, a, A.shape(), ElemType::kWord);
  prog.xmr(1, b, B.shape(), ElemType::kWord);
  prog.xmr(2, d, A.shape(), ElemType::kWord);
  prog.xmk(8, ElemType::kWord,
           {static_cast<std::uint16_t>(alpha), static_cast<std::uint16_t>(beta),
            0, /*md=*/2, /*ms1=*/0, /*ms2=*/1});
  prog.sync_read(d);
  prog.halt();
  sys.load_program(prog.finish());
  sys.run();

  const auto got = workloads::load_matrix<std::int32_t>(sys, d, 20, 30);
  bool ok = true;
  for (unsigned r = 0; r < 20 && ok; ++r) {
    for (unsigned c = 0; c < 30 && ok; ++c) {
      ok = got.at(r, c) == alpha * A.at(r, c) + beta * B.at(r, c);
    }
  }
  std::printf("custom kernel xmk8 (AXPBY) registered at func5=8\n");
  std::printf("D = %d*A + %d*B on 20x30 int32: %s\n", alpha, beta,
              ok ? "VERIFIED" : "WRONG");
  std::printf("kernels executed: %llu, VPU instructions: %llu\n",
              static_cast<unsigned long long>(
                  sys.runtime().phases().kernels_executed),
              static_cast<unsigned long long>(
                  sys.vpus()[0].stats().instructions +
                  sys.vpus()[1].stats().instructions +
                  sys.vpus()[2].stats().instructions +
                  sys.vpus()[3].stats().instructions));
  return ok ? 0 : 1;
}
