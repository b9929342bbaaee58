// xmk1 — LeakyReLU: D[i] = x >= 0 ? x : x >> alpha (negative slope 2^-alpha;
// alpha == 0 degenerates to plain ReLU and uses a single vmax per row).
#include <algorithm>

#include "kernels/planner_util.hpp"
#include "kernels/planners.hpp"

namespace arcane::kernels {
namespace {

using crt::KernelOp;
using crt::Plan;
using crt::Tile;
using vpu::VInsn;
using vpu::VOpc;

struct LreluParams {
  Addr in_addr, out_addr;
  std::uint32_t in_stride_b, out_stride_b;
  std::uint32_t rows, cols;
  std::uint32_t alpha;
  unsigned es;
  ElemType et;
  std::uint32_t rt;  // rows per tile
  std::uint8_t in_base, out_base, tmp_v;
};

class LeakyReluPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    Geometry g(op.et, cfg);
    const auto& in = op.ms1.shape;
    const auto& out = op.md.shape;
    if (in.rows != out.rows || in.cols != out.cols)
      return Plan::fail("leaky_relu: shape mismatch");
    if (in.cols > g.cap) return Plan::fail("leaky_relu: row exceeds VLEN");
    const std::uint32_t alpha = op.f.alpha;
    if (alpha >= 8u * g.es)
      return Plan::fail("leaky_relu: shift exceeds element width");

    LreluParams p;
    p.in_addr = op.ms1.addr;
    p.out_addr = op.md.addr;
    p.in_stride_b = in.stride * g.es;
    p.out_stride_b = out.stride * g.es;
    p.rows = in.rows;
    p.cols = in.cols;
    p.alpha = alpha;
    p.es = g.es;
    p.et = op.et;
    p.rt = std::min<std::uint32_t>((g.nv - 1) / 2, p.rows);
    p.in_base = 0;
    p.out_base = static_cast<std::uint8_t>(p.rt);
    p.tmp_v = static_cast<std::uint8_t>(2 * p.rt);

    return one_chain_plan(*this, op, ceil_div(p.rows, p.rt), 2 * p.rt + 1, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned i, Tile& t) const override {
    const LreluParams& p = plan.params<LreluParams>();
    const std::uint32_t r0 = i * p.rt;
    const std::uint32_t rc = std::min(p.rt, p.rows - r0);
    const std::uint32_t row_bytes = p.cols * p.es;
    load_rows(t, p.in_addr, p.in_stride_b, row_bytes, r0, rc, p.in_base);
    store_rows(t, p.out_addr, p.out_stride_b, row_bytes, r0, rc, p.out_base);
    return {rc, p.cols, p.alpha, p.rt};
  }

  void program(const Plan& plan, unsigned, unsigned i,
               std::vector<VInsn>& prog) const override {
    const LreluParams& p = plan.params<LreluParams>();
    for (std::uint32_t r = 0; r < std::min(p.rt, p.rows - i * p.rt); ++r) {
      const unsigned in_v = p.in_base + r;
      const unsigned out_v = p.out_base + r;
      prog.push_back(vop(VOpc::kMaxVX, out_v, in_v, 0, p.et, p.cols, 0));
      if (p.alpha != 0) {
        prog.push_back(vop(VOpc::kMinVX, p.tmp_v, in_v, 0, p.et, p.cols, 0));
        prog.push_back(
            vop(VOpc::kSraVX, p.tmp_v, p.tmp_v, 0, p.et, p.cols, p.alpha));
        prog.push_back(vop(VOpc::kAddVV, out_v, out_v, p.tmp_v, p.et, p.cols));
      }
    }
  }
};

}  // namespace

const crt::Planner& leaky_relu_planner() {
  static const LeakyReluPlanner planner;
  return planner;
}

}  // namespace arcane::kernels
