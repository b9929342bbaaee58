// xmk2 — Max-pooling with window win_size and the given stride:
// D[r][c] = max over the win x win window at (r*stride, c*stride) of ms1.
// Vertical reduction uses vmax.vv across the window rows; the horizontal
// reduction gathers strided columns and reduces them with vmax.
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

struct PoolParams {
  Addr in_addr, out_addr;
  std::uint32_t in_stride_b, out_stride_b;
  std::uint32_t W, Ho, Wo, win, stride;
  unsigned es;
  ElemType et;
  std::uint32_t po;  // output rows per tile
  std::uint8_t in_base, out_base, tmp1, tmp2;
};

class MaxPoolPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    Geometry g(op.et, cfg);
    const auto& in = op.ms1.shape;
    const auto& out = op.md.shape;
    const std::uint32_t stride = op.f.alpha;
    const std::uint32_t win = op.f.beta;
    if (win == 0 || stride == 0) {
      return Plan::fail("maxpool: zero window/stride");
    }
    if (in.rows < win || in.cols < win)
      return Plan::fail("maxpool: input smaller than window");
    if (in.cols > g.cap) return Plan::fail("maxpool: row exceeds VLEN");
    const std::uint32_t Ho = (in.rows - win) / stride + 1;
    const std::uint32_t Wo = (in.cols - win) / stride + 1;
    if (out.rows != Ho || out.cols != Wo)
      return Plan::fail("maxpool: destination shape mismatch");

    // Budget: in rows ((po-1)*stride + win) + out rows (po) + two temps.
    std::uint32_t po = 1;
    while (po < Ho) {
      const std::uint32_t next = po + 1;
      if ((next - 1) * stride + win + next + 2 > g.nv) break;
      po = next;
    }
    if ((po - 1) * stride + win + po + 2 > g.nv) {
      return Plan::fail("maxpool: window too large for register budget");
    }

    PoolParams p;
    p.in_addr = op.ms1.addr;
    p.out_addr = op.md.addr;
    p.in_stride_b = in.stride * g.es;
    p.out_stride_b = out.stride * g.es;
    p.W = in.cols;
    p.Ho = Ho;
    p.Wo = Wo;
    p.win = win;
    p.stride = stride;
    p.es = g.es;
    p.et = op.et;
    p.po = po;
    p.in_base = 0;
    const std::uint32_t in_rows_max = (po - 1) * stride + win;
    p.out_base = static_cast<std::uint8_t>(in_rows_max);
    p.tmp1 = static_cast<std::uint8_t>(in_rows_max + po);
    p.tmp2 = static_cast<std::uint8_t>(in_rows_max + po + 1);

    return one_chain_plan(*this, op, ceil_div(Ho, po), in_rows_max + po + 2, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned i, Tile& t) const override {
    const PoolParams& p = plan.params<PoolParams>();
    const std::uint32_t o0 = i * p.po;
    const std::uint32_t oc = std::min(p.po, p.Ho - o0);
    const std::uint32_t in_r0 = o0 * p.stride;
    const std::uint32_t in_rows = (oc - 1) * p.stride + p.win;
    load_rows(t, p.in_addr, p.in_stride_b, p.W * p.es, in_r0, in_rows,
              p.in_base);
    store_rows(t, p.out_addr, p.out_stride_b, p.Wo * p.es, o0, oc, p.out_base);
    return {oc, p.W, p.Wo, p.win, p.stride, p.po};
  }

  void program(const Plan& plan, unsigned, unsigned i,
               std::vector<VInsn>& prog) const override {
    const PoolParams& p = plan.params<PoolParams>();
    for (std::uint32_t q = 0; q < std::min(p.po, p.Ho - i * p.po); ++q) {
      const unsigned row0 = p.in_base + q * p.stride;
      // Vertical max across the window rows.
      prog.push_back(vop(VOpc::kMvVV, p.tmp1, row0, 0, p.et, p.W));
      for (std::uint32_t j = 1; j < p.win; ++j) {
        prog.push_back(vop(VOpc::kMaxVV, p.tmp1, p.tmp1, row0 + j, p.et, p.W));
      }
      // Horizontal max via strided gathers.
      const unsigned out_v = p.out_base + q;
      prog.push_back(vop(VOpc::kGatherStride, out_v, p.tmp1, 0, p.et, p.Wo,
                         pack16(static_cast<std::uint16_t>(p.stride), 0)));
      for (std::uint32_t j = 1; j < p.win; ++j) {
        prog.push_back(vop(VOpc::kGatherStride, p.tmp2, p.tmp1, 0, p.et, p.Wo,
                           pack16(static_cast<std::uint16_t>(p.stride),
                                  static_cast<std::uint16_t>(j))));
        prog.push_back(vop(VOpc::kMaxVV, out_v, out_v, p.tmp2, p.et, p.Wo));
      }
    }
  }
};

}  // namespace

const crt::Planner& maxpool_planner() {
  static const MaxPoolPlanner planner;
  return planner;
}

}  // namespace arcane::kernels
