// Planners for xmk3 (single-channel 2D convolution) and xmk4 (the fused
// 3-channel convolution layer: conv + ReLU + 2x2/2 max-pool).
//
// Layout strategy (per VPU register file):
//   [input row rings][packed filter][accumulators][pooled rows][slide temp]
// Input rows stream through per-channel ring buffers so each row is DMA'd
// exactly once per chain (halo rows are *reused*, not reloaded). Each filter
// tap costs one vslidedown (skipped for kx = 0) plus one vmacc.es that pulls
// the coefficient straight out of the packed filter register.
//
// A tile's micro-program depends only on the layout, the ring slot its
// first row lands in and its row count, which is what its ProgramKey names:
// a chain prepares one program per ring rotation, and kernels of one shape
// share them.
#include <algorithm>
#include <vector>

#include "kernels/planner_util.hpp"
#include "kernels/planners.hpp"

namespace arcane::kernels {
namespace {

using crt::KernelOp;
using crt::Plan;
using crt::Tile;
using vpu::VInsn;
using vpu::VOpc;

// ---------------------------------------------------------------- conv2d --

struct Conv2dParams {
  Addr in_addr, f_addr, out_addr;
  std::uint32_t in_stride_b, f_stride_b, out_stride_b;
  std::uint32_t W, K, Hc, Wc;
  unsigned es;
  ElemType et;
  // layout
  std::uint32_t P, R;
  std::uint8_t ring_base, filt_v, acc_base, tmp_v;
};

// The program of the conv2d tile that computes output rows [r0, r0 + pc).
void conv2d_program(const Conv2dParams& p, std::uint32_t r0, std::uint32_t pc,
                    std::vector<VInsn>& prog) {
  for (std::uint32_t q = 0; q < pc; ++q) {
    const unsigned acc = p.acc_base + q;
    emit_zero(prog, acc, p.et, p.Wc);
    const std::uint32_t r = r0 + q;
    for (std::uint32_t ky = 0; ky < p.K; ++ky) {
      const unsigned in_v = p.ring_base + (r + ky) % p.R;
      for (std::uint32_t kx = 0; kx < p.K; ++kx) {
        emit_tap(prog, acc, p.filt_v, ky * p.K + kx, in_v, p.tmp_v, kx, p.et,
                 p.Wc);
      }
    }
  }
}

// Lay out a conv2d over one VPU's registers; the error text, or null.
const char* conv2d_layout(const KernelOp& op, const SystemConfig& cfg,
                          Conv2dParams& p) {
  Geometry g(op.et, cfg);
  const auto& in = op.ms1.shape;
  const auto& f = op.ms2.shape;
  const auto& out = op.md.shape;

  const std::uint32_t K = f.rows;
  if (K == 0 || f.cols != K) return "conv2d: filter must be square";
  if (in.rows < K || in.cols < K) return "conv2d: input smaller than filter";
  if (in.cols > g.cap) return "conv2d: input row exceeds VLEN";
  if (K * K > g.cap) return "conv2d: filter exceeds VLEN";
  const std::uint32_t Hc = in.rows - K + 1;
  const std::uint32_t Wc = in.cols - K + 1;
  if (out.rows != Hc || out.cols != Wc)
    return "conv2d: destination shape mismatch";

  // Budget: ring(P+K-1) + filter(1) + acc(P) + temp(1) <= num_vregs.
  if (g.nv < K + 4) return "conv2d: filter too tall for registers";
  std::uint32_t P = (g.nv - K - 2) / 2;
  P = std::min(P, Hc);

  p.in_addr = op.ms1.addr;
  p.f_addr = op.ms2.addr;
  p.out_addr = op.md.addr;
  p.in_stride_b = in.stride * g.es;
  p.f_stride_b = f.stride * g.es;
  p.out_stride_b = out.stride * g.es;
  p.W = in.cols;
  p.K = K;
  p.Hc = Hc;
  p.Wc = Wc;
  p.es = g.es;
  p.et = op.et;
  p.P = P;
  p.R = P + K - 1;
  p.ring_base = 0;
  p.filt_v = static_cast<std::uint8_t>(p.R);
  p.acc_base = static_cast<std::uint8_t>(p.R + 1);
  p.tmp_v = static_cast<std::uint8_t>(p.R + 1 + P);
  return nullptr;
}

class Conv2dPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    Conv2dParams p;
    if (const char* err = conv2d_layout(op, cfg, p)) return Plan::fail(err);
    return one_chain_plan(*this, op, ceil_div(p.Hc, p.P), p.tmp_v + 1u, p);
  }

  Shape tile(const Plan& plan, unsigned, unsigned i, Tile& t) const override {
    const Conv2dParams& p = plan.params<Conv2dParams>();
    const std::uint32_t r0 = i * p.P;
    const std::uint32_t pc = std::min(p.P, p.Hc - r0);
    const std::uint32_t row_bytes = p.W * p.es;

    const std::uint32_t need_lo = (i == 0) ? 0 : r0 + p.K - 1;
    const std::uint32_t need_hi = r0 + pc + p.K - 1;
    ring_load(t, p.in_addr, p.in_stride_b, row_bytes, need_lo, need_hi,
              p.ring_base, p.R);
    if (i == 0) {  // the filter, packed into one register
      pack_rows(t, p.f_addr, p.f_stride_b, p.K * p.es, p.K, p.filt_v);
    }
    store_rows(t, p.out_addr, p.out_stride_b, p.Wc * p.es, r0, pc, p.acc_base);
    // The registers follow from K and P.
    return {pc, r0 % p.R, p.K, p.P, p.Wc};
  }

  void program(const Plan& plan, unsigned, unsigned i,
               std::vector<VInsn>& prog) const override {
    const Conv2dParams& p = plan.params<Conv2dParams>();
    const std::uint32_t r0 = i * p.P;
    conv2d_program(p, r0, std::min(p.P, p.Hc - r0), prog);
  }
};

// ------------------------------------------------------------ conv layer --

struct ConvLayerParams {
  Addr in_addr, f_addr, out_addr;
  std::uint32_t in_stride_b, f_stride_b, out_stride_b;
  std::uint32_t H, W, K, Hc, Wc, Wo;
  unsigned es;
  ElemType et;
  // chains: chain c pools rows [c * rows_per_chain, ...) of Ho
  std::uint32_t Ho, rows_per_chain;
  // layout
  std::uint32_t P, R;
  std::uint8_t filt_v, acc_base, out_base, tmp_v;
};

// The program of the conv-layer tile that computes conv rows
// [conv_r0, conv_r0 + pc) and pools them into pc / 2 output rows.
void conv_layer_program(const ConvLayerParams& p, std::uint32_t conv_r0,
                        std::uint32_t pc, std::vector<VInsn>& prog) {
  // Convolution + ReLU on pc rows.
  for (std::uint32_t q = 0; q < pc; ++q) {
    const unsigned acc = p.acc_base + q;
    emit_zero(prog, acc, p.et, p.Wc);
    const std::uint32_t r = conv_r0 + q;
    for (std::uint32_t c = 0; c < 3; ++c) {
      for (std::uint32_t ky = 0; ky < p.K; ++ky) {
        const unsigned in_v = c * p.R + (r + ky) % p.R;
        for (std::uint32_t kx = 0; kx < p.K; ++kx) {
          emit_tap(prog, acc, p.filt_v, (c * p.K + ky) * p.K + kx, in_v,
                   p.tmp_v, kx, p.et, p.Wc);
        }
      }
    }
    prog.push_back(vop(VOpc::kMaxVX, acc, acc, 0, p.et, p.Wc, 0));  // ReLU
  }

  // 2x2/2 max-pooling: vertical max of row pairs, then strided gathers.
  for (std::uint32_t q = 0; q < pc / 2; ++q) {
    const unsigned a = p.acc_base + 2 * q;
    const unsigned b = a + 1;
    prog.push_back(vop(VOpc::kMaxVV, p.tmp_v, a, b, p.et, p.Wc));
    prog.push_back(vop(VOpc::kGatherStride, a, p.tmp_v, 0, p.et, p.Wo,
                       pack16(2, 0)));
    prog.push_back(vop(VOpc::kGatherStride, b, p.tmp_v, 0, p.et, p.Wo,
                       pack16(2, 1)));
    prog.push_back(vop(VOpc::kMaxVV, p.out_base + q, a, b, p.et, p.Wo));
  }
}

/// Tile j of chain c: its first (global) conv row and its conv row count,
/// even by design.
struct ConvLayerTile {
  std::uint32_t q0, conv_r0, pc;

  ConvLayerTile(const ConvLayerParams& p, unsigned c, unsigned j)
      : q0(c * p.rows_per_chain),
        conv_r0(2 * q0 + j * p.P),
        pc(std::min(p.P, 2 * std::min(p.rows_per_chain, p.Ho - q0) -
                             j * p.P)) {}
};

// Lay out a conv layer over one VPU's registers and pick how many pooled
// rows each chain takes; the error text, or null.
const char* conv_layer_layout(const KernelOp& op, const SystemConfig& cfg,
                              ConvLayerParams& base) {
  Geometry g(op.et, cfg);
  const auto& in = op.ms1.shape;
  const auto& f = op.ms2.shape;
  const auto& out = op.md.shape;

  if (in.rows % 3 != 0) return "conv_layer: input rows not 3*H";
  if (f.rows % 3 != 0 || f.rows / 3 != f.cols)
    return "conv_layer: filter must be 3 stacked KxK";
  const std::uint32_t H = in.rows / 3;
  const std::uint32_t W = in.cols;
  const std::uint32_t K = f.cols;
  if (H < K || W < K) return "conv_layer: input smaller than filter";
  if (W > g.cap) return "conv_layer: input row exceeds VLEN";
  if (3 * K * K > g.cap) return "conv_layer: filter exceeds VLEN";
  const std::uint32_t Hc = H - K + 1;
  const std::uint32_t Wc = W - K + 1;
  const std::uint32_t Ho = Hc / 2;
  const std::uint32_t Wo = Wc / 2;
  if (Ho == 0 || Wo == 0) return "conv_layer: output too small";
  if (out.rows != Ho || out.cols != Wo)
    return "conv_layer: destination shape mismatch";

  // Budget: 3 rings (P+K-1 each) + filter + acc(P) + pooled(P/2) + temp.
  std::uint32_t P = 2;
  while (true) {
    const std::uint32_t next = P + 2;
    const std::uint32_t need = 3 * (next + K - 1) + 1 + next + next / 2 + 1;
    if (need > g.nv || next > 2 * Ho) break;
    P = next;
  }
  if (3 * (P + K - 1) + 1 + P + P / 2 + 1 > g.nv) {
    return "conv_layer: filter too tall for register budget";
  }

  base.in_addr = op.ms1.addr;
  base.f_addr = op.ms2.addr;
  base.out_addr = op.md.addr;
  base.in_stride_b = in.stride * g.es;
  base.f_stride_b = f.stride * g.es;
  base.out_stride_b = out.stride * g.es;
  base.H = H;
  base.W = W;
  base.K = K;
  base.Hc = Hc;
  base.Wc = Wc;
  base.Wo = Wo;
  base.es = g.es;
  base.et = op.et;
  base.P = P;
  base.R = P + K - 1;
  base.filt_v = static_cast<std::uint8_t>(3 * base.R);
  base.acc_base = static_cast<std::uint8_t>(3 * base.R + 1);
  base.out_base = static_cast<std::uint8_t>(3 * base.R + 1 + P);
  base.tmp_v = static_cast<std::uint8_t>(3 * base.R + 1 + P + P / 2);

  // Multi-instance mode (§V-C): split pooled output rows across all VPUs.
  const unsigned want_chains =
      cfg.multi_vpu_kernels ? std::min<unsigned>(cfg.llc.num_vpus, Ho) : 1u;
  base.Ho = Ho;
  base.rows_per_chain = ceil_div<std::uint32_t>(Ho, want_chains);
  return nullptr;
}

class ConvLayerPlanner final : public crt::Planner {
 public:
  Plan plan(const KernelOp& op, const SystemConfig& cfg) const override {
    ConvLayerParams p;
    if (const char* err = conv_layer_layout(op, cfg, p)) return Plan::fail(err);
    Plan plan = one_chain_plan(*this, op, 0, p.tmp_v + 1u, p);
    plan.chain_count = ceil_div(p.Ho, p.rows_per_chain);
    for (unsigned c = 0; c < plan.chain_count; ++c) {
      const std::uint32_t qc =
          std::min(p.rows_per_chain, p.Ho - c * p.rows_per_chain);
      plan.tile_count[c] = ceil_div<std::uint32_t>(2 * qc, p.P);
    }
    return plan;
  }

  Shape tile(const Plan& plan, unsigned c, unsigned j, Tile& t) const override {
    const ConvLayerParams& p = plan.params<ConvLayerParams>();
    const ConvLayerTile g(p, c, j);
    const std::uint32_t row_bytes = p.W * p.es;

    const std::uint32_t need_lo = (j == 0) ? g.conv_r0 : g.conv_r0 + p.K - 1;
    const std::uint32_t need_hi = g.conv_r0 + g.pc + p.K - 1;
    for (std::uint32_t ch = 0; ch < 3; ++ch) {
      // Channel ch occupies matrix rows [ch*H, (ch+1)*H).
      ring_load(t, p.in_addr + ch * p.H * p.in_stride_b, p.in_stride_b,
                row_bytes, need_lo, need_hi,
                static_cast<std::uint8_t>(ch * p.R), p.R);
    }
    if (j == 0) {  // the three filters, packed into one register
      pack_rows(t, p.f_addr, p.f_stride_b, p.K * p.es, 3 * p.K, p.filt_v);
    }
    store_rows(t, p.out_addr, p.out_stride_b, p.Wo * p.es,
               g.q0 + j * p.P / 2, g.pc / 2, p.out_base);
    // The registers follow from K and P.
    return {g.pc, g.conv_r0 % p.R, p.K, p.P, p.Wc, p.Wo};
  }

  void program(const Plan& plan, unsigned c, unsigned j,
               std::vector<VInsn>& prog) const override {
    const ConvLayerParams& p = plan.params<ConvLayerParams>();
    const ConvLayerTile g(p, c, j);
    conv_layer_program(p, g.conv_r0, g.pc, prog);
  }
};

}  // namespace

const crt::Planner& conv2d_planner() {
  static const Conv2dPlanner planner;
  return planner;
}

const crt::Planner& conv_layer_planner() {
  static const ConvLayerPlanner planner;
  return planner;
}

}  // namespace arcane::kernels
