// Builtin kernel planners (paper Table I). Each returns a crt::PlannerFn
// that validates operand shapes and produces the tiled execution plan whose
// micro-programs run on the VPUs.
//
// Common restrictions (documented limits of the register-file layout):
//  * a matrix row must fit in one vector register (cols <= VLEN/esize);
//  * filters must fit in one vector register when packed.
// Arbitrary row counts are supported through tiling with halo reuse.
#ifndef ARCANE_KERNELS_PLANNERS_HPP_
#define ARCANE_KERNELS_PLANNERS_HPP_

#include <vector>

#include "crt/kernel_library.hpp"

namespace arcane::kernels {

/// xmk0: D = alpha*(ms1 x ms2) + beta*ms3 (element-width wrap-around).
crt::PlannerFn gemm_planner();

/// xmk1: D = x >= 0 ? x : x >> alpha (alpha == 0 gives plain ReLU; the
/// negative slope is 2^-alpha, a fixed-point-friendly LeakyReLU).
crt::PlannerFn leaky_relu_planner();

/// xmk2: win_size x win_size max-pooling with the given stride.
crt::PlannerFn maxpool_planner();

/// xmk3: single-channel valid 2D convolution.
crt::PlannerFn conv2d_planner();

/// xmk4: 3-channel 2D convolution + ReLU + 2x2/2 max-pooling (the paper's
/// ImageNet-style fused layer, §IV-A). Input is channel-stacked: ms1 has
/// 3*H rows of W columns; the filter ms2 has 3*K rows of K columns.
/// Splits across all VPUs when SystemConfig::multi_vpu_kernels is set.
crt::PlannerFn conv_layer_planner();

/// Append the micro-program tile `i` of a conv2d plan for `op` computes,
/// emitted in full even when make_tile leaves it to an earlier tile
/// (crt::Tile::repeats). make_tile emits through the same code, so tests
/// check the repeats contract against it.
void conv2d_tile_program(const crt::KernelOp& op, const SystemConfig& cfg,
                         unsigned i, std::vector<vpu::VInsn>& prog);

/// The same for tile `j` of chain `chain` of a conv-layer plan.
void conv_layer_tile_program(const crt::KernelOp& op, const SystemConfig& cfg,
                             unsigned chain, unsigned j,
                             std::vector<vpu::VInsn>& prog);

// ---- extension kernels (KernelLibrary::with_extensions) ----

/// xmk5: D = ms1^T via element-granular 2D-DMA restructuring.
crt::PlannerFn transpose_planner();

/// xmk6: D = ms1 .* ms2 (element-wise Hadamard product).
crt::PlannerFn hadamard_planner();

}  // namespace arcane::kernels

#endif  // ARCANE_KERNELS_PLANNERS_HPP_
