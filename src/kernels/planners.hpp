// Builtin kernel planners (paper Table I). Each is a static crt::Planner
// that validates operand shapes and produces the tiled execution plan whose
// micro-programs run on the VPUs.
//
// Common restrictions (documented limits of the register-file layout):
//  * a matrix row must fit in one vector register (cols <= VLEN/esize);
//  * filters must fit in one vector register when packed.
// Arbitrary row counts are supported through tiling with halo reuse.
#ifndef ARCANE_KERNELS_PLANNERS_HPP_
#define ARCANE_KERNELS_PLANNERS_HPP_

#include "crt/kernel_library.hpp"

namespace arcane::kernels {

/// xmk0: D = alpha*(ms1 x ms2) + beta*ms3 (element-width wrap-around).
const crt::Planner& gemm_planner();

/// xmk1: D = x >= 0 ? x : x >> alpha (alpha == 0 gives plain ReLU; the
/// negative slope is 2^-alpha, a fixed-point-friendly LeakyReLU).
const crt::Planner& leaky_relu_planner();

/// xmk2: win_size x win_size max-pooling with the given stride.
const crt::Planner& maxpool_planner();

/// xmk3: single-channel valid 2D convolution.
const crt::Planner& conv2d_planner();

/// xmk4: 3-channel 2D convolution + ReLU + 2x2/2 max-pooling (the paper's
/// ImageNet-style fused layer, §IV-A). Input is channel-stacked: ms1 has
/// 3*H rows of W columns; the filter ms2 has 3*K rows of K columns.
/// Splits across all VPUs when SystemConfig::multi_vpu_kernels is set.
const crt::Planner& conv_layer_planner();

// ---- extension kernels (KernelLibrary::with_extensions) ----

/// xmk5: D = ms1^T via element-granular 2D-DMA restructuring.
const crt::Planner& transpose_planner();

/// xmk6: D = ms1 .* ms2 (element-wise Hadamard product).
const crt::Planner& hadamard_planner();

}  // namespace arcane::kernels

#endif  // ARCANE_KERNELS_PLANNERS_HPP_
