// Builtin kernel registration — the paper's Table I catalogue.
#include "crt/kernel_library.hpp"
#include "isa/xmnmc.hpp"
#include "kernels/planners.hpp"

namespace arcane::crt {

KernelLibrary KernelLibrary::with_builtins() {
  namespace x = isa::xmnmc;
  KernelLibrary lib;
  lib.register_kernel(KernelInfo{
      x::kGemm, "xmk0", "GeMM: D = alpha*(ms1 x ms2) + beta*ms3",
      true, true, true, &kernels::gemm_planner()});
  lib.register_kernel(KernelInfo{
      x::kLeakyRelu, "xmk1", "LeakyReLU: D = x>=0 ? x : x>>alpha",
      true, false, false, &kernels::leaky_relu_planner()});
  lib.register_kernel(KernelInfo{
      x::kMaxPool, "xmk2", "Max-pooling (win_size, stride)",
      true, false, false, &kernels::maxpool_planner()});
  lib.register_kernel(KernelInfo{
      x::kConv2d, "xmk3", "2D convolution (valid)",
      true, true, false, &kernels::conv2d_planner()});
  lib.register_kernel(KernelInfo{
      x::kConvLayer, "xmk4",
      "3-channel 2D conv layer: conv + ReLU + 2x2/2 max-pool",
      true, true, false, &kernels::conv_layer_planner()});
  return lib;
}

KernelLibrary KernelLibrary::with_extensions() {
  KernelLibrary lib = with_builtins();
  lib.register_kernel(KernelInfo{
      5, "xmk5", "Transpose: D = ms1^T (2D-DMA restructuring)",
      true, false, false, &kernels::transpose_planner()});
  lib.register_kernel(KernelInfo{
      6, "xmk6", "Hadamard: D = ms1 .* ms2",
      true, true, false, &kernels::hadamard_planner()});
  return lib;
}

}  // namespace arcane::crt
