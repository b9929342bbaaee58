// A small image-processing pipeline composed of chained xmnmc kernels:
// edge detection (conv2d with a Laplacian), ReLU thresholding and 2x2
// max-pool downsampling — all executing inside the cache while the host
// stays free. Demonstrates kernel chaining and implicit synchronization.
#include <cstdio>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Matrix;

namespace {

/// Deterministic synthetic "image": a bright box on a dark gradient.
Matrix<std::int16_t> make_image(unsigned n) {
  Matrix<std::int16_t> img(n, n);
  for (unsigned r = 0; r < n; ++r) {
    for (unsigned c = 0; c < n; ++c) {
      std::int32_t v = static_cast<std::int32_t>((r + c) % 13);
      if (r > n / 4 && r < 3 * n / 4 && c > n / 4 && c < 3 * n / 4) v += 60;
      img.at(r, c) = static_cast<std::int16_t>(v);
    }
  }
  return img;
}

}  // namespace

int main() {
  constexpr unsigned kN = 96;
  System sys(SystemConfig::paper(4));

  auto img = make_image(kN);
  Matrix<std::int16_t> lap(3, 3);  // Laplacian edge detector
  lap.at(0, 1) = -1;
  lap.at(1, 0) = -1;
  lap.at(1, 1) = 4;
  lap.at(1, 2) = -1;
  lap.at(2, 1) = -1;

  const Addr img_a = sys.data_base() + 0x1000;
  const Addr lap_a = sys.data_base() + 0x40000;
  const Addr edges_a = sys.data_base() + 0x50000;
  const Addr relu_a = sys.data_base() + 0x90000;
  const Addr out_a = sys.data_base() + 0xD0000;
  workloads::store_matrix(sys, img_a, img);
  workloads::store_matrix(sys, lap_a, lap);

  constexpr unsigned kE = kN - 2;  // conv output
  XProgram prog;
  prog.xmr(0, img_a, img.shape(), ElemType::kHalf);
  prog.xmr(1, lap_a, lap.shape(), ElemType::kHalf);
  prog.xmr(2, edges_a, MatShape{kE, kE, kE}, ElemType::kHalf);
  prog.xmr(3, relu_a, MatShape{kE, kE, kE}, ElemType::kHalf);
  prog.xmr(4, out_a, MatShape{kE / 2, kE / 2, kE / 2}, ElemType::kHalf);
  prog.conv2d(2, 0, 1, ElemType::kHalf);       // edge detection
  prog.leaky_relu(3, 2, 0, ElemType::kHalf);   // threshold negatives
  prog.maxpool(4, 3, 2, 2, ElemType::kHalf);   // downsample 2x
  prog.sync_read(out_a);
  prog.halt();

  sys.load_program(prog.finish());
  const auto run = sys.run();

  // Verify against the golden pipeline.
  const auto want = workloads::golden_maxpool(
      workloads::golden_leaky_relu(workloads::golden_conv2d(img, lap), 0u), 2,
      2);
  const auto got =
      workloads::load_matrix<std::int16_t>(sys, out_a, kE / 2, kE / 2);
  const bool ok = workloads::count_mismatches(got, want) == 0;

  std::printf("image pipeline (%ux%u int16): conv2d -> ReLU -> maxpool\n",
              kN, kN);
  std::printf("  kernels executed : %llu\n",
              static_cast<unsigned long long>(
                  sys.runtime().phases().kernels_executed));
  std::printf("  host cycles      : %llu\n",
              static_cast<unsigned long long>(run.cycles));
  std::printf("  result           : %s\n", ok ? "VERIFIED" : "WRONG");

  // Render a coarse ASCII view of the downsampled edge map.
  const unsigned step = (kE / 2) / 23 + 1;
  for (unsigned r = 0; r < kE / 2; r += step) {
    for (unsigned c = 0; c < kE / 2; c += step) {
      std::printf("%c", got.at(r, c) > 20 ? '#' : got.at(r, c) > 0 ? '.' : ' ');
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}
