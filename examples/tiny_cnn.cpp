// tiny_cnn — a complete two-stage CNN inference running entirely through
// the xmnmc extension: the paper's fused conv layer (conv + ReLU + pool) as
// feature extractor, followed by a GeMM classifier head, on a synthetic
// 28x28 3-channel image. Every stage validates against the golden models.
#include <cstdio>
#include <string>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

using namespace arcane;
using workloads::Matrix;

int main() {
  constexpr unsigned kImg = 28;   // input 3 x 28 x 28
  constexpr unsigned kK = 5;      // 5x5 filters
  constexpr unsigned kConv = kImg - kK + 1;  // 24
  constexpr unsigned kPool = kConv / 2;      // 12
  constexpr unsigned kFeat = kPool * kPool;  // 144 flattened features
  constexpr unsigned kClasses = 10;

  System sys(SystemConfig::paper(8));

  workloads::Rng rng(2025);
  auto image = Matrix<std::int8_t>::random(3 * kImg, kImg, rng, -8, 7);
  auto filter = Matrix<std::int8_t>::random(3 * kK, kK, rng, -3, 3);
  // Classifier: 10 x 144 weight matrix applied as W x features^T — we lay
  // the pooled feature map out as a 144 x 1 "matrix" via an xmr view.
  auto weights = Matrix<std::int8_t>::random(kClasses, kFeat, rng, -2, 2);
  Matrix<std::int8_t> bias(kClasses, 1);
  for (unsigned i = 0; i < kClasses; ++i) {
    bias.at(i, 0) = static_cast<std::int8_t>(rng.uniform(-20, 20));
  }

  const Addr img_a = sys.data_base() + 0x1000;
  const Addr flt_a = sys.data_base() + 0x10000;
  const Addr feat_a = sys.data_base() + 0x20000;   // kPool x kPool
  const Addr w_a = sys.data_base() + 0x30000;
  const Addr b_a = sys.data_base() + 0x40000;
  const Addr logits_a = sys.data_base() + 0x50000;  // kClasses x 1
  workloads::store_matrix(sys, img_a, image);
  workloads::store_matrix(sys, flt_a, filter);
  workloads::store_matrix(sys, w_a, weights);
  workloads::store_matrix(sys, b_a, bias);

  XProgram prog;
  prog.xmr(0, img_a, image.shape(), ElemType::kByte);
  prog.xmr(1, flt_a, filter.shape(), ElemType::kByte);
  prog.xmr(2, feat_a, MatShape{kPool, kPool, kPool}, ElemType::kByte);
  prog.conv_layer(2, 0, 1, ElemType::kByte);

  // Reinterpret the pooled 12x12 map as a 144x1 column vector (same bytes)
  // and run the classifier head: logits = W x feat + bias.
  prog.xmr(3, feat_a, MatShape{kFeat, 1, 1}, ElemType::kByte);
  prog.xmr(4, w_a, weights.shape(), ElemType::kByte);
  prog.xmr(5, b_a, MatShape{kClasses, 1, 1}, ElemType::kByte);
  prog.xmr(6, logits_a, MatShape{kClasses, 1, 1}, ElemType::kByte);
  prog.gemm(/*md=*/6, /*ms1=*/4, /*ms2=*/3, /*ms3=*/5, /*alpha=*/1,
            /*beta=*/1, ElemType::kByte);
  prog.sync_read(logits_a);
  prog.halt();

  sys.load_program(prog.finish());
  const auto run = sys.run();

  // Golden pipeline.
  const auto feat = workloads::golden_conv_layer<std::int8_t>(image, filter);
  Matrix<std::int8_t> feat_col(kFeat, 1);
  for (unsigned r = 0; r < kPool; ++r) {
    for (unsigned c = 0; c < kPool; ++c) {
      feat_col.at(r * kPool + c, 0) = feat.at(r, c);
    }
  }
  const auto want = workloads::golden_gemm(weights, feat_col, bias, 1, 1);
  const auto got =
      workloads::load_matrix<std::int8_t>(sys, logits_a, kClasses, 1);
  const bool ok = workloads::count_mismatches(got, want) == 0;

  std::printf("tiny CNN: 3x%ux%u int8 -> conv%ux%u+ReLU+pool -> %u features "
              "-> GeMM head -> %u logits\n\n",
              kImg, kImg, kK, kK, kFeat, kClasses);
  std::printf("logits: ");
  int best = 0;
  for (unsigned i = 0; i < kClasses; ++i) {
    std::printf("%4d", got.at(i, 0));
    if (got.at(i, 0) > got.at(best, 0)) best = static_cast<int>(i);
  }
  std::printf("\npredicted class: %d\n", best);
  std::printf("result: %s\n\n", ok ? "VERIFIED against golden models" : "WRONG");
  // Every counter is a registry entry (docs/OBSERVABILITY.md).
  const auto& m = sys.metrics();
  auto n = [&m](const std::string& name) {
    return static_cast<unsigned long long>(m.value(name));
  };
  unsigned long long macs = 0;
  for (unsigned v = 0; v < sys.vpus().size(); ++v) {
    macs += n("vpu" + std::to_string(v) + ".macs");
  }
  std::printf("host:  %llu cycles, %llu instructions, %llu offloads\n",
              static_cast<unsigned long long>(run.cycles - run.start),
              n("cpu.instructions"), n("cpu.offloads"));
  std::printf("c-rt:  %llu kernels, %llu elided write-backs, %llu forwarded "
              "rows\n",
              n("crt.kernels_executed"), n("crt.full_elisions"),
              n("crt.writebacks_elided"));
  std::printf("cache: %llu hits / %llu misses\n", n("llc.hits"),
              n("llc.misses"));
  std::printf("vpu:   %llu MACs\n", macs);
  return ok ? 0 : 1;
}
