// The user-configurable kernel library (paper §IV-B): maps func5 values to
// software kernel implementations. The C-RT Kernel Decoder performs an O(1)
// lookup here; new kernels can be registered before "compilation" — i.e. at
// System construction — which is the paper's software-defined ISA
// extensibility (see examples/custom_isa_extension.cpp).
#ifndef ARCANE_CRT_KERNEL_LIBRARY_HPP_
#define ARCANE_CRT_KERNEL_LIBRARY_HPP_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/config.hpp"
#include "crt/kernel_op.hpp"

namespace arcane::crt {

struct KernelInfo {
  std::uint8_t func5 = 0;
  std::string name;
  std::string description;
  bool uses_ms1 = false;
  bool uses_ms2 = false;
  bool uses_ms3 = false;
  /// Validates operand shapes and plans the kernel (Plan::fail makes the
  /// decoder reject the offload). Not owned: planners are long-lived
  /// objects, the builtin ones static.
  const Planner* planner = nullptr;
};

class KernelLibrary {
 public:
  KernelLibrary() : slots_{} {}

  /// Register (or replace) a kernel. func5 must be in [0, 30].
  void register_kernel(KernelInfo info) {
    ARCANE_CHECK(info.func5 <= 30, "kernel func5 must be in [0,30]");
    ARCANE_CHECK(info.planner != nullptr, "kernel planner missing");
    slots_[info.func5] = std::move(info);
  }

  const KernelInfo* find(std::uint8_t func5) const {
    if (func5 > 30 || !slots_[func5].has_value()) return nullptr;
    return &*slots_[func5];
  }

  std::vector<const KernelInfo*> list() const {
    std::vector<const KernelInfo*> out;
    for (const auto& s : slots_) {
      if (s.has_value()) out.push_back(&*s);
    }
    return out;
  }

  /// Library preloaded with the five paper kernels (Table I):
  /// GeMM, LeakyReLU, MaxPool, Conv2D and the 3-channel Conv Layer.
  static KernelLibrary with_builtins();

  /// with_builtins() plus this repo's extension kernels (xmk5 Transpose,
  /// xmk6 Hadamard) — the paper's software-defined extensibility in action.
  static KernelLibrary with_extensions();

 private:
  std::array<std::optional<KernelInfo>, 31> slots_;
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_KERNEL_LIBRARY_HPP_
