// Conv-layer workloads: the 3-channel conv -> ReLU -> 2x2/2 max-pool layer of
// paper Figure 4, on the scalar CV32E40X, on the CV32E40PX (XCVPULP), and
// offloaded to ARCANE. Each item builds its own System exactly as
// baseline::run_conv_layer does (same operand seeding and memory map, so
// seed 1 reproduces fig4_speedup's cycle counts), but times each call into
// the System separately and checks the output outside the timed calls.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "arcane/program_builder.hpp"
#include "arcane/system.hpp"
#include "baseline/pulp_kernels.hpp"
#include "baseline/scalar_kernels.hpp"
#include "bench.hpp"
#include "workloads/golden.hpp"
#include "workloads/tensors.hpp"

namespace perfbench {

using namespace arcane;
using workloads::Matrix;

namespace {

enum class Impl { kScalar, kPulp, kArcane };

struct Item {
  Impl impl;
  ElemType et;
  std::uint32_t size, k;
  unsigned lanes;
};

std::vector<Item> conv_items(const std::string& workload) {
  std::vector<Item> items;
  if (workload == "arcane-conv") {
    // The fig4 ARCANE grid.
    for (const ElemType et :
         {ElemType::kByte, ElemType::kHalf, ElemType::kWord}) {
      for (const std::uint32_t k : {3u, 5u, 7u}) {
        for (const std::uint32_t size : {16u, 32u, 64u, 128u, 256u}) {
          for (const unsigned lanes : {2u, 4u, 8u}) {
            items.push_back({Impl::kArcane, et, size, k, lanes});
          }
        }
      }
    }
    return items;
  }
  // fig4's largest CPU-baseline corner: int8, 256x256, smallest and
  // largest filter, on both CPU baselines. Separate scalar and XCVPULP
  // workloads spread 11% and 17-22% between runs on a shared host; one pass
  // over both keeps the XCVPULP paths measured and the rates steady.
  for (const Impl impl : {Impl::kScalar, Impl::kPulp}) {
    for (const std::uint32_t k : {3u, 7u}) {
      items.push_back({impl, ElemType::kByte, 256, k, 4});
    }
  }
  return items;
}

/// Flat single-cycle data memory over the System's data region: the
/// isolated ISS runs against it, so its host time is decode, dispatch and
/// execute with no LLC model behind the loads and stores.
class FlatPort final : public cpu::DataPort {
 public:
  FlatPort(Addr base, std::uint32_t bytes) : base_(base), mem_(bytes, 0) {}

  void store(Addr addr, const void* data, std::size_t bytes) {
    std::memcpy(at(addr, bytes), data, bytes);
  }
  Cycle read(Addr addr, unsigned bytes, void* out, Cycle now) override {
    std::memcpy(out, at(addr, bytes), bytes);
    return now + 1;
  }
  Cycle write(Addr addr, unsigned bytes, const void* in, Cycle now) override {
    std::memcpy(at(addr, bytes), in, bytes);
    return now + 1;
  }

 private:
  std::uint8_t* at(Addr addr, std::size_t bytes) {
    if (addr < base_ || addr - base_ + bytes > mem_.size()) {
      throw Error("flat port: access outside the data region");
    }
    return mem_.data() + (addr - base_);
  }

  Addr base_;
  std::vector<std::uint8_t> mem_;
};

/// Golden output bytes per (item, seed). Every pass of a run checks every
/// output, but the reference for identical inputs is computed once: on
/// arcane-conv it cost more host time than the simulation it checks.
std::map<std::tuple<Impl, ElemType, std::uint32_t, std::uint32_t,
                    std::uint64_t>,
         std::vector<std::uint8_t>>
    golden_cache;

template <typename T>
void run_item(const Item& it, std::uint64_t seed, Tracer& tr,
              bool isolate_iss, Pass& p) {
  const std::uint32_t h = it.size, w = it.size, k = it.k;
  SystemConfig cfg = SystemConfig::paper(it.lanes);
  cfg.host_cpu = it.impl == Impl::kPulp ? HostCpuKind::kCv32e40px
                                        : HostCpuKind::kCv32e40x;

  workloads::Rng rng(seed * 0x1234567ull + h * 31 + k);
  const auto input = Matrix<T>::random(3 * h, w, rng, -8, 7);
  const auto filter = Matrix<T>::random(3 * k, k, rng, -4, 3);
  const std::uint32_t ho = (h - k + 1) / 2, wo = (w - k + 1) / 2;

  const std::uint32_t line = cfg.llc.line_bytes();
  const Addr in_addr = cfg.mem.data_base + line;
  const Addr f_addr = align_up(in_addr + input.region_bytes() + 16, line);
  const Addr out_addr = align_up(f_addr + 4096, line);
  const Addr temp_addr = align_up(
      out_addr + static_cast<std::uint32_t>(ho * wo * sizeof(T)), line);

  // XCVPULP filter rows are zero-padded to whole SIMD words.
  Matrix<T> stored_filter = filter;
  std::vector<std::uint32_t> program;
  if (it.impl == Impl::kArcane) {
    XProgram prog;
    prog.xmr(0, in_addr, input.shape(), input.elem_type());
    prog.xmr(1, f_addr, filter.shape(), filter.elem_type());
    prog.xmr(2, out_addr, MatShape{ho, wo, wo}, input.elem_type());
    prog.conv_layer(2, 0, 1, input.elem_type());
    prog.sync_read(out_addr);
    prog.halt();
    program = prog.finish();
  } else {
    baseline::ConvLayerLayout layout;
    layout.input = in_addr;
    layout.filter = f_addr;
    layout.temp = temp_addr;
    layout.output = out_addr;
    layout.H = h;
    layout.W = w;
    layout.K = k;
    layout.et = input.elem_type();
    if (it.impl == Impl::kPulp) {
      stored_filter =
          Matrix<T>(3 * k, baseline::pulp_padded_cols(k, layout.et));
      for (std::uint32_t r = 0; r < 3 * k; ++r) {
        for (std::uint32_t col = 0; col < k; ++col) {
          stored_filter.at(r, col) = filter.at(r, col);
        }
      }
      program = baseline::pulp_conv_layer_program(layout);
    } else {
      program = baseline::scalar_conv_layer_program(layout);
    }
  }

  std::unique_ptr<System> sys;
  {
    Tracer::Scope s(tr, "arcane.ctor", p.ctor_ns);
    sys = std::make_unique<System>(cfg);
  }
  {
    Tracer::Scope s(tr, "arcane.place", p.place_ns);
    workloads::store_matrix(*sys, in_addr, input);
    workloads::store_matrix(*sys, f_addr, stored_filter);
  }
  {
    Tracer::Scope s(tr, "arcane.load", p.load_ns);
    sys->load_program(program);
  }
  cpu::HostCpu::RunResult run;
  {
    Tracer::Scope s(tr, "arcane.run", p.run_ns);
    run = sys->run_unchecked();
  }

  bool ok = run.reason == cpu::HaltReason::kEcall && run.exit_code == 0;
  p.sim_cycles += run.cycles;
  p.latency.push_back(run.cycles);
  p.fp.add(run.cycles);
  p.fp.add(run.instructions);
  p.fp.add(static_cast<std::uint64_t>(run.reason));
  Counters c;
  collect_counters(*sys, run.cycles, c);
  for (const auto& [name, v] : c) {
    p.c[name] += v;
    p.fp.add(v);
  }
  {
    Tracer::Scope s(tr, "workloads.verify", p.verify_ns);
    const auto got = workloads::load_matrix<T>(*sys, out_addr, ho, wo);
    // ARCANE wraps at the element width, the CPU baselines accumulate wide.
    const bool wrap = it.impl == Impl::kArcane;
    auto [slot, fresh] = golden_cache.try_emplace(
        {wrap ? Impl::kArcane : Impl::kScalar, it.et, h, k, seed});
    if (fresh) {
      const auto want =
          wrap ? workloads::golden_conv_layer<T>(input, filter)
               : workloads::golden_conv_layer_wide<T>(input, filter);
      const auto* bytes =
          reinterpret_cast<const std::uint8_t*>(want.flat().data());
      slot->second.assign(bytes, bytes + want.region_bytes());
    }
    ok = ok && got.region_bytes() == slot->second.size() &&
         std::memcmp(got.flat().data(), slot->second.data(),
                     slot->second.size()) == 0;
    p.fp.add_bytes(got.flat().data(), got.region_bytes());
  }
  if (!ok) ++p.failed;

  if (isolate_iss && it.impl != Impl::kArcane) {
    // Same program and operands on a benchmark-owned HostCpu over a flat
    // port. Excluded from the pass wall time: it is extra work, not
    // tracing overhead.
    const std::int64_t begin = now_ns();
    FlatPort port(cfg.mem.data_base, cfg.mem.data_bytes);
    port.store(in_addr, input.flat().data(), input.region_bytes());
    port.store(f_addr, stored_filter.flat().data(),
               stored_filter.region_bytes());
    mem::InstructionMemory imem(cfg.mem.imem_base, cfg.mem.imem_bytes);
    imem.load(cfg.mem.imem_base, program);
    cpu::HostCpu iss(cfg, imem, port);
    iss.reset(cfg.mem.imem_base, sys->stack_top());
    cpu::HostCpu::RunResult r;
    {
      Tracer::Scope s(tr, "cpu.iss", p.iss_ns);
      r = iss.run();
    }
    p.iss_insns += r.instructions;
    if (r.reason != cpu::HaltReason::kEcall ||
        r.instructions != run.instructions) {
      p.iss_mismatch = true;
    }
    p.wall_ns -= now_ns() - begin;
  }
}

void run_one(const Item& it, std::uint64_t seed, Tracer& tr, bool isolate_iss,
             Pass& p) {
  switch (it.et) {
    case ElemType::kByte:
      return run_item<std::int8_t>(it, seed, tr, isolate_iss, p);
    case ElemType::kHalf:
      return run_item<std::int16_t>(it, seed, tr, isolate_iss, p);
    case ElemType::kWord:
      return run_item<std::int32_t>(it, seed, tr, isolate_iss, p);
  }
}

}  // namespace

Pass run_conv_pass(const std::string& workload, std::uint64_t seed,
                   Tracer& tr, bool isolate_iss) {
  Pass p;
  const std::int64_t begin = now_ns();
  const std::vector<Item> items = conv_items(workload);
  for (std::size_t i = 0; i < items.size(); ++i) {
    tr.item = static_cast<std::int64_t>(i);
    ++p.items;
    const std::int64_t setup0 = p.setup_ns(), timed0 = p.timed_ns();
    {
      std::int64_t item_ns = 0;
      Tracer::Scope s(tr, "conv.item", item_ns);
      try {
        run_one(items[i], seed, tr, isolate_iss, p);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "item %zu threw: %s\n", i, e.what());
        ++p.failed;
        p.fp.add(0xFA11EDull);
      }
    }
    p.end_item(setup0, timed0);
  }
  tr.item = -1;
  p.wall_ns += now_ns() - begin;
  return p;
}

void print_paper_anchors(std::uint64_t seed) {
  Tracer off;
  auto cycles = [&](Impl impl, std::uint32_t k) {
    Pass p;
    run_one({impl, ElemType::kByte, 256, k, impl == Impl::kArcane ? 8u : 4u},
            seed, off, false, p);
    if (p.failed != 0) throw Error("paper-anchor item failed");
    return static_cast<double>(p.sim_cycles);
  };
  const double sc3 = cycles(Impl::kScalar, 3), sc7 = cycles(Impl::kScalar, 7);
  const double pu3 = cycles(Impl::kPulp, 3), pu7 = cycles(Impl::kPulp, 7);
  const double ar3 = cycles(Impl::kArcane, 3), ar7 = cycles(Impl::kArcane, 7);
  struct Anchor {
    const char* what;
    double model, paper;
  };
  const Anchor anchors[] = {
      {"ARCANE-8L over scalar, k=3", sc3 / ar3, 30.0},
      {"ARCANE-8L over scalar, k=7", sc7 / ar7, 84.0},
      {"XCVPULP over scalar, k=3", sc3 / pu3, 5.0},
      {"ARCANE-8L over XCVPULP, k=7", pu7 / ar7, 16.0},
  };
  std::printf("paper anchors (int8 256x256, psram, seed %llu; simulated "
              "cycles; the model is otherwise unvalidated):\n",
              static_cast<unsigned long long>(seed));
  for (const Anchor& a : anchors) {
    std::printf("  %-28s model %6.1fx  paper ~%4.0fx  rel. error %+6.1f%%\n",
                a.what, a.model, a.paper,
                100.0 * (a.model - a.paper) / a.paper);
  }
}

}  // namespace perfbench
