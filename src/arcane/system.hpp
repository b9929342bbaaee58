// ArcaneSystem — the top-level simulated platform: an X-HEEP-class MCU whose
// data memory subsystem is the ARCANE smart LLC (paper Figure 1).
//
// This is the library's primary public entry point:
//
//   arcane::System sys(arcane::SystemConfig::paper(/*lanes=*/4));
//   sys.write_bytes(addr, input);                  // place operands
//   sys.load_program(program.finish());            // host application
//   auto result = sys.run();                       // simulate
//   sys.read_bytes(addr, out);                     // fetch results
//
// The same System runs pure-software baselines (no xmnmc instructions): the
// smart LLC then behaves exactly like the paper's "standard data LLC".
#ifndef ARCANE_ARCANE_SYSTEM_HPP_
#define ARCANE_ARCANE_SYSTEM_HPP_

#include <memory>
#include <span>
#include <vector>

#include "bridge/bridge.hpp"
#include "common/bits.hpp"
#include "common/config.hpp"
#include "cpu/cpu.hpp"
#include "crt/runtime.hpp"
#include "dma/dma.hpp"
#include "fault/fault.hpp"
#include "llc/llc.hpp"
#include "mem/imem.hpp"
#include "mem/main_memory.hpp"
#include "qos/admission.hpp"
#include "sched/scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/critical_path.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"
#include "vpu/line_storage.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane {

class System final : public cpu::DataPort {
 public:
  explicit System(SystemConfig cfg,
                  crt::KernelLibrary library = crt::KernelLibrary::with_builtins());

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  const SystemConfig& config() const { return cfg_; }

  // ------------------------- program control -------------------------
  /// Load a host program (defaults to the instruction-memory base) and
  /// reset the CPU with pc at its first word, sp at the top of the data
  /// region and its clock at the event queue's time, so a program loaded
  /// after earlier events (or an earlier program) runs from `now()` on.
  void load_program(const std::vector<std::uint32_t>& words);
  void load_program(const std::vector<std::uint32_t>& words, Addr base);

  /// Run the host program to completion (ecall), then settle any still
  /// in-flight kernel activity. Throws arcane::Error when the program halts
  /// abnormally (illegal instruction, bus fault, ...).
  cpu::HostCpu::RunResult run(std::uint64_t max_instructions = ~0ull);
  /// Same, but returns the abnormal result instead of throwing.
  cpu::HostCpu::RunResult run_unchecked(std::uint64_t max_instructions = ~0ull);

  /// Execute all pending cache-side events (kernels in flight).
  void drain();

  // --------------------- coherent memory helpers ---------------------
  void write_bytes(Addr addr, std::span<const std::uint8_t> data);
  void read_bytes(Addr addr, std::span<std::uint8_t> out);
  template <typename T>
  void write_scalar(Addr addr, T v) {
    write_bytes(addr, {reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)});
  }
  template <typename T>
  T read_scalar(Addr addr) {
    T v{};
    read_bytes(addr, {reinterpret_cast<std::uint8_t*>(&v), sizeof(T)});
    return v;
  }

  /// First address of the cacheable data region and its size.
  Addr data_base() const { return cfg_.mem.data_base; }
  std::uint32_t data_size() const { return cfg_.mem.data_bytes; }
  /// Default stack pointer (top of the data region, 16-byte aligned).
  Addr stack_top() const {
    return cfg_.mem.data_base + cfg_.mem.data_bytes - 16;
  }

  // --------------------------- components ----------------------------
  cpu::HostCpu& host() { return *host_; }
  llc::Llc& llc() { return *llc_; }
  crt::Runtime& runtime() { return *runtime_; }
  /// Kernel-offload scheduler, the one owner of crt::KernelExecutor: one
  /// serving instance per VPU (cfg.sched_instances / cfg.sched_policy) for
  /// submitted jobs, plus the host instance the bridge feeds with the host
  /// program's offloads. Shares the Runtime's eCPU, DMA and LLC
  /// arbitration; jobs execute concurrently across instances in simulated
  /// time.
  sched::Scheduler& scheduler() { return *sched_; }
  /// QoS admission controller fronting the scheduler (cfg.qos): per-tenant
  /// queue caps, token-bucket rates, priority classes and SLO-deadline
  /// shedding. With cfg.qos.enabled == false it admits everything, so
  /// serving through it is equivalent to driving scheduler() directly.
  qos::AdmissionController& admission() { return *qos_; }
  /// Deterministic fault injector (cfg.fault). Constructed — and its plan
  /// armed on the event queue — only when cfg.fault.enabled; nullptr
  /// otherwise, and the scheduler/memory fast paths stay bit-identical to
  /// a fault-free build.
  fault::Injector* injector() { return injector_.get(); }
  const fault::Injector* injector() const { return injector_.get(); }
  bridge::Bridge& bridge() { return *bridge_; }
  dma::DmaEngine& dma() { return *dma_; }
  sim::EventQueue& events() { return events_; }
  /// Named metrics over every layer's stats (docs/OBSERVABILITY.md).
  const telemetry::Registry& metrics() const { return metrics_; }
  /// Sim-time span tracer (disabled by default; spans().enable() to record,
  /// telemetry::TraceFile to export for ui.perfetto.dev).
  telemetry::SpanTracer& spans() { return spans_; }
  const telemetry::SpanTracer& spans() const { return spans_; }
  /// Per-op timing log feeding telemetry::CriticalPath (disabled by
  /// default; op_log().enable() to record — capture never perturbs timing).
  telemetry::OpLog& op_log() { return op_log_; }
  const telemetry::OpLog& op_log() const { return op_log_; }
  std::vector<vpu::VectorUnit>& vpus() { return vpus_; }
  /// Timing model of the external memory (cfg.mem.backend selects it).
  mem::MemBackend& mem_backend() { return ext_->backend(); }
  const mem::MemBackend& mem_backend() const { return ext_->backend(); }

  // ------------------------- cpu::DataPort ---------------------------
  // Forced inline, so that HostCpu::run_on<System> (run_unchecked) inlines
  // the LLC's host-port hit path into its loads and stores. The hit checks
  // the data region once (Llc::host_port); every other access is routed
  // here: into the data region through Llc::host_access, anything else to
  // the MMIO window or a bus fault.
  [[gnu::always_inline]] Cycle read(Addr addr, unsigned bytes, void* out,
                                    Cycle now) override {
    const Cycle hit =
        llc_->host_port(addr, bytes, /*is_write=*/false, out, now);
    if (hit != llc::Llc::kNoInlineHit) [[likely]] return hit;
    if (range_within(addr, bytes, cfg_.mem.data_base, cfg_.mem.data_bytes)) {
      return llc_->host_access(addr, bytes, /*is_write=*/false, out, now)
          .complete_at;
    }
    return read_outside_data(addr, bytes, out, now);
  }
  [[gnu::always_inline]] Cycle write(Addr addr, unsigned bytes,
                                     const void* in, Cycle now) override {
    void* const data = const_cast<void*>(in);
    const Cycle hit =
        llc_->host_port(addr, bytes, /*is_write=*/true, data, now);
    if (hit != llc::Llc::kNoInlineHit) [[likely]] return hit;
    if (range_within(addr, bytes, cfg_.mem.data_base, cfg_.mem.data_bytes)) {
      return llc_->host_access(addr, bytes, /*is_write=*/true, data, now)
          .complete_at;
    }
    return write_outside_data(addr, bytes, now);
  }

 private:
  /// Bind every stats struct's field table into metrics_ (metrics.cpp).
  void bind_metrics();
  /// MMIO (the bridge's registers) or a bus fault.
  Cycle read_outside_data(Addr addr, unsigned bytes, void* out, Cycle now);
  Cycle write_outside_data(Addr addr, unsigned bytes, Cycle now);

  SystemConfig cfg_;
  sim::EventQueue events_;
  telemetry::Registry metrics_;
  telemetry::SpanTracer spans_;
  telemetry::OpLog op_log_;
  std::unique_ptr<mem::MainMemory> ext_;
  std::unique_ptr<mem::InstructionMemory> imem_;
  std::unique_ptr<vpu::LineStorage> storage_;
  std::unique_ptr<dma::DmaEngine> dma_;
  std::vector<vpu::VectorUnit> vpus_;
  std::unique_ptr<llc::Llc> llc_;
  std::unique_ptr<crt::Runtime> runtime_;
  std::unique_ptr<sched::Scheduler> sched_;
  std::unique_ptr<qos::AdmissionController> qos_;
  std::unique_ptr<fault::Injector> injector_;
  std::unique_ptr<bridge::Bridge> bridge_;
  std::unique_ptr<cpu::HostCpu> host_;
};

}  // namespace arcane

#endif  // ARCANE_ARCANE_SYSTEM_HPP_
