// Deterministic fault injection (the failure plane of the serving stack).
//
// fault::Injector turns the declared FaultConfig plan into concrete,
// bit-identically reproducible failures driven off the sim event queue:
//
//   * instance fail-stop  — a VPU instance dies at cycle X (optional
//     recovery at cycle Y), delivered to the scheduler via fault::Listener;
//   * op hang / transient error / DMA error — one-shot faults armed per
//     instance, consumed in declaration order by the scheduler at dispatch
//     time (next_op_fault);
//   * memory degradation — a latency multiplier over a cycle window,
//     installed as the mem::DegradeView hook so every backend cost quote
//     (LLC refills, DMA descriptors, baseline runners) pays it identically.
//
// Determinism contract: the plan is a pure function of FaultConfig — no
// RNG is consulted at injection time. Same plan + same workload → same
// timeline, byte-identical artifacts (tests/fault_injection_test.cpp).
#ifndef ARCANE_FAULT_FAULT_HPP_
#define ARCANE_FAULT_FAULT_HPP_

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/backend.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/span.hpp"

namespace arcane::fault {

/// Delivery interface for instance-level faults. The scheduler implements
/// it; callbacks arrive in event context at the declared cycle.
class Listener {
 public:
  virtual ~Listener() = default;
  virtual void on_instance_fail(unsigned instance, Cycle t) = 0;
  virtual void on_instance_recover(unsigned instance, Cycle t) = 0;
};

/// What the injector decided for one op dispatch (kNone = healthy).
enum class OpVerdict : std::uint8_t {
  kNone = 0,
  kHang,            // executor never completes; only the watchdog can abort
  kTransientError,  // op runs to completion but reports failure
  kDmaError,        // op's transfer fails; completion reports failure
};

/// Injection accounting, exported as `fault.*` registry views.
struct FaultStats {
  std::uint64_t injected = 0;            // faults delivered, all kinds
  std::uint64_t instance_failures = 0;   // fail-stop events fired
  std::uint64_t instance_recoveries = 0; // recoveries fired
  std::uint64_t op_hangs = 0;
  std::uint64_t transient_errors = 0;
  std::uint64_t dma_errors = 0;
  std::uint64_t degrade_windows = 0;     // declared kMemDegrade windows
};

class Injector final : public mem::DegradeView {
 public:
  /// `cfg` and `ev` must outlive the injector. Construction only parses
  /// the plan; nothing is scheduled until arm().
  Injector(const FaultConfig& cfg, sim::EventQueue& ev);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  void set_listener(Listener* l) { listener_ = l; }
  void set_spans(telemetry::SpanTracer* spans) { spans_ = spans; }

  /// Schedule every time-driven fault (fail-stop, recovery, degradation
  /// window markers) on the event queue. Call once, before any traffic.
  void arm();
  bool armed() const { return armed_; }
  /// True when the plan declares at least one fault (liveness guard:
  /// a wedged scheduler is a bug only when no fault plan is active).
  bool plan_active() const { return !cfg_->events.empty(); }

  /// Consume the next pending op fault armed for `instance` (declaration
  /// order, one-shot) whose arm cycle is <= the dispatch cycle `t`.
  OpVerdict next_op_fault(unsigned instance, Cycle t);

  /// mem::DegradeView: max multiplier of the degradation windows covering
  /// the current cycle (1 = nominal).
  unsigned multiplier_now() const override;
  bool has_degrade_windows() const;

  const FaultStats& stats() const { return stats_; }
  const FaultConfig& config() const { return *cfg_; }

 private:
  struct PendingOp {
    FaultKind kind;
    Cycle at;
    unsigned instance;
    bool consumed;
  };

  const FaultConfig* cfg_;
  sim::EventQueue* ev_;
  Listener* listener_ = nullptr;
  telemetry::SpanTracer* spans_ = nullptr;
  std::vector<PendingOp> pending_;  // op faults, declaration order
  bool armed_ = false;
  FaultStats stats_;
};

}  // namespace arcane::fault

#endif  // ARCANE_FAULT_FAULT_HPP_
