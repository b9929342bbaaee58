#include "fault/fault.hpp"

namespace arcane::fault {

Injector::Injector(const FaultConfig& cfg, sim::EventQueue& ev)
    : cfg_(&cfg), ev_(&ev) {
  for (const FaultEvent& f : cfg_->events) {
    switch (f.kind) {
      case FaultKind::kOpHang:
      case FaultKind::kTransientError:
      case FaultKind::kDmaError:
        pending_.push_back({f.kind, f.at, f.instance, false});
        break;
      case FaultKind::kInstanceFailStop:
      case FaultKind::kMemDegrade:
        break;  // time-driven; scheduled by arm()
    }
  }
}

void Injector::arm() {
  ARCANE_CHECK(!armed_, "fault plan armed twice");
  armed_ = true;
  for (const FaultEvent& f : cfg_->events) {
    switch (f.kind) {
      case FaultKind::kInstanceFailStop: {
        const unsigned inst = f.instance;
        ev_->schedule(
            f.at,
            [this, inst] {
              const Cycle t = ev_->now();
              ++stats_.injected;
              ++stats_.instance_failures;
              if (spans_ != nullptr) {
                spans_->instant(
                    telemetry::kTrackFault, "fault.injected", t, -1, -1,
                    static_cast<std::int64_t>(FaultKind::kInstanceFailStop));
                spans_->instant(telemetry::track_vpu(inst), "fault.failstop",
                                t, -1, -1, inst);
              }
              if (listener_ != nullptr) listener_->on_instance_fail(inst, t);
            },
            "fault.failstop");
        if (f.recover_at != 0) {
          ev_->schedule(
              f.recover_at,
              [this, inst] {
                const Cycle t = ev_->now();
                ++stats_.instance_recoveries;
                if (spans_ != nullptr) {
                  spans_->instant(telemetry::track_vpu(inst), "fault.recover",
                                  t, -1, -1, inst);
                }
                if (listener_ != nullptr) {
                  listener_->on_instance_recover(inst, t);
                }
              },
              "fault.recover");
        }
        break;
      }
      case FaultKind::kMemDegrade: {
        // The multiplier itself is read lazily (multiplier_now); this
        // event only makes the window observable in traces and stats.
        ++stats_.degrade_windows;
        const unsigned mult = f.multiplier;
        ev_->schedule(
            f.at,
            [this, mult] {
              ++stats_.injected;
              if (spans_ != nullptr) {
                const Cycle t = ev_->now();
                spans_->instant(
                    telemetry::kTrackFault, "fault.injected", t, -1, -1,
                    static_cast<std::int64_t>(FaultKind::kMemDegrade));
                spans_->instant(telemetry::kTrackFault, "fault.degrade", t,
                                -1, -1, mult);
              }
            },
            "fault.degrade");
        break;
      }
      case FaultKind::kOpHang:
      case FaultKind::kTransientError:
      case FaultKind::kDmaError:
        break;  // dispatch-driven; consumed via next_op_fault()
    }
  }
}

OpVerdict Injector::next_op_fault(unsigned instance, Cycle t) {
  for (PendingOp& p : pending_) {
    if (p.consumed || p.instance != instance || p.at > t) continue;
    p.consumed = true;
    ++stats_.injected;
    OpVerdict v = OpVerdict::kNone;
    const char* name = "";
    switch (p.kind) {
      case FaultKind::kOpHang:
        ++stats_.op_hangs;
        v = OpVerdict::kHang;
        name = "fault.hang";
        break;
      case FaultKind::kTransientError:
        ++stats_.transient_errors;
        v = OpVerdict::kTransientError;
        name = "fault.transient";
        break;
      case FaultKind::kDmaError:
        ++stats_.dma_errors;
        v = OpVerdict::kDmaError;
        name = "fault.dma";
        break;
      default:
        ARCANE_ASSERT(false, "non-op fault in the pending list");
    }
    if (spans_ != nullptr) {
      spans_->instant(telemetry::kTrackFault, "fault.injected", t, -1, -1,
                      static_cast<std::int64_t>(p.kind));
      spans_->instant(telemetry::track_vpu(instance), name, t, -1, -1,
                      instance);
    }
    return v;
  }
  return OpVerdict::kNone;
}

unsigned Injector::multiplier_now() const {
  const Cycle now = ev_->now();
  unsigned mult = 1;
  for (const FaultEvent& f : cfg_->events) {
    if (f.kind != FaultKind::kMemDegrade) continue;
    if (now >= f.at && now < f.until && f.multiplier > mult) {
      mult = f.multiplier;
    }
  }
  return mult;
}

bool Injector::has_degrade_windows() const {
  for (const FaultEvent& f : cfg_->events) {
    if (f.kind == FaultKind::kMemDegrade) return true;
  }
  return false;
}

}  // namespace arcane::fault
