// The metric catalogue: one field table per stats struct, and the one place
// a System binds them into its registry. docs/OBSERVABILITY.md lists exactly
// the names these tables produce; tests/telemetry_test.cpp checks it does.
#include <array>
#include <utility>

#include "arcane/system.hpp"
#include "telemetry/registry.hpp"

namespace arcane {
namespace {

using telemetry::Field;
using telemetry::member;

constexpr auto kCpu = std::to_array<Field<sim::CpuStats>>({
    {"instructions", member<&sim::CpuStats::instructions>},
    {"compressed_instructions",
     member<&sim::CpuStats::compressed_instructions>},
    {"loads", member<&sim::CpuStats::loads>},
    {"stores", member<&sim::CpuStats::stores>},
    {"branches", member<&sim::CpuStats::branches>},
    {"taken_branches", member<&sim::CpuStats::taken_branches>},
    {"mul_div", member<&sim::CpuStats::mul_div>},
    {"simd_ops", member<&sim::CpuStats::simd_ops>},
    {"hw_loop_iterations", member<&sim::CpuStats::hw_loop_iterations>},
    {"offloads", member<&sim::CpuStats::offloads>},
    {"cycles", member<&sim::CpuStats::cycles>},
    {"stall_cycles", member<&sim::CpuStats::stall_cycles>},
});

constexpr auto kVpu = std::to_array<Field<sim::VpuStats>>({
    {"instructions", member<&sim::VpuStats::instructions>},
    {"elements", member<&sim::VpuStats::elements>},
    {"macs", member<&sim::VpuStats::macs>},
    {"busy_cycles", member<&sim::VpuStats::busy_cycles>},
});

constexpr auto kCache = std::to_array<Field<sim::CacheStats>>({
    {"reads", member<&sim::CacheStats::reads>},
    {"writes", member<&sim::CacheStats::writes>},
    {"hits", member<&sim::CacheStats::hits>},
    {"misses", member<&sim::CacheStats::misses>},
    {"evictions", member<&sim::CacheStats::evictions>},
    {"writebacks", member<&sim::CacheStats::writebacks>},
    {"refills", member<&sim::CacheStats::refills>},
    {"kernel_line_claims", member<&sim::CacheStats::kernel_line_claims>},
});

constexpr auto kCacheStall = std::to_array<Field<sim::StallBreakdown>>({
    {"lock", member<&sim::StallBreakdown::lock>},
    {"at_source", member<&sim::StallBreakdown::at_source>},
    {"at_dest", member<&sim::StallBreakdown::at_dest>},
    {"busy_lines", member<&sim::StallBreakdown::busy_lines>},
    {"miss", member<&sim::StallBreakdown::miss>},
    {"dma_contention", member<&sim::StallBreakdown::dma_contention>},
});

constexpr auto kDma = std::to_array<Field<sim::DmaStats>>({
    {"descriptors", member<&sim::DmaStats::descriptors>},
    {"bytes_from_external", member<&sim::DmaStats::bytes_from_external>},
    {"bytes_from_cache", member<&sim::DmaStats::bytes_from_cache>},
    {"bytes_to_external", member<&sim::DmaStats::bytes_to_external>},
    {"bytes_to_cache", member<&sim::DmaStats::bytes_to_cache>},
    {"busy_cycles", member<&sim::DmaStats::busy_cycles>},
});

constexpr auto kMem = std::to_array<Field<mem::BackendStats>>({
    {"bursts", member<&mem::BackendStats::bursts>},
    {"bytes", member<&mem::BackendStats::bytes>},
    {"row_hits", member<&mem::BackendStats::row_hits>},
    {"row_misses", member<&mem::BackendStats::row_misses>},
    {"refresh_stalls", member<&mem::BackendStats::refresh_stalls>},
});

constexpr auto kCrt = std::to_array<Field<sim::CrtPhaseStats>>({
    {"preamble_cycles", member<&sim::CrtPhaseStats::preamble>},
    {"allocation_cycles", member<&sim::CrtPhaseStats::allocation>},
    {"compute_cycles", member<&sim::CrtPhaseStats::compute>},
    {"writeback_cycles", member<&sim::CrtPhaseStats::writeback>},
    {"scheduling_cycles", member<&sim::CrtPhaseStats::scheduling>},
    {"kernels_executed", member<&sim::CrtPhaseStats::kernels_executed>},
    {"xmr_executed", member<&sim::CrtPhaseStats::xmr_executed>},
    {"dma_descriptors", member<&sim::CrtPhaseStats::dma_descriptors>},
    {"renames", member<&sim::CrtPhaseStats::renames>},
    {"writebacks_elided", member<&sim::CrtPhaseStats::writebacks_elided>},
    {"full_elisions", member<&sim::CrtPhaseStats::full_elisions>},
    {"ecpu_busy_cycles", member<&sim::CrtPhaseStats::ecpu_busy>},
    {"programs_prepared", member<&sim::CrtPhaseStats::programs_prepared>},
});

constexpr auto kSched = std::to_array<Field<sim::SchedStats>>({
    {"jobs_submitted", member<&sim::SchedStats::jobs_submitted>},
    {"jobs_completed", member<&sim::SchedStats::jobs_completed>},
    {"jobs_dropped", member<&sim::SchedStats::jobs_dropped>},
    {"ops_dispatched", member<&sim::SchedStats::ops_dispatched>},
    {"ops_completed", member<&sim::SchedStats::ops_completed>},
    {"ops_cancelled", member<&sim::SchedStats::ops_cancelled>},
    {"hazard_deferrals", member<&sim::SchedStats::hazard_deferrals>},
    {"deadline_misses", member<&sim::SchedStats::deadline_misses>},
    {"jobs_failed", member<&sim::SchedStats::jobs_failed>},
    {"retries", member<&sim::SchedStats::retries>},
    {"failovers", member<&sim::SchedStats::failovers>},
    {"watchdog_fires", member<&sim::SchedStats::watchdog_fires>},
    {"quarantines", member<&sim::SchedStats::quarantines>},
    {"total_queue_wait", member<&sim::SchedStats::total_queue_wait>},
    {"makespan", member<&sim::SchedStats::makespan>},
});

constexpr auto kTenant = std::to_array<Field<sim::TenantStats>>({
    {"jobs_submitted", member<&sim::TenantStats::jobs_submitted>},
    {"jobs_completed", member<&sim::TenantStats::jobs_completed>},
    {"jobs_dropped", member<&sim::TenantStats::jobs_dropped>},
    {"jobs_on_time", member<&sim::TenantStats::jobs_on_time>},
    {"deadline_misses", member<&sim::TenantStats::deadline_misses>},
    {"ops_completed", member<&sim::TenantStats::ops_completed>},
    {"jobs_failed", member<&sim::TenantStats::jobs_failed>},
    {"retries", member<&sim::TenantStats::retries>},
    {"failovers", member<&sim::TenantStats::failovers>},
    {"total_job_latency", member<&sim::TenantStats::total_job_latency>},
    {"total_queue_wait", member<&sim::TenantStats::total_queue_wait>},
    {"last_completion", member<&sim::TenantStats::last_completion>},
});

template <unsigned B>
std::uint64_t bucket(const sim::OpStallBreakdown& s) {
  return s.cycles[B];
}

template <unsigned... B>
constexpr auto op_stall_table(std::integer_sequence<unsigned, B...>) {
  return std::to_array<Field<sim::OpStallBreakdown>>(
      {{sim::stall_bucket_name(static_cast<sim::StallBucket>(B)),
        bucket<B>}...});
}

constexpr auto kOpStall = op_stall_table(
    std::make_integer_sequence<unsigned, sim::kNumStallBuckets>{});

constexpr auto kQosTenant = std::to_array<Field<sim::QosTenantStats>>({
    {"jobs_offered", member<&sim::QosTenantStats::jobs_offered>},
    {"jobs_accepted", member<&sim::QosTenantStats::jobs_accepted>},
    {"rejected_queue_cap", member<&sim::QosTenantStats::rejected_queue_cap>},
    {"rejected_rate", member<&sim::QosTenantStats::rejected_rate>},
    {"rejected_deadline", member<&sim::QosTenantStats::rejected_deadline>},
    {"max_outstanding", member<&sim::QosTenantStats::max_outstanding>},
});

constexpr auto kFault = std::to_array<Field<fault::FaultStats>>({
    {"injected", member<&fault::FaultStats::injected>},
    {"instance_failures", member<&fault::FaultStats::instance_failures>},
    {"instance_recoveries", member<&fault::FaultStats::instance_recoveries>},
    {"op_hangs", member<&fault::FaultStats::op_hangs>},
    {"transient_errors", member<&fault::FaultStats::transient_errors>},
    {"dma_errors", member<&fault::FaultStats::dma_errors>},
    {"degrade_windows", member<&fault::FaultStats::degrade_windows>},
});

}  // namespace

void System::bind_metrics() {
  // Getters return copies: a snapshot reads each struct once.
  auto& m = metrics_;
  m.add("cpu.", [this] { return host_->stats(); }, kCpu);
  m.add_indexed("vpu<i>.",
                [this] { return static_cast<unsigned>(vpus_.size()); },
                [this](unsigned v) { return vpus_[v].stats(); }, kVpu);
  m.add("llc.", [this] { return llc_->stats(); }, kCache);
  m.add("llc.stall.", [this] { return llc_->stats().stalls; }, kCacheStall);
  m.add("dma.", [this] { return dma_->stats(); }, kDma);
  m.add("mem.", [this] { return ext_->backend().stats(); }, kMem);
  m.add("crt.", [this] { return runtime_->phases(); }, kCrt);
  m.add("sched.", [this] { return sched_->stats(); }, kSched);
  m.add("sched.stall.", [this] { return sched_->stall_totals(); }, kOpStall);
  auto tenants = [this] { return sched_->num_tenants(); };
  m.add_indexed("sched.tenant<i>.", tenants,
                [this](unsigned t) { return sched_->tenant_stats(t); },
                kTenant);
  m.add_indexed("sched.tenant<i>.stall.", tenants,
                [this](unsigned t) { return sched_->tenant_stalls(t); },
                kOpStall);
  m.add_indexed("qos.tenant<i>.", [this] { return qos_->num_tenants(); },
                [this](unsigned t) { return qos_->tenant_qos(t); },
                kQosTenant);
  if (injector_ != nullptr) {
    m.add("fault.", [this] { return injector_->stats(); }, kFault);
  }
}

}  // namespace arcane
