#include "arcane/report.hpp"

#include <ostream>
#include <sstream>

namespace arcane {

RunReport make_report(System& sys, const cpu::HostCpu::RunResult& res) {
  RunReport r;
  r.host_cycles = res.cycles - res.start;  // the program's own length
  r.host_instructions = res.instructions;
  r.host_ipc = r.host_cycles
                   ? static_cast<double>(res.instructions) /
                         static_cast<double>(r.host_cycles)
                   : 0.0;
  r.host_stall_cycles = sys.host().stats().stall_cycles;
  r.offloads = sys.host().stats().offloads;
  r.cache = sys.llc().stats();
  r.phases = sys.runtime().phases();
  r.dma = sys.dma().stats();
  for (const auto& vu : sys.vpus()) {
    r.vpu_instructions += vu.stats().instructions;
    r.vpu_elements += vu.stats().elements;
    r.vpu_macs += vu.stats().macs;
    r.vpu_busy_cycles += vu.stats().busy_cycles;
  }
  const double hz = sys.config().clock_mhz * 1e6;
  r.simulated_seconds =
      hz > 0 ? static_cast<double>(r.host_cycles) / hz : 0.0;
  r.effective_gops =
      r.simulated_seconds > 0
          ? 2.0 * static_cast<double>(r.vpu_macs) / r.simulated_seconds / 1e9
          : 0.0;
  return r;
}

std::string RunReport::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const RunReport& r) {
  os << "host:  " << r.host_cycles << " cycles, " << r.host_instructions
     << " instructions (IPC " << r.host_ipc << "), " << r.host_stall_cycles
     << " stall cycles, " << r.offloads << " offloads\n";
  os << "cache: " << r.cache.hits << " hits / " << r.cache.misses
     << " misses (" << 100.0 * r.cache.hit_rate() << "% hit rate), "
     << r.cache.evictions << " evictions, " << r.cache.writebacks
     << " writebacks, " << r.cache.kernel_line_claims << " line claims\n";
  os << "  stalls: lock=" << r.cache.stalls.lock
     << " at_src=" << r.cache.stalls.at_source
     << " at_dst=" << r.cache.stalls.at_dest
     << " miss=" << r.cache.stalls.miss
     << " dma=" << r.cache.stalls.dma_contention << "\n";
  os << "c-rt:  " << r.phases.kernels_executed << " kernels, "
     << r.phases.xmr_executed << " xmr; phases[cyc]: preamble="
     << r.phases.preamble << " sched=" << r.phases.scheduling
     << " alloc=" << r.phases.allocation << " compute=" << r.phases.compute
     << " writeback=" << r.phases.writeback << "; renames="
     << r.phases.renames << " forwarded_rows=" << r.phases.writebacks_elided
     << "\n";
  if (r.host_cycles > 0) {
    const double busy = 100.0 * static_cast<double>(r.phases.ecpu_busy) /
                        static_cast<double>(r.host_cycles);
    os << "ecpu:  busy " << r.phases.ecpu_busy << " cycles (" << busy
       << "% — remainder in C-RT deep sleep)\n";
  }
  os << "dma:   " << r.dma.descriptors << " descriptors, "
     << r.dma.bytes_from_external << "B ext->vpu, " << r.dma.bytes_from_cache
     << "B cache->vpu, " << r.dma.bytes_to_cache << "B vpu->cache, "
     << r.dma.bytes_to_external << "B ->ext, busy " << r.dma.busy_cycles
     << " cycles\n";
  os << "vpu:   " << r.vpu_instructions << " instructions, "
     << r.vpu_elements << " elements, " << r.vpu_macs << " MACs, busy "
     << r.vpu_busy_cycles << " cycles";
  if (r.effective_gops > 0) {
    os << " (" << r.effective_gops << " effective GOPS)";
  }
  os << "\n";
  return os;
}

}  // namespace arcane
