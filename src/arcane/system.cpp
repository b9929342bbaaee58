#include "arcane/system.hpp"

#include <cstring>
#include <sstream>

#include "common/bits.hpp"
#include "cpu/run_loop.hpp"

namespace arcane {

System::System(SystemConfig cfg, crt::KernelLibrary library) : cfg_(cfg) {
  cfg_.validate();
  ext_ = std::make_unique<mem::MainMemory>(cfg_.mem.data_base,
                                           cfg_.mem.data_bytes, cfg_.mem);
  imem_ = std::make_unique<mem::InstructionMemory>(cfg_.mem.imem_base,
                                                   cfg_.mem.imem_bytes);
  storage_ = std::make_unique<vpu::LineStorage>(cfg_.llc);
  dma_ = std::make_unique<dma::DmaEngine>(cfg_.mem);
  dma_->set_backend(&ext_->backend());
  vpus_.reserve(cfg_.llc.num_vpus);
  for (unsigned i = 0; i < cfg_.llc.num_vpus; ++i) {
    vpus_.emplace_back(cfg_.llc.vpu, i, *storage_);
  }
  llc_ = std::make_unique<llc::Llc>(cfg_, events_, *ext_, *dma_, *storage_);
  runtime_ = std::make_unique<crt::Runtime>(cfg_, events_, *llc_, *dma_,
                                            vpus_, std::move(library));
  sched_ = std::make_unique<sched::Scheduler>(*runtime_);
  qos_ = std::make_unique<qos::AdmissionController>(*sched_, events_,
                                                    cfg_.qos);
  bridge_ = std::make_unique<bridge::Bridge>(cfg_, *runtime_, *sched_);
  host_ = std::make_unique<cpu::HostCpu>(cfg_, *imem_, *this, bridge_.get());
  llc_->set_spans(&spans_);
  runtime_->set_spans(&spans_);
  bridge_->set_spans(&spans_);
  dma_->set_spans(&spans_);
  sched_->set_op_log(&op_log_);
  qos_->set_spans(&spans_);
  if (cfg_.fault.enabled) {
    injector_ = std::make_unique<fault::Injector>(cfg_.fault, events_);
    injector_->set_listener(sched_.get());
    injector_->set_spans(&spans_);
    sched_->set_injector(injector_.get());
    if (injector_->has_degrade_windows()) {
      ext_->backend().set_degrade(injector_.get());
    }
    injector_->arm();
  }
  bind_metrics();
}

void System::load_program(const std::vector<std::uint32_t>& words) {
  load_program(words, cfg_.mem.imem_base);
}

void System::load_program(const std::vector<std::uint32_t>& words, Addr base) {
  imem_->load(base, words);
  host_->invalidate_decode_cache();
  host_->reset(base, stack_top(), events_.now());
}

cpu::HostCpu::RunResult System::run(std::uint64_t max_instructions) {
  auto res = run_unchecked(max_instructions);
  if (res.reason != cpu::HaltReason::kEcall) {
    std::ostringstream os;
    os << "host program halted abnormally: " << halt_reason_name(res.reason)
       << " at pc=0x" << std::hex << res.pc;
    if (!bridge_->last_reject_reason().empty()) {
      os << " (last offload reject: " << bridge_->last_reject_reason() << ")";
    }
    throw Error(os.str());
  }
  return res;
}

cpu::HostCpu::RunResult System::run_unchecked(std::uint64_t max_instructions) {
  auto res = host_->run_on(*this, max_instructions);
  drain();
  return res;
}

void System::drain() { events_.run_all(); }

void System::write_bytes(Addr addr, std::span<const std::uint8_t> data) {
  sched_->materialize_deferred(
      addr, addr + static_cast<std::uint32_t>(data.size()));
  llc_->backdoor_write(addr, data.data(),
                       static_cast<std::uint32_t>(data.size()));
}

void System::read_bytes(Addr addr, std::span<std::uint8_t> out) {
  sched_->materialize_deferred(
      addr, addr + static_cast<std::uint32_t>(out.size()));
  llc_->backdoor_read(addr, out.data(), static_cast<std::uint32_t>(out.size()));
}

Cycle System::read_outside_data(Addr addr, unsigned bytes, void* out,
                                Cycle now) {
  const auto& m = cfg_.mem;
  if (range_within(addr, bytes, m.mmio_base, m.mmio_bytes)) {
    events_.run_until(now);
    // A narrow read takes its byte lanes of the word register holding it.
    const Addr off = addr - m.mmio_base;
    const std::uint32_t v = bridge_->mmio_read(off & ~3u) >> (8 * (off & 3));
    std::memcpy(out, &v, bytes);
    return now + 1;
  }
  throw Error("bus fault: read outside mapped regions");
}

Cycle System::write_outside_data(Addr addr, unsigned bytes, Cycle now) {
  const auto& m = cfg_.mem;
  if (range_within(addr, bytes, m.mmio_base, m.mmio_bytes)) {
    return now + 1;  // configuration writes are accepted and ignored
  }
  throw Error("bus fault: write outside mapped regions");
}

}  // namespace arcane
