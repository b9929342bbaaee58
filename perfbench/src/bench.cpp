#include "bench.hpp"

#include <algorithm>
#include <cstdio>

#include "arcane/system.hpp"

namespace perfbench {

namespace {

struct CalibInsn {
  std::uint8_t op, rd, rs1, rs2;
  std::int32_t imm;
};

[[gnu::noinline]] std::uint32_t interpret(const std::vector<CalibInsn>& code,
                                          std::vector<std::uint32_t>& mem,
                                          std::uint64_t steps) {
  std::uint32_t r[8] = {};
  const std::size_t mask = mem.size() - 1;
  std::size_t pc = 0;
  for (std::uint64_t s = 0; s < steps; ++s) {
    const CalibInsn& i = code[pc++];
    switch (i.op) {
      case 0: r[i.rd] = r[i.rs1] + r[i.rs2]; break;
      case 1: r[i.rd] = r[i.rs1] + static_cast<std::uint32_t>(i.imm); break;
      case 2: r[i.rd] = r[i.rs1] ^ (r[i.rs2] >> 3); break;
      case 3: r[i.rd] = mem[(r[i.rs1] + i.imm) & mask]; break;
      case 4: mem[(r[i.rs1] + i.imm) & mask] = r[i.rs2]; break;
      case 5:
        if (r[i.rs1] & 1) pc = static_cast<std::size_t>(i.imm);
        break;
      case 6: r[i.rd] = r[i.rs1] * r[i.rs2]; break;
      default: pc = 0; break;
    }
    if (pc >= code.size()) pc = 0;
  }
  return r[1] ^ r[2];
}

}  // namespace

std::int64_t calibration_ns() {
  static const std::vector<CalibInsn> code = {
      {1, 1, 1, 0, 7}, {3, 2, 1, 0, 5},  {0, 3, 2, 1, 0}, {2, 4, 3, 2, 0},
      {4, 0, 1, 4, 3}, {6, 5, 4, 3, 0},  {5, 0, 5, 0, 0}, {1, 6, 6, 0, 1},
      {3, 7, 6, 0, 11}, {0, 1, 1, 7, 0}, {2, 2, 2, 1, 0}, {4, 0, 2, 5, 1},
      {7, 0, 0, 0, 0}};
  static std::vector<std::uint32_t> mem(1u << 16, 1);
  static volatile std::uint32_t sink = 0;
  const std::int64_t begin = now_ns();
  sink = sink + interpret(code, mem, 1'000'000);
  return now_ns() - begin;
}

bool Tracer::write(const std::string& path, std::size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(max_spans, spans_.size());
  // Spans are stored as they close (children first): find the earliest
  // start for the trace origin.
  std::int64_t first = spans_.empty() ? 0 : spans_.front().begin_ns;
  for (const Span& s : spans_) first = s.begin_ns < first ? s.begin_ns : first;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"item\":%lld}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.begin_ns - first) / 1e3,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1e3, s.id,
                 s.parent, static_cast<long long>(s.item));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void collect_counters(arcane::System& sys, std::uint64_t sim_cycles,
                      Counters& c) {
  using arcane::sim::StallBucket;
  const auto& cpu = sys.host().stats();
  c["cpu.instructions"] += cpu.instructions;
  c["cpu.loads"] += cpu.loads;
  c["cpu.stores"] += cpu.stores;
  c["cpu.simd_ops"] += cpu.simd_ops;
  c["cpu.hw_loop_iterations"] += cpu.hw_loop_iterations;
  c["cpu.stall_cycles"] += cpu.stall_cycles;

  const auto& llc = sys.llc().stats();
  c["llc.accesses"] += llc.hits + llc.misses;
  c["llc.hits"] += llc.hits;
  c["llc.refills"] += llc.refills;
  c["llc.writebacks"] += llc.writebacks;
  c["llc.kernel_line_claims"] += llc.kernel_line_claims;
  c["llc.stall_cycles"] += llc.stalls.total();

  const auto& dma = sys.dma().stats();
  c["dma.descriptors"] += dma.descriptors;
  c["dma.bytes_from_external"] += dma.bytes_from_external;
  c["dma.busy_cycles"] += dma.busy_cycles;
  c["mem.bursts"] += sys.mem_backend().stats().bursts;

  for (const auto& vu : sys.vpus()) {
    c["vpu.instructions"] += vu.stats().instructions;
    c["vpu.macs"] += vu.stats().macs;
    c["vpu.busy_cycles"] += vu.stats().busy_cycles;
  }
  c["vpu.capacity_cycles"] += sys.vpus().size() * sim_cycles;

  const auto& ph = sys.runtime().phases();
  c["crt.kernels"] += ph.kernels_executed;
  c["crt.preamble_cycles"] += ph.preamble;
  c["crt.allocation_cycles"] += ph.allocation;
  c["crt.compute_cycles"] += ph.compute;
  c["crt.writeback_cycles"] += ph.writeback;
  c["crt.writebacks_elided"] += ph.writebacks_elided;
  c["crt.ecpu_busy_cycles"] += ph.ecpu_busy;

  auto& sch = sys.scheduler();
  const auto& ss = sch.stats();
  c["sched.ops_dispatched"] += ss.ops_dispatched;
  c["sched.ops_completed"] += ss.ops_completed;
  c["sched.hazard_deferrals"] += ss.hazard_deferrals;
  c["sched.queue_wait_cycles"] += ss.total_queue_wait;
  for (const auto occupied : ss.instance_occupied) {
    c["sched.occupied_cycles"] += occupied;
  }
  c["sched.capacity_cycles"] += sch.num_instances() * ss.makespan;

  for (unsigned b = 0; b < arcane::sim::kNumStallBuckets; ++b) {
    const std::string bucket =
        arcane::sim::stall_bucket_name(static_cast<StallBucket>(b));
    c["crt.stall." + bucket] += sys.runtime().stall_totals().cycles[b];
    c["sched.stall." + bucket] += sch.stall_totals().cycles[b];
  }
  c["sim.events_executed"] += sys.events().executed();
}

}  // namespace perfbench
