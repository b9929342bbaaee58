#include "llc/llc.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/log.hpp"

namespace arcane::llc {

Llc::Llc(const SystemConfig& cfg, sim::EventQueue& events,
         mem::MainMemory& ext, dma::DmaEngine& dma,
         vpu::LineStorage& storage)
    : cfg_(cfg),
      events_(&events),
      ext_(&ext),
      dma_(&dma),
      storage_(&storage),
      line_bytes_(cfg.llc.line_bytes()),
      line_shift_(static_cast<unsigned>(std::countr_zero(line_bytes_))),
      data_base_(cfg.mem.data_base),
      data_bytes_(cfg.mem.data_bytes),
      lines_(cfg.llc.num_lines()),
      index_(data_bytes_ >> line_shift_, -1),
      decay_countdown_(cfg.llc.lru_decay_period),
      policy_(make_replacement_strategy(cfg.llc, lines_)),
      stamps_(policy_->stamps()) {}

int Llc::find_victim(Addr incoming) {
  // Pass 1: any invalid line — free capacity beats any policy decision.
  for (unsigned i = 0; i < lines_.size(); ++i) {
    if (lines_[i].state == LineState::kInvalid) return static_cast<int>(i);
  }
  return policy_->find_victim(incoming);
}

std::uint32_t Llc::evict(unsigned idx) {
  Line& l = lines_[idx];
  std::uint32_t ext_bytes = 0;
  if (l.state == LineState::kClean || l.state == LineState::kDirty) {
    policy_->evict(idx, l.tag);
    if (l.state == LineState::kDirty) {
      auto data = storage_->line(idx);
      ext_->write(l.tag, data.data(), line_bytes_);
      ext_bytes = line_bytes_;
      ++stats_.writebacks;
    }
    index_slot(l.tag) = -1;
    ++stats_.evictions;
  }
  l.state = LineState::kInvalid;
  return ext_bytes;
}

Cycle Llc::refill(Addr base, Cycle t, Cycle& dma_wait) {
  int victim = find_victim(base);
  while (victim < 0) {
    // Every line is busy computing: forward progress requires a kernel
    // event (write-back/release) to run.
    ARCANE_CHECK(!events_->empty(),
                 "host starved: all cache lines busy computing and no "
                 "pending kernel events (deadlock)");
    const Cycle ev_t = events_->run_one();
    t = std::max(t, ev_t);
    victim = find_victim(base);
  }
  Cycle duration = 0;
  if (lines_[victim].state == LineState::kDirty) {
    // write-back burst
    duration += ext_->burst_cycles(lines_[victim].tag, line_bytes_);
  }
  evict(static_cast<unsigned>(victim));
  duration += ext_->burst_cycles(base, line_bytes_);  // refill burst

  const Cycle start = dma_->reserve(t, duration);
  dma_wait = start - t;

  Line& l = lines_[victim];
  l.state = LineState::kClean;
  l.tag = base;
  l.owner_uid = 0;
  index_slot(base) = static_cast<std::int16_t>(victim);
  policy_->fill(static_cast<unsigned>(victim), base);
  ext_->read(base, storage_->line(static_cast<unsigned>(victim)).data(),
             line_bytes_);
  ++stats_.refills;
  ++stats_.misses;
  if (spans_ != nullptr) {
    spans_->span(telemetry::kTrackLlc, "llc.refill", t, start + duration,
                 /*tenant=*/-1, /*job=*/-1, /*arg=*/base);
  }
  return start + duration;
}

Cycle Llc::resolve_stalls(Addr addr, unsigned bytes, bool is_write, Cycle t) {
  for (;;) {
    events_->run_until(t);
    if (locked_until_ > t) {
      stats_.stalls.lock += locked_until_ - t;
      t = locked_until_;
      continue;
    }
    const AtEntry* block = at_.blocking(addr, bytes, is_write);
    if (block == nullptr) return t;
    // Execute the next kernel event; one of them releases the entry.
    ARCANE_CHECK(!events_->empty(),
                 "host blocked on AT range [0x"
                     << std::hex << block->lo << ", 0x" << block->hi
                     << ") with no pending kernel events (deadlock)");
    const Cycle before = t;
    t = std::max(t, events_->run_one());
    (block->is_dest ? stats_.stalls.at_dest : stats_.stalls.at_source) +=
        t - before;
  }
}

void Llc::reject_host_access(Addr addr, unsigned bytes) const {
  ARCANE_ASSERT(bytes >= 1 && bytes <= 4, "host access size " << bytes);
  ARCANE_ASSERT((addr & (line_bytes_ - 1)) + bytes <= line_bytes_,
                "host access crosses a cache line");
}

Llc::HostResult Llc::host_access(Addr addr, unsigned bytes, bool is_write,
                                 void* data, Cycle now) {
  check_host_access(addr, bytes);
  if (--decay_countdown_ == 0) {
    decay_countdown_ = cfg_.llc.lru_decay_period;
    policy_->decay();
  }
  if (is_write) {
    ++stats_.writes;
  } else {
    ++stats_.reads;
  }
  // Pre-resolution hook: lets the scheduler materialize deferred (elided)
  // write-backs whose AT entries would otherwise block this access forever.
  if (host_observer != nullptr) {
    host_observer->on_host_access(addr, bytes, is_write);
  }

  Cycle t = now;
  if (locked_until_ > t || at_.any_active() || !events_->empty()) {
    t = resolve_stalls(addr, bytes, is_write, t);
  }
  // Post-resolution hook: kernels that completed *during* the stall drain
  // may have left elided residents; a write must invalidate them before the
  // data lands.
  if (host_observer != nullptr) {
    host_observer->on_host_access(addr, bytes, is_write);
  }

  const Addr base = line_base(addr);
  int idx = lookup(base);
  HostResult res;
  if (idx >= 0) {
    ++stats_.hits;
    res.hit = true;
    res.complete_at = t + cfg_.llc.hit_latency;
    policy_->touch(static_cast<unsigned>(idx), base);
  } else {
    // The refill already reported the install via ReplacementStrategy::fill;
    // a second touch here would double-count the reference (it would, e.g.,
    // promote an ARC line from T1 straight into T2 on first use).
    Cycle dma_wait = 0;
    const Cycle done = refill(base, t, dma_wait);
    stats_.stalls.dma_contention += dma_wait;
    stats_.stalls.miss += done - t - dma_wait;
    idx = lookup(base);
    ARCANE_ASSERT(idx >= 0, "refill failed to install line");
    res.hit = false;
    res.complete_at = done + cfg_.llc.hit_latency;
  }

  move_datum(static_cast<unsigned>(idx), addr - base, bytes, is_write, data);
  return res;
}

void Llc::lock_until(Cycle t) { locked_until_ = std::max(locked_until_, t); }

dma::TransferCost Llc::claim_line(unsigned vpu, unsigned vreg,
                                  std::uint64_t uid) {
  const unsigned idx = storage_->line_of(vpu, vreg);
  Line& l = lines_[idx];
  dma::TransferCost cost;
  if (l.state == LineState::kBusy) {
    ARCANE_ASSERT(l.owner_uid == uid, "line " << idx
                                              << " busy with another kernel");
    return cost;  // already ours
  }
  if (l.state == LineState::kDirty) {
    cost.ext_bytes = line_bytes_;
    cost.ext_bursts = 1;
  }
  evict(idx);
  l.state = LineState::kBusy;
  l.owner_uid = uid;
  ++stats_.kernel_line_claims;
  return cost;
}

void Llc::release_kernel_lines(std::uint64_t uid, std::uint32_t vpus,
                               unsigned vregs) {
  for (; vpus != 0; vpus &= vpus - 1) {
    const auto vpu = static_cast<unsigned>(std::countr_zero(vpus));
    for (unsigned v = 0; v < vregs; ++v) {
      Line& l = lines_[storage_->line_of(vpu, v)];
      if (l.state == LineState::kBusy && l.owner_uid == uid) {
        l.state = LineState::kInvalid;
        l.owner_uid = 0;
      }
    }
  }
}

bool Llc::line_is_busy(unsigned vpu, unsigned vreg) const {
  return lines_[storage_->line_of(vpu, vreg)].state == LineState::kBusy;
}

unsigned Llc::lines_in_vpu(unsigned vpu, LineState state) const {
  const unsigned per = cfg_.llc.vpu.num_vregs;
  unsigned count = 0;
  for (unsigned v = 0; v < per; ++v) {
    if (lines_[vpu * per + v].state == state) ++count;
  }
  return count;
}

dma::TransferCost Llc::read_range(Addr addr, std::span<std::uint8_t> out) {
  dma::TransferCost cost;
  std::uint32_t done = 0;
  const auto len = static_cast<std::uint32_t>(out.size());
  bool any_ext = false, any_cache = false;
  while (done < len) {
    const Addr a = addr + done;
    const Addr base = line_base(a);
    const std::uint32_t off = a - base;
    const std::uint32_t chunk = std::min(len - done, line_bytes_ - off);
    const int idx = lookup(base);
    if (idx >= 0) {
      std::memcpy(out.data() + done, storage_->line(idx).data() + off, chunk);
      cost.cache_bytes += chunk;
      any_cache = true;
    } else {
      ext_->read(a, out.data() + done, chunk);
      cost.ext_bytes += chunk;
      any_ext = true;
    }
    done += chunk;
  }
  if (any_ext) cost.ext_bursts = 1;      // one 2D-DMA row burst
  if (any_cache) cost.int_segments = 1;  // one on-chip row segment
  return cost;
}

dma::TransferCost Llc::write_range(Addr addr,
                                   std::span<const std::uint8_t> in) {
  dma::TransferCost cost;
  std::uint32_t done = 0;
  const auto len = static_cast<std::uint32_t>(in.size());
  bool any_ext = false, any_cache = false;
  while (done < len) {
    const Addr a = addr + done;
    const Addr base = line_base(a);
    const std::uint32_t off = a - base;
    const std::uint32_t chunk = std::min(len - done, line_bytes_ - off);
    int idx = lookup(base);
    if (idx < 0) {
      // Fetch-on-write: allocate and (for partial coverage) fetch the line.
      const int victim = find_victim(base);
      if (victim < 0) {
        // Every line is busy computing — degrade to an external write.
        ext_->write(a, in.data() + done, chunk);
        cost.ext_bytes += chunk;
        any_ext = true;
        done += chunk;
        continue;
      }
      cost.ext_bytes += evict(static_cast<unsigned>(victim));
      Line& l = lines_[victim];
      l.state = LineState::kClean;
      l.tag = base;
      index_slot(base) = static_cast<std::int16_t>(victim);
      policy_->fill(static_cast<unsigned>(victim), base);
      if (chunk != line_bytes_) {
        ext_->read(base, storage_->line(victim).data(), line_bytes_);
        cost.ext_bytes += line_bytes_;
        any_ext = true;
      }
      ++stats_.refills;
      idx = victim;
    }
    std::memcpy(storage_->line(idx).data() + off, in.data() + done, chunk);
    lines_[idx].state = LineState::kDirty;
    cost.cache_bytes += chunk;
    any_cache = true;
    done += chunk;
  }
  if (any_ext) cost.ext_bursts = 1;
  if (any_cache) cost.int_segments = 1;
  return cost;
}

void Llc::backdoor_read(Addr addr, void* out, std::uint32_t len) {
  read_range(addr, {static_cast<std::uint8_t*>(out), len});
}

void Llc::backdoor_write(Addr addr, const void* in, std::uint32_t len) {
  const auto* p = static_cast<const std::uint8_t*>(in);
  std::uint32_t done = 0;
  while (done < len) {
    const Addr a = addr + done;
    const Addr base = line_base(a);
    const std::uint32_t off = a - base;
    const std::uint32_t chunk = std::min(len - done, line_bytes_ - off);
    const int idx = lookup(base);
    if (idx >= 0) {
      std::memcpy(storage_->line(idx).data() + off, p + done, chunk);
      lines_[idx].state = LineState::kDirty;
    } else {
      ext_->write(a, p + done, chunk);
    }
    done += chunk;
  }
}

void Llc::flush_all() {
  for (unsigned i = 0; i < lines_.size(); ++i) {
    Line& l = lines_[i];
    if (l.state == LineState::kDirty) {
      ext_->write(l.tag, storage_->line(i).data(), line_bytes_);
      l.state = LineState::kClean;
      ++stats_.writebacks;
    }
  }
}

void Llc::invalidate_all() {
  flush_all();
  for (Line& l : lines_) {
    if (l.state == LineState::kClean) {
      index_slot(l.tag) = -1;
      l = Line{};
    }
  }
  // Adaptive strategies drop their resident/ghost directories; the legacy
  // strategies keep their counters, matching the pre-strategy controller.
  policy_->reset();
}

}  // namespace arcane::llc
