#include "vpu/program_cache.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace arcane::vpu {

ProgramCache::Entry* ProgramCache::find(const ProgramKey& key,
                                        const VpuConfig& cfg, unsigned gap) {
  for (Entry& e : entries_) {
    if (e.key == key && e.gap == gap && e.cfg == cfg) return &e;
  }
  return nullptr;
}

ProgramCache::Entry& ProgramCache::prepare(const ProgramKey& key,
                                           const VpuConfig& cfg,
                                           unsigned gap) {
  if (emitted_.size() > room_) {
    room_ = emitted_.size();
    for (Entry& e : entries_) {
      e.src.reserve(room_);
      e.prog.reserve(room_);
    }
  }
  Entry* e = nullptr;
  if (entries_.size() < kCapacity) {
    if (entries_.empty()) entries_.reserve(kCapacity);
    e = &entries_.emplace_back();
    e->src.reserve(room_);
    e->prog.reserve(room_);
  } else {
    e = &*std::min_element(entries_.begin(), entries_.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.last_use < b.last_use;
                           });
  }
  e->key = key;
  e->cfg = cfg;
  e->gap = gap;
  e->src.assign(emitted_.begin(), emitted_.end());
  e->prog.prepare(emitted_, cfg, gap);
  return *e;
}

void ProgramCache::check(const Entry& e) const {
  ARCANE_ASSERT(emitted_ == e.src,
                "program key of kernel "
                    << unsigned(e.key.kernel)
                    << " names two instruction lists: " << e.src.size()
                    << " instructions cached, " << emitted_.size()
                    << " emitted");
}

}  // namespace arcane::vpu
