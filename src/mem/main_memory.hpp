// External memory behind the LLC (flash / pseudo-static RAM in the paper's
// X-HEEP platform, §III). Functional backing store; burst timing is
// delegated to the pluggable MemBackend selected by MemConfig::backend
// (ideal SRAM / burst PSRAM / DRAM-timing — see mem/backend.hpp).
#ifndef ARCANE_MEM_MAIN_MEMORY_HPP_
#define ARCANE_MEM_MAIN_MEMORY_HPP_

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define ARCANE_MEM_HAVE_MMAP 1
#endif

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/backend.hpp"

namespace arcane::mem {

class MainMemory {
 public:
  // The backing store is anonymous-mmap'd (calloc on non-POSIX), not a
  // value-initialized vector: the OS hands back lazily-mapped zero pages,
  // so constructing an 8 MiB external memory costs microseconds instead of
  // a full memset — which matters for sweeps that build one System per
  // configuration cell. (mmap, not calloc, because glibc's dynamic
  // mmap-threshold adaptation would route repeated alloc/free cycles of
  // the same size through the heap, where calloc must memset.) Reads of
  // untouched memory still deterministically return zero.
  MainMemory(Addr base, std::uint32_t size_bytes, const MemConfig& cfg)
      : base_(base),
        size_(size_bytes),
        data_(zero_pages(size_bytes), Unmapper{size_bytes}),
        cfg_(cfg),
        backend_(make_backend(cfg)) {
    ARCANE_CHECK(data_ != nullptr || size_bytes == 0,
                 "external memory allocation failed (" << size_bytes
                                                       << " bytes)");
  }

  Addr base() const { return base_; }
  std::uint32_t size() const { return size_; }

  bool contains(Addr addr, std::uint32_t len) const {
    return range_within(addr, len, base_, size_);
  }

  void read(Addr addr, void* out, std::uint32_t len) const {
    bounds_check(addr, len);
    std::memcpy(out, data_.get() + (addr - base_), len);
  }

  void write(Addr addr, const void* in, std::uint32_t len) {
    bounds_check(addr, len);
    std::memcpy(data_.get() + (addr - base_), in, len);
  }

  template <typename T>
  T read_scalar(Addr addr) const {
    T v;
    read(addr, &v, sizeof(T));
    return v;
  }

  template <typename T>
  void write_scalar(Addr addr, T v) {
    write(addr, &v, sizeof(T));
  }

  /// Cycles to transfer one burst of `bytes` starting at `addr`, as priced
  /// by the configured backend (stateful for DRAM row buffers).
  Cycle burst_cycles(Addr addr, std::uint32_t bytes) {
    return backend_->burst_cycles(addr, bytes);
  }

  MemBackend& backend() { return *backend_; }
  const MemBackend& backend() const { return *backend_; }

  /// Raw pointer view for tests/golden comparisons (const only).
  const std::uint8_t* raw() const { return data_.get(); }

 private:
  void bounds_check(Addr addr, std::uint32_t len) const {
    ARCANE_CHECK(contains(addr, len),
                 "external memory access out of range: addr=0x"
                     << std::hex << addr << " len=" << std::dec << len);
  }

  static std::uint8_t* zero_pages(std::uint32_t bytes) {
    if (bytes == 0) return nullptr;
#ifdef ARCANE_MEM_HAVE_MMAP
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? nullptr : static_cast<std::uint8_t*>(p);
#else
    return static_cast<std::uint8_t*>(std::calloc(bytes, 1));
#endif
  }
  struct Unmapper {
    std::uint32_t bytes = 0;
    void operator()(std::uint8_t* p) const {
      if (p == nullptr) return;
#ifdef ARCANE_MEM_HAVE_MMAP
      ::munmap(p, bytes);
#else
      std::free(p);
#endif
    }
  };

  Addr base_;
  std::uint32_t size_;
  std::unique_ptr<std::uint8_t[], Unmapper> data_;
  MemConfig cfg_;
  std::unique_ptr<MemBackend> backend_;
};

}  // namespace arcane::mem

#endif  // ARCANE_MEM_MAIN_MEMORY_HPP_
