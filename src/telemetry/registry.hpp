// Deterministic metrics registry: a read-only, named index over the stats
// structs the simulated layers already keep (cpu/vpu/llc/dma/mem/crt/sched/
// qos/fault). The registry owns no counters. It holds *groups*, each made of
//
//   * a prefix ("llc.", or "sched.tenant<i>." for one group per tenant),
//   * a getter that reads the struct when the registry is read, and
//   * a field table of {name, reader} entries for that struct.
//
// The field tables and the one place that binds them (arcane::System) live
// in src/arcane/metrics.cpp, so every metric name is written once. A group
// with `<i>` in its prefix reads its instance count at snapshot time, so
// tenants added after construction appear without any hook.
//
// Snapshots are name-sorted, so two identical runs produce byte-identical
// metric dumps — the same determinism contract the simulator itself is
// gated on.
#ifndef ARCANE_TELEMETRY_REGISTRY_HPP_
#define ARCANE_TELEMETRY_REGISTRY_HPP_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace arcane::telemetry {

/// One named field of the stats struct S.
template <class S>
struct Field {
  const char* name;
  std::uint64_t (*read)(const S&);
};

/// Field reader of the integer data member M: `member<&CacheStats::hits>`.
/// S is deduced from the Field it initializes, so a member inherited from
/// a base struct reads through the derived one.
template <auto M, class S>
std::uint64_t member(const S& s) {
  return s.*M;
}

/// Name → value index over bound groups. Naming scheme
/// (docs/OBSERVABILITY.md): dotted lowercase `layer.metric`, per-tenant
/// entries as `layer.tenant<i>.metric`, per-VPU ones as `vpu<i>.metric`.
class Registry {
 public:
  using Entries = std::vector<std::pair<std::string, std::uint64_t>>;

  /// Expose `table` under `prefix`, read from the struct `get()` returns
  /// when the registry is read. The table must outlive the registry.
  template <class Get, class S, std::size_t N>
  void add(std::string prefix, Get get,
           const std::array<Field<S>, N>& table) {
    add_indexed(std::move(prefix), [] { return 1u; },
                [get](unsigned) { return get(); }, table);
  }

  /// One group instance per index in [0, count()), read from get(i); the
  /// `<i>` in `prefix` is replaced by the index.
  template <class Count, class Get, class S, std::size_t N>
  void add_indexed(std::string prefix, Count count, Get get,
                   const std::array<Field<S>, N>& table) {
    groups_.push_back(
        {std::move(prefix), std::move(count),
         [get, &table](unsigned i, const std::string& p, Entries& out) {
           const S& s = get(i);
           for (const Field<S>& f : table) {
             out.emplace_back(p + f.name, f.read(s));
           }
         }});
  }

  /// Current value of `name` (0 when unknown).
  std::uint64_t value(const std::string& name) const;

  /// Every entry in name order.
  Entries snapshot() const;

  /// Deterministic JSON dump: {"scalars": {name: value, ...}}.
  void write_json(std::ostream& os) const;

 private:
  struct Group {
    std::string prefix;
    std::function<unsigned()> count;
    std::function<void(unsigned, const std::string&, Entries&)> read;
  };

  /// Every entry, in group order.
  Entries collect() const;

  std::vector<Group> groups_;
};

}  // namespace arcane::telemetry

#endif  // ARCANE_TELEMETRY_REGISTRY_HPP_
