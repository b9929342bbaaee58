// Declarative bench-harness API: the knob registry and the sweep grid.
//
// Every schema-v2 bench binary builds a `Harness`, registers any
// bench-local knobs (sweep filters such as --dtype or --scenario) and
// declares its sweep as an enumerable grid of cells, then calls
// `Harness::parse`. The harness owns everything the benches used to
// hand-roll per binary:
//
//  * KnobSpec registry — one entry per CLI knob: name, `--flag`,
//    `ARCANE_BENCH_*` env fallback, allowed values and a doc line. Usage
//    text, the env-var table (`--list-knobs`) and all parsing/rejection
//    come from the registry; unknown flags and invalid values are hard
//    errors (exit 2) in every bench.
//  * GridSpec — the bench's sweep dimensions as an ordered list of cells,
//    each a set of knob bindings. `--list-cells` prints the stable cell
//    ids + bindings as JSON; `--cell=<id>` runs exactly one cell by
//    binding its knobs before the bench's own loops run.
//
// The contract that makes sharding byte-exact: a bench must emit the rows
// of cell k as a contiguous block, and the blocks must appear in grid
// enumeration order — then concatenating per-cell `--json` fragments in
// `--list-cells` order reproduces the serial `--json` document byte for
// byte (scripts/sweep_runner.py relies on this, and CI verifies it in
// `--deterministic` mode, which zeroes the machine-dependent wall-clock
// trend fields).
//
// Grid enumeration honours knobs already bound by env or flags: a cell
// whose bindings conflict with a bound knob is dropped, and a product
// dimension over a bound knob collapses to the bound value — so
// `ARCANE_BENCH_BACKEND=psram <bench> --list-cells` lists exactly the
// cells a serial run with that env would emit.
#ifndef ARCANE_BENCH_GRID_HPP_
#define ARCANE_BENCH_GRID_HPP_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "mem/backend.hpp"

namespace arcane::benchjson {

/// Set by Harness::parse when --deterministic / ARCANE_BENCH_DETERMINISTIC
/// is on: WallTimer then reports 0.0 so every wall-clock trend field
/// (host_wall_ms, *_per_host_sec) is byte-stable across machines and runs.
inline bool g_deterministic = false;

/// One CLI knob: a bare flag (--json), a choice knob with an enumerated
/// value set (--backend=ideal|psram|dram), or a free-form string knob
/// (--trace-out=<path>). `env` is the ARCANE_BENCH_* fallback
/// ("" = CLI-only). String knobs never participate in sweep grids — they
/// name outputs, not sweep dimensions.
struct KnobSpec {
  enum class Kind { kFlag, kChoice, kString };

  std::string name;                 // registry key and cell-binding key
  std::string flag;                 // "--backend"
  std::string env;                  // "ARCANE_BENCH_BACKEND" or ""
  Kind kind = Kind::kChoice;
  std::vector<std::string> values;  // allowed values (kChoice only)
  std::string doc;                  // one-line usage/doc text

  std::string value;                // current binding ("on" for set flags)
  bool set = false;

  bool allows(const std::string& v) const {
    if (kind == Kind::kFlag) return v == "on" || v == "off";
    if (kind == Kind::kString) return true;
    for (const auto& a : values) {
      if (a == v) return true;
    }
    return false;
  }
};

/// The knob registry: declaration order is the usage/doc order. Parsing,
/// env fallback, usage text and the --list-knobs document all derive from
/// it, so a new knob is a one-place change.
class KnobRegistry {
 public:
  KnobSpec& add_flag(const std::string& name, const std::string& flag,
                     const std::string& env, const std::string& doc) {
    KnobSpec& k = knobs_.emplace_back();
    k.name = name;
    k.flag = flag;
    k.env = env;
    k.kind = KnobSpec::Kind::kFlag;
    k.doc = doc;
    return k;
  }

  KnobSpec& add_choice(const std::string& name, const std::string& flag,
                       const std::string& env,
                       std::vector<std::string> values,
                       const std::string& doc) {
    KnobSpec& k = knobs_.emplace_back();
    k.name = name;
    k.flag = flag;
    k.env = env;
    k.kind = KnobSpec::Kind::kChoice;
    k.values = std::move(values);
    k.doc = doc;
    return k;
  }

  KnobSpec& add_string(const std::string& name, const std::string& flag,
                       const std::string& env, const std::string& doc) {
    KnobSpec& k = knobs_.emplace_back();
    k.name = name;
    k.flag = flag;
    k.env = env;
    k.kind = KnobSpec::Kind::kString;
    k.doc = doc;
    return k;
  }

  const std::deque<KnobSpec>& all() const { return knobs_; }

  KnobSpec* find(const std::string& name) {
    for (auto& k : knobs_) {
      if (k.name == name) return &k;
    }
    return nullptr;
  }
  const KnobSpec* find(const std::string& name) const {
    return const_cast<KnobRegistry*>(this)->find(name);
  }

  /// Bind a knob by name, validating the value. Overrides any earlier
  /// binding (flags override env, cell bindings override both).
  bool bind(const std::string& name, const std::string& value,
            std::string* err) {
    KnobSpec* k = find(name);
    if (k == nullptr) {
      *err = "unknown knob '" + name + "'";
      return false;
    }
    if (!k->allows(value)) {
      *err = "bad value '" + value + "' for " + k->flag + " (allowed: " +
             allowed_text(*k) + ")";
      return false;
    }
    k->value = value;
    k->set = true;
    return true;
  }

  /// Apply ARCANE_BENCH_* env fallbacks. Flag knobs accept the loose
  /// truthiness the old harness used (unset/0/false/empty = off); choice
  /// knobs reject invalid values as hard errors, same as flags do.
  bool read_env(std::string* err) {
    for (auto& k : knobs_) {
      if (k.env.empty()) continue;
      const char* v = std::getenv(k.env.c_str());
      if (v == nullptr) continue;
      if (k.kind == KnobSpec::Kind::kFlag) {
        const bool on = *v != '\0' && std::strcmp(v, "0") != 0 &&
                        std::strcmp(v, "false") != 0;
        if (on) {
          k.value = "on";
          k.set = true;
        }
        continue;
      }
      if (!k.allows(v)) {
        *err = "bad " + k.env + " '" + v + "' (allowed: " + allowed_text(k) +
               ")";
        return false;
      }
      k.value = v;
      k.set = true;
    }
    return true;
  }

  /// Parse one command-line argument against the registry. Returns false
  /// with *err set on an invalid value; *matched reports whether any knob
  /// claimed the argument.
  bool parse_arg(const std::string& arg, bool* matched, std::string* err) {
    *matched = false;
    for (auto& k : knobs_) {
      if (k.kind == KnobSpec::Kind::kFlag) {
        if (arg == k.flag) {
          k.value = "on";
          k.set = true;
          *matched = true;
          return true;
        }
        continue;
      }
      const std::string prefix = k.flag + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *matched = true;
        return bind(k.name, arg.substr(prefix.size()), err);
      }
    }
    return true;
  }

  std::string usage_text(const char* argv0) const {
    std::string out = "usage: ";
    out += argv0;
    out += " [flags]\n\nknobs (flags override ARCANE_BENCH_* env):\n";
    for (const auto& k : knobs_) {
      std::string lhs = "  " + k.flag;
      if (k.kind != KnobSpec::Kind::kFlag) {
        lhs += '=';
        lhs += allowed_text(k);
      }
      out += lhs + "\n      " + k.doc;
      if (!k.env.empty()) out += " [env: " + k.env + "]";
      out += "\n";
    }
    out +=
        "  --list-cells\n      print the sweep grid (stable cell ids + knob "
        "bindings) as JSON\n"
        "  --cell=<id>\n      run exactly one grid cell (see --list-cells)\n"
        "  --list-knobs\n      print this knob registry as JSON\n"
        "  --help\n      this text\n";
    return out;
  }

  /// The --list-knobs document: the registry as JSON (the knob table in
  /// docs/BENCHMARKS.md is generated from this via sweep_runner.py).
  std::string knobs_json(const std::string& bench) const {
    std::string out = "{\"schema_version\": 2, \"bench\": \"" +
                      json_escape(bench) + "\", \"knobs\": [\n";
    for (std::size_t i = 0; i < knobs_.size(); ++i) {
      const KnobSpec& k = knobs_[i];
      out += "  {\"name\": \"" + json_escape(k.name) + "\", \"flag\": \"" +
             json_escape(k.flag) + "\", \"env\": ";
      out += k.env.empty() ? "null" : "\"" + json_escape(k.env) + "\"";
      out += ", \"kind\": \"";
      out += k.kind == KnobSpec::Kind::kFlag     ? "flag"
             : k.kind == KnobSpec::Kind::kString ? "string"
                                                 : "choice";
      out += "\", \"values\": ";
      if (k.kind != KnobSpec::Kind::kChoice) {
        out += "null";
      } else {
        out += "[";
        for (std::size_t j = 0; j < k.values.size(); ++j) {
          if (j > 0) out += ", ";
          out += "\"" + json_escape(k.values[j]) + "\"";
        }
        out += "]";
      }
      out += ", \"doc\": \"" + json_escape(k.doc) + "\"}";
      out += i + 1 < knobs_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
  }

  static std::string allowed_text(const KnobSpec& k) {
    if (k.kind == KnobSpec::Kind::kFlag) return "on|off";
    if (k.kind == KnobSpec::Kind::kString) return "<value>";
    std::string out;
    for (std::size_t i = 0; i < k.values.size(); ++i) {
      if (i > 0) out += "|";
      out += k.values[i];
    }
    return out;
  }

 private:
  std::deque<KnobSpec> knobs_;  // deque: stable references from add_*()
};

/// One knob binding inside a cell.
struct CellBinding {
  std::string knob;
  std::string value;
};

/// One grid cell: the knob bindings that select its row block. The id is
/// the stable external name ("backend=psram,dtype=int8"; "default" for the
/// empty cell of single-cell benches).
struct Cell {
  std::vector<CellBinding> bindings;

  std::string id() const {
    if (bindings.empty()) return "default";
    std::string out;
    for (std::size_t i = 0; i < bindings.size(); ++i) {
      if (i > 0) out += ",";
      out += bindings[i].knob + "=" + bindings[i].value;
    }
    return out;
  }
};

/// One product dimension: a knob plus the values to sweep (empty = every
/// allowed value of the knob, in registry order).
struct GridDim {
  std::string knob;
  std::vector<std::string> values;
};

/// The bench's sweep grid: an ordered list of cells built from explicit
/// cells and cartesian product blocks (later dimensions vary fastest,
/// matching the bench's nested loops). Enumeration order is the contract
/// with the serial row order — see the header comment.
class GridSpec {
 public:
  void add_cell(std::vector<CellBinding> bindings) {
    Block& b = blocks_.emplace_back();
    b.product = false;
    b.cell = std::move(bindings);
  }

  void add_product(std::vector<GridDim> dims) {
    Block& b = blocks_.emplace_back();
    b.product = true;
    b.dims = std::move(dims);
  }

  /// Enumerate the cells compatible with the registry's current bindings.
  /// A bench with no declared grid is a single-cell grid ("default").
  std::vector<Cell> enumerate(const KnobRegistry& reg) const {
    std::vector<Cell> cells;
    if (blocks_.empty()) {
      cells.emplace_back();
      return cells;
    }
    for (const Block& b : blocks_) {
      if (!b.product) {
        bool ok = true;
        for (const CellBinding& bind : b.cell) {
          const KnobSpec* k = reg.find(bind.knob);
          if (k == nullptr || (k->set && k->value != bind.value)) {
            ok = false;
            break;
          }
        }
        if (ok) cells.push_back(Cell{b.cell});
        continue;
      }
      // Cartesian product, last dimension fastest. A dimension over a
      // bound knob collapses to the bound value (or to nothing when the
      // bound value is outside the dimension).
      std::vector<std::vector<std::string>> axes;
      bool empty = false;
      for (const GridDim& d : b.dims) {
        const KnobSpec* k = reg.find(d.knob);
        if (k == nullptr) {
          empty = true;
          break;
        }
        std::vector<std::string> vals =
            d.values.empty() ? k->values : d.values;
        if (k->set) {
          bool in = false;
          for (const auto& v : vals) in = in || v == k->value;
          vals = in ? std::vector<std::string>{k->value}
                    : std::vector<std::string>{};
        }
        if (vals.empty()) {
          empty = true;
          break;
        }
        axes.push_back(std::move(vals));
      }
      if (empty) continue;
      std::vector<std::size_t> idx(axes.size(), 0);
      for (;;) {
        Cell c;
        for (std::size_t i = 0; i < axes.size(); ++i) {
          c.bindings.push_back(CellBinding{b.dims[i].knob, axes[i][idx[i]]});
        }
        cells.push_back(std::move(c));
        std::size_t i = axes.size();
        while (i > 0) {
          --i;
          if (++idx[i] < axes[i].size()) break;
          idx[i] = 0;
          if (i == 0) {
            i = SIZE_MAX;
            break;
          }
        }
        if (i == SIZE_MAX) break;
      }
    }
    return cells;
  }

 private:
  struct Block {
    bool product = false;
    std::vector<CellBinding> cell;  // explicit cell
    std::vector<GridDim> dims;      // product block
  };
  std::vector<Block> blocks_;
};

/// Typed view of the standard knobs, filled by Harness::parse. Bench-local
/// knobs are read through Harness::get / Harness::is instead.
struct Options {
  bool json = false;
  bool deterministic = false;
  std::optional<MemBackendKind> backend;  // unset => bench default / sweep
  std::optional<unsigned> lanes;          // unset => bench's own lane sweep
  std::optional<ReplacementPolicy> replacement;  // unset => config default
  std::optional<SchedPolicy> sched_policy;  // unset => bench default / sweep
  std::string trace_out;    // "" = span tracing off
  std::string metrics_out;  // "" = no registry/flight-recorder dump
};

inline std::optional<SchedPolicy> parse_sched_policy(const std::string& s) {
  if (s == "fifo") return SchedPolicy::kFifo;
  if (s == "rr") return SchedPolicy::kRoundRobin;
  if (s == "sjf") return SchedPolicy::kSjf;
  if (s == "priority") return SchedPolicy::kPriority;
  return std::nullopt;
}

/// The per-bench harness: standard knobs pre-registered, bench-local knobs
/// and the sweep grid added by the bench before parse().
class Harness {
 public:
  enum class Action { kRun, kListCells, kListKnobs, kHelp };

  explicit Harness(std::string bench) : bench_(std::move(bench)) {
    reg_.add_flag("json", "--json", "",
                  "emit one schema-v2 JSON document on stdout");
    reg_.add_flag("deterministic", "--deterministic",
                  "ARCANE_BENCH_DETERMINISTIC",
                  "zero the wall-clock trend fields (host_wall_ms, "
                  "*_per_host_sec) so output bytes are machine-independent");
    std::vector<std::string> policies;
    for (ReplacementPolicy p : kAllReplacementPolicies) {
      policies.emplace_back(replacement_name(p));
    }
    reg_.add_choice("backend", "--backend", "ARCANE_BENCH_BACKEND",
                    {"ideal", "psram", "dram"},
                    "external-memory backend (unset: bench default/sweep)");
    reg_.add_choice("lanes", "--lanes", "ARCANE_BENCH_LANES", {"2", "4", "8"},
                    "restrict the ARCANE lane sweep");
    reg_.add_choice("replacement", "--replacement",
                    "ARCANE_BENCH_REPLACEMENT", std::move(policies),
                    "LLC replacement policy (unset: config default; "
                    "restricts the ablation_replacement sweep)");
    reg_.add_choice("sched-policy", "--sched-policy",
                    "ARCANE_BENCH_SCHED_POLICY",
                    {"fifo", "rr", "sjf", "priority"},
                    "kernel-offload dispatch policy (scheduler benches)");
    reg_.add_string("trace-out", "--trace-out", "ARCANE_BENCH_TRACE_OUT",
                    "write a Chrome-trace/Perfetto JSON of the run's "
                    "sim-time spans to this path (benches that support it)");
    reg_.add_string("metrics-out", "--metrics-out",
                    "ARCANE_BENCH_METRICS_OUT",
                    "write the telemetry registry + flight-recorder JSON "
                    "dump to this path (benches that support it)");
  }

  KnobRegistry& knobs() { return reg_; }
  GridSpec& grid() { return grid_; }

  /// Convenience: register a bench-local choice knob (sweep filter).
  KnobSpec& add_choice(const std::string& name, const std::string& flag,
                       const std::string& env,
                       std::vector<std::string> values,
                       const std::string& doc) {
    return reg_.add_choice(name, flag, env, std::move(values), doc);
  }

  /// Testable core of parse(): env fallbacks, flag parsing, cell binding
  /// and Options building without exiting. Returns false with *err set on
  /// any rejection.
  bool try_parse(const std::vector<std::string>& args, Options* opt,
                 Action* action, std::string* err) {
    *action = Action::kRun;
    if (!reg_.read_env(err)) return false;
    std::optional<std::string> cell_id;
    bool list_cells = false, list_knobs = false, help = false;
    for (const std::string& arg : args) {
      if (arg == "--help") {
        help = true;
      } else if (arg == "--list-cells") {
        list_cells = true;
      } else if (arg == "--list-knobs") {
        list_knobs = true;
      } else if (arg.rfind("--cell=", 0) == 0) {
        if (cell_id) {
          *err = "duplicate --cell";
          return false;
        }
        cell_id = arg.substr(7);
      } else {
        bool matched = false;
        if (!reg_.parse_arg(arg, &matched, err)) return false;
        if (!matched) {
          *err = "unknown flag '" + arg + "'";
          return false;
        }
      }
    }
    cells_ = grid_.enumerate(reg_);
    if (help) {
      *action = Action::kHelp;
      return true;
    }
    if (list_knobs) {
      *action = Action::kListKnobs;
      return true;
    }
    if (list_cells) {
      *action = Action::kListCells;
      return true;
    }
    if (cell_id) {
      const Cell* cell = nullptr;
      for (const Cell& c : cells_) {
        if (c.id() == *cell_id) {
          cell = &c;
          break;
        }
      }
      if (cell == nullptr) {
        *err = "unknown cell '" + *cell_id +
               "' (not in this grid/env — see --list-cells)";
        return false;
      }
      for (const CellBinding& b : cell->bindings) {
        if (!reg_.bind(b.knob, b.value, err)) return false;
      }
    }
    return build_options(opt, err);
  }

  /// Parse or die (exit 2 on rejection, exit 0 for the list/help actions).
  Options parse(int argc, char** argv) {
    std::vector<std::string> args(argv + 1, argv + argc);
    Options opt;
    Action action;
    std::string err;
    if (!try_parse(args, &opt, &action, &err)) {
      std::fprintf(stderr, "%s: %s\n%s", argv[0], err.c_str(),
                   reg_.usage_text(argv[0]).c_str());
      std::exit(2);
    }
    switch (action) {
      case Action::kHelp:
        std::fputs(reg_.usage_text(argv[0]).c_str(), stdout);
        std::exit(0);
      case Action::kListKnobs:
        std::fputs(reg_.knobs_json(bench_).c_str(), stdout);
        std::exit(0);
      case Action::kListCells:
        std::fputs(cells_json().c_str(), stdout);
        std::exit(0);
      case Action::kRun: break;
    }
    return opt;
  }

  /// Value of a knob, if bound (bench-local knob accessor).
  std::optional<std::string> get(const std::string& knob) const {
    const KnobSpec* k = reg_.find(knob);
    if (k == nullptr || !k->set) return std::nullopt;
    return k->value;
  }

  /// Sweep filter: true when `knob` is unbound (serial full sweep) or
  /// bound to `value` (this cell / a forced flag selects it).
  bool is(const std::string& knob, const std::string& value) const {
    const KnobSpec* k = reg_.find(knob);
    return k == nullptr || !k->set || k->value == value;
  }

  /// The --list-cells document. Cell ids are stable for a fixed grid and
  /// environment; binding a knob (env or flag) restricts the listing to
  /// the compatible cells, mirroring what a serial run would emit.
  std::string cells_json() const {
    std::string out = "{\"schema_version\": 2, \"bench\": \"" +
                      json_escape(bench_) + "\", \"cells\": [\n";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      out += "  {\"id\": \"" + json_escape(cells_[i].id()) +
             "\", \"bindings\": {";
      for (std::size_t j = 0; j < cells_[i].bindings.size(); ++j) {
        if (j > 0) out += ", ";
        out += '"';
        out += json_escape(cells_[i].bindings[j].knob);
        out += "\": \"";
        out += json_escape(cells_[i].bindings[j].value);
        out += '"';
      }
      out += "}}";
      out += i + 1 < cells_.size() ? ",\n" : "\n";
    }
    out += "]}\n";
    return out;
  }

  const std::vector<Cell>& cells() const { return cells_; }

 private:
  bool build_options(Options* opt, std::string* err) {
    opt->json = is_on("json");
    opt->deterministic = is_on("deterministic");
    g_deterministic = opt->deterministic;
    if (auto v = get("backend")) {
      opt->backend = mem::parse_backend(*v);
      if (!opt->backend) {
        *err = "bad backend '" + *v + "'";
        return false;
      }
    }
    if (auto v = get("lanes")) {
      opt->lanes = static_cast<unsigned>(std::strtoul(v->c_str(), nullptr, 10));
    }
    if (auto v = get("replacement")) {
      opt->replacement = replacement_from_name(*v);
      if (!opt->replacement) {
        *err = "bad replacement '" + *v + "'";
        return false;
      }
    }
    if (auto v = get("sched-policy")) {
      opt->sched_policy = parse_sched_policy(*v);
      if (!opt->sched_policy) {
        *err = "bad sched-policy '" + *v + "'";
        return false;
      }
    }
    opt->trace_out = get("trace-out").value_or("");
    opt->metrics_out = get("metrics-out").value_or("");
    return true;
  }

  bool is_on(const std::string& knob) const {
    auto v = get(knob);
    return v && *v == "on";
  }

  std::string bench_;
  KnobRegistry reg_;
  GridSpec grid_;
  std::vector<Cell> cells_;
};

}  // namespace arcane::benchjson

#endif  // ARCANE_BENCH_GRID_HPP_
