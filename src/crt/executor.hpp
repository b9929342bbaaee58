// KernelExecutor — the reusable per-instance kernel execution engine of the
// C-RT (paper §IV-B2/B3). One executor walks one in-flight kernel through
// its chains and tiles: allocation 2D-DMA, VPU micro-program launch and
// write-back, all as events on the shared simulation queue.
//
// sched::Scheduler is the one owner: it keeps an executor per instance (a
// VPU group), so independent kernels execute concurrently while sharing the
// eCPU timeline, the DMA engine and the LLC. The paper's single-queue C-RT
// is its host instance, fed by the bridge decoder (crt::Runtime).
//
// Cross-kernel policies (write-back elision, forwarding of elided results,
// what happens at completion) stay with the owner, reached through the
// Client interface — the executor itself is policy-free mechanics.
#ifndef ARCANE_CRT_EXECUTOR_HPP_
#define ARCANE_CRT_EXECUTOR_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.hpp"
#include "crt/kernel_op.hpp"
#include "dma/dma.hpp"
#include "llc/llc.hpp"
#include "sim/event_queue.hpp"
#include "sim/stats.hpp"
#include "telemetry/span.hpp"
#include "vpu/program_cache.hpp"
#include "vpu/vector_unit.hpp"

namespace arcane::crt {

/// Shared C-RT firmware context: the single management eCPU's busy-until
/// horizon, phase accounting and kernel uid allocator. Every executor (and
/// the Runtime's decoder) charges eCPU work here, so descriptor programming
/// serializes on one core even when kernels overlap across instances.
struct CrtContext {
  const SystemConfig* cfg = nullptr;
  CrtCostModel costs{};
  sim::EventQueue* events = nullptr;
  llc::Llc* llc = nullptr;
  dma::DmaEngine* dma = nullptr;
  std::vector<vpu::VectorUnit>* vpus = nullptr;

  Cycle ecpu_free = 0;
  sim::CrtPhaseStats phases{};
  std::uint64_t next_uid = 1;
  telemetry::SpanTracer* spans = nullptr;
};

/// Everything the owner needs to retire a completed kernel: the op and plan
/// it was launched with (the owner's own, referred to rather than copied:
/// AT entries, uid, destination range, tile geometry for resident
/// bookkeeping), the VPU its first chain ran on, whether the write-back was
/// elided, and the kernel's cycle accounting.
struct FinishedKernel {
  const KernelOp& op;
  const Plan& plan;
  unsigned vpu = 0;  // VPU of chain 0 (the only chain of an elidable kernel)
  bool elided_writeback = false;
  /// Exclusive stall-bucket decomposition of the kernel's in-executor
  /// lifetime: the segments tile [launch event, finish] exactly. Chains
  /// overlap in time, so a multi-chain kernel reports its critical chain
  /// (the one whose write-back ends last).
  sim::OpStallBreakdown breakdown{};
};

/// eCPU cycles of the CT source/destination status-marking pass (§III-A3):
/// one `preamble_per_line` charge per cache line covered by the valid
/// source operands and the plan's destination range. Shared by the
/// decoder's kernel preamble and the scheduler's dispatch of submitted
/// jobs so both price marking identically.
Cycle preamble_marking_cost(const KernelOp& op, const Plan& plan,
                            const SystemConfig& cfg,
                            const CrtCostModel& costs);

/// Register the plan's destination and any source ranges not covered by it
/// in the address table, recording the entry ids in `op` — the coherence
/// rule both the decoder (§IV-B1) and the scheduler dispatch follow.
void register_at_ranges(KernelOp& op, const Plan& plan,
                        llc::AddressTable& at);

class KernelExecutor {
 public:
  /// Owner hooks, called at the exact points the C-RT consults its
  /// resident/forwarding state. `ex` identifies the asking executor, so the
  /// owner can enable forwarding and elision per instance.
  class Client {
   public:
    virtual ~Client() = default;
    /// Fill `out` with a forwardable register-file copy of the rows a load
    /// would fetch and return true; false = fetch through the cache as
    /// usual. `out` is a reusable scratch buffer owned by the executor —
    /// implementations resize it (capacity is recycled across tiles) and
    /// must not keep references past the call.
    virtual bool forward_load(const KernelExecutor& ex, const DmaXfer& x,
                              std::vector<std::uint8_t>& out) = 0;
    /// About to claim this chain's lines on `vpu` (drop stale residents).
    virtual void before_claim(unsigned vpu) = 0;
    /// A non-forwarded load reads [lo, hi) from memory: lazily materialize
    /// any deferred (never written back) intermediate overlapping it.
    virtual void materialize_deferred(Addr lo, Addr hi) = 0;
    /// May this kernel skip its write-back entirely (full elision)? Only
    /// asked once the executor has verified the store geometry allows it.
    virtual bool allow_writeback_elision(const KernelExecutor& ex,
                                         Addr dest_lo, Addr dest_hi) = 0;
    /// The kernel completed at `t` (epilogue charged, phases updated, the
    /// executor already free). The owner releases AT entries / kernel
    /// lines, records its bookkeeping and may launch the next kernel on
    /// `ex` right away.
    virtual void on_kernel_finish(KernelExecutor& ex,
                                  const FinishedKernel& fin, Cycle t) = 0;
  };

  KernelExecutor(CrtContext& ctx, Client& client, unsigned id)
      : ctx_(&ctx), client_(&client), id_(id) {}

  KernelExecutor(const KernelExecutor&) = delete;
  KernelExecutor& operator=(const KernelExecutor&) = delete;

  /// Start `op` with chain i of `plan` on VPU vpus[i]. `now` is the event
  /// time (tracer timestamp); the chains begin at the eCPU horizon, which
  /// the caller has already advanced past its scheduling cost. With `hung`
  /// (fault injection, src/fault/ OpVerdict::kHang) the kernel occupies the
  /// executor but its chains are never scheduled: no lines are claimed, no
  /// DMA runs, and only abort_hung() frees the executor.
  ///
  /// The executor borrows `op` and `plan`: the caller keeps both alive and
  /// unchanged until Client::on_kernel_finish or abort_hung() returns.
  void launch(const KernelOp& op, const Plan& plan,
              std::span<const unsigned> vpus, Cycle now, bool hung = false);
  /// Abort a hung kernel: the executor becomes free and drops its borrow;
  /// the kernel is NOT retired through Client::on_kernel_finish (it never
  /// finished), so the owner releases what its op registered.
  void abort_hung();
  bool hung() const { return busy() && active_.hung; }

  bool busy() const { return active_.op != nullptr; }
  /// Tests only: on every program-cache hit, emit the tile's program anyway
  /// and assert it equals the cached one (vpu::ProgramCache::set_checked).
  void check_programs(bool on);
  unsigned id() const { return id_; }

 private:
  /// One chain slot. Slots outlive kernels: a launch resets the counters of
  /// the slots its plan uses and keeps each slot's Tile and prepared
  /// programs. The Tile's capacity is what the next tiles are built into;
  /// the programs are replayed by any later tile, of this kernel or
  /// another, whose planner names an equal key.
  struct ChainState {
    unsigned vpu = 0;
    unsigned next_tile = 0;
    bool claimed = false;
    Tile tile;  // tile currently in flight (between events)
    vpu::ProgramCache progs;
    Cycle compute_end = 0;
    /// Stall buckets of this chain: they tile [launch event, its latest
    /// write-back end].
    sim::OpStallBreakdown breakdown{};
  };
  struct ActiveKernel {
    const KernelOp* op = nullptr;  // borrowed from the owner; null = idle
    const Plan* plan = nullptr;
    unsigned chains_left = 0;
    Cycle finish_time = 0;
    unsigned critical_chain = 0;  // the chain that set finish_time
    bool hung = false;  // fault-injected: chains never scheduled
    bool elided_writeback = false;
  };

  void chain_step(unsigned chain_idx, Cycle t);       // alloc + compute
  void chain_writeback(unsigned chain_idx, Cycle t);  // write-back + advance
  void finish_kernel(Cycle t);

  CrtContext* ctx_;
  Client* client_;
  unsigned id_;
  ActiveKernel active_{};
  std::vector<ChainState> chains_;  // slots [0, plan.chain_count) in use
  bool check_programs_ = false;
  // Per-tile forwarding scratch (parallel to the tile's loads): reused
  // buffers + validity flags, so chain stepping allocates nothing steady
  // state no matter how many tiles a kernel walks.
  std::vector<std::vector<std::uint8_t>> fwd_bufs_;
  std::vector<char> fwd_valid_;
};

}  // namespace arcane::crt

#endif  // ARCANE_CRT_EXECUTOR_HPP_
