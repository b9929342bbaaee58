#include "sched/scheduler.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace arcane::sched {

namespace {

/// The scheduler's analogue of the decoder's operand resolution: ops carry
/// operand snapshots directly, so this is a straight field translation,
/// made once per submitted op.
crt::KernelOp make_kernel_op(const OpSpec& s) {
  crt::KernelOp op;
  op.func5 = s.func5;
  op.et = s.et;
  op.f.alpha = s.alpha;
  op.f.beta = s.beta;
  op.md = s.md;
  op.ms1 = s.ms1;
  op.ms2 = s.ms2;
  op.ms3 = s.ms3;
  return op;
}

bool ranges_overlap(Addr a_lo, Addr a_hi, Addr b_lo, Addr b_hi) {
  return a_lo < b_hi && b_lo < a_hi;
}

std::pair<Addr, Addr> dest_range(const crt::KernelOp& op) {
  return {op.md.addr,
          op.md.addr + std::max<std::uint32_t>(op.md.footprint(op.et), 1u)};
}

/// Any dest/dest, dest/src or src/dest overlap between two ops.
bool ops_conflict(const crt::KernelOp& a, const crt::KernelOp& b) {
  const auto [alo, ahi] = dest_range(a);
  const auto [blo, bhi] = dest_range(b);
  if (ranges_overlap(alo, ahi, blo, bhi)) return true;
  auto src_hits_dest = [](const crt::KernelOp& from, Addr lo, Addr hi) {
    for (const crt::Operand* s : {&from.ms1, &from.ms2, &from.ms3}) {
      if (!s->valid) continue;
      const Addr slo = s->addr;
      const Addr shi =
          slo + std::max<std::uint32_t>(s->footprint(from.et), 1u);
      if (ranges_overlap(slo, shi, lo, hi)) return true;
    }
    return false;
  };
  return src_hits_dest(a, blo, bhi) || src_hits_dest(b, alo, ahi);
}

}  // namespace

Scheduler::Scheduler(crt::Runtime& rt)
    : rt_(&rt),
      ctx_(&rt.context()),
      cfg_(rt.context().cfg),
      policy_(cfg_->sched_policy),
      serving_(cfg_->sched_instances != 0 ? cfg_->sched_instances
                                          : cfg_->llc.num_vpus) {
  ARCANE_CHECK(serving_ >= 1 && serving_ <= cfg_->llc.num_vpus,
               "scheduler instance count out of range");
  for (unsigned i = 0; i < serving_; ++i) add_instance();
}

unsigned Scheduler::add_tenant(std::string name, unsigned priority) {
  ARCANE_CHECK(tenant_names_.size() < 0xFFFF, "too many tenants");
  ARCANE_CHECK(priority <= 0xFF, "tenant priority class out of range");
  tenant_names_.push_back(std::move(name));
  tenant_priority_.push_back(priority);
  tenant_stats_.emplace_back();
  tenant_stall_.emplace_back();
  return static_cast<unsigned>(tenant_names_.size() - 1);
}

sim::SchedStats Scheduler::stats() const {
  sim::SchedStats s;
  static_cast<sim::SchedCounters&>(s) = counters_;
  for (const sim::TenantStats& ts : tenant_stats_) {
    s.jobs_submitted += ts.jobs_submitted;
    s.jobs_completed += ts.jobs_completed;
    s.jobs_dropped += ts.jobs_dropped;
    s.jobs_failed += ts.jobs_failed;
    s.deadline_misses += ts.deadline_misses;
    s.retries += ts.retries;
    s.failovers += ts.failovers;
    s.total_queue_wait += ts.total_queue_wait;
    s.makespan = std::max(s.makespan, ts.last_completion);
  }
  return s;
}

std::vector<JobReport> Scheduler::recent(unsigned tenant) const {
  std::vector<JobReport> out;
  for (auto it = outcomes_.rbegin();
       it != outcomes_.rend() && out.size() < kFlightDepth; ++it) {
    if (it->tenant == tenant) out.push_back(*it);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::uint64_t Scheduler::submit(unsigned tenant, JobSpec job, Cycle arrival) {
  ARCANE_CHECK(tenant < num_tenants(), "submit for unknown tenant " << tenant);
  // The job is built in a free slot, which stays free if it is rejected.
  const std::uint32_t job_idx = free_job_slot();
  JobState& js = jobs_[job_idx];
  const std::string why = js.dag.build(job);
  ARCANE_CHECK(why.empty(), "malformed job: " << why);
  // Decode and plan every op now: malformed shapes are rejected at submit,
  // and the op and its validated plan (pure function of op + cfg) stay in
  // the slot for every dispatch attempt.
  js.ops.resize(job.ops.size());
  for (std::size_t i = 0; i < job.ops.size(); ++i) {
    OpSpec& s = job.ops[i];
    const crt::KernelInfo* info = rt_->library().find(s.func5);
    ARCANE_CHECK(info != nullptr,
                 "job uses unknown kernel id " << unsigned(s.func5));
    ARCANE_CHECK(s.md.valid, info->name << ": destination operand missing");
    ARCANE_CHECK(!info->uses_ms1 || s.ms1.valid,
                 info->name << ": ms1 operand missing");
    ARCANE_CHECK(!info->uses_ms2 || s.ms2.valid,
                 info->name << ": ms2 operand missing");
    ARCANE_CHECK(!info->uses_ms3 || s.ms3.valid,
                 info->name << ": ms3 operand missing");
    OpState& os = js.ops[i];
    os = OpState{};
    os.op = make_kernel_op(s);
    os.plan = info->planner->plan(os.op, *cfg_);
    ARCANE_CHECK(os.plan.ok(), info->name << ": " << os.plan.error);
    ARCANE_CHECK(os.plan.chain_count == 1,
                 info->name << ": multi-chain plans cannot be pinned to one "
                               "instance (disable multi_vpu_kernels)");
    os.deps = std::move(s.deps);
  }
  open_job(job_idx, tenant, arrival, job.deadline, job.shed_on_expiry,
           job.tag);

  const Cycle when = std::max(arrival, ctx_->events->now());
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_tenant(tenant), "job.submit", when,
                         static_cast<std::int32_t>(tenant),
                         static_cast<std::int64_t>(js.id));
  }
  ++pending_arrivals_;
  ctx_->events->schedule(
      when, [this, job_idx] { arrive(job_idx, ctx_->events->now()); },
      "sched.arrive");
  return js.id;
}

std::uint32_t Scheduler::free_job_slot() {
  if (free_jobs_.empty()) {
    free_jobs_.push_back(static_cast<std::uint32_t>(jobs_.size()));
    jobs_.emplace_back();
  }
  return free_jobs_.back();
}

void Scheduler::open_job(std::uint32_t job_idx, unsigned tenant, Cycle arrival,
                         Cycle deadline, bool shed_on_expiry,
                         std::uint64_t tag) {
  ARCANE_ASSERT(!free_jobs_.empty() && free_jobs_.back() == job_idx,
                "open_job outside the free slot");
  free_jobs_.pop_back();
  // Reset every field of the slot but the op table and the DAG, which the
  // caller filled and whose capacity the slot keeps.
  JobState& js = jobs_[job_idx];
  JobState fresh;
  fresh.ops = std::move(js.ops);
  fresh.dag = std::move(js.dag);
  js = std::move(fresh);
  js.id = next_job_id_++;
  js.tenant = tenant;
  js.arrival = arrival;
  js.deadline = deadline;
  js.shed_on_expiry = shed_on_expiry && deadline != 0;
  js.tag = tag;
  js.ops_left = static_cast<unsigned>(js.ops.size());
  if (js.shed_on_expiry) ++shed_armed_;
  ++jobs_open_;
  ++tenant_stats_[tenant].jobs_submitted;
}

void Scheduler::drain() {
  ctx_->events->run_all();
  ARCANE_CHECK(jobs_open_ == 0, "scheduler drained with "
                                    << jobs_open_ << " unfinished job(s) —"
                                    << queue_dump());
}

std::string Scheduler::queue_dump() const {
  std::string dump;
  for (unsigned k = 0; k < queues_.size(); ++k) {
    dump += " inst" + std::to_string(k) + " queued=" +
            std::to_string(queues_[k].size()) +
            " inflight=" + std::to_string(inflight_[k].valid ? 1 : 0);
    if (health_[k].quarantined) dump += " [quarantined]";
    dump += ";";
  }
  return dump;
}

void Scheduler::arrive(std::uint32_t job_idx, Cycle t) {
  ARCANE_ASSERT(pending_arrivals_ > 0, "arrival accounting underflow");
  --pending_arrivals_;
  jobs_[job_idx].dag.for_each_root(
      [&](unsigned r) { op_ready(job_idx, r, t); });
  try_dispatch(t);
}

void Scheduler::op_ready(std::uint32_t job_idx, unsigned op_idx, Cycle t) {
  JobState& js = jobs_[job_idx];
  OpState& os = js.ops[op_idx];
  os.ready_at = t;
  os.first_ready = t;
  enqueue(job_idx, op_idx,
          js.tenant == host_tenant_ ? serving_ : pick_park_instance(-1));
}

void Scheduler::enqueue(std::uint32_t job_idx, unsigned op_idx,
                        unsigned inst) {
  const JobState& js = jobs_[job_idx];
  ReadyEntry e;
  e.job = job_idx;
  e.op = static_cast<std::uint16_t>(op_idx);
  e.tenant = static_cast<std::uint16_t>(js.tenant);
  e.priority = static_cast<std::uint8_t>(tenant_priority_[js.tenant]);
  e.est_cost = estimate_cost(js.ops[op_idx].op);
  e.seq = ready_seq_++;
  queues_[inst].push(e);
}

unsigned Scheduler::pick_park_instance(int avoid) const {
  // Park on the least-loaded serving instance queue (an in-flight kernel
  // counts as one queued unit); ties go to the lowest instance for
  // determinism. Preference: a healthy instance other than `avoid`
  // (failover), then any healthy one, then — every instance quarantined —
  // any at all: the op dispatches when one recovers, or drain() reports
  // the wedge.
  auto least_loaded = [this](const auto& skip) {
    unsigned best = serving_;
    std::size_t best_load = ~std::size_t{0};
    for (unsigned k = 0; k < serving_; ++k) {
      const std::size_t load =
          queues_[k].size() + (inflight_[k].valid ? 1 : 0);
      if (!skip(k) && load < best_load) {
        best = k;
        best_load = load;
      }
    }
    return best;
  };
  unsigned k = least_loaded([&](unsigned i) {
    return health_[i].quarantined || static_cast<int>(i) == avoid;
  });
  if (k == serving_) {
    k = least_loaded([this](unsigned i) { return health_[i].quarantined; });
  }
  if (k == serving_) k = least_loaded([](unsigned) { return false; });
  return k;
}

void Scheduler::shed_expired(Cycle t) {
  if (shed_armed_ == 0) return;  // no open job can expire: free fast path
  // Collect first: cancel_job mutates every queue. A job whose remaining ops
  // are all waiting on in-flight dependencies has no queued entry yet; it
  // is caught here on the completion event that readies them, before any
  // dispatch.
  std::vector<std::uint32_t> expired;
  for (const ReadyQueue& q : queues_) {
    for (const ReadyEntry& e : q.entries()) {
      const JobState& js = jobs_[e.job];
      if (js.shed_on_expiry && !js.dropped && t >= js.deadline) {
        expired.push_back(e.job);
      }
    }
  }
  // In submission order: slots are recycled, so indices are not.
  std::sort(expired.begin(), expired.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return jobs_[a].id < jobs_[b].id;
            });
  expired.erase(std::unique(expired.begin(), expired.end()), expired.end());
  for (std::uint32_t job_idx : expired) {
    cancel_job(job_idx, t, Outcome::kShed);
  }
}

void Scheduler::try_dispatch(Cycle t) {
  shed_expired(t);
  for (unsigned inst = 0; inst < queues_.size(); ++inst) {
    if (health_[inst].quarantined) continue;
    if (inflight_[inst].valid || queues_[inst].empty()) continue;
    if (group_held(inst)) continue;
    // Flatten all queued entries once per scan for the older-conflict
    // check (the per-candidate walk is then one linear pass; queues are
    // short relative to simulation cost, so O(queued^2) range checks per
    // scan are acceptable — revisit if admission control ever allows
    // unbounded backlogs). queued_scratch_ is a member so the per-scan
    // flatten reuses its capacity instead of allocating on every dispatch.
    queued_scratch_.clear();
    for (const ReadyQueue& q : queues_) {
      for (const ReadyEntry& other : q.entries()) {
        queued_scratch_.emplace_back(other.seq,
                                     &jobs_[other.job].ops[other.op].op);
      }
    }
    const auto eligible = [this, t](const ReadyEntry& e) {
      OpState& os = jobs_[e.job].ops[e.op];
      bool ok = !conflicts(os.op);
      if (ok) {
        for (const auto& [seq, other] : queued_scratch_) {
          if (seq < e.seq && ops_conflict(*other, os.op)) {
            ok = false;
            break;
          }
        }
      }
      // Stall accounting: an op's wait splits into queue_wait before the
      // first scan that held it back for a hazard and hazard_defer after.
      // Scan order is a pure function of event order, so the split is
      // deterministic.
      if (!ok && !os.hazard_marked) {
        os.hazard_marked = true;
        os.hazard_since = t;
      }
      return ok;
    };
    const std::size_t pick =
        queues_[inst].pick(is_host(inst) ? SchedPolicy::kFifo : policy_,
                           num_tenants(), rr_last_, eligible);
    if (pick == ReadyQueue::kNone) {
      // Every queued op overlaps an in-flight kernel's ranges or waits on
      // an older conflicting op; retried at the next completion event.
      ++counters_.hazard_deferrals;
      continue;
    }
    const ReadyEntry e = queues_[inst].take(pick);
    rr_last_ = e.tenant;
    dispatch(inst, e, t);
  }
  check_liveness(t);
}

void Scheduler::check_liveness(Cycle t) const {
  if (jobs_open_ == 0) return;
  std::size_t queued = 0;
  for (const ReadyQueue& q : queues_) queued += q.size();
  if (queued == 0) return;  // remaining ops wait on in-flight dependencies
  for (const InFlight& fl : inflight_) {
    if (fl.valid) return;  // a completion event will rescan
  }
  if (pending_arrivals_ != 0 || pending_retries_ != 0) return;
  // Under an active fault plan a total stall is a legitimate outcome
  // (e.g. a permanent whole-fleet fail-stop); drain() reports it with the
  // same dump instead of asserting here.
  if (injector_ != nullptr && injector_->plan_active()) return;
  ARCANE_ASSERT(false, "scheduler wedged at cycle "
                           << t << ": " << jobs_open_ << " open job(s), "
                           << queued
                           << " queued op(s), nothing in flight and no "
                              "pending arrival/retry —"
                           << queue_dump());
}

void Scheduler::dispatch(unsigned inst, const ReadyEntry& e, Cycle t) {
  JobState& js = jobs_[e.job];
  OpState& os = js.ops[e.op];
  crt::KernelOp& op = os.op;
  const crt::Plan& plan = os.plan;
  // A host kernel can be popped by a completion that fires before its
  // decode's `done` cycle (the decoder runs ahead of the event queue); it
  // is then ready from the pop, and its eCPU decode time counts as
  // dispatch.
  if (os.ready_at > t) os.ready_at = os.first_ready = js.arrival = t;

  // Host kernels were decoded, renamed and AT-registered at IRQ time;
  // submitted ops are decoded here, on every attempt: a fresh uid, and the
  // AT entries are registered again below.
  const bool predecoded = os.predecoded;
  os.predecoded = false;
  if (!predecoded) {
    op.uid = ctx_->next_uid++;
    op.src_at_count = 0;
  }

  // Failover accounting: a retry attempt landing on a different instance
  // than the failed one is a failover.
  if (os.attempts > 0 && inst != os.prev_instance) {
    ++tenant_stats_[js.tenant].failovers;
    ++js.failovers;
    if (ctx_->spans != nullptr) {
      ctx_->spans->instant(telemetry::track_vpu(inst), "sched.failover", t,
                           static_cast<std::int32_t>(js.tenant),
                           static_cast<std::int64_t>(js.id),
                           static_cast<std::int64_t>(os.prev_instance));
    }
  }
  os.prev_instance = inst;
  ++os.attempts;

  // A resident copy overlapping this kernel's destination is about to be
  // superseded: materialize any deferred write-back first (the untouched
  // part of the region must stay architecturally correct), then drop the
  // record so no later consumer forwards stale data.
  drop_residents([&](const Resident& r) {
    return plan.dest_lo < r.hi && r.lo < plan.dest_hi;
  });

  // Dispatch runs on the shared eCPU. A submitted op first pays the
  // kernel-library lookup and the preamble with per-line CT status marking
  // (the decoder's budget minus the bridge IRQ entry); every kernel then
  // pays the scheduling decision itself.
  const Cycle decode_cost =
      predecoded ? 0
                 : ctx_->costs.decode_lookup + ctx_->costs.kernel_preamble +
                       crt::preamble_marking_cost(op, plan, *cfg_, ctx_->costs);
  const Cycle start = std::max(t, ctx_->ecpu_free);
  ctx_->ecpu_free = start + decode_cost + ctx_->costs.schedule;
  ctx_->phases.preamble += decode_cost;
  ctx_->phases.scheduling += ctx_->costs.schedule;
  ctx_->phases.ecpu_busy += decode_cost + ctx_->costs.schedule;

  // AT registration mirrors the decoder (shared rule): destination first,
  // then sources not covered by it — host traffic to in-flight ranges
  // stalls coherently.
  if (!predecoded) crt::register_at_ranges(op, plan, ctx_->llc->at());

  // One VPU per chain: a serving instance is its own VPU, the host
  // instance selects among all of them.
  unsigned vpu_buf[kMaxVpus];
  const std::span<unsigned> vpus(vpu_buf, plan.chain_count);
  if (is_host(inst)) {
    assign_vpus(op, vpus);
  } else {
    vpus[0] = inst;
  }

  InFlight fl;
  fl.valid = true;
  fl.job = e.job;
  fl.op = e.op;
  fl.dispatch_at = t;
  // Pre-execution buckets: [ready, first hazard hold-back) is queue_wait,
  // [hold-back, dispatch) is hazard_defer, and the eCPU decode + schedule
  // slice [t, ecpu_free) is dispatch. The executor's breakdown tiles the
  // rest, [ecpu_free, finish) — composed and checked at completion.
  {
    // (A host kernel may have been held back before its decode completed.)
    const Cycle hz_from =
        os.hazard_marked ? std::max(os.hazard_since, os.ready_at) : t;
    fl.pre[sim::StallBucket::kQueueWait] += hz_from - os.ready_at;
    fl.pre[sim::StallBucket::kHazardDefer] += t - hz_from;
    fl.pre[sim::StallBucket::kDispatch] += ctx_->ecpu_free - t;
  }
  for (unsigned v : vpus) fl.vpus |= 1u << v;
  fl.dispatch_seq = ++dispatch_seq_;
  fl.post_dispatch = ctx_->ecpu_free;
  // Consult the fault plan: a one-shot op fault armed for this instance
  // turns this dispatch into a hang (never completes) or an error (runs,
  // then reports failure). The injector is consulted *after* all timing
  // is charged, so a consumed fault never changes costs already paid.
  if (injector_ != nullptr) {
    fl.verdict = injector_->next_op_fault(inst, t);
  }
  const fault::OpVerdict verdict = fl.verdict;
  const std::uint64_t wd_seq = fl.dispatch_seq;
  inflight_[inst] = std::move(fl);

  if (!js.dispatched_any) {
    js.dispatched_any = true;
    js.first_dispatch = t;
  }
  ++counters_.ops_dispatched;
  tenant_stats_[js.tenant].total_queue_wait += t - os.ready_at;

  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), "queue", os.ready_at,
                      t, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(e.op));
    ctx_->spans->span(telemetry::kTrackEcpu, "sched.dispatch", start,
                      ctx_->ecpu_free, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(op.uid));
  }

  // Per-op watchdog: only injected hangs are abortable (real completions
  // are already-scheduled events), so the timer is armed only when a fault
  // plan is wired — the fault-free path schedules nothing extra.
  if (injector_ != nullptr && cfg_->fault.watchdog_timeout != 0) {
    ctx_->events->schedule(
        t + cfg_->fault.watchdog_timeout,
        [this, inst, wd_seq] { watchdog_fire(inst, wd_seq, ctx_->events->now()); },
        "sched.watchdog");
  }

  execs_[inst]->launch(op, plan, vpus, t, verdict == fault::OpVerdict::kHang);
}

void Scheduler::release_at(const crt::KernelOp& op, bool elided_writeback) {
  for (unsigned at : op.src_at_entries()) ctx_->llc->at().release(at);
  if (op.dest_at_entry >= 0 && !elided_writeback) {
    ctx_->llc->at().release(static_cast<unsigned>(op.dest_at_entry));
  }
}

void Scheduler::on_kernel_finish(crt::KernelExecutor& ex,
                                 const crt::FinishedKernel& fin, Cycle t) {
  const unsigned inst = ex.id();
  ARCANE_ASSERT(inflight_[inst].valid, "finish on an idle instance");
  const InFlight fl = std::move(inflight_[inst]);
  inflight_[inst] = InFlight{};

  release_at(fin.op, fin.elided_writeback);
  if (fin.elided_writeback) {
    keep_resident(fin);
  } else {
    ctx_->llc->release_kernel_lines(fin.op.uid, fl.vpus,
                                    fin.plan.vregs_claimed);
  }
  counters_.instance_occupied[inst] += t - fl.dispatch_at;

  JobState& js = jobs_[fl.job];
  OpState& os = js.ops[fl.op];
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), "op", fl.dispatch_at,
                      t, static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(fin.op.uid));
  }

  // Compose the full exclusive stall breakdown of this op's lifetime. The
  // scheduler planned the pre-execution buckets at dispatch and the executor
  // segmented [eCPU handoff, finish); together they must tile
  // [ready, finish] exactly — cycles neither lost nor double-counted.
  sim::OpStallBreakdown bd = fin.breakdown;
  bd += fl.pre;

  const bool op_failed = fl.doomed || fl.verdict != fault::OpVerdict::kNone;
  if (op_failed) {
    // Fault-injected failure (transient / DMA error, or the instance
    // fail-stopped while this op executed): the attempt's cycles fold into
    // the op's accumulator — the telescoping check runs at the completion
    // that finally succeeds.
    os.acc += bd;
    if (ctx_->spans != nullptr) {
      ctx_->spans->instant(telemetry::track_vpu(inst), "sched.op_fail", t,
                           static_cast<std::int32_t>(js.tenant),
                           static_cast<std::int64_t>(js.id),
                           static_cast<std::int64_t>(fl.verdict));
    }
    if (js.dropped) {
      // Shed while executing: the failed attempt is cancelled with the job.
      ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
      --js.ops_left;
    } else {
      handle_op_failure(inst, fl.job, fl.op, t);
    }
    try_dispatch(t);
    return;
  }
  if (injector_ != nullptr) note_op_outcome(inst, /*ok=*/true, t);

  ++counters_.ops_completed;
  bd += os.acc;  // failed attempts + retry backoff (all-zero fault-free)
  ARCANE_ASSERT(bd.total() == t - os.first_ready,
                "op stall buckets sum to " << bd.total() << " but op latency is "
                << (t - os.first_ready) << " (job " << js.id << " op " << fl.op
                << ")");
  stall_totals_ += bd;
  tenant_stall_[js.tenant] += bd;
  if (op_log_ != nullptr && op_log_->enabled()) {
    telemetry::OpTiming ot;
    ot.job_id = js.id;
    ot.op = fl.op;
    ot.tenant = static_cast<std::int32_t>(js.tenant);
    ot.ready = os.first_ready;
    ot.dispatch = fl.dispatch_at;
    ot.finish = t;
    ot.breakdown = bd;
    ot.deps = os.deps;
    ot.dropped_job = js.dropped;
    op_log_->record(std::move(ot));
  }

  if (js.dropped) {
    // The job was shed while this op was on an instance: the work is done
    // (and already paid for) but wakes no waiters and completes nothing.
    ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
    --js.ops_left;
    try_dispatch(t);
    return;
  }
  ++tenant_stats_[js.tenant].ops_completed;

  js.dag.complete(fl.op, [&](unsigned w) { op_ready(fl.job, w, t); });

  ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
  if (--js.ops_left == 0) resolve_job(fl.job, t, Outcome::kCompleted);
  try_dispatch(t);
}

void Scheduler::cancel_job(std::uint32_t job_idx, Cycle t, Outcome outcome) {
  JobState& js = jobs_[job_idx];
  ARCANE_ASSERT(!js.dropped, "job resolved twice");
  js.dropped = true;
  for (ReadyQueue& q : queues_) {
    q.erase_if([job_idx](const ReadyEntry& e) { return e.job == job_idx; });
  }
  // Ops already on an instance run to completion (a launched kernel cannot
  // be recalled); everything else is cancelled. In-flight completions see
  // the dropped flag, decrement ops_left and wake no waiters. A failed
  // job's exhausted op counts as cancelled too (dispatched attempts, no
  // completion), hence strictly more ops left than in flight.
  unsigned inflight_ops = 0;
  for (const InFlight& fl : inflight_) {
    if (fl.valid && fl.job == job_idx) ++inflight_ops;
  }
  ARCANE_ASSERT(js.ops_left >= inflight_ops + (outcome == Outcome::kFailed),
                "cancel accounting underflow");
  counters_.ops_cancelled += js.ops_left - inflight_ops;
  js.ops_left = inflight_ops;
  resolve_job(job_idx, t, outcome);
}

void Scheduler::resolve_job(std::uint32_t job_idx, Cycle t, Outcome outcome) {
  const JobState& js = jobs_[job_idx];
  if (js.shed_on_expiry) {
    ARCANE_ASSERT(shed_armed_ > 0, "shed-armed accounting underflow");
    --shed_armed_;
  }
  ARCANE_ASSERT(jobs_open_ > 0, "job accounting underflow");
  --jobs_open_;
  sim::TenantStats& ts = tenant_stats_[js.tenant];
  const char* span = "job";
  Cycle span_arg = js.deadline;
  switch (outcome) {
    case Outcome::kCompleted:
      ++ts.jobs_completed;
      ts.total_job_latency += t - js.arrival;
      ts.last_completion = std::max(ts.last_completion, t);
      if (js.deadline != 0 && t > js.deadline) {
        ++ts.deadline_misses;
      } else {
        ++ts.jobs_on_time;
      }
      break;
    case Outcome::kShed:
      ++ts.jobs_dropped;
      span = "job.shed";
      break;
    case Outcome::kFailed:
      ++ts.jobs_failed;
      span = "job.fail";
      span_arg = js.retries;
      break;
  }
  outcomes_.push_back(JobReport{js.id, js.tenant, js.arrival,
                                js.first_dispatch, t, js.deadline, js.tag,
                                outcome == Outcome::kShed,
                                outcome == Outcome::kFailed, js.retries,
                                js.failovers});
  if (ctx_->spans != nullptr) {
    ctx_->spans->span(telemetry::track_tenant(js.tenant), span, js.arrival, t,
                      static_cast<std::int32_t>(js.tenant),
                      static_cast<std::int64_t>(js.id),
                      static_cast<std::int64_t>(span_arg));
  }
  // A completed job has nothing queued, in flight or pending: its slot is
  // free for the next submit (a shed or failed one may still have a retry
  // pending, so it keeps its slot).
  if (outcome == Outcome::kCompleted) free_jobs_.push_back(job_idx);
  if (on_job_done_) on_job_done_(outcomes_.back());
}

void Scheduler::watchdog_fire(unsigned inst, std::uint64_t seq, Cycle t) {
  const InFlight& cur = inflight_[inst];
  // Stale token (the op retired and the slot was reused) or an op that is
  // actually executing (its completion event will fire): no-op.
  if (!cur.valid || cur.dispatch_seq != seq) return;
  if (!execs_[inst]->hung()) return;
  ++counters_.watchdog_fires;
  if (ctx_->spans != nullptr) {
    const JobState& js = jobs_[cur.job];
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.watchdog", t,
                         static_cast<std::int32_t>(js.tenant),
                         static_cast<std::int64_t>(js.id),
                         static_cast<std::int64_t>(cur.op));
  }
  abort_hung_inflight(inst, t);
  try_dispatch(t);
}

void Scheduler::abort_hung_inflight(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inflight_[inst].valid && execs_[inst]->hung(),
                "abort of a non-hung instance");
  const InFlight fl = std::move(inflight_[inst]);
  inflight_[inst] = InFlight{};
  // The hung kernel registered AT ranges at dispatch but never claimed
  // lines or ran DMA; release what it held so a retry re-registers
  // cleanly (idempotent re-dispatch). No line can be its own outside its
  // VPUs' registers.
  execs_[inst]->abort_hung();
  JobState& js = jobs_[fl.job];
  OpState& os = js.ops[fl.op];
  release_at(os.op, /*elided_writeback=*/false);
  ctx_->llc->release_kernel_lines(os.op.uid, fl.vpus, cfg_->llc.vpu.num_vregs);
  counters_.instance_occupied[inst] += t - fl.dispatch_at;
  // Attempt accounting: the pre-dispatch buckets are real work; the hung
  // window [launch, abort] is failure-handling time, charged to
  // retry_backoff so the telescoping invariant spans the abort.
  os.acc += fl.pre;
  os.acc[sim::StallBucket::kRetryBackoff] += t - fl.post_dispatch;
  if (js.dropped) {
    // Shed while hung: the aborted attempt is cancelled with the job.
    ARCANE_ASSERT(js.ops_left > 0, "job op accounting underflow");
    --js.ops_left;
    return;
  }
  handle_op_failure(inst, fl.job, fl.op, t);
}

void Scheduler::handle_op_failure(unsigned inst, std::uint32_t job_idx,
                                  unsigned op_idx, Cycle t) {
  ARCANE_ASSERT(injector_ != nullptr, "op failure without a fault plan");
  JobState& js = jobs_[job_idx];
  OpState& os = js.ops[op_idx];
  note_op_outcome(inst, /*ok=*/false, t);
  if (os.attempts > cfg_->fault.max_retries) {
    cancel_job(job_idx, t, Outcome::kFailed);
    return;
  }
  ++js.retries;
  ++tenant_stats_[js.tenant].retries;
  const Cycle backoff = cfg_->fault.retry_backoff;
  os.acc[sim::StallBucket::kRetryBackoff] += backoff;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_tenant(js.tenant), "sched.retry", t,
                         static_cast<std::int32_t>(js.tenant),
                         static_cast<std::int64_t>(js.id),
                         static_cast<std::int64_t>(op_idx));
  }
  ++pending_retries_;
  const unsigned prev = inst;
  ctx_->events->schedule(
      t + backoff,
      [this, job_idx, op_idx, prev] {
        requeue_op(job_idx, op_idx, prev, ctx_->events->now());
      },
      "sched.retry");
}

void Scheduler::requeue_op(std::uint32_t job_idx, unsigned op_idx,
                           unsigned prev_inst, Cycle t) {
  ARCANE_ASSERT(pending_retries_ > 0, "retry accounting underflow");
  --pending_retries_;
  JobState& js = jobs_[job_idx];
  if (js.dropped) {
    // Shed (or failed via a sibling op) during the backoff window: the op
    // was already cancelled by cancel_job.
    try_dispatch(t);
    return;
  }
  OpState& os = js.ops[op_idx];
  // Idempotent re-dispatch with the kept plan: AT registration and operand
  // reload re-run inside dispatch exactly like a first attempt.
  os.ready_at = t;
  os.hazard_marked = false;
  os.hazard_since = 0;
  enqueue(job_idx, op_idx, pick_park_instance(static_cast<int>(prev_inst)));
  try_dispatch(t);
}

void Scheduler::note_op_outcome(unsigned inst, bool ok, Cycle t) {
  Health& h = health_[inst];
  if (ok) {
    h.consecutive_failures = 0;
    return;
  }
  ++h.consecutive_failures;
  const unsigned threshold = cfg_->fault.quarantine_threshold;
  if (threshold != 0 && !h.quarantined &&
      h.consecutive_failures >= threshold) {
    quarantine(inst, t);
  }
}

void Scheduler::quarantine(unsigned inst, Cycle t) {
  Health& h = health_[inst];
  if (h.quarantined) return;
  h.quarantined = true;
  ++counters_.quarantines;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.quarantine", t,
                         -1, -1, static_cast<std::int64_t>(inst));
  }
  // Drain: migrate queued entries to healthy instances. Seq is preserved,
  // so the cross-queue older-conflict checks (and with them DAG/hazard
  // ordering) are unaffected by the migration.
  std::vector<ReadyEntry> moved(queues_[inst].entries().begin(),
                                queues_[inst].entries().end());
  queues_[inst].erase_if([](const ReadyEntry&) { return true; });
  for (const ReadyEntry& e : moved) {
    queues_[pick_park_instance(-1)].push(e);
  }
}

void Scheduler::on_instance_fail(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inst < num_instances(), "fail-stop on unknown instance");
  quarantine(inst, t);
  if (inflight_[inst].valid) {
    if (execs_[inst]->hung()) {
      // Nothing will ever complete it: abort and route the failure now.
      abort_hung_inflight(inst, t);
    } else {
      // The completion event is already scheduled (simulated events cannot
      // be cancelled); it observes the doom flag and reports failure
      // when it fires.
      inflight_[inst].doomed = true;
    }
  }
  try_dispatch(t);
}

void Scheduler::on_instance_recover(unsigned inst, Cycle t) {
  ARCANE_ASSERT(inst < num_instances(), "recovery on unknown instance");
  Health& h = health_[inst];
  if (!h.quarantined) return;
  h.quarantined = false;
  h.consecutive_failures = 0;
  if (ctx_->spans != nullptr) {
    ctx_->spans->instant(telemetry::track_vpu(inst), "sched.readmit", t, -1,
                         -1, static_cast<std::int64_t>(inst));
  }
  try_dispatch(t);
}

bool Scheduler::conflicts(const crt::KernelOp& op) const {
  for (const InFlight& fl : inflight_) {
    if (fl.valid && ops_conflict(op, jobs_[fl.job].ops[fl.op].op)) {
      return true;
    }
  }
  return false;
}

std::uint64_t Scheduler::estimate_cost(const crt::KernelOp& op) const {
  // Footprint proxy: bytes the allocation + write-back DMA would move.
  return static_cast<std::uint64_t>(op.md.footprint(op.et)) +
         op.ms1.footprint(op.et) + op.ms2.footprint(op.et) +
         op.ms3.footprint(op.et);
}

// ---------------------------- host instance ----------------------------

void Scheduler::add_instance() {
  const auto k = static_cast<unsigned>(execs_.size());
  execs_.push_back(std::make_unique<crt::KernelExecutor>(*ctx_, *this, k));
  queues_.emplace_back();
  inflight_.emplace_back();
  health_.emplace_back();
  counters_.instance_occupied.push_back(0);
}

void Scheduler::push_kernel(const crt::KernelOp& op, const crt::Plan& plan,
                            Cycle done) {
  if (!has_host()) {  // the first offload creates the host tenant + instance
    host_tenant_ = add_tenant("host");
    add_instance();
  }
  const std::uint32_t job_idx = free_job_slot();
  JobState& js = jobs_[job_idx];
  js.dag.build_single();
  js.ops.resize(1);
  OpState& os = js.ops[0];
  os = OpState{};
  os.op = op;
  os.plan = plan;
  os.predecoded = true;
  open_job(job_idx, host_tenant_, done, /*deadline=*/0,
           /*shed_on_expiry=*/false, /*tag=*/op.uid);
  op_ready(job_idx, 0, done);
  if (!inflight_[serving_].valid) {
    ctx_->events->schedule(done, [this] { try_dispatch(ctx_->events->now()); },
                           "sched.host_dispatch");
  }
}

bool Scheduler::kernel_uses_matrix(std::uint16_t reg) const {
  if (!has_host()) return false;
  auto uses = [reg](const crt::KernelOp& op) {
    return op.f.md == reg || op.f.ms1 == reg || op.f.ms2 == reg ||
           op.f.ms3 == reg;
  };
  for (const ReadyEntry& e : queues_[serving_].entries()) {
    if (uses(jobs_[e.job].ops[e.op].op)) return true;
  }
  const InFlight& fl = inflight_[serving_];
  return fl.valid && uses(jobs_[fl.job].ops[fl.op].op);
}

bool Scheduler::group_held(unsigned inst) const {
  const std::uint32_t mine =
      is_host(inst) ? (1u << cfg_->llc.num_vpus) - 1 : 1u << inst;
  for (unsigned k = 0; k < inflight_.size(); ++k) {
    if (k != inst && inflight_[k].valid && (inflight_[k].vpus & mine) != 0) {
      return true;
    }
  }
  return false;
}

void Scheduler::assign_vpus(const crt::KernelOp& op,
                            std::span<unsigned> out) {
  const unsigned n = cfg_->llc.num_vpus;
  ARCANE_CHECK(out.size() <= n, "plan has more chains than VPUs");
  unsigned order[kMaxVpus];
  std::iota(order, order + n, 0u);

  // Prefer a VPU holding a resident (forwardable) copy of a source operand.
  auto resident_vpu = [&]() -> int {
    for (const Resident& r : residents_) {
      for (const crt::Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
        if (o->valid && o->addr >= r.lo && o->addr < r.hi) {
          return static_cast<int>(r.vpu);
        }
      }
    }
    return -1;
  }();

  switch (cfg_->vpu_select) {
    case VpuSelectPolicy::kFewestDirty: {
      // Paper policy (§IV-B2): prioritise VPUs with the fewest dirty lines,
      // ties in index order (a stable order without std::stable_sort's
      // scratch buffer).
      unsigned dirty[kMaxVpus];
      for (unsigned v = 0; v < n; ++v) {
        dirty[v] = ctx_->llc->dirty_lines_in_vpu(v);
      }
      std::sort(order, order + n, [&](unsigned a, unsigned b) {
        return dirty[a] != dirty[b] ? dirty[a] < dirty[b] : a < b;
      });
      break;
    }
    case VpuSelectPolicy::kRoundRobin:
      std::rotate(order, order + (rr_next_ % n), order + n);
      rr_next_ += static_cast<unsigned>(out.size());
      break;
  }
  if (resident_vpu >= 0) {
    unsigned* it =
        std::find(order, order + n, static_cast<unsigned>(resident_vpu));
    if (it != order + n) std::rotate(order, it, it + 1);
  }
  std::copy_n(order, out.size(), out.begin());
}

// ------------------------------ residents ------------------------------

bool Scheduler::forward_load(const crt::KernelExecutor& ex,
                             const crt::DmaXfer& x,
                             std::vector<std::uint8_t>& out) {
  if (!is_host(ex.id())) return false;
  auto res = std::find_if(residents_.begin(), residents_.end(),
                          [&x](const Resident& r) {
    if (x.mem_addr < r.lo || x.mem_stride != r.mem_stride) return false;
    if ((x.mem_addr - r.lo) % r.mem_stride != 0) return false;
    const std::uint32_t row0 = (x.mem_addr - r.lo) / r.mem_stride;
    return row0 + x.rows <= r.rows && x.row_bytes <= r.row_bytes &&
           x.vreg_step == 1;
  });
  if (res == residents_.end()) return false;
  out.resize(static_cast<std::size_t>(x.rows) * x.row_bytes);
  const std::uint32_t row0 = (x.mem_addr - res->lo) / res->mem_stride;
  for (std::uint32_t r = 0; r < x.rows; ++r) {
    auto src = (*ctx_->vpus)[res->vpu]
                   .vreg(res->first_vreg + row0 + r)
                   .subspan(0, x.row_bytes);
    std::memcpy(out.data() + static_cast<std::size_t>(r) * x.row_bytes,
                src.data(), x.row_bytes);
  }
  // The consumer has taken the data: a deferred (elided) write-back is
  // considered consumed — release the producer's destination AT entry so
  // host traffic to the intermediate no longer blocks.
  if (res->deferred_at_entry >= 0) materialize(*res);
  return true;
}

void Scheduler::before_claim(unsigned vpu) {
  drop_residents([vpu](const Resident& r) { return r.vpu == vpu; });
}

void Scheduler::materialize_deferred(Addr lo, Addr hi) {
  for (Resident& r : residents_) {
    if (r.deferred_at_entry >= 0 && lo < r.hi && r.lo < hi) materialize(r);
  }
}

bool Scheduler::allow_writeback_elision(const crt::KernelExecutor& ex,
                                        Addr dest_lo, Addr dest_hi) {
  // Only when the host queue's next kernel consumes [dest_lo, dest_hi)
  // entirely as one of its sources and runs as a single (per-VPU
  // forwardable) chain.
  if (!is_host(ex.id()) || !cfg_->full_writeback_elision ||
      queues_[serving_].empty()) {
    return false;
  }
  const ReadyEntry& e = queues_[serving_].entries().front();
  const OpState& os = jobs_[e.job].ops[e.op];
  if (os.plan.chain_count != 1) return false;
  const crt::KernelOp& op = os.op;
  for (const crt::Operand* o : {&op.ms1, &op.ms2, &op.ms3}) {
    if (o->valid && o->addr == dest_lo &&
        o->addr + std::max<std::uint32_t>(o->footprint(op.et), 1u) ==
            dest_hi) {
      return true;
    }
  }
  return false;
}

void Scheduler::keep_resident(const crt::FinishedKernel& fin) {
  // The write-back was elided, so the destination lives only in the VPU
  // register file: forward it to the consumer, materialize it if the host
  // touches it first. The executor elides single-tile, unit-step stores only.
  ARCANE_ASSERT(fin.plan.chain_count == 1 && fin.plan.tile_count[0] == 1,
                "elided write-back of a multi-tile kernel");
  crt::Tile tile;
  fin.plan.planner->tile(fin.plan, 0, 0, tile);
  ARCANE_ASSERT(tile.stores.size() == 1 && tile.stores[0].vreg_step == 1 &&
                    tile.stores[0].vreg_offset == 0,
                "elided write-back of a strided store");
  const crt::DmaXfer& s = tile.stores[0];
  residents_.push_back({s.mem_addr,
                        s.mem_addr + (s.rows - 1) * s.mem_stride + s.row_bytes,
                        fin.vpu, s.first_vreg, fin.plan.vregs_claimed, s.rows,
                        s.row_bytes,
                        s.mem_stride, fin.op.uid, fin.op.dest_at_entry});
  ++ctx_->phases.full_elisions;
  ctx_->llc->host_observer = this;
}

template <typename Pred>
void Scheduler::drop_residents(const Pred& pred) {
  for (auto it = residents_.begin(); it != residents_.end();) {
    if (pred(*it)) {
      if (it->deferred_at_entry >= 0) materialize(*it);
      ctx_->llc->release_kernel_lines(it->uid, 1u << it->vpu, it->vregs);
      it = residents_.erase(it);
    } else {
      ++it;
    }
  }
  if (residents_.empty()) ctx_->llc->host_observer = nullptr;
}

void Scheduler::on_host_access(Addr addr, unsigned len, bool is_write) {
  if (is_write) {
    // The host overwrites the region: the resident copy goes stale.
    drop_residents([&](const Resident& r) {
      return addr < r.hi && r.lo < addr + len;
    });
  } else {
    materialize_deferred(addr, addr + len);
  }
}

void Scheduler::materialize(Resident& r) {
  ARCANE_ASSERT(r.deferred_at_entry >= 0, "materialize of a written resident");
  // Functional lazy write-back: the data becomes architecturally visible;
  // the transfer itself is modeled as background traffic (no critical-path
  // charge — see DESIGN.md on write-back elision).
  for (std::uint32_t row = 0; row < r.rows; ++row) {
    auto src =
        (*ctx_->vpus)[r.vpu].vreg(r.first_vreg + row).subspan(0, r.row_bytes);
    ctx_->llc->write_range(r.lo + row * r.mem_stride,
                           {src.data(), src.size()});
  }
  ctx_->llc->at().release(static_cast<unsigned>(r.deferred_at_entry));
  r.deferred_at_entry = -1;
}

}  // namespace arcane::sched
