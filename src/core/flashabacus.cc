#include "src/core/flashabacus.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <numeric>
#include <span>
#include <utility>

#include "src/sim/log.h"

namespace fabacus {

FlashAbacusConfig FlashAbacusConfig::Paper() { return FlashAbacusConfig{}; }

FlashAbacusConfig FlashAbacusConfig::Small() {
  FlashAbacusConfig cfg;
  cfg.model_scale = 1.0 / 256.0;
  return cfg;
}

std::string FlashAbacusConfig::Validate() const {
  if (num_lwps < 3) {
    return "num_lwps must be >= 3 (Flashvisor + Storengine + at least one worker), got " +
           std::to_string(num_lwps);
  }
  if (tier1.ports < num_lwps) {
    return "tier1.ports (" + std::to_string(tier1.ports) +
           ") must cover every LWP plus the memory port (num_lwps = " +
           std::to_string(num_lwps) + ")";
  }
  if (pcie_gb_per_s <= 0.0) {
    return "pcie_gb_per_s must be positive";
  }
  if (model_scale <= 0.0) {
    return "model_scale must be positive";
  }
  if (load_stream_fraction < 0.0 || load_stream_fraction > 1.0) {
    return "load_stream_fraction must be in [0, 1]";
  }
  if (nand.channels <= 0 || nand.packages_per_channel <= 0) {
    return "nand geometry must have at least one channel and one package per channel";
  }
  if (dram.banks <= 0 || dram.total_gb_per_s <= 0.0) {
    return "dram must have at least one bank and positive bandwidth";
  }
  if (lwp.clock_ghz <= 0.0 || lwp.issue_width <= 0) {
    return "lwp must have positive clock and issue width";
  }
  return "";
}

const char* SchedulerKindName(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kInterStatic:
      return "InterSt";
    case SchedulerKind::kInterDynamic:
      return "InterDy";
    case SchedulerKind::kIntraInOrder:
      return "IntraIo";
    case SchedulerKind::kIntraOutOfOrder:
      return "IntraO3";
  }
  return "?";
}

// One offloaded kernel in flight: the section requests still pending on its
// behalf and the inter-kernel worker stalled on its data.
struct FlashAbacus::KernelRun {
  AppInstance* inst = nullptr;
  int heads_pending = 0;   // head reads: the compute gate
  int tails_pending = 0;   // streamed tails, still arriving
  int stores_pending = 0;  // output writebacks
  bool computed = false;   // every microblock ran
  int stalled_worker = -1;
};

// An inter-kernel queue entry. `resume_mblk` is 0 for fresh kernels and the
// next microblock for kernels a weighted-fair preemption point re-queued.
struct FlashAbacus::PendingKernel {
  KernelRun* kernel = nullptr;
  int resume_mblk = 0;
};

struct FlashAbacus::RunState {
  SchedulerKind kind = SchedulerKind::kIntraOutOfOrder;
  // Arrival order, as in the chain; filled once, so KernelRun* stays valid.
  std::vector<KernelRun> kernels;
  std::function<void(RunReport)> done_cb;
  ExecutionChain chain;
  Tick start_time = 0;

  std::vector<bool> worker_free;
  // Inter-kernel queues: one per worker (InterSt) or one shared (InterDy).
  std::vector<std::deque<PendingKernel>> queues;

  int instances_remaining = 0;
  bool finished = false;
  RunReport result;

  bool inter() const {
    return kind == SchedulerKind::kInterStatic || kind == SchedulerKind::kInterDynamic;
  }
  // The queue `worker` takes its kernels from.
  std::deque<PendingKernel>& queue(std::size_t worker) {
    return queues[kind == SchedulerKind::kInterStatic ? worker : 0];
  }
};

namespace {

// A `type` request for `bytes` of section `s` from byte `offset`, carrying
// whatever functional bytes of the section fall inside it.
Flashvisor::IoRequest SectionIo(AppInstance* inst, const DataSection& s,
                                Flashvisor::IoRequest::Type type, std::uint64_t offset,
                                std::uint64_t bytes) {
  const std::span<std::uint8_t> data = inst->SectionData(s);
  Flashvisor::IoRequest req;
  req.type = type;
  req.flash_addr = s.flash_addr + offset;
  req.model_bytes = bytes;
  req.tenant = inst->tenant;
  if (offset < data.size()) {
    req.func_data = data.data() + offset;
    req.func_bytes = std::min<std::uint64_t>(data.size() - offset, bytes);
  }
  return req;
}

// A load of input section `s` whose read lock stays held until the kernel
// finishes.
Flashvisor::IoRequest SectionLoad(AppInstance* inst, DataSection* s, std::uint64_t offset,
                                  std::uint64_t bytes) {
  Flashvisor::IoRequest req =
      SectionIo(inst, *s, Flashvisor::IoRequest::Type::kRead, offset, bytes);
  req.hold_lock = true;
  req.lock_holder = [s](RangeLock::LockId id) { s->lock_ids.push_back(id); };
  return req;
}

}  // namespace

FlashAbacus::FlashAbacus(Simulator* sim, const FlashAbacusConfig& config)
    : sim_(sim), config_(config) {
  const std::string err = config_.Validate();
  FAB_CHECK(err.empty()) << "invalid FlashAbacusConfig: " << err;
  if (!config_.record_full_trace) {
    trace_.SetMask(kEnergyTraceTags);
  }
  trace_.Reserve(config_.record_full_trace ? 16384 : 1024);
  dram_ = std::make_unique<Dram>(config_.dram);
  scratchpad_ = std::make_unique<Scratchpad>(config_.scratchpad);
  tier1_ = std::make_unique<Crossbar>(config_.tier1);
  backbone_ = std::make_unique<FlashBackbone>(config_.nand);
  backbone_->set_op_observer(
      [this](Tick start, Tick end) { trace_.Add(TraceTag::kFlashOp, start, end); });
  backbone_->set_bus_observer([this](int ch, Tick start, Tick end) {
    trace_.Add(TraceTag::kFlashChan, start, end, 1.0, ch);
  });
  flashvisor_ = std::make_unique<Flashvisor>(sim_, backbone_.get(), dram_.get(),
                                             scratchpad_.get(), config_.flashvisor);
  tenants_ = std::make_unique<TenantManager>(config_.tenant_sched);
  flashvisor_->set_tenants(tenants_.get());
  storengine_ = std::make_unique<Storengine>(sim_, flashvisor_.get(), config_.storengine);
  storengine_->set_trace(&trace_);
  pcie_ = std::make_unique<BandwidthResource>("pcie", config_.pcie_gb_per_s,
                                              config_.pcie_latency);
  const int n_workers = config_.num_lwps - 2;  // LWP0 Flashvisor, LWP1 Storengine
  for (int i = 0; i < n_workers; ++i) {
    workers_.push_back(
        std::make_unique<Lwp>(i + 2, config_.lwp, dram_.get(), tier1_.get(), config_.cache));
  }
  RegisterMetrics();
}

void FlashAbacus::RegisterMetrics() {
  for (const auto& w : workers_) {
    w->RegisterMetrics(&metrics_, "lwp/" + std::to_string(w->id()));
  }
  flashvisor_->RegisterMetrics(&metrics_, "flashvisor");
  storengine_->RegisterMetrics(&metrics_, "storengine");
  backbone_->RegisterMetrics(&metrics_, "flash");
  dram_->RegisterMetrics(&metrics_, "dram");
  scratchpad_->RegisterMetrics(&metrics_, "scratchpad");
  tier1_->RegisterMetrics(&metrics_, "noc/tier1");
  metrics_.RegisterCounter("pcie/transfers", &pcie_->transfers_counter());
  metrics_.RegisterGauge("pcie/bytes_moved", [this](Tick) { return pcie_->bytes_moved(); });
  metrics_.RegisterGauge("pcie/busy_ns", [this](Tick now) {
    return static_cast<double>(pcie_->BusyTime(now));
  });
  metrics_.RegisterCounter("host/io_retries", &io_retries_);
  metrics_.RegisterCounter("host/io_failures", &io_failures_);
  metrics_.RegisterCounter("device/crashes", &crashes_);
  metrics_.RegisterCounter("device/recoveries", &recoveries_);
  metrics_.RegisterCounter("device/recovery_lost_groups", &recovery_lost_groups_);
  metrics_.RegisterCounter("device/recovery_torn_groups", &recovery_torn_groups_);
  metrics_.RegisterGauge("device/last_recovery_ns",
                         [this](Tick) { return static_cast<double>(last_recovery_ns_); });
  // Per-tenant metrics register lazily as tenants first become active.
  tenants_->AttachMetrics(&metrics_);
}

void FlashAbacus::SubmitIoReliable(Flashvisor::IoRequest req, int attempt) {
  // Snapshot the request (with its original on_complete) before wrapping, so
  // a retry resubmits an identical request through the same path.
  Flashvisor::IoRequest retry_copy = req;
  req.on_complete = [this, retry_copy = std::move(retry_copy), attempt](Tick t,
                                                                        IoStatus status) mutable {
    if (status == IoStatus::kUncorrectable && attempt + 1 < config_.io_max_attempts) {
      // The device could not correct the data; back off and re-read. A
      // transient cause (die stall, marginal rung) may clear; a hard loss
      // exhausts the attempts and surfaces below.
      io_retries_.Add();
      sim_->Schedule(config_.io_retry_backoff,
                     [this, retry_copy = std::move(retry_copy), attempt]() mutable {
                       SubmitIoReliable(std::move(retry_copy), attempt + 1);
                     });
      return;
    }
    if (status == IoStatus::kUncorrectable || status == IoStatus::kProgramFailed) {
      io_failures_.Add();
    }
    retry_copy.on_complete(t, status);
  };
  flashvisor_->SubmitIo(std::move(req));
}

std::string FlashAbacus::ConfigFingerprint() const {
  // Everything that shapes serialized state: geometry, capacities, core
  // counts. Timing-only knobs are excluded — restoring into a device with
  // different latencies is well-defined (the horizons are absolute ticks).
  std::string fp;
  fp += "lwps=" + std::to_string(config_.num_lwps);
  fp += ";ch=" + std::to_string(config_.nand.channels);
  fp += ";pkg=" + std::to_string(config_.nand.packages_per_channel);
  fp += ";pl=" + std::to_string(config_.nand.planes_per_package);
  fp += ";blk=" + std::to_string(config_.nand.blocks_per_plane);
  fp += ";pgs=" + std::to_string(config_.nand.pages_per_block);
  fp += ";pb=" + std::to_string(config_.nand.page_bytes);
  fp += ";tagq=" + std::to_string(config_.nand.controller_tag_queue_depth);
  fp += ";dram=" + std::to_string(config_.dram.banks);
  fp += ";spad=" + std::to_string(config_.scratchpad.capacity_bytes);
  fp += ";xbar=" + std::to_string(config_.tier1.ports);
  // Multi-tenant configs shape serialized tenant/quota state; single-tenant
  // devices keep the historical fingerprint (empty suffix).
  fp += tenants_->ConfigSuffix();
  return fp;
}

std::vector<Snapshottable*> FlashAbacus::SnapshotSections() {
  std::vector<Snapshottable*> sections = {
      sim_, this, &trace_, dram_.get(), scratchpad_.get(), tier1_.get(), backbone_.get(),
      &backbone_->faults()};
  for (int ch = 0; ch < config_.nand.channels; ++ch) {
    sections.push_back(&backbone_->controller(ch));
  }
  sections.insert(sections.end(),
                  {flashvisor_.get(), &flashvisor_->mapping(), &flashvisor_->blocks(),
                   &flashvisor_->range_lock(), tenants_.get(), storengine_.get()});
  for (const auto& worker : workers_) {
    sections.push_back(worker.get());
  }
  return sections;
}

void FlashAbacus::Persist(StateIO& io) {
  std::string fp = ConfigFingerprint();  // Resume checks it before any load
  io.Str(fp);
  io.Bool(crashed_);
  pcie_->Persist(io);
  io_retries_.Persist(io);
  io_failures_.Persist(io);
  crashes_.Persist(io);
  recoveries_.Persist(io);
  recovery_lost_groups_.Persist(io);
  recovery_torn_groups_.Persist(io);
  io.U64(last_recovery_ns_);
}

SnapshotBuilder FlashAbacus::BuildSnapshot() const {
  FAB_CHECK(run_ == nullptr || run_->finished) << "cannot snapshot mid-run";
  FAB_CHECK(flashvisor_->QuiescedForSnapshot())
      << "cannot snapshot with I/O queued at Flashvisor";
  FAB_CHECK(sim_->OnlyDaemonsPending())
      << "cannot snapshot with live (non-daemon) events pending";
  SnapshotBuilder b("device");
  b.SetMeta("config", ConfigFingerprint());
  b.SetMeta("sim_now_ns", static_cast<double>(sim_->Now()));
  b.SetMeta("events_executed", static_cast<double>(sim_->events_executed()));
  b.SetMeta("crashed", crashed_ ? "true" : "false");
  for (const Snapshottable* s : const_cast<FlashAbacus*>(this)->SnapshotSections()) {
    b.AddComponent(*s);
  }
  return b;
}

bool FlashAbacus::Snapshot(const std::string& path, std::string* error) const {
  return BuildSnapshot().WriteFile(path, error);
}

bool FlashAbacus::Resume(const SnapshotFile& snap, std::string* error) {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  FAB_CHECK(run_ == nullptr || run_->finished) << "cannot resume into a running device";
  if (snap.kind() != "device") {
    return fail("snapshot kind '" + snap.kind() + "' is not a device snapshot");
  }
  // Gate on the config fingerprint before touching any state.
  {
    StateReader r = snap.Open(StateName(), StateVersion());
    if (!r.ok()) {
      return fail(r.error());
    }
    const std::string fp = r.Str();
    if (!r.ok()) {
      return fail("corrupt device section: " + r.error());
    }
    if (fp != ConfigFingerprint()) {
      return fail("config mismatch: snapshot built for '" + fp + "', this device is '" +
                  ConfigFingerprint() + "'");
    }
  }
  // Stale events (inert daemon ticks from a previous run) must not fire into
  // the restored state; the queue rebuilds from component state as the
  // resumed run schedules work.
  sim_->Halt();
  run_.reset();

  std::string err;
  for (Snapshottable* s : SnapshotSections()) {
    if (!snap.Restore(s, &err)) {
      return fail(err);
    }
  }
  return true;
}

bool FlashAbacus::Resume(const std::string& path, std::string* error) {
  SnapshotFile snap;
  std::string err;
  if (!SnapshotFile::Load(path, &snap, &err)) {
    if (error != nullptr) {
      *error = err;
    }
    return false;
  }
  return Resume(snap, error);
}

void FlashAbacus::CrashAt(Tick when) {
  sim_->ScheduleAt(when, [this]() { Crash(); });
}

void FlashAbacus::Crash() {
  // Power cut: everything scheduled after this instant never happens, flash
  // programs still in flight tear, and all volatile state vanishes. The
  // flash array itself (data + OOB) survives inside the backbone.
  crashed_ = true;
  crashes_.Add();
  sim_->Halt();
  storengine_->Stop();
  backbone_->PowerFail(sim_->Now());
  flashvisor_->OnPowerLoss();
  if (run_ != nullptr) {
    // The range lock died with the device; the abandoned run's lock handles
    // are meaningless and must not be released against the rebuilt lock.
    for (KernelRun& kr : run_->kernels) {
      for (DataSection& s : kr.inst->sections()) {
        s.lock_ids.clear();
      }
    }
  }
  run_.reset();  // the abandoned run's done callback never fires
}

Flashvisor::RecoveryReport FlashAbacus::RecoverFromFlash() {
  FAB_CHECK(crashed_) << "RecoverFromFlash is only valid after a crash";
  const Tick start = sim_->Now();
  const Flashvisor::RecoveryReport rep = flashvisor_->RecoverFromFlash(start);
  // Point Storengine at the journal found on flash so its next dump frees
  // the right predecessor, then re-arm the background daemons.
  storengine_->SetJournalLocation(rep.found_journal ? rep.journal_bg : BlockManager::kNone);
  recoveries_.Add();
  recovery_lost_groups_.Add(rep.lost_groups);
  recovery_torn_groups_.Add(rep.torn_groups);
  last_recovery_ns_ = rep.done - start;
  crashed_ = false;
  return rep;
}

FlashAbacus::~FlashAbacus() = default;

bool FlashAbacus::InstallData(AppInstance* inst, std::function<void(Tick)> done) {
  // Materialize the instance's data sections: allocate logical flash extents
  // (charged against the tenant's flash-space quota, all-or-nothing) and
  // stream the input buffers in through Flashvisor's normal write path.
  inst->LayOutSections();
  std::vector<std::uint64_t> sizes;
  for (const DataSection& s : inst->sections()) {
    sizes.push_back(s.model_bytes);
  }
  std::vector<std::uint64_t> addrs;
  if (!flashvisor_->TryAllocTenantExtents(inst->tenant, sizes, &addrs)) {
    inst->sections().clear();  // quota denial: nothing allocated, done never fires
    return false;
  }
  for (std::size_t i = 0; i < inst->sections().size(); ++i) {
    inst->sections()[i].flash_addr = addrs[i];
  }

  auto pending = std::make_shared<int>(0);
  auto latest = std::make_shared<Tick>(sim_->Now());
  for (DataSection& s : inst->sections()) {
    if (s.spec->dir != DataSectionSpec::Dir::kIn) {
      continue;
    }
    ++*pending;
    Flashvisor::IoRequest req =
        SectionIo(inst, s, Flashvisor::IoRequest::Type::kWrite, 0, s.model_bytes);
    req.on_complete = [pending, latest, done](Tick t, IoStatus) {
      *latest = std::max(*latest, t);
      if (--*pending == 0) {
        done(*latest);
      }
    };
    SubmitIoReliable(std::move(req));
  }
  if (*pending == 0) {
    sim_->Schedule(0, [done, latest]() { done(*latest); });
  }
  return true;
}

void FlashAbacus::ReadSectionFromFlash(AppInstance* inst, int section_idx,
                                       std::vector<float>* out,
                                       std::function<void(Tick)> done) {
  const DataSection& s = inst->sections().at(static_cast<std::size_t>(section_idx));
  Flashvisor::IoRequest req =
      SectionIo(inst, s, Flashvisor::IoRequest::Type::kRead, 0, s.model_bytes);
  out->assign(req.func_bytes / sizeof(float), 0.0f);
  req.func_data = out->data();
  req.on_complete = [done = std::move(done)](Tick t, IoStatus) { done(t); };
  SubmitIoReliable(std::move(req));
}

void FlashAbacus::Run(std::vector<AppInstance*> instances, SchedulerKind kind,
                      std::function<void(RunReport)> done) {
  FAB_CHECK(run_ == nullptr || run_->finished) << "device already running a workload";
  FAB_CHECK(!instances.empty());
  run_ = std::make_unique<RunState>();
  RunState* rs = run_.get();
  rs->kind = kind;
  for (AppInstance* inst : instances) {
    rs->kernels.push_back(KernelRun{.inst = inst});
  }
  rs->done_cb = std::move(done);
  rs->start_time = sim_->Now();
  rs->worker_free.assign(workers_.size(), true);
  rs->queues.resize(kind == SchedulerKind::kInterStatic ? workers_.size() : rs->inter() ? 1 : 0);
  rs->instances_remaining = static_cast<int>(rs->kernels.size());
  rs->result.system = SchedulerKindName(kind);

  storengine_->Start();

  // Inter-kernel modes execute each kernel as a single instruction stream,
  // so their chain nodes have exactly one screen per microblock.
  const int fanout = rs->inter() ? 1 : num_workers();
  for (KernelRun& kr : rs->kernels) {
    rs->chain.AddApp(kr.inst, fanout);
    kr.inst->submit_time = sim_->Now();
    tenants_->OnSubmit(kr.inst->tenant, sim_->Now());
    OffloadKernel(rs, &kr);
  }
}

void FlashAbacus::OffloadKernel(RunState* rs, KernelRun* kr) {
  // Host-side toolchain: serialize the kernel into its description table
  // (real bytes — an ELF-like object, see kernel_table.h), then write it
  // through the PCIe BAR into DDR3L and raise an interrupt that Flashvisor
  // services (paper §4, "Offload"/"Execution"). The transferred payload is
  // the table plus the .text/.heap/.stack images it declares.
  AppInstance* inst = kr->inst;
  auto table = std::make_shared<std::vector<std::uint8_t>>(
      SerializeKernelTable(inst->spec()));
  const double table_bytes =
      static_cast<double>(table->size()) + static_cast<double>(inst->spec().text_bytes);
  const BandwidthResource::Reservation r = pcie_->Reserve(sim_->Now(), table_bytes);
  trace_.Add(TraceTag::kPcieXfer, r.start, r.end);
  const Tick dram_done = dram_->BulkAccess(r.end, table_bytes);
  sim_->ScheduleAt(dram_done, [this, rs, kr, inst, table]() {
    // Interrupt -> Flashvisor parses and validates the description table
    // before registering the kernel (a corrupted offload must not execute).
    KernelSpec parsed;
    std::string error;
    FAB_CHECK(ParseKernelTable(*table, &parsed, &error))
        << "kernel table rejected: " << error;
    FAB_CHECK_EQ(parsed.name, inst->spec().name);
    FAB_CHECK_EQ(parsed.num_microblocks(), inst->spec().num_microblocks());
    FAB_CHECK_EQ(parsed.sections.size(), inst->spec().sections.size());
    StartLoad(rs, kr);
    if (tenants_->weighted_fair()) {
      // Activation clamp: a tenant that was idle must not bank credit — its
      // virtual time jumps forward to the floor of the currently-active set,
      // so it competes fairly from "now" instead of replaying its idle past.
      double floor_vt = 0.0;
      bool have_floor = false;
      for (const KernelRun& other : rs->kernels) {
        if (other.inst->tenant == inst->tenant || other.inst->done) {
          continue;
        }
        const double vt = tenants_->virtual_time(other.inst->tenant);
        if (!have_floor || vt < floor_vt) {
          floor_vt = vt;
          have_floor = true;
        }
      }
      if (have_floor) {
        tenants_->ClampVirtualTime(inst->tenant, floor_vt);
      }
    }
    if (rs->inter()) {
      rs->queue(static_cast<std::size_t>(inst->app_id()) % workers_.size())
          .push_back(PendingKernel{kr, 0});
    }
    TryDispatch(rs);
  });
}

void FlashAbacus::StartLoad(RunState* rs, KernelRun* kr) {
  // Streamed loads (paper §2.2: DDR3L hides flash latency): each input
  // section splits into a *head* request — the prefix the kernel needs
  // before its first microblock can run — and a background *tail* that
  // streams in under the compute. Functional bytes ride whichever request
  // covers their offsets; both hold read locks until the kernel finishes.
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const double head_frac = std::clamp(config_.load_stream_fraction, 0.0, 1.0);
  for (DataSection& s : kr->inst->sections()) {
    if (s.spec->dir != DataSectionSpec::Dir::kIn) {
      continue;
    }
    const std::uint64_t n_groups = (s.model_bytes + group_bytes - 1) / group_bytes;
    std::uint64_t head_groups = static_cast<std::uint64_t>(
        static_cast<double>(n_groups) * head_frac + 0.999);
    head_groups = std::max<std::uint64_t>(1, std::min(head_groups, n_groups));
    const std::uint64_t head_bytes = std::min(head_groups * group_bytes, s.model_bytes);
    Flashvisor::IoRequest head = SectionLoad(kr->inst, &s, 0, head_bytes);
    head.on_complete = [this, rs, kr](Tick t, IoStatus) {
      if (--kr->heads_pending == 0) {
        OnLoaded(rs, kr, t);
      }
    };
    ++kr->heads_pending;
    SubmitIoReliable(std::move(head));
    if (head_bytes < s.model_bytes) {
      ++kr->tails_pending;
      StreamTail(rs, kr, &s, head_bytes);
    }
  }
  if (kr->heads_pending == 0) {
    OnLoaded(rs, kr, sim_->Now());
  }
}

void FlashAbacus::StreamTail(RunState* rs, KernelRun* kr, DataSection* s, std::uint64_t offset) {
  // Tails self-pace: one outstanding chunk per section, so background
  // streaming never books the whole device ahead of other kernels' demand
  // (head) fetches.
  const std::uint64_t chunk =
      std::min<std::uint64_t>(s->model_bytes - offset, 16 * backbone_->config().GroupBytes());
  Flashvisor::IoRequest req = SectionLoad(kr->inst, s, offset, chunk);
  req.on_complete = [this, rs, kr, s, next = offset + chunk](Tick, IoStatus) {
    if (next < s->model_bytes) {
      StreamTail(rs, kr, s, next);
    } else if (--kr->tails_pending == 0 && kr->computed) {
      StartWriteback(rs, kr);
    }
  };
  SubmitIoReliable(std::move(req));
}

void FlashAbacus::OnLoaded(RunState* rs, KernelRun* kr, Tick when) {
  kr->inst->load_done_time = when;
  rs->chain.MarkLoadDone(kr->inst);
  // Wake a worker stalled on this kernel's data (inter-kernel modes).
  if (kr->stalled_worker >= 0) {
    RunKernelMicroblock(rs, kr, std::exchange(kr->stalled_worker, -1), 0);
  } else {
    TryDispatch(rs);
  }
}

void FlashAbacus::OnComputeDone(RunState* rs, KernelRun* kr) {
  kr->inst->compute_done_time = sim_->Now();
  kr->computed = true;
  // A kernel that consumed its streamed input no faster than it arrived
  // writes back once the last tail lands.
  if (kr->tails_pending == 0) {
    StartWriteback(rs, kr);
  }
}

void FlashAbacus::TryDispatch(RunState* rs) {
  if (rs->finished) {
    return;
  }
  if (rs->inter()) {
    DispatchInterKernel(rs);
  } else {
    DispatchIntraKernel(rs);
  }
}

bool FlashAbacus::PrefersTenant(TenantId a, TenantId b) const {
  if (a == b) {
    return false;
  }
  const bool la = tenants_->latency_class(a);
  const bool lb = tenants_->latency_class(b);
  if (la != lb) {
    return la;
  }
  const double va = tenants_->virtual_time(a);
  const double vb = tenants_->virtual_time(b);
  if (va != vb) {
    return va < vb;
  }
  return a < b;
}

std::vector<int> FlashAbacus::TenantDispatchOrder(const RunState* rs) const {
  // Stable, so instances of one tenant keep their submission order.
  std::vector<int> order(rs->kernels.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this, rs](int a, int b) {
    return PrefersTenant(rs->kernels[static_cast<std::size_t>(a)].inst->tenant,
                         rs->kernels[static_cast<std::size_t>(b)].inst->tenant);
  });
  return order;
}

std::size_t FlashAbacus::PickPendingKernel(const std::deque<PendingKernel>& q) const {
  // The earliest-queued kernel of the most preferred tenant.
  std::size_t best = 0;
  for (std::size_t i = 1; i < q.size(); ++i) {
    if (PrefersTenant(q[i].kernel->inst->tenant, q[best].kernel->inst->tenant)) {
      best = i;
    }
  }
  return best;
}

bool FlashAbacus::ShouldPreemptInter(RunState* rs, const KernelRun* kr, int worker) const {
  if (!tenants_->weighted_fair() || tenants_->latency_class(kr->inst->tenant)) {
    return false;
  }
  for (const PendingKernel& pk : rs->queue(static_cast<std::size_t>(worker))) {
    if (tenants_->latency_class(pk.kernel->inst->tenant) &&
        rs->chain.IsLoadDone(pk.kernel->inst)) {
      return true;
    }
  }
  return false;
}

void FlashAbacus::DispatchInterKernel(RunState* rs) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    std::deque<PendingKernel>& q = rs->queue(w);
    if (!rs->worker_free[w] || q.empty()) {
      continue;
    }
    const std::size_t pick = tenants_->weighted_fair() ? PickPendingKernel(q) : 0;
    const PendingKernel pk = q[pick];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    rs->worker_free[w] = false;
    const int worker = static_cast<int>(w);
    flashvisor_->RunSchedulingTask([this, rs, pk, worker](Tick t) {
      trace_.Add(TraceTag::kSchedule, t - flashvisor_->config().scheduling_cost, t);
      // PSC wake/boot sequence, then the kernel runs as a single instruction
      // stream: every microblock in order on this one LWP, a preempted one
      // from the microblock boundary where it yielded.
      workers_[static_cast<std::size_t>(worker)]->BootKernel(sim_->Now());
      if (!rs->chain.IsLoadDone(pk.kernel->inst)) {
        // Stall (occupied but not utilized) until the data sections arrive.
        FAB_CHECK_EQ(pk.resume_mblk, 0);  // a preempted kernel already had its data
        pk.kernel->stalled_worker = worker;
        return;
      }
      RunKernelMicroblock(rs, pk.kernel, worker, pk.resume_mblk);
    });
  }
}

void FlashAbacus::RunKernelMicroblock(RunState* rs, KernelRun* kr, int worker, int mblk) {
  const ScreenRef ref{kr->inst, mblk, 0, 1, static_cast<int>(kr - rs->kernels.data())};
  tenants_->ChargeWork(kr->inst->tenant, ComputeScreenWork(*kr->inst, mblk, 0, 1).instructions);
  rs->chain.OnDispatched(ref);
  RunScreen(rs, ref, worker, sim_->Now());
}

void FlashAbacus::DispatchIntraKernel(RunState* rs) {
  while (true) {
    const auto idle = std::find(rs->worker_free.begin(), rs->worker_free.end(), true);
    if (idle == rs->worker_free.end()) {
      return;
    }
    const int worker = static_cast<int>(idle - rs->worker_free.begin());
    // Re-rank every iteration under weighted-fair QoS: each dispatch advances
    // the tenant's virtual time, which can flip the preference before the
    // next free worker.
    std::vector<int> order;
    const std::vector<int>* visit = nullptr;
    if (tenants_->weighted_fair()) {
      order = TenantDispatchOrder(rs);
      visit = &order;
    }
    ScreenRef ref;
    const bool found = rs->kind == SchedulerKind::kIntraInOrder
                           ? rs->chain.NextReadyScreenInOrder(&ref, visit)
                           : rs->chain.NextReadyScreen(&ref, visit);
    if (!found) {
      return;
    }
    rs->chain.OnDispatched(ref);
    tenants_->ChargeWork(
        ref.inst->tenant,
        ComputeScreenWork(*ref.inst, ref.mblk, ref.screen, ref.num_screens).instructions);
    rs->worker_free[static_cast<std::size_t>(worker)] = false;
    // Each screen dispatch is a Flashvisor decision plus queue round trips —
    // the fine-granularity overhead the paper measures against IntraO3.
    flashvisor_->RunSchedulingTask([this, rs, ref, worker](Tick t) {
      trace_.Add(TraceTag::kSchedule, t - flashvisor_->config().scheduling_cost, t);
      RunScreen(rs, ref, worker, sim_->Now() + flashvisor_->config().queue_latency);
    });
  }
}

void FlashAbacus::RunScreen(RunState* rs, const ScreenRef& ref, int worker, Tick start) {
  Lwp& lwp = *workers_[static_cast<std::size_t>(worker)];
  const Lwp::ScreenTiming t = lwp.ExecuteScreen(
      start, ComputeScreenWork(*ref.inst, ref.mblk, ref.screen, ref.num_screens));
  trace_.Add(TraceTag::kLwpCompute, t.start, t.end, t.avg_fus_busy, lwp.id());
  sim_->ScheduleAt(t.end, [this, rs, ref, worker]() {
    const MicroblockSpec& spec =
        ref.inst->spec().microblocks[static_cast<std::size_t>(ref.mblk)];
    if (spec.body) {
      std::size_t begin = 0;
      std::size_t end = 0;
      ScreenFuncRange(*ref.inst, ref.mblk, ref.screen, ref.num_screens, &begin, &end);
      spec.body(*ref.inst, begin, end);
    }
    KernelRun* kr = &rs->kernels[static_cast<std::size_t>(ref.app)];
    const bool kernel_done = rs->chain.OnScreenComplete(ref);
    if (rs->inter() && !kernel_done) {
      // An inter-kernel stream runs on to its next microblock, unless a
      // weighted-fair preemption point yields the LWP to a queued
      // latency-class kernel; this one re-queues at its next microblock.
      if (!ShouldPreemptInter(rs, kr, worker)) {
        RunKernelMicroblock(rs, kr, worker, ref.mblk + 1);
        return;
      }
      rs->queue(static_cast<std::size_t>(worker)).push_back(PendingKernel{kr, ref.mblk + 1});
    }
    rs->worker_free[static_cast<std::size_t>(worker)] = true;
    if (kernel_done) {
      OnComputeDone(rs, kr);
    }
    TryDispatch(rs);
  });
}

void FlashAbacus::StartWriteback(RunState* rs, KernelRun* kr) {
  // The kernel no longer uses its input mappings: release the read locks.
  for (DataSection& s : kr->inst->sections()) {
    for (std::uint64_t id : s.lock_ids) {
      flashvisor_->ReleaseLock(id);
    }
    s.lock_ids.clear();
  }
  for (const DataSection& s : kr->inst->sections()) {
    if (s.spec->dir != DataSectionSpec::Dir::kOut) {
      continue;
    }
    Flashvisor::IoRequest req =
        SectionIo(kr->inst, s, Flashvisor::IoRequest::Type::kWrite, 0, s.model_bytes);
    req.on_complete = [this, rs, kr](Tick t, IoStatus) {
      if (--kr->stores_pending == 0) {
        FinishInstance(rs, kr, t);
      }
    };
    ++kr->stores_pending;
    SubmitIoReliable(std::move(req));
  }
  if (kr->stores_pending == 0) {
    FinishInstance(rs, kr, sim_->Now());
  }
}

void FlashAbacus::FinishInstance(RunState* rs, KernelRun* kr, Tick when) {
  AppInstance* inst = kr->inst;
  inst->complete_time = when;
  inst->done = true;
  rs->result.completion_times.push_back(when - rs->start_time);
  tenants_->OnComplete(inst->tenant, TicksToMs(when - inst->submit_time), when);
  if (--rs->instances_remaining > 0) {
    return;
  }
  rs->finished = true;
  storengine_->Stop();
  FinalizeResult(rs);
  // Hand the result out; keep run_ alive until the next Run() replaces it.
  if (rs->done_cb) {
    rs->done_cb(std::move(rs->result));
  }
}

void FlashAbacus::FinalizeResult(RunState* rs) {
  RunReport& res = rs->result;
  const Tick end = sim_->Now();
  res.metrics = metrics_.Snapshot(end);
  res.tenants = tenants_->BuildReport();
  res.fairness = TenantManager::ComputeFairness(res.tenants);
  res.makespan = end - rs->start_time;
  double input_bytes = 0.0;
  for (const KernelRun& kr : rs->kernels) {
    input_bytes += kr.inst->model_input_bytes();
  }
  res.input_bytes = input_bytes;
  res.throughput_mb_s =
      res.makespan == 0 ? 0.0
                        : input_bytes / (1024.0 * 1024.0) / TicksToSeconds(res.makespan);

  // Utilization over the run window only (workers are idle during the
  // pre-run data install, which must not dilute the denominator).
  double util = 0.0;
  for (const auto& w : workers_) {
    util += res.makespan == 0
                ? 0.0
                : static_cast<double>(std::min(w->BusyTime(end), res.makespan)) /
                      static_cast<double>(res.makespan);
  }
  res.worker_utilization = workers_.empty() ? 0.0 : util / static_cast<double>(workers_.size());

  // ---- Energy (accelerator only; no host in the loop) ----
  const PowerModel& p = config_.power;
  EnergyMeter& e = res.energy;
  const Tick T = res.makespan;
  for (const auto& w : workers_) {
    const Tick busy = std::min(w->BusyTime(end), T);
    // PSC sleep accounting (paper §4, "Execution": Flashvisor parks idle
    // LWPs through the power/sleep controller): long idle gaps draw the
    // deep-sleep power instead of the idle power.
    const Tick sleep = std::min(w->SleepTime(rs->start_time, end), T - busy);
    e.AddActive(EnergyBucket::kComputation, "lwp", p.lwp_active_w, 0, busy);
    e.AddStatic(EnergyBucket::kComputation, "lwp", p.lwp_sleep_w, sleep);
    e.AddStatic(EnergyBucket::kComputation, "lwp", p.lwp_idle_w, T - busy - sleep);
  }
  // Flashvisor and Storengine poll their queues for the whole run — the paper
  // charges them as always-active cores (InterSt's energy penalty).
  e.AddStatic(EnergyBucket::kComputation, "flashvisor", p.lwp_active_w, T);
  e.AddStatic(EnergyBucket::kComputation, "storengine", p.lwp_active_w, T);

  const Tick dram_busy = std::min(dram_->BusyTime(end), T);
  e.AddActive(EnergyBucket::kComputation, "ddr3l", p.ddr3l_active_w, 0, dram_busy);
  e.AddStatic(EnergyBucket::kComputation, "ddr3l", p.ddr3l_idle_w, T - dram_busy);

  const Tick spm_busy = std::min(scratchpad_->BusyTime(end), T);
  e.AddActive(EnergyBucket::kComputation, "scratchpad", p.scratchpad_active_w, 0, spm_busy);
  e.AddStatic(EnergyBucket::kComputation, "scratchpad", p.scratchpad_idle_w, T - spm_busy);

  // Scope the device-lifetime trace to this run (drops install activity and
  // re-bases interval times to the run start).
  res.trace = trace_.Window(rs->start_time, end);

  const Tick flash_busy = std::min(res.trace.UnionTime(TraceTag::kFlashOp), T);
  e.AddActive(EnergyBucket::kStorageAccess, "flash", p.flash_active_w, 0, flash_busy);
  e.AddStatic(EnergyBucket::kStorageAccess, "flash", p.flash_idle_w, T - flash_busy);

  const Tick pcie_busy = std::min(res.trace.UnionTime(TraceTag::kPcieXfer), T);
  e.AddActive(EnergyBucket::kDataMovement, "pcie", p.pcie_active_w, 0, pcie_busy);
  e.AddStatic(EnergyBucket::kDataMovement, "pcie", p.pcie_idle_w, T - pcie_busy);
}

}  // namespace fabacus
