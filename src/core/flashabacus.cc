#include "src/core/flashabacus.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

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

// An inter-kernel queue entry. `resume_mblk` is 0 for fresh kernels and the
// next microblock for kernels a weighted-fair preemption point re-queued.
struct FlashAbacus::PendingKernel {
  AppInstance* inst = nullptr;
  int resume_mblk = 0;
};

struct FlashAbacus::RunState {
  SchedulerKind kind = SchedulerKind::kIntraOutOfOrder;
  std::vector<AppInstance*> instances;
  std::function<void(RunReport)> done_cb;
  ExecutionChain chain;
  Tick start_time = 0;

  std::vector<bool> worker_free;
  std::vector<std::deque<PendingKernel>> static_queues;  // per worker
  std::deque<PendingKernel> dynamic_queue;

  // Inter-kernel: worker stalled waiting for an instance's load.
  std::unordered_map<AppInstance*, int> waiting_worker;
  std::unordered_map<AppInstance*, int> loads_pending;  // head requests (compute gate)
  std::unordered_map<AppInstance*, int> tails_pending;  // streamed tails
  std::unordered_map<AppInstance*, bool> awaiting_tail; // compute done, tails not
  std::unordered_map<AppInstance*, int> stores_pending;

  int instances_remaining = 0;
  bool finished = false;
  RunReport result;
};

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

  b.AddComponent(*sim_);
  // v2: the device section is followed by the tenant-QoS component.
  StateWriter& w = b.AddSection("device", 2);
  w.Str(ConfigFingerprint());
  w.Bool(crashed_);
  pcie_->SaveState(w);
  io_retries_.SaveState(w);
  io_failures_.SaveState(w);
  crashes_.SaveState(w);
  recoveries_.SaveState(w);
  recovery_lost_groups_.SaveState(w);
  recovery_torn_groups_.SaveState(w);
  w.U64(last_recovery_ns_);

  b.AddComponent(trace_);
  b.AddComponent(*dram_);
  b.AddComponent(*scratchpad_);
  b.AddComponent(*tier1_);
  b.AddComponent(*backbone_);
  b.AddComponent(backbone_->faults());
  for (int ch = 0; ch < config_.nand.channels; ++ch) {
    b.AddComponent(backbone_->controller(ch));
  }
  b.AddComponent(*flashvisor_);
  b.AddComponent(flashvisor_->mapping());
  b.AddComponent(flashvisor_->blocks());
  b.AddComponent(flashvisor_->range_lock());
  b.AddComponent(*tenants_);
  b.AddComponent(*storengine_);
  for (const auto& worker : workers_) {
    b.AddComponent(*worker);
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
    StateReader r = snap.Open("device", 2);
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
  auto restore = [&](Snapshottable* s) { return snap.Restore(s, &err); };
  if (!restore(sim_) || !restore(&trace_) || !restore(dram_.get()) ||
      !restore(scratchpad_.get()) || !restore(tier1_.get()) || !restore(backbone_.get()) ||
      !restore(&backbone_->faults())) {
    return fail(err);
  }
  for (int ch = 0; ch < config_.nand.channels; ++ch) {
    if (!restore(&backbone_->controller(ch))) {
      return fail(err);
    }
  }
  if (!restore(flashvisor_.get()) || !restore(&flashvisor_->mapping()) ||
      !restore(&flashvisor_->blocks()) || !restore(&flashvisor_->range_lock()) ||
      !restore(tenants_.get()) || !restore(storengine_.get())) {
    return fail(err);
  }
  for (const auto& worker : workers_) {
    if (!restore(worker.get())) {
      return fail(err);
    }
  }

  StateReader r = snap.Open("device", 2);
  r.Str();  // fingerprint, validated above
  crashed_ = r.Bool();
  pcie_->LoadState(r);
  io_retries_.LoadState(r);
  io_failures_.LoadState(r);
  crashes_.LoadState(r);
  recoveries_.LoadState(r);
  recovery_lost_groups_.LoadState(r);
  recovery_torn_groups_.LoadState(r);
  last_recovery_ns_ = r.U64();
  if (!r.ok()) {
    return fail("corrupt device section: " + r.error());
  }
  if (!r.AtEnd()) {
    return fail("device section has trailing bytes");
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
    for (AppInstance* inst : run_->instances) {
      for (DataSection& s : inst->sections()) {
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

std::uint64_t FlashAbacus::SectionFuncBytes(const AppInstance& inst,
                                            const DataSection& s) const {
  if (s.spec->buffer_index < 0) {
    return 0;
  }
  return inst.buffer(s.spec->buffer_index).size() * sizeof(float);
}

bool FlashAbacus::InstallData(AppInstance* inst, std::function<void(Tick)> done) {
  // Materialize the instance's data sections: allocate logical flash extents
  // (charged against the tenant's flash-space quota, all-or-nothing) and
  // stream the input buffers in through Flashvisor's normal write path.
  inst->sections().clear();
  std::vector<std::uint64_t> sizes;
  for (const DataSectionSpec& spec : inst->spec().sections) {
    DataSection s;
    s.spec = &spec;
    std::uint64_t func_bytes = 0;
    if (spec.buffer_index >= 0) {
      func_bytes = inst->buffer(spec.buffer_index).size() * sizeof(float);
    }
    const double model = inst->model_input_bytes() * spec.model_fraction;
    s.model_bytes = std::max<std::uint64_t>(static_cast<std::uint64_t>(model), func_bytes);
    s.model_bytes = std::max<std::uint64_t>(s.model_bytes, 1);
    sizes.push_back(s.model_bytes);
    inst->sections().push_back(s);
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
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = s.flash_addr;
    req.model_bytes = s.model_bytes;
    req.tenant = inst->tenant;
    if (s.spec->buffer_index >= 0) {
      req.func_data = inst->buffer(s.spec->buffer_index).data();
      req.func_bytes = SectionFuncBytes(*inst, s);
    }
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
  DataSection& s = inst->sections().at(static_cast<std::size_t>(section_idx));
  const std::uint64_t func_bytes = SectionFuncBytes(*inst, s);
  out->assign(func_bytes / sizeof(float), 0.0f);
  Flashvisor::IoRequest req;
  req.type = Flashvisor::IoRequest::Type::kRead;
  req.flash_addr = s.flash_addr;
  req.model_bytes = s.model_bytes;
  req.tenant = inst->tenant;
  req.func_data = out->data();
  req.func_bytes = func_bytes;
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
  rs->instances = std::move(instances);
  rs->done_cb = std::move(done);
  rs->start_time = sim_->Now();
  rs->worker_free.assign(workers_.size(), true);
  rs->static_queues.assign(workers_.size(), {});
  rs->instances_remaining = static_cast<int>(rs->instances.size());
  rs->result.system = SchedulerKindName(kind);

  storengine_->Start();

  // Inter-kernel modes execute each kernel as a single instruction stream,
  // so their chain nodes have exactly one screen per microblock.
  const bool inter = kind == SchedulerKind::kInterStatic || kind == SchedulerKind::kInterDynamic;
  const int fanout = inter ? 1 : num_workers();
  for (AppInstance* inst : rs->instances) {
    rs->chain.AddApp(inst, fanout);
    inst->submit_time = sim_->Now();
    tenants_->OnSubmit(inst->tenant, sim_->Now());
    OffloadKernel(rs, inst);
  }
}

void FlashAbacus::OffloadKernel(RunState* rs, AppInstance* inst) {
  // Host-side toolchain: serialize the kernel into its description table
  // (real bytes — an ELF-like object, see kernel_table.h), then write it
  // through the PCIe BAR into DDR3L and raise an interrupt that Flashvisor
  // services (paper §4, "Offload"/"Execution"). The transferred payload is
  // the table plus the .text/.heap/.stack images it declares.
  auto table = std::make_shared<std::vector<std::uint8_t>>(
      SerializeKernelTable(inst->spec()));
  const double table_bytes =
      static_cast<double>(table->size()) + static_cast<double>(inst->spec().text_bytes);
  const BandwidthResource::Reservation r = pcie_->Reserve(sim_->Now(), table_bytes);
  trace_.Add(TraceTag::kPcieXfer, r.start, r.end);
  const Tick dram_done = dram_->BulkAccess(r.end, table_bytes);
  sim_->ScheduleAt(dram_done, [this, rs, inst, table]() {
    // Interrupt -> Flashvisor parses and validates the description table
    // before registering the kernel (a corrupted offload must not execute).
    KernelSpec parsed;
    std::string error;
    FAB_CHECK(ParseKernelTable(*table, &parsed, &error))
        << "kernel table rejected: " << error;
    FAB_CHECK_EQ(parsed.name, inst->spec().name);
    FAB_CHECK_EQ(parsed.num_microblocks(), inst->spec().num_microblocks());
    FAB_CHECK_EQ(parsed.sections.size(), inst->spec().sections.size());
    StartLoad(rs, inst);
    if (tenants_->weighted_fair()) {
      // Activation clamp: a tenant that was idle must not bank credit — its
      // virtual time jumps forward to the floor of the currently-active set,
      // so it competes fairly from "now" instead of replaying its idle past.
      double floor_vt = 0.0;
      bool have_floor = false;
      for (const AppInstance* other : rs->instances) {
        if (other->tenant == inst->tenant || other->done) {
          continue;
        }
        const double vt = tenants_->virtual_time(other->tenant);
        if (!have_floor || vt < floor_vt) {
          floor_vt = vt;
          have_floor = true;
        }
      }
      if (have_floor) {
        tenants_->ClampVirtualTime(inst->tenant, floor_vt);
      }
    }
    switch (rs->kind) {
      case SchedulerKind::kInterStatic:
        rs->static_queues[static_cast<std::size_t>(inst->app_id()) % workers_.size()]
            .push_back(PendingKernel{inst, 0});
        break;
      case SchedulerKind::kInterDynamic:
        rs->dynamic_queue.push_back(PendingKernel{inst, 0});
        break;
      default:
        break;
    }
    TryDispatch(rs);
  });
}

void FlashAbacus::StartLoad(RunState* rs, AppInstance* inst) {
  // Streamed loads (paper §2.2: DDR3L hides flash latency): each input
  // section splits into a *head* request — the prefix the kernel needs
  // before its first microblock can run — and a background *tail* that
  // streams in under the compute. Functional bytes ride whichever request
  // covers their offsets; both hold read locks until the kernel finishes.
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const double head_frac = std::clamp(config_.load_stream_fraction, 0.0, 1.0);

  int n_heads = 0;
  int n_tails = 0;
  struct Piece {
    DataSection* section;
    std::uint64_t addr;
    std::uint64_t model_bytes;
    void* func_data;
    std::uint64_t func_bytes;
    bool is_head;
  };
  std::vector<Piece> pieces;
  for (DataSection& s : inst->sections()) {
    if (s.spec->dir != DataSectionSpec::Dir::kIn) {
      continue;
    }
    const std::uint64_t n_groups = (s.model_bytes + group_bytes - 1) / group_bytes;
    std::uint64_t head_groups = static_cast<std::uint64_t>(
        static_cast<double>(n_groups) * head_frac + 0.999);
    head_groups = std::max<std::uint64_t>(1, std::min(head_groups, n_groups));
    const std::uint64_t head_bytes = std::min(head_groups * group_bytes, s.model_bytes);
    std::uint8_t* func = nullptr;
    std::uint64_t func_bytes = 0;
    if (s.spec->buffer_index >= 0) {
      func = reinterpret_cast<std::uint8_t*>(inst->buffer(s.spec->buffer_index).data());
      func_bytes = SectionFuncBytes(*inst, s);
    }
    pieces.push_back(Piece{&s, s.flash_addr, head_bytes, func,
                           std::min(func_bytes, head_bytes), true});
    ++n_heads;
    if (head_bytes < s.model_bytes) {
      const std::uint64_t tail_func =
          func_bytes > head_bytes ? func_bytes - head_bytes : 0;
      pieces.push_back(Piece{&s, s.flash_addr + head_groups * group_bytes,
                             s.model_bytes - head_bytes,
                             tail_func > 0 ? func + head_bytes : nullptr, tail_func, false});
      ++n_tails;
    }
  }
  rs->loads_pending[inst] = n_heads;
  rs->tails_pending[inst] = n_tails;
  rs->awaiting_tail[inst] = false;
  if (n_heads == 0) {
    inst->load_done_time = sim_->Now();
    rs->chain.MarkLoadDone(inst);
    TryDispatch(rs);
    return;
  }
  for (Piece& p : pieces) {
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kRead;
    req.flash_addr = p.addr;
    req.model_bytes = p.model_bytes;
    req.tenant = inst->tenant;
    req.func_data = p.func_data;
    req.func_bytes = p.func_bytes;
    req.hold_lock = true;
    DataSection* section = p.section;
    req.lock_holder = [section](RangeLock::LockId id) { section->lock_ids.push_back(id); };
    if (p.is_head) {
      req.on_complete = [this, rs, inst](Tick t, IoStatus) {
        if (--rs->loads_pending[inst] == 0) {
          inst->load_done_time = t;
          rs->chain.MarkLoadDone(inst);
          // Wake a worker stalled on this kernel's data (inter-kernel modes).
          auto it = rs->waiting_worker.find(inst);
          if (it != rs->waiting_worker.end()) {
            const int w = it->second;
            rs->waiting_worker.erase(it);
            RunKernelMicroblock(rs, inst, w, 0);
          } else {
            TryDispatch(rs);
          }
        }
      };
      SubmitIoReliable(std::move(req));
    } else {
      // Tails self-pace: one outstanding chunk per section, so background
      // streaming never books the whole device ahead of other kernels'
      // demand (head) fetches.
      StreamTail(rs, inst, p.section, p.addr, p.model_bytes,
                 static_cast<std::uint8_t*>(p.func_data), p.func_bytes);
    }
  }
}

void FlashAbacus::StreamTail(RunState* rs, AppInstance* inst, DataSection* section,
                             std::uint64_t addr, std::uint64_t remaining,
                             std::uint8_t* func_data, std::uint64_t func_remaining) {
  const std::uint64_t group_bytes = backbone_->config().GroupBytes();
  const std::uint64_t chunk = std::min<std::uint64_t>(remaining, 16 * group_bytes);
  Flashvisor::IoRequest req;
  req.type = Flashvisor::IoRequest::Type::kRead;
  req.flash_addr = addr;
  req.model_bytes = chunk;
  req.tenant = inst->tenant;
  req.func_data = func_remaining > 0 ? func_data : nullptr;
  req.func_bytes = std::min(func_remaining, chunk);
  req.hold_lock = true;
  req.lock_holder = [section](RangeLock::LockId id) { section->lock_ids.push_back(id); };
  req.on_complete = [this, rs, inst, section, addr, remaining, chunk, func_data,
                     func_remaining](Tick, IoStatus) {
    if (remaining > chunk) {
      const std::uint64_t consumed_func = std::min(func_remaining, chunk);
      StreamTail(rs, inst, section, addr + chunk, remaining - chunk,
                 func_data == nullptr ? nullptr : func_data + consumed_func,
                 func_remaining - consumed_func);
      return;
    }
    if (--rs->tails_pending[inst] == 0 && rs->awaiting_tail[inst]) {
      rs->awaiting_tail[inst] = false;
      StartWriteback(rs, inst);
    }
  };
  SubmitIoReliable(std::move(req));
}

void FlashAbacus::OnComputeDone(RunState* rs, AppInstance* inst) {
  inst->compute_done_time = sim_->Now();
  if (rs->tails_pending[inst] > 0) {
    // The kernel consumed its streamed input no faster than it arrived:
    // completion waits for the last tail bytes.
    rs->awaiting_tail[inst] = true;
    return;
  }
  StartWriteback(rs, inst);
}

void FlashAbacus::TryDispatch(RunState* rs) {
  if (rs->finished) {
    return;
  }
  if (rs->kind == SchedulerKind::kInterStatic || rs->kind == SchedulerKind::kInterDynamic) {
    DispatchInterKernel(rs);
  } else {
    DispatchIntraKernel(rs);
  }
}

std::vector<int> FlashAbacus::TenantDispatchOrder(const RunState* rs) const {
  // Preference order over the run's instances: latency-class tenants first,
  // then least tenant virtual time, then tenant id; stable sort keeps the
  // submission order within a tenant.
  std::vector<int> order(rs->instances.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::stable_sort(order.begin(), order.end(), [this, rs](int a, int b) {
    const TenantId ta = rs->instances[static_cast<std::size_t>(a)]->tenant;
    const TenantId tb = rs->instances[static_cast<std::size_t>(b)]->tenant;
    if (ta == tb) {
      return false;
    }
    const bool la = tenants_->latency_class(ta);
    const bool lb = tenants_->latency_class(tb);
    if (la != lb) {
      return la;
    }
    const double va = tenants_->virtual_time(ta);
    const double vb = tenants_->virtual_time(tb);
    if (va != vb) {
      return va < vb;
    }
    return ta < tb;
  });
  return order;
}

std::size_t FlashAbacus::PickPendingKernel(const RunState* rs,
                                           const std::deque<PendingKernel>& q) const {
  (void)rs;
  // Same key as TenantDispatchOrder, applied to one inter-kernel queue:
  // latency class, then least virtual time, then tenant id, then FIFO.
  std::size_t best = 0;
  for (std::size_t i = 1; i < q.size(); ++i) {
    const TenantId ti = q[i].inst->tenant;
    const TenantId tb = q[best].inst->tenant;
    if (ti == tb) {
      continue;  // FIFO within a tenant
    }
    const bool li = tenants_->latency_class(ti);
    const bool lb = tenants_->latency_class(tb);
    if (li != lb) {
      if (li) {
        best = i;
      }
      continue;
    }
    const double vi = tenants_->virtual_time(ti);
    const double vb = tenants_->virtual_time(tb);
    if (vi != vb) {
      if (vi < vb) {
        best = i;
      }
      continue;
    }
    if (ti < tb) {
      best = i;
    }
  }
  return best;
}

bool FlashAbacus::ShouldPreemptInter(const RunState* rs, const AppInstance* inst,
                                     int worker) const {
  if (!tenants_->weighted_fair() || tenants_->latency_class(inst->tenant)) {
    return false;
  }
  const std::deque<PendingKernel>& q = rs->kind == SchedulerKind::kInterStatic
                                           ? rs->static_queues[static_cast<std::size_t>(worker)]
                                           : rs->dynamic_queue;
  for (const PendingKernel& pk : q) {
    if (tenants_->latency_class(pk.inst->tenant) && rs->chain.IsLoadDone(pk.inst)) {
      return true;
    }
  }
  return false;
}

void FlashAbacus::DispatchInterKernel(RunState* rs) {
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!rs->worker_free[w]) {
      continue;
    }
    std::deque<PendingKernel>& q =
        rs->kind == SchedulerKind::kInterStatic ? rs->static_queues[w] : rs->dynamic_queue;
    if (q.empty()) {
      continue;
    }
    const std::size_t pick = tenants_->weighted_fair() ? PickPendingKernel(rs, q) : 0;
    const PendingKernel pk = q[pick];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(pick));
    rs->worker_free[w] = false;
    const int worker = static_cast<int>(w);
    flashvisor_->RunSchedulingTask([this, rs, pk, worker](Tick t) {
      trace_.Add(TraceTag::kSchedule, t - flashvisor_->config().scheduling_cost, t);
      RunWholeKernel(rs, pk.inst, worker, pk.resume_mblk);
    });
  }
}

void FlashAbacus::RunWholeKernel(RunState* rs, AppInstance* inst, int worker, int start_mblk) {
  // PSC wake/boot sequence, then execute the kernel as a single instruction
  // stream: every microblock in order on this one LWP. A preempted kernel
  // resumes at the microblock boundary where it yielded.
  workers_[static_cast<std::size_t>(worker)]->BootKernel(sim_->Now());
  if (!rs->chain.IsLoadDone(inst)) {
    // Stall (occupied but not utilized) until the data sections arrive.
    FAB_CHECK_EQ(start_mblk, 0);  // a preempted kernel already had its data
    rs->waiting_worker[inst] = worker;
    return;
  }
  RunKernelMicroblock(rs, inst, worker, start_mblk);
}

void FlashAbacus::RunKernelMicroblock(RunState* rs, AppInstance* inst, int worker, int mblk) {
  Lwp& lwp = *workers_[static_cast<std::size_t>(worker)];
  const ScreenWork work = ComputeScreenWork(*inst, mblk, 0, 1);
  tenants_->ChargeWork(inst->tenant, work.instructions);
  const Lwp::ScreenTiming t = lwp.ExecuteScreen(sim_->Now(), work);
  trace_.Add(TraceTag::kLwpCompute, t.start, t.end, t.avg_fus_busy, lwp.id());
  ScreenRef ref{inst, mblk, 0, 1};
  rs->chain.OnDispatched(ref);
  sim_->ScheduleAt(t.end, [this, rs, inst, worker, mblk, ref]() {
    const MicroblockSpec& spec = inst->spec().microblocks[static_cast<std::size_t>(mblk)];
    if (spec.body) {
      spec.body(*inst, 0, spec.func_iterations);
    }
    const bool kernel_done = rs->chain.OnScreenComplete(ref);
    if (!kernel_done) {
      if (ShouldPreemptInter(rs, inst, worker)) {
        // Weighted-fair preemption point: yield the LWP to a queued
        // latency-class kernel; this one re-queues at its next microblock.
        std::deque<PendingKernel>& q =
            rs->kind == SchedulerKind::kInterStatic
                ? rs->static_queues[static_cast<std::size_t>(worker)]
                : rs->dynamic_queue;
        q.push_back(PendingKernel{inst, mblk + 1});
        rs->worker_free[static_cast<std::size_t>(worker)] = true;
        TryDispatch(rs);
        return;
      }
      RunKernelMicroblock(rs, inst, worker, mblk + 1);
      return;
    }
    rs->worker_free[static_cast<std::size_t>(worker)] = true;
    OnComputeDone(rs, inst);
    TryDispatch(rs);
  });
}

void FlashAbacus::DispatchIntraKernel(RunState* rs) {
  while (true) {
    int worker = -1;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      if (rs->worker_free[w]) {
        worker = static_cast<int>(w);
        break;
      }
    }
    if (worker < 0) {
      return;
    }
    ScreenRef ref;
    bool found;
    if (tenants_->weighted_fair()) {
      // Re-rank every iteration: each dispatch advances the tenant's virtual
      // time, which can flip the preference before the next free worker.
      const std::vector<int> order = TenantDispatchOrder(rs);
      found = rs->kind == SchedulerKind::kIntraInOrder
                  ? rs->chain.NextReadyScreenInOrderOrdered(order, &ref)
                  : rs->chain.NextReadyScreenOrdered(order, &ref);
    } else {
      found = rs->kind == SchedulerKind::kIntraInOrder ? rs->chain.NextReadyScreenInOrder(&ref)
                                                       : rs->chain.NextReadyScreen(&ref);
    }
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
      ExecuteScreenOn(rs, ref, worker);
    });
  }
}

void FlashAbacus::ExecuteScreenOn(RunState* rs, const ScreenRef& ref, int worker) {
  Lwp& lwp = *workers_[static_cast<std::size_t>(worker)];
  const ScreenWork work = ComputeScreenWork(*ref.inst, ref.mblk, ref.screen, ref.num_screens);
  const Tick start = sim_->Now() + flashvisor_->config().queue_latency;
  const Lwp::ScreenTiming t = lwp.ExecuteScreen(start, work);
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
    const bool kernel_done = rs->chain.OnScreenComplete(ref);
    rs->worker_free[static_cast<std::size_t>(worker)] = true;
    if (kernel_done) {
      OnComputeDone(rs, ref.inst);
    }
    TryDispatch(rs);
  });
}

void FlashAbacus::StartWriteback(RunState* rs, AppInstance* inst) {
  // The kernel no longer uses its input mappings: release the read locks.
  for (DataSection& s : inst->sections()) {
    for (std::uint64_t id : s.lock_ids) {
      flashvisor_->ReleaseLock(id);
    }
    s.lock_ids.clear();
  }
  int n_outputs = 0;
  for (DataSection& s : inst->sections()) {
    if (s.spec->dir == DataSectionSpec::Dir::kOut) {
      ++n_outputs;
    }
  }
  rs->stores_pending[inst] = n_outputs;
  if (n_outputs == 0) {
    FinishInstance(rs, inst, sim_->Now());
    return;
  }
  for (DataSection& s : inst->sections()) {
    if (s.spec->dir != DataSectionSpec::Dir::kOut) {
      continue;
    }
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = s.flash_addr;
    req.model_bytes = s.model_bytes;
    req.tenant = inst->tenant;
    if (s.spec->buffer_index >= 0) {
      req.func_data = inst->buffer(s.spec->buffer_index).data();
      req.func_bytes = SectionFuncBytes(*inst, s);
    }
    req.on_complete = [this, rs, inst](Tick t, IoStatus) {
      if (--rs->stores_pending[inst] == 0) {
        FinishInstance(rs, inst, t);
      }
    };
    SubmitIoReliable(std::move(req));
  }
}

void FlashAbacus::FinishInstance(RunState* rs, AppInstance* inst, Tick when) {
  inst->complete_time = when;
  inst->done = true;
  rs->result.completion_times.push_back(when - rs->start_time);
  rs->result.kernel_latency_ms.Record(TicksToMs(when - inst->submit_time));
  tenants_->OnComplete(inst->tenant, TicksToMs(when - inst->submit_time), when);
  --rs->instances_remaining;
  MaybeFinishRun(rs);
}

void FlashAbacus::MaybeFinishRun(RunState* rs) {
  if (rs->finished || rs->instances_remaining > 0) {
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
  for (const AppInstance* inst : rs->instances) {
    input_bytes += inst->model_input_bytes();
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
