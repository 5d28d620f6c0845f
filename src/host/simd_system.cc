#include "src/host/simd_system.h"

#include <algorithm>
#include <deque>
#include <span>

#include "src/sim/log.h"

namespace fabacus {

struct SimdSystem::RunState {
  std::deque<AppInstance*> pending;
  std::vector<AppInstance*> instances;
  std::function<void(RunReport)> done_cb;
  Tick start_time = 0;
  RunReport result;
  bool finished = false;
};

SimdSystem::~SimdSystem() = default;

SimdSystem::SimdSystem(Simulator* sim, const SimdConfig& config) : sim_(sim), config_(config) {
  FAB_CHECK_GE(config_.num_lwps, 1);
  if (!config_.record_full_trace) {
    trace_.SetMask(kEnergyTraceTags);
  }
  trace_.Reserve(config_.record_full_trace ? 16384 : 1024);
  dram_ = std::make_unique<Dram>(config_.dram);
  tier1_ = std::make_unique<Crossbar>(config_.tier1);
  ssd_ = std::make_unique<NvmeSsd>(config_.nvme);
  host_cpu_ = std::make_unique<SerialCore>("host_cpu");
  stack_ = std::make_unique<StorageStack>(host_cpu_.get(), ssd_.get(), &trace_, config_.stack);
  pcie_ = std::make_unique<BandwidthResource>("simd.pcie", config_.pcie_gb_per_s,
                                              config_.pcie_latency);
  for (int i = 0; i < config_.num_lwps; ++i) {
    lwps_.push_back(
        std::make_unique<Lwp>(i, config_.lwp, dram_.get(), tier1_.get(), config_.cache));
  }
  RegisterMetrics();
}

void SimdSystem::RegisterMetrics() {
  for (const auto& l : lwps_) {
    l->RegisterMetrics(&metrics_, "lwp/" + std::to_string(l->id()));
  }
  dram_->RegisterMetrics(&metrics_, "dram");
  tier1_->RegisterMetrics(&metrics_, "noc/tier1");
  ssd_->RegisterMetrics(&metrics_, "ssd");
  metrics_.RegisterGauge("host_cpu/busy_ns", [this](Tick now) {
    return static_cast<double>(host_cpu_->BusyTime(now));
  });
  metrics_.RegisterGauge("host_cpu/utilization",
                         [this](Tick now) { return host_cpu_->Utilization(now); });
  metrics_.RegisterCounter("pcie/transfers", &pcie_->transfers_counter());
  metrics_.RegisterGauge("pcie/bytes_moved", [this](Tick) { return pcie_->bytes_moved(); });
  metrics_.RegisterGauge("pcie/busy_ns", [this](Tick now) {
    return static_cast<double>(pcie_->BusyTime(now));
  });
}

std::string SimdSystem::FileName(const AppInstance& inst, int section_idx) {
  return "app" + std::to_string(inst.app_id()) + "_i" + std::to_string(inst.instance_id()) +
         "_s" + std::to_string(section_idx);
}

void SimdSystem::InstallData(AppInstance* inst) {
  inst->LayOutSections();  // flash_addr stays 0: the SIMD path addresses data by file
  for (std::size_t i = 0; i < inst->sections().size(); ++i) {
    const DataSection& s = inst->sections()[i];
    const std::span<std::uint8_t> data = inst->SectionData(s);
    // Input files carry the functional prefix; output files start zeroed.
    const bool carries = s.spec->dir == DataSectionSpec::Dir::kIn && data.data() != nullptr;
    ssd_->InstallFile(FileName(*inst, static_cast<int>(i)), s.model_bytes,
                      carries ? data.data() : nullptr, carries ? data.size() : 0);
  }
}

void SimdSystem::Run(std::vector<AppInstance*> instances, std::function<void(RunReport)> done) {
  FAB_CHECK(run_ == nullptr || run_->finished);
  FAB_CHECK(!instances.empty());
  run_ = std::make_unique<RunState>();
  RunState* rs = run_.get();
  rs->instances = instances;
  rs->done_cb = std::move(done);
  rs->start_time = sim_->Now();
  rs->result.system = "SIMD";
  for (AppInstance* inst : instances) {
    inst->submit_time = sim_->Now();
    rs->pending.push_back(inst);
  }
  RunNextInstance(rs);
}

void SimdSystem::RunNextInstance(RunState* rs) {
  if (rs->pending.empty()) {
    rs->finished = true;
    FinalizeResult(rs);
    if (rs->done_cb) {
      rs->done_cb(std::move(rs->result));
    }
    return;
  }
  AppInstance* inst = rs->pending.front();
  rs->pending.pop_front();

  // Prologue: open files, allocate SSD + accelerator memory (Fig 3a).
  Tick t = stack_->OpenFile(sim_->Now());

  // Body, input half: read every input section through the storage stack,
  // then download it to the accelerator over PCIe. Strictly serialized.
  double total_model_bytes = 0.0;
  for (std::size_t i = 0; i < inst->sections().size(); ++i) {
    DataSection& s = inst->sections()[i];
    if (s.spec->dir != DataSectionSpec::Dir::kIn) {
      continue;
    }
    const std::string name = FileName(*inst, static_cast<int>(i));
    const std::span<std::uint8_t> data = inst->SectionData(s);
    // Functional prefix carries data; the tail is timing-only.
    if (!data.empty()) {
      t = stack_->ReadFile(t, name, data.size(), data.data());
    }
    if (s.model_bytes > data.size()) {
      t = stack_->ReadFile(t, name, s.model_bytes - data.size(), nullptr);
    }
    total_model_bytes += static_cast<double>(s.model_bytes);
  }
  // PCIe download into accelerator DDR3L.
  const BandwidthResource::Reservation pcie = pcie_->Reserve(t, total_model_bytes);
  trace_.Add(TraceTag::kPcieXfer, pcie.start, pcie.end);
  const Tick in_dram = dram_->BulkAccess(pcie.end, total_model_bytes);

  inst->load_done_time = in_dram;
  sim_->ScheduleAt(in_dram, [this, rs, inst]() { RunMicroblock(rs, inst, 0, sim_->Now()); });
}

void SimdSystem::RunMicroblock(SimdSystem::RunState* rs, AppInstance* inst, int mblk,
                               Tick ready) {
  const MicroblockSpec& spec = inst->spec().microblocks[static_cast<std::size_t>(mblk)];
  const int fanout = spec.serial ? 1 : static_cast<int>(lwps_.size());
  Tick barrier = ready;
  for (int s = 0; s < fanout; ++s) {
    const ScreenWork work = ComputeScreenWork(*inst, mblk, s, fanout);
    const Lwp::ScreenTiming t = lwps_[static_cast<std::size_t>(s)]->ExecuteScreen(ready, work);
    trace_.Add(TraceTag::kLwpCompute, t.start, t.end, t.avg_fus_busy, s);
    barrier = std::max(barrier, t.end);
  }
  sim_->ScheduleAt(barrier, [this, rs, inst, mblk, fanout]() {
    const MicroblockSpec& m = inst->spec().microblocks[static_cast<std::size_t>(mblk)];
    if (m.body) {
      // OpenMP-style: the fork-join ran to the barrier; apply the whole
      // microblock's functional effect now, slice by slice.
      for (int s = 0; s < fanout; ++s) {
        std::size_t begin = 0;
        std::size_t end = 0;
        ScreenFuncRange(*inst, mblk, s, fanout, &begin, &end);
        m.body(*inst, begin, end);
      }
    }
    if (mblk + 1 < inst->spec().num_microblocks()) {
      RunMicroblock(rs, inst, mblk + 1, sim_->Now());
    } else {
      FinishCompute(rs, inst, sim_->Now());
    }
  });
}

void SimdSystem::FinishCompute(SimdSystem::RunState* rs, AppInstance* inst, Tick when) {
  inst->compute_done_time = when;
  // Body, output half: upload results over PCIe, write them back through the
  // storage stack (epilogue closes the files; folded into the write cost).
  double out_bytes = 0.0;
  for (const DataSection& s : inst->sections()) {
    if (s.spec->dir == DataSectionSpec::Dir::kOut) {
      out_bytes += static_cast<double>(s.model_bytes);
    }
  }
  Tick t = when;
  if (out_bytes > 0.0) {
    const Tick from_dram = dram_->BulkAccess(when, out_bytes);
    const BandwidthResource::Reservation pcie = pcie_->Reserve(from_dram, out_bytes);
    trace_.Add(TraceTag::kPcieXfer, pcie.start, pcie.end);
    t = pcie.end;
    for (std::size_t i = 0; i < inst->sections().size(); ++i) {
      const DataSection& s = inst->sections()[i];
      if (s.spec->dir != DataSectionSpec::Dir::kOut) {
        continue;
      }
      const std::string name = FileName(*inst, static_cast<int>(i));
      const std::span<std::uint8_t> data = inst->SectionData(s);
      if (!data.empty()) {
        t = stack_->WriteFile(t, name, data.size(), data.data());
      }
      if (s.model_bytes > data.size()) {
        t = stack_->WriteFile(t, name, s.model_bytes - data.size(), nullptr);
      }
    }
  }
  sim_->ScheduleAt(t, [this, rs, inst]() {
    inst->complete_time = sim_->Now();
    inst->done = true;
    rs->result.completion_times.push_back(sim_->Now() - rs->start_time);
    RunNextInstance(rs);
  });
}

void SimdSystem::ReadSectionFromSsd(AppInstance* inst, int section_idx,
                                    std::vector<float>* out) {
  const std::uint64_t func_bytes =
      inst->SectionData(inst->sections().at(static_cast<std::size_t>(section_idx))).size();
  out->assign(func_bytes / sizeof(float), 0.0f);
  ssd_->Read(sim_->Now(), FileName(*inst, section_idx), 0, func_bytes, out->data());
}

void SimdSystem::FinalizeResult(SimdSystem::RunState* rs) {
  RunReport& res = rs->result;
  const Tick end = sim_->Now();
  res.metrics = metrics_.Snapshot(end);
  res.makespan = end - rs->start_time;
  double input_bytes = 0.0;
  for (const AppInstance* inst : rs->instances) {
    input_bytes += inst->model_input_bytes();
  }
  res.input_bytes = input_bytes;
  res.throughput_mb_s =
      res.makespan == 0 ? 0.0
                        : input_bytes / (1024.0 * 1024.0) / TicksToSeconds(res.makespan);
  double util = 0.0;
  for (const auto& l : lwps_) {
    util += l->Utilization(end);
  }
  res.worker_utilization = lwps_.empty() ? 0.0 : util / static_cast<double>(lwps_.size());

  // Scope the trace to this run.
  res.trace = trace_.Window(rs->start_time, end);

  // ---- Energy: host + accelerator + external SSD ----
  const PowerModel& p = config_.power;
  EnergyMeter& e = res.energy;
  const Tick T = res.makespan;

  const Tick cpu_busy = std::min(host_cpu_->BusyTime(end), T);
  e.AddActive(EnergyBucket::kDataMovement, "host_cpu", p.host_cpu_active_w, 0, cpu_busy);
  e.AddStatic(EnergyBucket::kDataMovement, "host_cpu", p.host_cpu_idle_w, T - cpu_busy);

  const Tick dram_host_busy = std::min(res.trace.UnionTime(TraceTag::kHostStack), T);
  e.AddActive(EnergyBucket::kDataMovement, "host_dram", p.host_dram_active_w, 0,
              dram_host_busy);
  e.AddStatic(EnergyBucket::kDataMovement, "host_dram", p.host_dram_idle_w,
              T - dram_host_busy);

  const Tick pcie_busy = std::min(res.trace.UnionTime(TraceTag::kPcieXfer), T);
  e.AddActive(EnergyBucket::kDataMovement, "pcie", p.pcie_active_w, 0, pcie_busy);
  e.AddStatic(EnergyBucket::kDataMovement, "pcie", p.pcie_idle_w, T - pcie_busy);

  const Tick ssd_busy = std::min(res.trace.UnionTime(TraceTag::kSsdOp), T);
  e.AddActive(EnergyBucket::kStorageAccess, "nvme", p.nvme_active_w, 0, ssd_busy);
  e.AddStatic(EnergyBucket::kStorageAccess, "nvme", p.nvme_idle_w, T - ssd_busy);

  for (const auto& l : lwps_) {
    const Tick busy = std::min(l->BusyTime(end), T);
    e.AddActive(EnergyBucket::kComputation, "lwp", p.lwp_active_w, 0, busy);
    e.AddStatic(EnergyBucket::kComputation, "lwp", p.lwp_idle_w, T - busy);
  }
  const Tick dram_busy = std::min(dram_->BusyTime(end), T);
  e.AddActive(EnergyBucket::kComputation, "ddr3l", p.ddr3l_active_w, 0, dram_busy);
  e.AddStatic(EnergyBucket::kComputation, "ddr3l", p.ddr3l_idle_w, T - dram_busy);
}

}  // namespace fabacus
