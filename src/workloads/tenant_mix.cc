#include "src/workloads/tenant_mix.h"

#include "src/workloads/polybench_util.h"

namespace fabacus {
namespace {

constexpr std::size_t kBullyElems = 1 << 18;
constexpr std::size_t kProbeElems = 1 << 14;

void Saxpyish(const std::vector<float>& in, std::vector<float>* out, std::size_t begin,
              std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    (*out)[i] = in[i] * 2.5f - 1.25f;
  }
}

// The noisy neighbor: four parallel microblocks of deep compute (bki ~2 puts
// it firmly in the paper's compute-intensive group, so each microblock holds
// its LWP for a long stretch), plus a full-size output section that keeps the
// write path and GC busy.
class BullyWriterWorkload : public Workload {
 public:
  explicit BullyWriterWorkload(double input_mb) {
    spec_.name = "BULLY";
    spec_.model_input_mb = input_mb;
    spec_.ldst_ratio = 0.30;
    spec_.bki = 1.0;
    for (int m = 0; m < 16; ++m) {
      MicroblockSpec mb;
      mb.name = "stage" + std::to_string(m);
      mb.serial = false;
      mb.work_fraction = 1.0 / 16.0;
      SetMix(&mb, spec_.ldst_ratio, 0.3);
      mb.func_iterations = kBullyElems;
      mb.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
        Saxpyish(inst.buffer(0), &inst.buffer(1), begin, end);
      };
      spec_.microblocks.push_back(mb);
    }
    spec_.sections = {
        {"in", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"out", DataSectionSpec::Dir::kOut, 1.0, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    FillRandom(&inst.buffer(0), kBullyElems, rng);
    FillZero(&inst.buffer(1), kBullyElems);
  }

  // The input is read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(1), kBullyElems);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kBullyElems, 0.0f);
    Saxpyish(inst.buffer(0), &ref, 0, kBullyElems);
    return Outputs({{1, std::move(ref)}});
  }
};

// The latency-sensitive probe: one shallow parallel microblock over a small
// input — the kind of interactive kernel whose tail latency a noisy neighbor
// wrecks under FIFO arbitration.
class LatencyProbeWorkload : public Workload {
 public:
  explicit LatencyProbeWorkload(double input_mb) {
    spec_.name = "PROBE";
    spec_.model_input_mb = input_mb;
    spec_.ldst_ratio = 0.45;
    spec_.bki = 60.0;
    MicroblockSpec mb;
    mb.name = "probe";
    mb.serial = false;
    mb.work_fraction = 1.0;
    SetMix(&mb, spec_.ldst_ratio, 0.25);
    mb.func_iterations = kProbeElems;
    mb.body = [](AppInstance& inst, std::size_t begin, std::size_t end) {
      Saxpyish(inst.buffer(0), &inst.buffer(1), begin, end);
    };
    spec_.microblocks.push_back(mb);
    spec_.sections = {
        {"in", DataSectionSpec::Dir::kIn, 1.0, 0},
        {"out", DataSectionSpec::Dir::kOut, 1.0, 1},
    };
  }

  void Prepare(AppInstance& inst, Rng& rng) const override {
    inst.EnsureBuffers(2);
    FillRandom(&inst.buffer(0), kProbeElems, rng);
    FillZero(&inst.buffer(1), kProbeElems);
  }

  // The input is read-only.
  void Reset(AppInstance& inst, std::uint64_t /*seed*/) const override {
    FillZero(&inst.buffer(1), kProbeElems);
  }

  std::vector<Expected> Reference(const AppInstance& inst) const override {
    std::vector<float> ref(kProbeElems, 0.0f);
    Saxpyish(inst.buffer(0), &ref, 0, kProbeElems);
    return Outputs({{1, std::move(ref)}});
  }
};

}  // namespace

std::unique_ptr<Workload> MakeBullyWriter(double input_mb) {
  return std::make_unique<BullyWriterWorkload>(input_mb);
}

std::unique_ptr<Workload> MakeLatencyProbe(double input_mb) {
  return std::make_unique<LatencyProbeWorkload>(input_mb);
}

TenantSchedConfig NoisyNeighborTenants(TenantSchedPolicy policy) {
  TenantSchedConfig cfg;
  cfg.policy = policy;
  TenantSpec bully;
  bully.name = "bully";
  TenantSpec probe;
  probe.name = "probe";
  probe.latency_class = true;
  cfg.tenants = {bully, probe};
  return cfg;
}

TenantSchedConfig FairShareTenants(TenantSchedPolicy policy,
                                   const std::vector<double>& weights) {
  TenantSchedConfig cfg;
  cfg.policy = policy;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    TenantSpec t;
    t.name = std::string("t").append(std::to_string(i));
    t.weight = weights[i];
    cfg.tenants.push_back(t);
  }
  return cfg;
}

TenantSchedConfig QuotaTenants(std::uint64_t quota_bytes) {
  TenantSchedConfig cfg;
  cfg.policy = TenantSchedPolicy::kPaper;
  TenantSpec unlimited;
  unlimited.name = "unlimited";
  TenantSpec capped;
  capped.name = "capped";
  capped.quota_bytes = quota_bytes;
  cfg.tenants = {unlimited, capped};
  return cfg;
}

}  // namespace fabacus
