// ftl_churn: reads beside overwrites through Flashvisor's public I/O path
// (AllocLogicalExtent + SubmitIo) on a small-geometry FlashAbacus with
// Storengine's background GC and journaling running.
//
// kClients closed-loop clients each own a disjoint logical region; together
// the regions hold kUtilization of the logical capacity, which each client
// first fills sequentially. Then every client issues kOpsPerClient operations,
// one at a time with an exponential think time between them: 50/50 random
// reads and overwrites of 1-8 page groups carrying real payloads. Every read
// is compared byte for byte against the client's shadow copy of its region.
// There is no kernel math and no Verify here: the workload exercises GC,
// erases, the write buffer, the range lock, the flash data plane and event
// dispatch.
//
// Known simulator defect: without the think time this loop CHECK-fails in
// Flashvisor ("flash capacity exhausted"), because foreground reclaim needs a
// free block group to migrate into. The pacing keeps the workload below that
// limit; `--inject unpaced` reproduces the abort.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "metrics_util.h"
#include "spans.h"
#include "src/core/flashabacus.h"
#include "src/sim/rng.h"

namespace fabbench {
namespace {

using namespace fabacus;

constexpr int kClients = 4;
constexpr int kOpsPerClient = 4000;
constexpr double kUtilization = 0.5;
constexpr int kMaxGroupsPerOp = 8;
constexpr double kMeanThinkNs = 20.0 * kMs;

FlashAbacusConfig ChurnDevice() {
  FlashAbacusConfig cfg = FlashAbacusConfig::Small();
  cfg.nand.blocks_per_plane = 32;
  cfg.nand.pages_per_block = 16;  // 32 block groups of 64 page groups, 128 MiB
  return cfg;
}

// Random bytes the write payloads are cut from.
constexpr std::size_t kPoolBytes = 4 << 20;

class FtlChurn : public BenchWorkload {
 public:
  explicit FtlChurn(const Options& opt) : opt_(opt), pool_(kPoolBytes) {
    Rng rng(opt.seed ^ 0x70a1ULL);
    for (std::size_t off = 0; off < pool_.size(); off += sizeof(std::uint64_t)) {
      const std::uint64_t v = rng.Next();
      std::memcpy(pool_.data() + off, &v, sizeof(v));
    }
  }

  double TimeSetup() override {
    const auto start = std::chrono::steady_clock::now();
    Simulator sim;
    FlashAbacus dev(&sim, ChurnDevice());
    dev.storengine().Start();
    const double s = SecondsSince(start);
    dev.storengine().Stop();
    return s;
  }

  UnitResult RunUnit() override {
    UnitResult u;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<FlashAbacus> dev;
    {
      ScopedSpan span("core.setup");
      sim = std::make_unique<Simulator>();
      dev = std::make_unique<FlashAbacus>(sim.get(), ChurnDevice());
      dev->storengine().Start();
    }
    Run run(this, sim.get(), dev.get(), &u);
    run.Fill();
    const Tick churn_start = sim->Now();
    run.Churn();
    const double churn_s = TicksToSeconds(sim->Now() - churn_start);
    dev->storengine().Stop();
    {
      ScopedSpan span("ftl.io");
      sim->Run();
    }

    std::map<std::string, double>& s = u.sim;
    s["throughput_mb_s"] = run.churn_bytes / (1024.0 * 1024.0) / churn_s;
    AddLatency(&run.read_latency_ms, &s);
    s["sim.events"] = static_cast<double>(sim->events_executed());
    const MetricsSnapshot m = dev->metrics().Snapshot(sim->Now());
    s["flashvisor.core_utilization"] = m.Value("flashvisor/core_utilization");
    s["flashvisor.reads_served"] = m.Value("flashvisor/reads_served");
    s["flashvisor.writes_served"] = m.Value("flashvisor/writes_served");
    s["flashvisor.foreground_reclaims"] = m.Value("flashvisor/foreground_reclaims");
    s["storengine.gc_passes"] = m.Value("storengine/gc_passes");
    s["storengine.groups_migrated"] = m.Value("storengine/groups_migrated");
    AddFlashCounters(m, static_cast<double>(sim->Now()), dev->config().nand.channels, &s);
    s["ftl.write_amplification"] = m.Value("flash/programs") / run.host_groups_written;
    s["dram.utilization"] = m.Value("dram/utilization");
    u.sim_s = TicksToSeconds(sim->Now());
    {
      ScopedSpan span("core.teardown");
      dev.reset();
      sim.reset();
    }
    return u;
  }

 private:
  // One unit's clients and their in-simulation closed loops.
  struct Run {
    struct Client {
      int id = 0;
      std::uint64_t base = 0;    // logical byte address of the region
      std::uint64_t groups = 0;  // region length in page groups
      std::vector<std::uint8_t> shadow;
      std::vector<std::uint8_t> buf;  // read-back of the read in flight
      Rng rng;
      int ops_left = 0;
      int completed = 0;
    };

    Run(FtlChurn* owner, Simulator* sim, FlashAbacus* dev, UnitResult* u)
        : owner(owner), sim(sim), fv(&dev->flashvisor()), u(u),
          group_bytes(dev->config().nand.GroupBytes()) {
      const std::uint64_t total_groups = fv->LogicalCapacityBytes() / group_bytes;
      const std::uint64_t per_client =
          static_cast<std::uint64_t>(kUtilization * static_cast<double>(total_groups)) / kClients;
      clients.resize(kClients);
      for (int c = 0; c < kClients; ++c) {
        Client& cl = clients[static_cast<std::size_t>(c)];
        cl.id = c;
        cl.groups = per_client;
        cl.base = fv->AllocLogicalExtent(per_client * group_bytes);
        cl.shadow.assign(per_client * group_bytes, 0);
        cl.buf.resize(kMaxGroupsPerOp * group_bytes);
        cl.rng = Rng(owner->opt_.seed * 7919ULL + static_cast<std::uint64_t>(c) + 1);
      }
    }

    // Writes every region once, sequentially, kMaxGroupsPerOp groups at a
    // time per client.
    void Fill() {
      for (Client& c : clients) {
        FillNext(&c, 0);
      }
      ScopedSpan span("ftl.io");
      sim->Run();
    }

    void FillNext(Client* c, std::uint64_t group) {
      if (group >= c->groups) {
        return;
      }
      const std::uint64_t n = std::min<std::uint64_t>(kMaxGroupsPerOp, c->groups - group);
      Write(c, group, n, /*fill=*/true, [this, c, group, n](Tick, IoStatus st) {
        u->Check(st == IoStatus::kOk, "fill write failed");
        FillNext(c, group + n);
      });
    }

    void Churn() {
      for (Client& c : clients) {
        c.ops_left = kOpsPerClient;
        Next(&c);
      }
      {
        ScopedSpan span("ftl.io");
        sim->Run();
      }
      for (const Client& c : clients) {
        u->Check(c.completed == kOpsPerClient,
                 "client " + std::to_string(c.id) + " completed " + std::to_string(c.completed) +
                     " of " + std::to_string(kOpsPerClient) + " operations");
      }
    }

    void Next(Client* c) {
      if (c->ops_left == 0) {
        return;
      }
      --c->ops_left;
      const std::uint64_t n = 1 + c->rng.NextBelow(kMaxGroupsPerOp);
      const std::uint64_t first = c->rng.NextBelow(c->groups - n + 1);
      const bool read = c->rng.NextBelow(2) == 0;
      const double think_draw = -std::log(1.0 - c->rng.NextDouble());
      const Tick think = owner->opt_.inject == "unpaced"
                             ? 0
                             : static_cast<Tick>(kMeanThinkNs * think_draw);
      churn_bytes += static_cast<double>(n * group_bytes);
      auto then = [this, c, think]() {
        ++c->completed;
        sim->Schedule(think, [this, c]() { Next(c); });
      };
      if (!read) {
        Write(c, first, n, /*fill=*/false, [this, then](Tick, IoStatus st) {
          u->Check(st == IoStatus::kOk, "overwrite failed");
          then();
        });
        return;
      }
      const Tick issued = sim->Now();
      Flashvisor::IoRequest req;
      req.type = Flashvisor::IoRequest::Type::kRead;
      req.flash_addr = c->base + first * group_bytes;
      req.model_bytes = n * group_bytes;
      req.func_data = c->buf.data();
      req.func_bytes = n * group_bytes;
      req.on_complete = [this, c, first, n, issued, then](Tick done, IoStatus st) {
        read_latency_ms.push_back(TicksToMs(done - issued));
        {
          ScopedSpan span("bench.check");
          if (owner->opt_.inject == "readback" && !injected) {
            c->buf[0] ^= 0x1;
            injected = true;
          }
          const bool same = st == IoStatus::kOk &&
                            std::memcmp(c->buf.data(), c->shadow.data() + first * group_bytes,
                                        n * group_bytes) == 0;
          u->Check(same, "client " + std::to_string(c->id) + " read-back of groups [" +
                             std::to_string(first) + ", " + std::to_string(first + n) +
                             ") differs from its shadow copy");
        }
        then();
      };
      fv->SubmitIo(std::move(req));
    }

    // Writes groups [first, first + n) of the client's region from its
    // shadow copy, which the write updates first. The fill gives every group
    // a seeded random slice of the pool; every write stamps each group with
    // the write's serial number, so a read of a stale version or of another
    // group differs from the shadow. Flashvisor copies the payload before it
    // completes the write, and the client issues nothing else to the region
    // until then.
    void Write(Client* c, std::uint64_t first, std::uint64_t n, bool fill,
               std::function<void(Tick, IoStatus)> done) {
      const std::uint64_t bytes = n * group_bytes;
      std::uint8_t* payload = c->shadow.data() + first * group_bytes;
      {
        ScopedSpan span("bench.payload");
        const std::uint64_t serial = ++writes_issued;
        for (std::uint64_t g = 0; g < n; ++g) {
          std::uint8_t* dst = payload + g * group_bytes;
          if (fill) {
            const std::uint64_t off = c->rng.NextBelow((kPoolBytes - group_bytes) / 8) * 8;
            std::memcpy(dst, owner->pool_.data() + off, group_bytes);
          }
          const std::uint64_t stamp[2] = {serial, first + g};
          std::memcpy(dst, stamp, sizeof(stamp));
        }
      }
      host_groups_written += static_cast<double>(n);
      Flashvisor::IoRequest req;
      req.type = Flashvisor::IoRequest::Type::kWrite;
      req.flash_addr = c->base + first * group_bytes;
      req.model_bytes = bytes;
      req.func_data = payload;
      req.func_bytes = bytes;
      req.on_complete = std::move(done);
      fv->SubmitIo(std::move(req));
    }

    FtlChurn* owner;
    Simulator* sim;
    Flashvisor* fv;
    UnitResult* u;
    std::uint64_t group_bytes;
    std::vector<Client> clients;
    std::vector<double> read_latency_ms;
    double churn_bytes = 0.0;
    double host_groups_written = 0.0;
    std::uint64_t writes_issued = 0;
    bool injected = false;
  };

  Options opt_;
  std::vector<std::uint8_t> pool_;
};

}  // namespace

std::unique_ptr<BenchWorkload> MakeFtlChurn(const Options& opt) {
  return std::make_unique<FtlChurn>(opt);
}

}  // namespace fabbench
