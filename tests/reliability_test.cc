// Reliability and recovery tests: erase failures / bad-block retirement under
// churn, ECC event accounting, mapping recovery from the Storengine journal,
// and block-summary footers.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/storengine.h"
#include "tests/test_util.h"

namespace fabacus {
namespace {

class ReliabilityFixture : public ::testing::Test {
 protected:
  explicit ReliabilityFixture(NandConfig nand = TinyNand())
      : nand_(nand),
        backbone_(nand_),
        dram_(DramConfig{}),
        scratchpad_(ScratchpadConfig{}),
        fv_(&sim_, &backbone_, &dram_, &scratchpad_),
        se_(&sim_, &fv_) {}

  void Write(std::uint64_t addr, const std::vector<float>& payload,
             std::uint64_t model_bytes = 0) {
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kWrite;
    req.flash_addr = addr;
    req.model_bytes = model_bytes != 0 ? model_bytes : payload.size() * sizeof(float);
    req.func_data = const_cast<float*>(payload.data());
    req.func_bytes = payload.size() * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
  }

  std::vector<float> Read(std::uint64_t addr, std::size_t count) {
    std::vector<float> out(count, -1.0f);
    Flashvisor::IoRequest req;
    req.type = Flashvisor::IoRequest::Type::kRead;
    req.flash_addr = addr;
    req.model_bytes = count * sizeof(float);
    req.func_data = out.data();
    req.func_bytes = count * sizeof(float);
    req.on_complete = [](Tick, IoStatus) {};
    fv_.SubmitIo(std::move(req));
    sim_.Run();
    return out;
  }

  Simulator sim_;
  NandConfig nand_;
  FlashBackbone backbone_;
  Dram dram_;
  Scratchpad scratchpad_;
  Flashvisor fv_;
  Storengine se_;
};

class EraseFailureFixture : public ReliabilityFixture {
 protected:
  EraseFailureFixture() : ReliabilityFixture([] {
    NandConfig cfg = TinyNand();
    cfg.blocks_per_plane = 24;        // enough spare blocks for the retirements
    cfg.fault.erase_failure_rate = 0.25;  // roughly every 4th erase retires the block
    return cfg;
  }()) {}
};

TEST_F(EraseFailureFixture, ChurnSurvivesBadBlockRetirements) {
  const std::uint64_t window_bytes =
      6ULL * fv_.DataSlotsPerBlockGroup() * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(window_bytes);
  std::vector<float> live(128);
  for (int pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      live[i] = static_cast<float>(pass * 1000 + static_cast<int>(i));
    }
    std::vector<float> full(window_bytes / sizeof(float), 0.0f);
    std::copy(live.begin(), live.end(), full.begin());
    Write(addr, full, window_bytes);
  }
  EXPECT_GT(fv_.blocks().retired_count(), 0u) << "erase failures should retire blocks";
  EXPECT_EQ(Read(addr, live.size()), live);
}

TEST_F(ReliabilityFixture, EccEventsCountedOnReads) {
  NandConfig cfg = TinyNand();
  cfg.fault.read_error_base = 1.0;
  FlashBackbone bb(cfg);
  Simulator sim;
  Dram dram(DramConfig{});
  Scratchpad spm(ScratchpadConfig{});
  Flashvisor fv(&sim, &bb, &dram, &spm);
  const std::uint64_t addr = fv.AllocLogicalExtent(cfg.GroupBytes());
  Flashvisor::IoRequest wr;
  wr.type = Flashvisor::IoRequest::Type::kWrite;
  wr.flash_addr = addr;
  wr.model_bytes = cfg.GroupBytes();
  wr.on_complete = [](Tick, IoStatus) {};
  fv.SubmitIo(std::move(wr));
  sim.Run();
  Flashvisor::IoRequest rd;
  rd.type = Flashvisor::IoRequest::Type::kRead;
  rd.flash_addr = addr;
  rd.model_bytes = cfg.GroupBytes();
  rd.on_complete = [](Tick, IoStatus) {};
  fv.SubmitIo(std::move(rd));
  sim.Run();
  EXPECT_EQ(fv.ecc_events(), 1u);
}

TEST_F(ReliabilityFixture, MappingRecoversFromJournalSnapshot) {
  // Write data, journal the mapping, then rebuild a mapping table from the
  // journal's flash contents and check every translation matches.
  const std::uint64_t addr = fv_.AllocLogicalExtent(8 * nand_.GroupBytes());
  std::vector<float> data(256, 9.25f);
  Write(addr, data, 8 * nand_.GroupBytes());

  bool dumped = false;
  se_.RunJournalDump([&](Tick) { dumped = true; });
  sim_.Run();
  ASSERT_TRUE(dumped);
  const std::uint64_t journal_bg = se_.last_journal_bg();
  ASSERT_NE(journal_bg, BlockManager::kNone);

  // "Power loss": read the snapshot back from the journal block group and
  // restore it into a fresh table.
  const std::uint64_t group_bytes = nand_.GroupBytes();
  std::vector<std::uint8_t> snapshot(fv_.mapping().table_bytes());
  std::vector<std::uint8_t> buf(group_bytes);
  for (std::uint64_t off = 0; off < snapshot.size(); off += group_bytes) {
    const std::uint32_t slot = static_cast<std::uint32_t>(off / group_bytes);
    backbone_.ReadGroup(sim_.Now(), fv_.GroupOfSlot(journal_bg, slot), buf.data());
    std::memcpy(snapshot.data() + off, buf.data(),
                std::min<std::uint64_t>(group_bytes, snapshot.size() - off));
  }
  Scratchpad fresh_spm(ScratchpadConfig{});
  MappingTable recovered(nand_, &fresh_spm);
  recovered.Restore(snapshot);
  for (std::uint64_t lg = 0; lg < fv_.mapping().entries(); ++lg) {
    ASSERT_EQ(recovered.Lookup(lg), fv_.mapping().Lookup(lg)) << "logical group " << lg;
  }
}

TEST_F(ReliabilityFixture, SealedBlockFooterHoldsReverseMapping) {
  // Fill one block group; its footer (last two slots) must contain the
  // logical group stored in each data slot.
  const std::uint32_t data_slots = fv_.DataSlotsPerBlockGroup();
  const std::uint64_t bytes = static_cast<std::uint64_t>(data_slots) * nand_.GroupBytes();
  const std::uint64_t addr = fv_.AllocLogicalExtent(bytes);
  Write(addr, {}, bytes);
  // Trigger the lazy seal with one more write.
  const std::uint64_t addr2 = fv_.AllocLogicalExtent(nand_.GroupBytes());
  Write(addr2, {}, nand_.GroupBytes());
  ASSERT_EQ(fv_.blocks().used_count(), 1u);

  // The sealed block group is the one holding the first write's groups.
  const std::uint64_t bg =
      DecodeGroup(nand_, fv_.mapping().Lookup(addr / nand_.GroupBytes())).block;
  std::vector<std::uint8_t> footer(2 * nand_.GroupBytes());
  backbone_.ReadGroup(sim_.Now(), fv_.GroupOfSlot(bg, data_slots), footer.data());
  backbone_.ReadGroup(sim_.Now(), fv_.GroupOfSlot(bg, data_slots + 1),
                      footer.data() + nand_.GroupBytes());
  std::vector<std::uint32_t> summary(data_slots);
  std::memcpy(summary.data(), footer.data(), summary.size() * sizeof(std::uint32_t));
  for (std::uint32_t slot = 0; slot < data_slots; ++slot) {
    EXPECT_EQ(summary[slot], fv_.mapping().ReverseLookup(fv_.GroupOfSlot(bg, slot)))
        << "slot " << slot;
  }
}

TEST_F(ReliabilityFixture, DeterministicRerunsProduceIdenticalTimelines) {
  // Two identical request sequences on two fresh stacks must produce
  // identical completion times (full simulator determinism).
  auto run_once = []() {
    Simulator sim;
    NandConfig nand = TinyNand();
    FlashBackbone bb(nand);
    Dram dram(DramConfig{});
    Scratchpad spm(ScratchpadConfig{});
    Flashvisor fv(&sim, &bb, &dram, &spm);
    std::vector<Tick> completions;
    for (int i = 0; i < 5; ++i) {
      Flashvisor::IoRequest req;
      req.type = Flashvisor::IoRequest::Type::kWrite;
      req.flash_addr = fv.AllocLogicalExtent(3 * nand.GroupBytes());
      req.model_bytes = 3 * nand.GroupBytes();
      req.on_complete = [&completions](Tick t, IoStatus) { completions.push_back(t); };
      fv.SubmitIo(std::move(req));
    }
    sim.Run();
    return completions;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fabacus
