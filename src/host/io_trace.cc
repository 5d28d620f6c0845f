#include "src/host/io_trace.h"

#include <cstdlib>
#include <sstream>

#include "src/sim/log.h"
#include "src/sim/rng.h"

namespace fabacus {

bool ParseIoTrace(const std::string& text, std::vector<IoTraceEntry>* out,
                  std::string* error) {
  out->clear();
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    double issue_us = 0.0;
    std::string op;
    std::uint64_t addr = 0;
    std::uint64_t bytes = 0;
    if (!(fields >> issue_us)) {
      continue;  // blank / comment-only line
    }
    if (!(fields >> op >> addr >> bytes) || (op != "R" && op != "W") || issue_us < 0.0) {
      if (error != nullptr) {
        *error = "malformed trace line " + std::to_string(line_no) + ": " + line;
      }
      return false;
    }
    IoTraceEntry e;
    e.issue = static_cast<Tick>(issue_us * 1000.0);
    e.is_write = op == "W";
    e.addr = addr;
    e.bytes = bytes;
    out->push_back(e);
  }
  return true;
}

IoReplayResult ReplayIoTrace(Simulator* sim, Flashvisor* fv,
                             const std::vector<IoTraceEntry>& entries) {
  IoReplayResult result;
  const std::uint64_t group = fv->backbone().config().GroupBytes();
  const std::uint64_t capacity = fv->LogicalCapacityBytes();
  auto latest = std::make_shared<Tick>(0);
  const Tick t0 = sim->Now();

  for (const IoTraceEntry& e : entries) {
    sim->ScheduleAt(t0 + e.issue, [sim, fv, e, group, capacity, &result, latest]() {
      Flashvisor::IoRequest req;
      req.type = e.is_write ? Flashvisor::IoRequest::Type::kWrite
                            : Flashvisor::IoRequest::Type::kRead;
      const std::uint64_t aligned = (e.addr / group * group) % capacity;
      req.flash_addr = aligned;
      req.model_bytes =
          std::min<std::uint64_t>(std::max<std::uint64_t>(e.bytes, 1), capacity - aligned);
      const Tick issued = sim->Now();
      const bool is_write = e.is_write;
      req.on_complete = [issued, is_write, &result, latest](Tick done, IoStatus) {
        const double us = TicksToUs(done - issued);
        (is_write ? result.write_latency_us : result.read_latency_us).push_back(us);
        *latest = std::max(*latest, done);
      };
      if (is_write) {
        result.write_mb += static_cast<double>(req.model_bytes) / 1048576.0;
      } else {
        result.read_mb += static_cast<double>(req.model_bytes) / 1048576.0;
      }
      fv->SubmitIo(std::move(req));
    });
  }
  sim->Run();
  result.makespan = *latest > t0 ? *latest - t0 : 0;
  return result;
}

std::vector<IoTraceEntry> SynthesizeIoTrace(int n, std::uint64_t bytes,
                                            double write_fraction,
                                            std::uint64_t span_bytes, Tick inter_arrival,
                                            std::uint64_t seed) {
  Rng rng(seed);
  std::vector<IoTraceEntry> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    IoTraceEntry e;
    e.issue = static_cast<Tick>(i) * inter_arrival;
    e.is_write = rng.NextDouble() < write_fraction;
    e.addr = rng.NextBelow(span_bytes);
    e.bytes = bytes;
    out.push_back(e);
  }
  return out;
}

}  // namespace fabacus
