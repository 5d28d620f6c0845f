// Tagged interval trace of a run. Every component of interest records its
// active intervals; benches derive the Fig-15 time series (FU utilization,
// power) and the energy decomposition from the same trace, so the numbers in
// different figures are self-consistent.
//
// Intervals additionally carry a `track` — the instance of the tagged
// component (LWP id, flash channel, ...). Aggregations (UnionTime, TotalTime,
// Series) ignore it; the Chrome-trace exporter uses it to lay each LWP /
// flash channel / control-core out on its own timeline row.
#ifndef SRC_CORE_TRACE_H_
#define SRC_CORE_TRACE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/snapshot.h"
#include "src/sim/time.h"

namespace fabacus {

enum class TraceTag : int {
  kLwpCompute = 0,   // weight = average FUs busy during the interval
  kFlashOp,          // flash backbone array/bus activity (whole device op)
  kHostStack,        // host CPU driving the storage stack / memory copies
  kSsdOp,            // external NVMe device activity
  kPcieXfer,         // PCIe DMA
  kSchedule,         // Flashvisor scheduling / translation work
  kGc,               // Storengine background work (track 0 = GC, 1 = journal)
  kFlashChan,        // per-channel NV-DDR2 bus activity (track = channel)
};

// Human-readable tag name (Chrome-trace process names, report JSON keys).
const char* TraceTagName(TraceTag tag);

constexpr unsigned TraceTagBit(TraceTag tag) { return 1u << static_cast<int>(tag); }

// Record everything (Chrome-trace export, Fig-14/15 series).
inline constexpr unsigned kAllTraceTags = 0xffffffffu;
// The minimal tag set the energy models integrate over (UnionTime of flash /
// PCIe / host-stack / SSD activity). Recording only these keeps run results —
// energy decomposition included — bit-identical while skipping the
// high-volume per-screen and per-bus-beat intervals, which are pure overhead
// in throughput benches (see FlashAbacusConfig::record_full_trace).
inline constexpr unsigned kEnergyTraceTags =
    TraceTagBit(TraceTag::kFlashOp) | TraceTagBit(TraceTag::kPcieXfer) |
    TraceTagBit(TraceTag::kHostStack) | TraceTagBit(TraceTag::kSsdOp);

struct TaggedInterval {
  Tick start;
  Tick end;
  TraceTag tag;
  double weight;  // tag-specific magnitude (e.g. FUs busy); 1.0 by default
  int track;      // component instance within the tag (LWP id, channel, ...)
};

class RunTrace : public Snapshottable {
 public:
  void Add(TraceTag tag, Tick start, Tick end, double weight = 1.0, int track = 0) {
    if (end > start && (mask_ & TraceTagBit(tag)) != 0) {
      intervals_.push_back({start, end, tag, weight, track});
    }
  }

  // Restricts recording to the given tag set (kAllTraceTags by default, so a
  // bare RunTrace behaves as before). Gated Adds are dropped at the call.
  void SetMask(unsigned mask) { mask_ = mask; }
  unsigned mask() const { return mask_; }

  // Pre-sizes the interval vector so steady-state recording never regrows it
  // mid-run.
  void Reserve(std::size_t n) { intervals_.reserve(n); }

  const std::vector<TaggedInterval>& intervals() const { return intervals_; }

  // Total time covered by the union of intervals with `tag` (overlaps merged)
  // — e.g. "time the flash device was active" for the energy model.
  Tick UnionTime(TraceTag tag) const;

  // Sum of interval durations with `tag` (overlaps counted multiply) — e.g.
  // total LWP-seconds of compute.
  Tick TotalTime(TraceTag tag) const;

  // Weighted activity sampled into `buckets` bins over [0, horizon): for each
  // bin, the time-average of the summed weights of intervals alive in it.
  std::vector<double> Series(TraceTag tag, Tick horizon, std::size_t buckets) const;

  // Returns a copy containing only activity inside [start, end), clipped and
  // re-based so `start` becomes time 0. Used to scope a device-lifetime
  // trace to one run (dropping e.g. dataset-install activity).
  RunTrace Window(Tick start, Tick end) const;

  // Serializes the trace as Chrome trace-event JSON (the format Perfetto and
  // chrome://tracing load): one complete ("ph":"X") event per interval, one
  // process per tag, one named thread per track, timestamps in microseconds.
  // The interval weight rides along in args.weight. See docs/OBSERVABILITY.md.
  std::string ToChromeTrace() const;

  void Clear() { intervals_.clear(); }

  // Snapshottable: the full interval history plus the recording mask. Runs
  // window the device-lifetime trace, so a resumed segment needs everything
  // recorded before the snapshot point.
  std::string StateName() const override { return "trace"; }
  void Persist(StateIO& io) override {
    io.U32(mask_);
    io.Seq(intervals_, [&io](TaggedInterval& iv) {
      io.U64(iv.start);
      io.U64(iv.end);
      std::int32_t tag = static_cast<std::int32_t>(iv.tag);
      io.I32(tag);
      if (tag < 0 || tag > static_cast<std::int32_t>(TraceTag::kFlashChan)) {
        io.Fail("trace interval tag " + std::to_string(tag) + " out of range");
      } else if (!io.saving()) {
        iv.tag = static_cast<TraceTag>(tag);
      }
      io.F64(iv.weight);
      io.I32(iv.track);
    });
  }

 private:
  std::vector<TaggedInterval> intervals_;
  unsigned mask_ = kAllTraceTags;
};

}  // namespace fabacus

#endif  // SRC_CORE_TRACE_H_
