#include "src/sim/event_queue.h"

#include <bit>

namespace fabacus {

std::size_t EventQueue::FindNext() {
  FAB_CHECK(size_ > 0);
  if (cached_next_ != kNoBucket) {
    return cached_next_;
  }
  // Forward scan: visit bucket windows in increasing time order. All events
  // whose `when` falls inside the current window live (sorted) in the current
  // bucket, so the first in-window front is the global (when, seq) minimum.
  const Tick width = bucket_width();
  for (std::size_t step = 0; step <= buckets_.size(); ++step) {
    const Bucket& b = buckets_[cur_bucket_];
    if (!b.empty() && b.front().when < cur_window_ + width) {
      return cached_next_ = cur_bucket_;
    }
    cur_bucket_ = (cur_bucket_ + 1) & bucket_mask_;
    cur_window_ += width;
  }
  // Nothing within a full rotation: the next event is more than one "year"
  // ahead (e.g. a lone tBERS completion or daemon tick). Jump the cursor
  // straight to the earliest front.
  const Event* best = nullptr;
  std::size_t best_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& b = buckets_[i];
    if (b.empty()) {
      continue;
    }
    const Event& e = b.front();
    if (best == nullptr || e.when < best->when ||
        (e.when == best->when && e.seq_daemon < best->seq_daemon)) {
      best = &e;
      best_bucket = i;
    }
  }
  FAB_CHECK(best != nullptr);
  cur_bucket_ = best_bucket;
  cur_window_ = (best->when >> width_shift_) << width_shift_;
  return cached_next_ = best_bucket;
}

void EventQueue::Rebuild() {
  // Pull every event out, then re-seed the geometry from the live
  // population: bucket count tracks the event count, bucket width tracks the
  // spacing of the NEAREST events so the windows the cursor is about to walk
  // hold O(1) events each. Using the full span instead would let one distant
  // tBERS completion (6 ms) inflate the width by orders of magnitude and pile
  // the dense near-now cluster (1 us command overheads) into a single bucket.
  // Far-future events simply wrap laps; bucket order keeps them behind the
  // near ones, and the full-rotation fallback in FindNext absorbs the rare
  // sparse jump past them.
  std::vector<Event> all;
  all.reserve(size_);
  for (Bucket& b : buckets_) {
    for (std::size_t i = b.head; i < b.ev.size(); ++i) {
      all.push_back(std::move(b.ev[i]));
    }
    b.ev.clear();
    b.head = 0;
  }
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& c) {
    return a.when != c.when ? a.when < c.when : a.seq_daemon < c.seq_daemon;
  });

  // Aim for ~1 event per bucket: 2^(bit_width-1) <= size, so buckets end up
  // within [0.5x, 1x] of the population. Overshooting to 2x size doubles the
  // bucket-header footprint (32 B each) for no scan savings and measurably
  // hurts cache behaviour at 10k+ live events.
  int bucket_shift = all.empty() ? kMinBucketShift
                                 : std::bit_width(all.size()) - 1;
  bucket_shift = std::clamp(bucket_shift, kMinBucketShift, kMaxBucketShift);

  // Width floor = 1 us (kInitWidthShift), the ONFi command granularity:
  // events denser than that are same-window appends, so narrower buckets buy
  // nothing and shred locality (measured in bench_micro_engine — a 4-tick
  // width costs ~10x at 8k live events). The estimator only ever WIDENS the
  // windows, for sparse horizons (a drained device ticking on tPROG/tBERS
  // completions) where walking 1 us windows between events would dominate.
  int width_shift = kInitWidthShift;
  if (all.size() >= 8) {
    // Sample the nearest quarter (capped at 256) so the estimate tracks the
    // dense head of the schedule, not the tPROG/tBERS tail.
    const std::size_t k = std::clamp<std::size_t>(all.size() / 4, 2, 256);
    const Tick near_span = all[k - 1].when - all[0].when;
    const Tick spacing = near_span / static_cast<Tick>(k - 1);
    width_shift = spacing == 0 ? kInitWidthShift : std::bit_width(spacing);
  }
  width_shift = std::clamp(width_shift, kInitWidthShift, kMaxWidthShift);

  InitBuckets(bucket_shift, width_shift);
  if (!all.empty()) {
    SeatCursorAt(all.front().when);
  }
  // `all` is globally sorted, so each bucket receives its events in sorted
  // order: plain appends, no per-event search or memmove.
  for (Event& e : all) {
    buckets_[BucketIndex(e.when)].ev.push_back(std::move(e));
  }
}

void EventQueue::Clear() {
  for (Bucket& b : buckets_) {
    b.ev.clear();
    b.head = 0;
  }
  size_ = 0;
  non_daemon_count_ = 0;
  next_seq_ = 0;
  SeatCursorAt(0);
}

}  // namespace fabacus
