#include "src/fleet/health.h"

#include "src/sim/log.h"

namespace fabacus {

void HealthTracker::OnSuccess(double service_ms) {
  latency_ewma_ms_ = successes_ + failures_ == 0
                         ? service_ms
                         : latency_ewma_ms_ + kLatencyAlpha * (service_ms - latency_ewma_ms_);
  error_ewma_ += kErrorAlpha * (0.0 - error_ewma_);
  consecutive_failures_ = 0;
  ++successes_;
}

void HealthTracker::OnFailure() {
  error_ewma_ =
      successes_ + failures_ == 0 ? 1.0 : error_ewma_ + kErrorAlpha * (1.0 - error_ewma_);
  ++consecutive_failures_;
  ++failures_;
}

void HealthTracker::Persist(StateIO& io) {
  io.F64(latency_ewma_ms_);
  io.F64(error_ewma_);
  io.I32(consecutive_failures_);
  io.U64(successes_);
  io.U64(failures_);
}

const char* BreakerStateName(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void CircuitBreaker::Advance(Tick now) {
  if (state_ == BreakerState::kOpen && now >= reopen_at_) {
    state_ = BreakerState::kHalfOpen;
    probes_inflight_ = 0;
    probe_successes_ = 0;
  }
}

bool CircuitBreaker::AllowRequest() const {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      return false;
    case BreakerState::kHalfOpen:
      return probes_inflight_ < kHalfOpenProbes;
  }
  return false;
}

void CircuitBreaker::OnProbeDispatched() {
  FAB_CHECK(state_ == BreakerState::kHalfOpen) << "probes only exist half-open";
  ++probes_inflight_;
  probes_.Add();
}

void CircuitBreaker::OnProbeOutcome(bool success, Tick now) {
  if (state_ != BreakerState::kHalfOpen) {
    // A force-open (crash) can race an in-flight probe; its late outcome no
    // longer has a vote.
    return;
  }
  if (probes_inflight_ > 0) {
    --probes_inflight_;
  }
  if (!success) {
    Open(now);
    return;
  }
  if (++probe_successes_ >= kProbeSuccessesToClose) {
    Close();
  }
}

void CircuitBreaker::OnOutcome(bool success, Tick now, double error_ewma) {
  if (state_ != BreakerState::kClosed) {
    // Stragglers dispatched before the breaker left closed carry no weight;
    // half-open health is decided by probes alone.
    return;
  }
  if (success) {
    strikes_ = 0;
    return;
  }
  if (++strikes_ >= kStrikesToOpen || error_ewma >= kErrorOpenThreshold) {
    Open(now);
  }
}

void CircuitBreaker::ForceOpen(Tick now) { Open(now); }

void CircuitBreaker::ForceHalfOpen(Tick now) {
  if (state_ == BreakerState::kClosed) {
    // Count the pass through open so the open/close tallies stay paired.
    opens_.Add();
  }
  state_ = BreakerState::kHalfOpen;
  reopen_at_ = now;
  strikes_ = 0;
  probes_inflight_ = 0;
  probe_successes_ = 0;
}

void CircuitBreaker::Open(Tick now) {
  if (state_ != BreakerState::kOpen) {
    opens_.Add();
  }
  state_ = BreakerState::kOpen;
  reopen_at_ = now + kOpenCooldown;
  strikes_ = 0;
  probes_inflight_ = 0;
  probe_successes_ = 0;
}

void CircuitBreaker::Close() {
  state_ = BreakerState::kClosed;
  strikes_ = 0;
  probes_inflight_ = 0;
  probe_successes_ = 0;
  closes_.Add();
}

void CircuitBreaker::Persist(StateIO& io) {
  std::uint8_t state = static_cast<std::uint8_t>(state_);
  io.U8(state);
  if (state > static_cast<std::uint8_t>(BreakerState::kHalfOpen)) {
    io.Fail("invalid circuit breaker state byte");
    return;
  }
  if (!io.saving()) {
    state_ = static_cast<BreakerState>(state);
  }
  io.I32(strikes_);
  io.U64(reopen_at_);
  io.I32(probes_inflight_);
  io.I32(probe_successes_);
  opens_.Persist(io);
  closes_.Persist(io);
  probes_.Persist(io);
}

}  // namespace fabacus
