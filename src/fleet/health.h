// Per-shard health telemetry and admission gating for the fleet layer
// (docs/FLEET.md "Fleet fault tolerance").
//
// HealthTracker keeps a deterministic EWMA of a shard's batch service latency
// and request failure rate plus a consecutive-failure streak — the signal.
// CircuitBreaker turns that signal into an admission state machine:
//
//   closed ──(strikes / error EWMA over threshold)──> open
//   open ──(cooldown elapses)──> half-open
//   half-open ──(probe successes)──> closed
//   half-open ──(any probe failure)──> open          (cooldown restarts)
//
// A crashed shard is forced open; a recovered shard is forced half-open so it
// rejoins through probe traffic instead of taking a full load slice while
// still unproven. Everything is driven by simulation ticks and counts, never
// wall clock, so fleet runs stay bit-deterministic per seed.
#ifndef SRC_FLEET_HEALTH_H_
#define SRC_FLEET_HEALTH_H_

#include <cstdint>

#include "src/sim/snapshot.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"

namespace fabacus {

// Deterministic EWMA view of one shard's recent service quality.
class HealthTracker {
 public:
  static constexpr double kLatencyAlpha = 0.3;  // EWMA smoothing of batch service latency
  static constexpr double kErrorAlpha = 0.25;   // EWMA smoothing of the failure indicator

  void OnSuccess(double service_ms);
  void OnFailure();

  double latency_ewma_ms() const { return latency_ewma_ms_; }
  double error_ewma() const { return error_ewma_; }
  int consecutive_failures() const { return consecutive_failures_; }
  std::uint64_t successes() const { return successes_; }
  std::uint64_t failures() const { return failures_; }

  // Routing score: lower is healthier. Latency-dominated, inflated by the
  // failure-rate EWMA so an erroring shard ranks behind a merely slow one.
  double Score() const { return latency_ewma_ms_ * (1.0 + 4.0 * error_ewma_); }

  void Persist(StateIO& io);

 private:
  double latency_ewma_ms_ = 0.0;
  double error_ewma_ = 0.0;
  int consecutive_failures_ = 0;
  std::uint64_t successes_ = 0;
  std::uint64_t failures_ = 0;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
const char* BreakerStateName(BreakerState s);

class CircuitBreaker {
 public:
  // Opening conditions while closed: a failure streak this long, or a
  // failure-rate EWMA at/above the threshold.
  static constexpr int kStrikesToOpen = 3;
  static constexpr double kErrorOpenThreshold = 0.5;
  static constexpr Tick kOpenCooldown = 20 * kMs;  // open -> half-open wait
  static constexpr int kHalfOpenProbes = 2;         // concurrent probes admitted half-open
  static constexpr int kProbeSuccessesToClose = 2;  // clean probes required to close

  // Lazily applies the open -> half-open cooldown transition; call before
  // reading state()/AllowRequest() at a new simulation tick.
  void Advance(Tick now);

  BreakerState state() const { return state_; }
  // May another request be admitted right now? Closed: always. Half-open:
  // only while the in-flight probe quota has room. Open: never.
  bool AllowRequest() const;

  // A request admitted while half-open is a probe; its outcome decides the
  // reopen-or-close question.
  void OnProbeDispatched();
  void OnProbeOutcome(bool success, Tick now);
  // Outcome of a regular (non-probe) request. Only a closed breaker reacts:
  // `error_ewma` is the tracker's failure-rate EWMA after this outcome.
  void OnOutcome(bool success, Tick now, double error_ewma);

  // Crash path: the shard is gone, stop routing to it immediately.
  void ForceOpen(Tick now);
  // Rejoin path: the shard recovered; admit probe traffic only until proven.
  void ForceHalfOpen(Tick now);

  std::uint64_t opens() const { return opens_.value(); }
  std::uint64_t closes() const { return closes_.value(); }
  std::uint64_t probes() const { return probes_.value(); }

  void Persist(StateIO& io);

 private:
  void Open(Tick now);
  void Close();

  BreakerState state_ = BreakerState::kClosed;
  int strikes_ = 0;          // consecutive failures observed while closed
  Tick reopen_at_ = 0;       // open -> half-open transition tick
  int probes_inflight_ = 0;  // half-open probes awaiting an outcome
  int probe_successes_ = 0;
  Counter opens_;
  Counter closes_;
  Counter probes_;
};

}  // namespace fabacus

#endif  // SRC_FLEET_HEALTH_H_
