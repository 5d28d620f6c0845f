#include "src/fleet/traffic.h"

#include <cmath>

#include "src/sim/log.h"

namespace fabacus {

namespace {

std::vector<TrafficMixEntry> DefaultMix() {
  return {{"ATAX", 1.0}, {"BICG", 1.0}, {"MVT", 1.0}, {"GESUM", 1.0}};
}

constexpr double kThinkNs = static_cast<double>(TrafficConfig::kMeanThinkTime);

}  // namespace

const char* RequestPriorityName(RequestPriority p) {
  switch (p) {
    case RequestPriority::kLatency:
      return "latency";
    case RequestPriority::kThroughput:
      return "throughput";
    case RequestPriority::kBatch:
      return "batch";
  }
  return "?";
}

const char* TrafficModelName(TrafficConfig::Model m) {
  switch (m) {
    case TrafficConfig::Model::kOpenLoop:
      return "open-loop";
    case TrafficConfig::Model::kClosedLoop:
      return "closed-loop";
  }
  return "?";
}

std::string TrafficConfig::Validate() const {
  if (num_clients < 1) {
    return "num_clients must be >= 1, got " + std::to_string(num_clients);
  }
  if (model == Model::kOpenLoop) {
    if (arrival_rate_per_s <= 0.0) {
      return "arrival_rate_per_s must be positive, got " + std::to_string(arrival_rate_per_s);
    }
    if (total_requests < 1) {
      return "total_requests must be >= 1, got " + std::to_string(total_requests);
    }
  } else {
    if (requests_per_client < 1) {
      return "requests_per_client must be >= 1, got " + std::to_string(requests_per_client);
    }
  }
  for (const TrafficMixEntry& e : mix) {
    if (e.weight <= 0.0) {
      return "mix weight for " + e.workload + " must be positive";
    }
    if (WorkloadRegistry::Get().Find(e.workload) == nullptr) {
      return "unknown workload in mix: " + e.workload;
    }
  }
  if (latency_share < 0.0 || batch_share < 0.0 || latency_share + batch_share > 1.0) {
    return "priority shares must be non-negative and sum to <= 1 (latency_share=" +
           std::to_string(latency_share) + ", batch_share=" + std::to_string(batch_share) + ")";
  }
  return "";
}

TrafficGenerator::TrafficGenerator(const TrafficConfig& config)
    : config_(config), rng_(config.seed) {
  const std::string problem = config_.Validate();
  FAB_CHECK(problem.empty()) << "bad TrafficConfig: " << problem;
  if (config_.mix.empty()) {
    config_.mix = DefaultMix();
  }
  double total = 0.0;
  for (const TrafficMixEntry& e : config_.mix) {
    const Workload* wl = WorkloadRegistry::Get().Find(e.workload);
    FAB_CHECK(wl != nullptr) << "unknown workload in mix: " << e.workload;
    mix_.push_back(wl);
    total += e.weight;
  }
  double cum = 0.0;
  for (const TrafficMixEntry& e : config_.mix) {
    cum += e.weight / total;
    cumulative_weight_.push_back(cum);
  }
  cumulative_weight_.back() = 1.0;  // guard against rounding at the tail
  emitted_per_client_.assign(static_cast<std::size_t>(config_.num_clients), 0);
}

int TrafficGenerator::total_requests() const {
  return config_.model == TrafficConfig::Model::kOpenLoop
             ? config_.total_requests
             : config_.num_clients * config_.requests_per_client;
}

int TrafficGenerator::DrawWorkload() {
  const double u = rng_.NextDouble();
  for (std::size_t i = 0; i < cumulative_weight_.size(); ++i) {
    if (u < cumulative_weight_[i]) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(cumulative_weight_.size()) - 1;
}

Tick TrafficGenerator::DrawExponential(double mean_ns) {
  // Inverse-CDF sampling; NextDouble() < 1 keeps the log argument positive.
  const double u = rng_.NextDouble();
  return static_cast<Tick>(-mean_ns * std::log(1.0 - u));
}

FleetRequest TrafficGenerator::MakeRequest(int client, Tick arrival) {
  FleetRequest r;
  r.id = next_id_++;
  r.client_id = client;
  r.workload_idx = DrawWorkload();
  r.arrival = arrival;
  r.priority = PriorityFor(r.id);
  return r;
}

RequestPriority TrafficGenerator::PriorityFor(int id) const {
  if (config_.latency_share <= 0.0 && config_.batch_share <= 0.0) {
    return RequestPriority::kThroughput;
  }
  // Side SplitMix64 hash of (seed, id): deterministic per config without
  // consuming the main stream, so priority shares never move arrival times.
  const std::uint64_t z =
      Mix64(config_.seed ^
            (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL));
  const double u = static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
  if (u < config_.latency_share) {
    return RequestPriority::kLatency;
  }
  if (u < config_.latency_share + config_.batch_share) {
    return RequestPriority::kBatch;
  }
  return RequestPriority::kThroughput;
}

std::vector<FleetRequest> TrafficGenerator::InitialArrivals() {
  std::vector<FleetRequest> out;
  if (config_.model == TrafficConfig::Model::kOpenLoop) {
    out.reserve(static_cast<std::size_t>(config_.total_requests));
    FleetRequest r;
    while (NextArrival(&r)) {
      out.push_back(r);
    }
    return out;
  }
  out.reserve(static_cast<std::size_t>(config_.num_clients));
  for (int c = 0; c < config_.num_clients; ++c) {
    out.push_back(MakeRequest(c, DrawExponential(kThinkNs)));
    emitted_per_client_[static_cast<std::size_t>(c)] = 1;
  }
  return out;
}

bool TrafficGenerator::NextArrival(FleetRequest* out) {
  if (config_.model != TrafficConfig::Model::kOpenLoop) {
    return false;
  }
  // One serving window emits total_requests arrivals — counted per window,
  // not against next_id_, because a restored generator continues its id
  // stream past total_requests (each resumed Run serves a fresh window).
  if (open_emitted_ >= config_.total_requests) {
    return false;
  }
  ++open_emitted_;
  const double mean_gap_ns = 1e9 / config_.arrival_rate_per_s;
  open_clock_ += DrawExponential(mean_gap_ns);
  *out = MakeRequest(next_id_ % config_.num_clients, open_clock_);
  return true;
}

bool TrafficGenerator::NextForClient(int client, Tick now, FleetRequest* out) {
  if (config_.model == TrafficConfig::Model::kOpenLoop) {
    return false;
  }
  FAB_CHECK_GE(client, 0);
  FAB_CHECK_LT(client, config_.num_clients);
  int& emitted = emitted_per_client_[static_cast<std::size_t>(client)];
  if (emitted >= config_.requests_per_client) {
    return false;
  }
  ++emitted;
  *out = MakeRequest(client, now + DrawExponential(kThinkNs));
  return true;
}

}  // namespace fabacus
