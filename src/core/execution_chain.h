// Multi-app execution chain (paper §4.2, Figure 8): the root holds one node
// list per offloaded application; each node is a microblock with the status
// of its screens. The node order encodes the only data dependency the
// schedulers must respect — microblock m+1 of a kernel starts after every
// screen of microblock m completes. Apps are independent of each other.
#ifndef SRC_CORE_EXECUTION_CHAIN_H_
#define SRC_CORE_EXECUTION_CHAIN_H_

#include <cstdint>
#include <vector>

#include "src/core/kernel.h"
#include "src/sim/log.h"

namespace fabacus {

struct ScreenRef {
  AppInstance* inst = nullptr;
  int mblk = 0;
  int screen = 0;
  int num_screens = 1;
  int app = 0;  // the instance's arrival index in the chain (set by the walkers)
};

class ExecutionChain {
 public:
  // `screens_per_parallel_mblk` is the fan-out used for non-serial
  // microblocks (typically the number of worker LWPs).
  void AddApp(AppInstance* inst, int screens_per_parallel_mblk);

  void MarkLoadDone(AppInstance* inst);
  bool IsLoadDone(const AppInstance* inst) const;

  // Both walkers visit apps in `order`, a permutation of arrival indices
  // (the weighted-fair preference order, docs/QOS.md), or in arrival order
  // when `order` is null.
  //
  // Out-of-order policy (IntraO3): the next undispatched screen of *any* app
  // whose load is done and whose chain permits it (first app in visiting
  // order, then microblock, then screen). Returns false when nothing is
  // ready.
  bool NextReadyScreen(ScreenRef* out, const std::vector<int>* order = nullptr);

  // In-order policy (IntraIo): screens only from the current microblock of
  // the first unfinished app in visiting order (strict barrier across apps).
  bool NextReadyScreenInOrder(ScreenRef* out, const std::vector<int>* order = nullptr);

  void OnDispatched(const ScreenRef& ref);
  // Returns true when this completion finished the instance's last microblock.
  bool OnScreenComplete(const ScreenRef& ref);

  bool ComputeDone(const AppInstance* inst) const;
  bool AllComputeDone() const;
  // True when some screen is dispatched but not yet complete.
  bool AnyInFlight() const;

  std::size_t num_apps() const { return apps_.size(); }

 private:
  struct Node {
    int screens_total = 1;
    int dispatched = 0;
    int completed = 0;
  };
  struct App {
    AppInstance* inst = nullptr;
    std::vector<Node> nodes;
    int current = 0;  // first incomplete microblock
    bool load_done = false;
  };

  int FindApp(const AppInstance* inst) const;
  App& AppOf(const ScreenRef& ref);
  // The app visited `k`-th: apps_[(*order)[k]], or apps_[k] without an order.
  App& Visit(const std::vector<int>* order, std::size_t k);
  bool ReadyScreenOfApp(App& app, ScreenRef* out);

  std::vector<App> apps_;  // arrival order
};

}  // namespace fabacus

#endif  // SRC_CORE_EXECUTION_CHAIN_H_
