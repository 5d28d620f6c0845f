#include "src/core/execution_chain.h"

namespace fabacus {

void ExecutionChain::AddApp(AppInstance* inst, int screens_per_parallel_mblk) {
  FAB_CHECK(inst != nullptr);
  FAB_CHECK_GT(screens_per_parallel_mblk, 0);
  App app;
  app.inst = inst;
  for (const MicroblockSpec& m : inst->spec().microblocks) {
    Node node;
    node.screens_total = m.serial ? 1 : screens_per_parallel_mblk;
    app.nodes.push_back(node);
  }
  FAB_CHECK(!app.nodes.empty()) << "kernel without microblocks";
  apps_.push_back(std::move(app));
}

int ExecutionChain::FindApp(const AppInstance* inst) const {
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].inst == inst) {
      return static_cast<int>(i);
    }
  }
  FAB_CHECK(false) << "unknown instance " << inst->app_id() << "/" << inst->instance_id();
  return -1;
}

void ExecutionChain::MarkLoadDone(AppInstance* inst) {
  apps_[static_cast<std::size_t>(FindApp(inst))].load_done = true;
}

bool ExecutionChain::IsLoadDone(const AppInstance* inst) const {
  return apps_[static_cast<std::size_t>(FindApp(inst))].load_done;
}

ExecutionChain::App& ExecutionChain::AppOf(const ScreenRef& ref) {
  App& app = apps_.at(static_cast<std::size_t>(ref.app));
  FAB_CHECK(app.inst == ref.inst) << "screen of another app";
  return app;
}

ExecutionChain::App& ExecutionChain::Visit(const std::vector<int>* order, std::size_t k) {
  return apps_[order == nullptr ? k : static_cast<std::size_t>((*order)[k])];
}

bool ExecutionChain::ReadyScreenOfApp(App& app, ScreenRef* out) {
  if (!app.load_done || app.current >= static_cast<int>(app.nodes.size())) {
    return false;
  }
  Node& node = app.nodes[static_cast<std::size_t>(app.current)];
  if (node.dispatched >= node.screens_total) {
    return false;  // all screens of the current microblock already in flight
  }
  out->inst = app.inst;
  out->app = static_cast<int>(&app - apps_.data());
  out->mblk = app.current;
  out->screen = node.dispatched;
  out->num_screens = node.screens_total;
  return true;
}

bool ExecutionChain::NextReadyScreen(ScreenRef* out, const std::vector<int>* order) {
  FAB_CHECK(order == nullptr || order->size() == apps_.size());
  for (std::size_t k = 0; k < apps_.size(); ++k) {
    if (ReadyScreenOfApp(Visit(order, k), out)) {
      return true;
    }
  }
  return false;
}

bool ExecutionChain::NextReadyScreenInOrder(ScreenRef* out, const std::vector<int>* order) {
  FAB_CHECK(order == nullptr || order->size() == apps_.size());
  // The strict in-order policy: find the first app with an incomplete
  // microblock; only its current microblock may dispatch. If its screens are
  // exhausted (but still running) nothing else may start.
  for (std::size_t k = 0; k < apps_.size(); ++k) {
    App& app = Visit(order, k);
    if (app.current >= static_cast<int>(app.nodes.size())) {
      continue;  // app finished; the barrier moves to the next app
    }
    return ReadyScreenOfApp(app, out);
  }
  return false;
}

void ExecutionChain::OnDispatched(const ScreenRef& ref) {
  App& app = AppOf(ref);
  FAB_CHECK_EQ(ref.mblk, app.current);
  Node& node = app.nodes[static_cast<std::size_t>(ref.mblk)];
  FAB_CHECK_LT(node.dispatched, node.screens_total);
  ++node.dispatched;
}

bool ExecutionChain::OnScreenComplete(const ScreenRef& ref) {
  App& app = AppOf(ref);
  Node& node = app.nodes[static_cast<std::size_t>(ref.mblk)];
  ++node.completed;
  FAB_CHECK_LE(node.completed, node.screens_total);
  if (ref.mblk == app.current && node.completed == node.screens_total) {
    ++app.current;
    return app.current == static_cast<int>(app.nodes.size());
  }
  return false;
}

bool ExecutionChain::ComputeDone(const AppInstance* inst) const {
  const App& app = apps_[static_cast<std::size_t>(FindApp(inst))];
  return app.current == static_cast<int>(app.nodes.size());
}

bool ExecutionChain::AllComputeDone() const {
  for (const App& app : apps_) {
    if (app.current < static_cast<int>(app.nodes.size())) {
      return false;
    }
  }
  return true;
}

bool ExecutionChain::AnyInFlight() const {
  for (const App& app : apps_) {
    for (const Node& node : app.nodes) {
      if (node.dispatched > node.completed) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace fabacus
