// Adversary instrumentation (§2.3 threat model, §4.2 attacks).
//
// Models an adversary who has compromised a subset of chain positions: it
// records exactly what those servers see — request batches in and out, and
// (if the last server is compromised) the dead-drop access histogram. Tests
// use these views to check the system's core claims mechanically:
//
//  * with one honest mixing server between vantage points, the adversary's
//    view is invariant under swaps of who talks to whom;
//  * the only last-server observables are m1 and m2 (plus sizes), never
//    identities.
//
// The observer is fed by transport::TapTransport and is not synchronized:
// tap several positions only under lock-step (K=1) rounds, whose passes run
// one after another.

#ifndef VUVUZELA_SRC_SIM_ADVERSARY_H_
#define VUVUZELA_SRC_SIM_ADVERSARY_H_

#include <set>
#include <vector>

#include "src/mixnet/chain.h"

namespace vuvuzela::sim {

class AdversaryObserver : public mixnet::ChainObserver {
 public:
  explicit AdversaryObserver(std::set<size_t> compromised_positions)
      : compromised_(std::move(compromised_positions)) {}

  void OnForwardPass(size_t position, uint64_t round, const std::vector<util::Bytes>& input,
                     const std::vector<util::Bytes>& output) override {
    if (!compromised_.contains(position)) {
      return;
    }
    PassView view;
    view.position = position;
    view.round = round;
    view.input = input;
    view.output = output;
    passes_.push_back(std::move(view));
  }

  void OnDeadDrops(uint64_t round, const deaddrop::AccessHistogram& histogram) override {
    if (!compromised_.contains(last_position_)) {
      return;
    }
    histograms_.push_back({round, histogram});
  }

  // The chain does not tell the observer its length; tests set it so the
  // observer knows whether "the last server" is compromised.
  void set_last_position(size_t position) { last_position_ = position; }

  struct PassView {
    size_t position = 0;
    uint64_t round = 0;
    std::vector<util::Bytes> input;
    std::vector<util::Bytes> output;
  };
  struct HistogramView {
    uint64_t round = 0;
    deaddrop::AccessHistogram histogram;
  };

  const std::vector<PassView>& passes() const { return passes_; }
  const std::vector<HistogramView>& histograms() const { return histograms_; }
  void Clear() {
    passes_.clear();
    histograms_.clear();
  }

 private:
  std::set<size_t> compromised_;
  size_t last_position_ = SIZE_MAX;
  std::vector<PassView> passes_;
  std::vector<HistogramView> histograms_;
};

}  // namespace vuvuzela::sim

#endif  // VUVUZELA_SRC_SIM_ADVERSARY_H_
