// Pass-through observers the benchmark hands to the library's public seams.
//
//   EpochClock     an AggregationPolicy that timestamps every epoch and
//                  returns exactly UniformAggregation's weights (the policy
//                  a null pointer selects), so the run is bitwise unchanged.
//   TimedStoreHook wraps ckpt::HflStoreHook and times each OnEpoch call,
//                  recording the size of the image it committed.

#ifndef PERFBENCH_OBSERVERS_H_
#define PERFBENCH_OBSERVERS_H_

#include <chrono>
#include <filesystem>
#include <system_error>
#include <vector>

#include "ckpt/store.h"
#include "hfl/fed_sgd.h"

namespace perfbench {

class EpochClock : public digfl::UniformAggregation {
 public:
  digfl::Result<std::vector<double>> Weights(
      size_t epoch, const digfl::Vec& params_before, double learning_rate,
      const std::vector<digfl::Vec>& deltas,
      const std::vector<uint8_t>& present,
      const digfl::HflServer& server) override {
    stamps_.push_back(std::chrono::steady_clock::now());
    return UniformAggregation::Weights(epoch, params_before, learning_rate,
                                       deltas, present, server);
  }

  // Wall seconds of every epoch after the first: the gaps between
  // consecutive stamps (each gap spans one full epoch period).
  std::vector<double> EpochSeconds() const {
    std::vector<double> gaps;
    for (size_t t = 1; t < stamps_.size(); ++t) {
      gaps.push_back(
          std::chrono::duration<double>(stamps_[t] - stamps_[t - 1]).count());
    }
    return gaps;
  }

  void Clear() { stamps_.clear(); }

 private:
  std::vector<std::chrono::steady_clock::time_point> stamps_;
};

class TimedStoreHook : public digfl::HflCheckpointHook {
 public:
  // Neither pointer is owned; both must outlive the hook.
  TimedStoreHook(digfl::HflCheckpointHook* inner,
                 const digfl::ckpt::CheckpointStore* store)
      : inner_(inner), store_(store) {}

  digfl::Status OnEpoch(const digfl::HflTrainerView& view) override {
    const auto start = std::chrono::steady_clock::now();
    digfl::Status status = inner_->OnEpoch(view);
    seconds_.push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
    if (status.ok()) {
      std::error_code error;
      const auto bytes = std::filesystem::file_size(
          store_->CheckpointPath(view.next_epoch), error);
      if (!error) {
        epochs_.push_back(static_cast<double>(view.next_epoch));
        image_bytes_.push_back(static_cast<double>(bytes));
      }
    }
    return status;
  }

  const std::vector<double>& seconds() const { return seconds_; }
  // Committed image sizes, paired with the epoch each one checkpoints.
  const std::vector<double>& epochs() const { return epochs_; }
  const std::vector<double>& image_bytes() const { return image_bytes_; }

 private:
  digfl::HflCheckpointHook* inner_;
  const digfl::ckpt::CheckpointStore* store_;
  std::vector<double> seconds_;
  std::vector<double> epochs_;
  std::vector<double> image_bytes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_OBSERVERS_H_
