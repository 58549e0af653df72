// TimedModel: a Model decorator that times every call into the wrapped
// model and forwards it unchanged.
//
// The traced benchmark runs hand a TimedModel to the public entry points in
// place of the Mlp, so per-call model-kernel timings come from outside the
// library and no span is needed under src/. Forwarding is exact — the same
// inner call with the same arguments — so a decorated run's log and φ̂ are
// bitwise equal to an undecorated one (the self-tests hold this).
//
// Clone() returns a TimedModel around a clone of the inner model that
// records into `clone_log`. HflServer clones the model it is given, so with
// a separate clone log the server-side calls (validation loss/gradient)
// are told apart from the participants' local updates.

#ifndef PERFBENCH_TIMED_MODEL_H_
#define PERFBENCH_TIMED_MODEL_H_

#include <array>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "nn/model.h"

namespace perfbench {

enum class ModelOp { kGradient = 0, kLoss, kHvp, kPredict, kCount };

// Per-op call durations in call order. Thread-safe: the participant nodes
// of a federation call concurrently.
class OpLog {
 public:
  void Record(ModelOp op, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    seconds_[static_cast<size_t>(op)].push_back(seconds);
  }
  std::vector<double> Samples(ModelOp op) const {
    std::lock_guard<std::mutex> lock(mu_);
    return seconds_[static_cast<size_t>(op)];
  }
  double Total(ModelOp op) const {
    double total = 0.0;
    for (double s : Samples(op)) total += s;
    return total;
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& samples : seconds_) samples.clear();
  }

 private:
  mutable std::mutex mu_;
  std::array<std::vector<double>, static_cast<size_t>(ModelOp::kCount)>
      seconds_;
};

class TimedModel : public digfl::Model {
 public:
  TimedModel(std::unique_ptr<digfl::Model> inner, size_t num_features,
             std::shared_ptr<OpLog> log, std::shared_ptr<OpLog> clone_log)
      : inner_(std::move(inner)),
        num_features_(num_features),
        log_(std::move(log)),
        clone_log_(std::move(clone_log)) {}

  std::string Name() const override { return inner_->Name(); }
  size_t NumParams() const override { return inner_->NumParams(); }

  digfl::Result<double> Loss(const digfl::Vec& params,
                             const digfl::Dataset& data) const override {
    return Timed(ModelOp::kLoss, [&] { return inner_->Loss(params, data); });
  }
  digfl::Result<digfl::Vec> Gradient(
      const digfl::Vec& params, const digfl::Dataset& data) const override {
    return Timed(ModelOp::kGradient,
                 [&] { return inner_->Gradient(params, data); });
  }
  digfl::Result<digfl::Vec> Hvp(const digfl::Vec& params,
                                const digfl::Dataset& data,
                                const digfl::Vec& v) const override {
    return Timed(ModelOp::kHvp, [&] { return inner_->Hvp(params, data, v); });
  }
  digfl::Result<digfl::Vec> Predict(const digfl::Vec& params,
                                    const digfl::Matrix& x) const override {
    return Timed(ModelOp::kPredict, [&] { return inner_->Predict(params, x); });
  }
  digfl::Result<double> Accuracy(const digfl::Vec& params,
                                 const digfl::Dataset& data) const override {
    return Timed(ModelOp::kPredict,
                 [&] { return inner_->Accuracy(params, data); });
  }
  digfl::Result<digfl::Vec> InitParams(digfl::Rng& rng) const override {
    return inner_->InitParams(rng);
  }
  std::unique_ptr<digfl::Model> Clone() const override {
    return std::make_unique<TimedModel>(inner_->Clone(), num_features_,
                                        clone_log_, clone_log_);
  }

 protected:
  size_t NumFeatures() const override { return num_features_; }

 private:
  template <typename Call>
  std::invoke_result_t<Call> Timed(ModelOp op, Call call) const {
    const auto start = std::chrono::steady_clock::now();
    auto result = call();
    log_->Record(op, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count());
    return result;
  }

  std::unique_ptr<digfl::Model> inner_;
  size_t num_features_;
  std::shared_ptr<OpLog> log_;
  std::shared_ptr<OpLog> clone_log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_MODEL_H_
