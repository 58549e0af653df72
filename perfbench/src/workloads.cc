#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <system_error>
#include <thread>
#include <utility>

#include "ckpt/hfl_resume.h"
#include "ckpt/store.h"
#include "compare.h"
#include "core/digfl_hfl.h"
#include "core/digfl_vfl.h"
#include "core/phi_accumulator.h"
#include "crypto/paillier.h"
#include "data/paper_datasets.h"
#include "data/partition.h"
#include "hfl/fed_sgd.h"
#include "hfl/server.h"
#include "net/coordinator.h"
#include "net/messages.h"
#include "net/participant_node.h"
#include "nn/linear_regression.h"
#include "nn/mlp.h"
#include "observers.h"
#include "stats.h"
#include "telemetry/telemetry.h"
#include "timed_model.h"
#include "vfl/encrypted_protocol.h"
#include "vfl/plain_trainer.h"

namespace perfbench {

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},        {"epochs_per_s", "1/s"},
      {"round_ms_p50", "ms"},  {"round_ms_tail", "ms"},
      {"phi_alg2_ms", "ms"},   {"followup_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"nn.gradient.calls", "count"},
      {"nn.gradient.us_p50", "us"},
      {"nn.gradient.busy_share", "ratio"},
      {"nn.loss.us_p50", "us"},
      {"nn.hvp.calls", "count"},
      {"nn.hvp.us_p50", "us"},
      {"nn.hvp.busy_share", "ratio"},
      {"hfl.server.us_per_epoch", "us"},
      {"core.phi_consume.us_p50", "us"},
      {"core.lemma3_residual_max", "ratio"},
      {"ckpt.hook.ms_p50", "ms"},
      {"ckpt.hook.ms_last", "ms"},
      {"ckpt.hook.busy_share", "ratio"},
      {"ckpt.image_bytes_last", "B"},
      {"ckpt.image_bytes_slope", "B/epoch"},
      {"ckpt.bytes_written", "B"},
      {"ckpt.encode.us", "us"},
      {"ckpt.commit.us", "us"},
      {"ckpt.load.us", "us"},
      {"ckpt.decode.us", "us"},
      {"net.bytes_per_round", "B"},
      {"net.codec.encode_us", "us"},
      {"net.codec.decode_us", "us"},
      {"net.participant_compute.us_p50", "us"},
      {"net.coord_wait.us_p50", "us"},
      {"net.handshake_ms", "ms"},
      {"net.retries", "count"},
      {"net.timeouts", "count"},
      {"net.conn_errors", "count"},
      {"crypto.keygen.s", "s"},
      {"crypto.keygen_share", "ratio"},
      {"crypto.encrypt.us_p50", "us"},
      {"crypto.decrypt.us_p50", "us"},
      {"crypto.add.us_p50", "us"},
      {"crypto.scalar_mul.us_p50", "us"},
      {"crypto.encrypt.calls", "count"},
      {"crypto.decrypt.calls", "count"},
      {"crypto.busy_share", "ratio"},
      {"vfl.bytes_per_epoch", "B"},
      {"vfl.param_err_max", "abs"},
      {"vfl.phi_err_max", "abs"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"hfl_train", "hfl_ckpt",
                                                  "hfl_net", "vfl_paillier"};
  return kNames;
}

namespace {

using namespace digfl;
using Clock = std::chrono::steady_clock;

// Set-ups measured per run at the least; short runs top up after the loop.
constexpr size_t kMinSetups = 25;
constexpr double kHflLearningRate = 0.3;
// Relative Lemma 3 residual allowed: the two sides differ only by the
// rounding of a sum of dots against the dot of a sum.
constexpr double kLemma3Tolerance = 1e-9;
// Alg. #2 calls timed per repetition (phi_alg2_ms on the HFL workloads).
constexpr size_t kAlg2Calls = 5;
// Distributed Alg. #1 HVP rounds timed per repetition (followup_ms).
constexpr size_t kHvpRounds = 20;
constexpr int kHvpTimeoutMs = 10000;
// Encrypted VFL: the Boston-like set at bench scale, 3 participants.
constexpr double kVflSampleFraction = 0.15;
constexpr size_t kVflParticipants = 3;
constexpr size_t kVflEpochs = 1;
constexpr size_t kVflKeyBits = 512;
constexpr int kVflFractionBits = 24;
constexpr double kVflLearningRate = 0.05;
// Encrypted-vs-plaintext error allowed: fixed-point quantization at 24
// fraction bits stays orders of magnitude below this.
constexpr double kVflErrorBound = 1e-6;
constexpr size_t kPaillierProbeOps = 16;
// Eq. 27 / Eq. 26 estimator calls: batches per repetition, calls per batch.
constexpr size_t kVflEvalBatches = 25;
constexpr size_t kVflEvalBatch = 50;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename T>
Status Take(Result<T> result, T* out) {
  if (!result.ok()) return result.status();
  *out = std::move(result).value();
  return Status::OK();
}

// The epoch records and θ of two logs, bit for bit.
bool SameEpochs(const HflTrainingLog& a, const HflTrainingLog& b) {
  if (a.epochs.size() != b.epochs.size() ||
      !BitEqual(a.final_params, b.final_params)) {
    return false;
  }
  for (size_t t = 0; t < a.epochs.size(); ++t) {
    const HflEpochRecord& x = a.epochs[t];
    const HflEpochRecord& y = b.epochs[t];
    if (!BitEqual(x.params_before, y.params_before) ||
        !BitEqual(x.deltas, y.deltas) || !BitEqual(x.weights, y.weights) ||
        std::memcmp(&x.learning_rate, &y.learning_rate, sizeof(double)) != 0 ||
        x.present != y.present) {
      return false;
    }
  }
  return true;
}

bool AllFinite(const ContributionReport& report) {
  for (double v : report.total) {
    if (!std::isfinite(v)) return false;
  }
  for (const Vec& row : report.per_epoch) {
    for (double v : row) {
      if (!std::isfinite(v)) return false;
    }
  }
  return !report.total.empty();
}

// Largest relative Lemma 3 residual over the epochs of an Alg. #2 report:
// |Σ_i φ̂_{t,i}·|present_t| − ⟨v_t, Σ_i δ_{t,i}⟩| over Σ_i |⟨v_t, δ_{t,i}⟩|.
Result<double> Lemma3Residual(const HflServer& server,
                              const HflTrainingLog& log,
                              const ContributionReport& phi) {
  double worst = 0.0;
  for (size_t t = 0; t < log.epochs.size(); ++t) {
    const HflEpochRecord& record = log.epochs[t];
    DIGFL_ASSIGN_OR_RETURN(Vec v,
                           server.ValidationGradient(record.params_before));
    Vec sum = vec::Zeros(v.size());
    double lhs = 0.0;
    double scale = 0.0;
    for (size_t i = 0; i < record.deltas.size(); ++i) {
      if (!record.IsPresent(i)) continue;
      vec::Axpy(1.0, record.deltas[i], sum);
      lhs += phi.per_epoch[t][i];
      scale += std::abs(vec::Dot(v, record.deltas[i]));
    }
    lhs *= static_cast<double>(record.NumPresent());
    if (scale > 0.0) {
      worst = std::max(worst, std::abs(lhs - vec::Dot(v, sum)) / scale);
    }
  }
  return worst;
}

struct SpanTotals {
  uint64_t count = 0;
  double seconds = 0.0;
};

void SumSpans(const telemetry::SpanNodeSnapshot& node, const std::string& name,
              SpanTotals* out) {
  if (node.name == name) {
    out->count += node.count;
    out->seconds += node.total_seconds;
  }
  for (const auto& child : node.children) SumSpans(child, name, out);
}

// Calls and total seconds of every span named `name`, wherever it nests.
SpanTotals FindSpans(const std::string& name) {
  SpanTotals totals;
  for (const auto& root : telemetry::Spans().Snapshot()) {
    SumSpans(root, name, &totals);
  }
  return totals;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RemoveDir(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

// ------------------------------------------------------------- harness.

// Moves the calling thread onto `cpu`, then lets it run on every CPU in
// `allowed` again. The scheduler leaves a running thread where it is, so
// the thread starts (and mostly stays) on `cpu`, while the threads it
// creates may use every allowed CPU.
void StartOnCpu(int cpu, const cpu_set_t& allowed) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
  ::sched_setaffinity(0, sizeof(allowed), &allowed);
}

// The measurement loop shared by every workload: repeat set-up + body until
// the run's seconds are spent, count attempts and failures, and reduce the
// samples to the reported metrics.
//
// The process may run on every CPU it is allowed, as the library normally
// does, and the timings report the run's best repetition. On a shared host,
// other tenants slow single vCPUs by up to 2x for seconds at a time, and a
// busy thread stays on the vCPU it started on. So each repetition starts on
// the next allowed CPU in turn, and the best repetition across the rotation
// is the number that repeats from run to run. Set-up time is the median of
// all set-ups.
class Workload {
 public:
  explicit Workload(const RunOptions& options) : options_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  Result<RunResult> Run();

 protected:
  // Once per run, outside every timed region: the reference outputs the
  // correctness gates compare against.
  virtual Status Prepare() { return Status::OK(); }
  // Builds one repetition's inputs; timed as setup_s.
  virtual Status Setup(bool traced) = 0;
  // One repetition: the timed public calls, then the correctness gate.
  virtual Status Body(bool traced) = 0;
  // Releases what Setup built; safe after a failed Setup or Body.
  virtual void Teardown() {}
  // Epochs (rounds) one repetition attempts.
  virtual uint64_t OperationsPerRep() const = 0;
  virtual void AddDetails(RunResult&) const {}

  // One passing repetition's end-to-end samples: the wall time of the
  // training call, each epoch's wall time, the Alg. #2 call, and the
  // workload's follow-up call(s).
  void RecordRep(bool traced, double call_s, const std::vector<double>& rounds,
                 double phi_alg2_s, const std::vector<double>& followups) {
    if (traced) {
      traced_call_s_.push_back(call_s);
      return;
    }
    untraced_call_s_.push_back(call_s);
    RepSample rep;
    rep.epochs_per_s = static_cast<double>(OperationsPerRep()) / call_s;
    rep.round_p50_s = Median(rounds);
    rep.round_tail = HighestTail(rounds);
    rep.phi_alg2_s = phi_alg2_s;
    rep.followup_s = Median(followups);
    rep.followup_samples = followups.size();
    reps_.push_back(rep);
  }

  void AddLayer(const std::string& name, double value) {
    layer_[name].push_back(value);
  }
  void MaxLayer(const std::string& name, double value) {
    layer_max_[name] = std::max(layer_max_[name], value);
  }

  const RunOptions& options_;
  // Failures inside an otherwise passing repetition (net timeouts).
  uint64_t extra_failures_ = 0;
  std::map<std::string, std::vector<double>> layer_;

 private:
  struct RepSample {
    double epochs_per_s = 0.0;
    double round_p50_s = 0.0;
    Tail round_tail;
    double phi_alg2_s = 0.0;
    double followup_s = 0.0;
    size_t followup_samples = 0;
  };

  void ReportEndToEnd(RunResult& result, double peak_rss_mb) const;

  Tally tally_;
  std::vector<double> setup_s_;
  std::vector<double> untraced_call_s_;
  std::vector<double> traced_call_s_;
  std::vector<RepSample> reps_;
  std::map<std::string, double> layer_max_;
};

Result<RunResult> Workload::Run() {
  DIGFL_RETURN_IF_ERROR(Prepare());
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  const auto start = Clock::now();
  const size_t min_reps = options_.trace ? 2 : 1;
  // A repetition starts only if one as long as the longest so far still
  // ends within the run's seconds.
  double longest_rep_s = 0.0;
  // Peak RSS once the first repetition has run. Later repetitions add only
  // allocator slack, which grows with how many of them fit in the run.
  double peak_rss_mb = 0.0;
  size_t reps = 0;
  for (; reps < min_reps || Since(start) + longest_rep_s <= options_.seconds;
       ++reps) {
    // Traced runs alternate, untraced first, and each untraced/traced pair
    // starts on the same CPU, so the overhead ratio compares like with like.
    const bool traced = options_.trace && reps % 2 == 1;
    const size_t slot =
        options_.first_cpu + (options_.trace ? reps / 2 : reps);
    if (!cpus.empty()) StartOnCpu(cpus[slot % cpus.size()], allowed);
    const auto rep_start = Clock::now();
    extra_failures_ = 0;
    if (traced) {
      telemetry::Spans().Reset();
      telemetry::SetEnabled(true);
    }
    const auto setup_start = Clock::now();
    Status status = Setup(traced);
    if (status.ok()) {
      setup_s_.push_back(Since(setup_start));
      status = Body(traced);
    }
    telemetry::SetEnabled(false);
    Teardown();
    longest_rep_s = std::max(longest_rep_s, Since(rep_start));
    if (reps == 0) peak_rss_mb = PeakRssMb();
    tally_.Record(OperationsPerRep(), status.ok());
    tally_.AddFailures(extra_failures_);
    if (!status.ok()) {
      std::fprintf(stderr, "repetition %zu failed: %s\n", reps,
                   status.ToString().c_str());
    }
  }
  while (setup_s_.size() < kMinSetups) {
    if (!cpus.empty()) {
      StartOnCpu(cpus[(options_.first_cpu + setup_s_.size()) % cpus.size()],
                 allowed);
    }
    const auto setup_start = Clock::now();
    Status status = Setup(false);
    const double seconds = Since(setup_start);
    Teardown();
    DIGFL_RETURN_IF_ERROR(status);
    setup_s_.push_back(seconds);
  }

  RunResult result;
  result.attempted = tally_.attempted();
  result.failed = tally_.failed();
  result.correct = tally_.AllPassed();
  result.details["repetitions"] = static_cast<double>(reps);
  result.details["setup_samples"] = static_cast<double>(setup_s_.size());
  result.details["failed_share"] = tally_.FailedShare();
  if (!options_.trace) {
    ReportEndToEnd(result, peak_rss_mb);
  } else {
    for (const auto& [name, values] : layer_) {
      result.metrics[name] = Median(values);
    }
    for (const auto& [name, value] : layer_max_) {
      result.metrics[name] = value;
    }
    result.metrics["trace.overhead_share"] =
        Median(traced_call_s_) / Median(untraced_call_s_) - 1.0;
    result.details["traced_repetitions"] =
        static_cast<double>(traced_call_s_.size());
  }
  AddDetails(result);
  return result;
}

void Workload::ReportEndToEnd(RunResult& result, double peak_rss_mb) const {
  result.metrics["setup_s"] = Median(setup_s_);
  result.metrics["peak_rss_mb"] = peak_rss_mb;
  if (reps_.empty()) return;
  auto best = [this](auto less) -> const RepSample& {
    return *std::min_element(reps_.begin(), reps_.end(), less);
  };
  result.metrics["epochs_per_s"] =
      best([](const RepSample& a, const RepSample& b) {
        return a.epochs_per_s > b.epochs_per_s;
      }).epochs_per_s;
  result.metrics["round_ms_p50"] =
      best([](const RepSample& a, const RepSample& b) {
        return a.round_p50_s < b.round_p50_s;
      }).round_p50_s * 1e3;
  const Tail tail = best([](const RepSample& a, const RepSample& b) {
                      return a.round_tail.value < b.round_tail.value;
                    }).round_tail;
  result.metrics["round_ms_tail"] = tail.value * 1e3;
  result.metrics["phi_alg2_ms"] =
      best([](const RepSample& a, const RepSample& b) {
        return a.phi_alg2_s < b.phi_alg2_s;
      }).phi_alg2_s * 1e3;
  const RepSample& followup = best([](const RepSample& a, const RepSample& b) {
    return a.followup_s < b.followup_s;
  });
  result.metrics["followup_ms"] = followup.followup_s * 1e3;
  result.details["passing_repetitions"] = static_cast<double>(reps_.size());
  // How far the repetitions of this one run spread: the interquartile range
  // of their epochs/s as a share of its median.
  std::vector<double> rates;
  for (const RepSample& rep : reps_) rates.push_back(rep.epochs_per_s);
  const auto quartiles = Quartiles(rates);
  result.details["epochs_per_s_iqr_share"] =
      quartiles[1] > 0.0 ? (quartiles[2] - quartiles[0]) / quartiles[1] : 0.0;
  result.details["round_samples_per_repetition"] =
      static_cast<double>(tail.samples);
  result.details["round_tail_percentile"] = tail.percentile;
  result.details["round_tail_beyond"] = static_cast<double>(tail.beyond);
  result.details["followup_samples_per_repetition"] =
      static_cast<double>(followup.followup_samples);
}

// ------------------------------------------------------------- HFL.

struct HflShape {
  double sample_fraction;  // of the MNIST-like set's Table I size
  size_t participants;
  size_t epochs;
};

class HflWorkload : public Workload {
 protected:
  HflWorkload(const RunOptions& options, HflShape shape)
      : Workload(options), shape_(shape) {}

  uint64_t OperationsPerRep() const override { return shape_.epochs; }

  // The inputs: MNIST-like data from the seed, D^v split off, IID shards,
  // an MLP and its initial θ. Traced repetitions get a TimedModel.
  Status BuildFederation(bool traced) {
    PaperDatasetOptions data_options;
    data_options.sample_fraction = shape_.sample_fraction;
    data_options.seed = options_.seed;
    PaperDatasetSpec spec;
    DIGFL_RETURN_IF_ERROR(
        Take(MakePaperDataset(PaperDatasetId::kMnist, data_options), &spec));
    Rng rng(options_.seed + 1);
    std::pair<Dataset, Dataset> split;
    DIGFL_RETURN_IF_ERROR(Take(SplitHoldout(spec.data, 0.1, rng), &split));
    std::vector<Dataset> shards;
    DIGFL_RETURN_IF_ERROR(
        Take(PartitionIid(split.first, shape_.participants, rng), &shards));
    validation_ = std::move(split.second);
    participants_.clear();
    for (size_t i = 0; i < shards.size(); ++i) {
      participants_.emplace_back(i, std::move(shards[i]));
    }
    const size_t features = spec.data.num_features();
    plain_model_ = std::make_unique<Mlp>(std::vector<size_t>{
        features, 16, static_cast<size_t>(spec.data.num_classes)});
    Rng init_rng(options_.seed + 2);
    DIGFL_RETURN_IF_ERROR(Take(plain_model_->InitParams(init_rng), &init_));
    if (traced) {
      model_ = std::make_unique<TimedModel>(plain_model_->Clone(), features,
                                            participant_ops_, server_ops_);
    } else {
      model_ = plain_model_->Clone();
    }
    participant_ops_->Clear();
    server_ops_->Clear();
    return Status::OK();
  }

  FedSgdConfig TrainConfig() const {
    FedSgdConfig config;
    config.epochs = shape_.epochs;
    config.learning_rate = kHflLearningRate;
    return config;
  }

  // Alg. #2 φ̂ of an uncheckpointed in-process run on this run's inputs.
  Status PrepareReference() {
    DIGFL_RETURN_IF_ERROR(BuildFederation(false));
    HflServer server(*model_, validation_);
    HflTrainingLog log;
    DIGFL_RETURN_IF_ERROR(Take(
        RunFedSgd(*model_, participants_, server, init_, TrainConfig()), &log));
    ContributionReport phi;
    DIGFL_RETURN_IF_ERROR(Take(
        EvaluateHflContributions(*model_, participants_, server, log), &phi));
    reference_ = std::move(phi);
    return Status::OK();
  }

  // Alg. #2 over `log`, called kAlg2Calls times; the fastest call counts.
  // One call streams the whole log (MBs of deltas) in a few ms, so a single
  // call mostly measures what the shared cache was doing at that moment.
  Status TimeAlg2(const HflServer& server, const HflTrainingLog& log,
                  ContributionReport* phi, double* seconds) {
    *seconds = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < kAlg2Calls; ++k) {
      const auto start = Clock::now();
      DIGFL_RETURN_IF_ERROR(Take(
          EvaluateHflContributions(*model_, participants_, server, log), phi));
      *seconds = std::min(*seconds, Since(start));
    }
    return Status::OK();
  }

  // Bitwise comparison against the reference; without a prepared one, the
  // first repetition's φ̂ becomes the reference for the rest.
  Status CheckReference(const ContributionReport& phi,
                        std::optional<ContributionReport>* reference,
                        const char* what) {
    if (!reference->has_value()) {
      *reference = phi;
      return Status::OK();
    }
    if (!SameReport(phi, **reference)) {
      return Status::Internal(std::string(what) +
                              " differs bitwise from the reference run");
    }
    return Status::OK();
  }

  // Model-kernel, server and φ̂-accumulator layers of one traced training
  // call. Participant calls come from `participant_logs`, server calls
  // from the clone log.
  Status RecordTrainingLayers(double train_s, const HflTrainingLog& log,
                              const HflServer& server,
                              const std::vector<const OpLog*>& participant_logs) {
    double gradient_s = 0.0;
    size_t gradient_calls = 0;
    std::vector<double>& gradient_us = layer_["nn.gradient.us_p50"];
    auto fold = [&](const OpLog& ops) {
      for (double s : ops.Samples(ModelOp::kGradient)) {
        gradient_us.push_back(s * 1e6);
        gradient_s += s;
        ++gradient_calls;
      }
    };
    for (const OpLog* ops : participant_logs) fold(*ops);
    fold(*server_ops_);
    AddLayer("nn.gradient.calls", static_cast<double>(gradient_calls));
    AddLayer("nn.gradient.busy_share", gradient_s / train_s);
    for (double s : server_ops_->Samples(ModelOp::kLoss)) {
      AddLayer("nn.loss.us_p50", s * 1e6);
    }
    const double server_s = server_ops_->Total(ModelOp::kGradient) +
                            server_ops_->Total(ModelOp::kLoss) +
                            server_ops_->Total(ModelOp::kPredict);
    std::vector<double> aggregate_s;
    for (const HflEpochRecord& record : log.epochs) {
      const auto start = Clock::now();
      Result<Vec> aggregate =
          HflServer::AggregateWeighted(record.deltas, record.weights);
      aggregate_s.push_back(Since(start));
      if (!aggregate.ok()) return aggregate.status();
    }
    const double epochs = static_cast<double>(log.epochs.size());
    AddLayer("hfl.server.us_per_epoch",
             (server_s / epochs + Median(aggregate_s)) * 1e6);
    HflPhiAccumulator accumulator(participants_.size());
    for (const HflEpochRecord& record : log.epochs) {
      const auto start = Clock::now();
      Status status = accumulator.Consume(server, record);
      AddLayer("core.phi_consume.us_p50", Since(start) * 1e6);
      DIGFL_RETURN_IF_ERROR(status);
    }
    participant_ops_->Clear();
    server_ops_->Clear();
    return Status::OK();
  }

  void RecordHvpLayers(const std::vector<const OpLog*>& logs, double wall_s) {
    double hvp_s = 0.0;
    size_t calls = 0;
    for (const OpLog* ops : logs) {
      for (double s : ops->Samples(ModelOp::kHvp)) {
        AddLayer("nn.hvp.us_p50", s * 1e6);
        hvp_s += s;
        ++calls;
      }
    }
    AddLayer("nn.hvp.calls", static_cast<double>(calls));
    AddLayer("nn.hvp.busy_share", hvp_s / wall_s);
  }

  const HflShape shape_;
  std::unique_ptr<Model> plain_model_;  // the Mlp
  std::unique_ptr<Model> model_;        // the Mlp, or a TimedModel around it
  Dataset validation_;
  std::vector<HflParticipant> participants_;
  Vec init_;
  std::shared_ptr<OpLog> participant_ops_ = std::make_shared<OpLog>();
  std::shared_ptr<OpLog> server_ops_ = std::make_shared<OpLog>();
  EpochClock clock_;
  std::optional<ContributionReport> reference_;
};

// In-process FedSGD, then Alg. #2 and Alg. #1 over the log.
class HflTrain : public HflWorkload {
 public:
  explicit HflTrain(const RunOptions& options)
      : HflWorkload(options, {0.02, 10, 40}) {}

 protected:
  Status Setup(bool traced) override { return BuildFederation(traced); }

  Status Body(bool traced) override {
    HflServer server(*model_, validation_);
    clock_.Clear();
    HflTrainingLog log;
    auto start = Clock::now();
    DIGFL_RETURN_IF_ERROR(Take(RunFedSgd(*model_, participants_, server, init_,
                                         TrainConfig(), &clock_),
                               &log));
    const double train_s = Since(start);
    if (traced) {
      DIGFL_RETURN_IF_ERROR(RecordTrainingLayers(train_s, log, server,
                                                 {participant_ops_.get()}));
    }

    ContributionReport alg2;
    double alg2_s = 0.0;
    DIGFL_RETURN_IF_ERROR(TimeAlg2(server, log, &alg2, &alg2_s));

    // Alg. #1 at the library's defaults: every present participant serves
    // every Ω_t^{-i} HVP and the server averages them.
    DigFlHflOptions interactive;
    interactive.mode = HflEvaluatorMode::kInteractive;
    participant_ops_->Clear();
    ContributionReport alg1;
    start = Clock::now();
    DIGFL_RETURN_IF_ERROR(Take(EvaluateHflContributions(*model_, participants_,
                                                        server, log,
                                                        interactive),
                               &alg1));
    const double alg1_s = Since(start);
    if (traced) RecordHvpLayers({participant_ops_.get()}, alg1_s);

    double residual = 0.0;
    DIGFL_RETURN_IF_ERROR(Take(Lemma3Residual(server, log, alg2), &residual));
    MaxLayer("core.lemma3_residual_max", residual);
    if (!(residual <= kLemma3Tolerance)) {
      return Status::Internal("Lemma 3 residual " + std::to_string(residual) +
                              " above tolerance");
    }
    if (!AllFinite(alg2) || !AllFinite(alg1)) {
      return Status::Internal("non-finite φ̂");
    }
    DIGFL_RETURN_IF_ERROR(CheckReference(alg2, &reference_, "Alg. #2 φ̂"));
    DIGFL_RETURN_IF_ERROR(CheckReference(alg1, &reference_alg1_, "Alg. #1 φ̂"));
    RecordRep(traced, train_s, clock_.EpochSeconds(), alg2_s, {alg1_s});
    return Status::OK();
  }

 private:
  std::optional<ContributionReport> reference_alg1_;
};

// Checkpointed FedSGD (a commit every epoch), then a cold resume.
class HflCkpt : public HflWorkload {
 public:
  explicit HflCkpt(const RunOptions& options)
      : HflWorkload(options, {0.01, 10, 120}) {}

 protected:
  Status Prepare() override { return PrepareReference(); }
  Status Setup(bool traced) override { return BuildFederation(traced); }

  Status Body(bool traced) override {
    const std::string dir =
        options_.work_dir + "/ckpt-" + std::to_string(store_count_++);
    RemoveDir(dir);
    Status status = traced ? TracedBody(dir) : UntracedBody(dir);
    RemoveDir(dir);
    return status;
  }

 private:
  Status UntracedBody(const std::string& dir) {
    HflServer server(*model_, validation_);
    clock_.Clear();
    ckpt::CheckpointRunOptions store_options;
    store_options.dir = dir;
    ckpt::HflCheckpointedRun run;
    auto start = Clock::now();
    DIGFL_RETURN_IF_ERROR(Take(
        ckpt::RunFedSgdWithCheckpoints(*model_, participants_, server, init_,
                                       TrainConfig(), store_options, &clock_),
        &run));
    const double train_s = Since(start);

    ContributionReport alg2;
    double alg2_s = 0.0;
    DIGFL_RETURN_IF_ERROR(TimeAlg2(server, run.log, &alg2, &alg2_s));

    // Cold resume: a fresh store handle on the finished directory.
    start = Clock::now();
    Result<ckpt::CheckpointStore> store =
        ckpt::CheckpointStore::Open(dir, store_options.keep);
    if (!store.ok()) return store.status();
    HflPhiAccumulator accumulator(participants_.size());
    Result<ckpt::HflResumeLoad> load =
        ckpt::LoadHflResumePoint(*store, accumulator);
    const double resume_s = Since(start);
    if (!load.ok()) return load.status();

    if (!SameReport(alg2, run.contributions)) {
      return Status::Internal(
          "incremental φ̂ differs from EvaluateHflContributions on the log");
    }
    if (!load->resumed || load->epoch != shape_.epochs ||
        !SameEpochs(load->point.log, run.log) ||
        !BitEqual(accumulator.total(), run.contributions.total)) {
      return Status::Internal("resumed state differs from the run");
    }
    DIGFL_RETURN_IF_ERROR(CheckReference(alg2, &reference_, "checkpointed φ̂"));
    RecordRep(false, train_s, clock_.EpochSeconds(), alg2_s, {resume_s});
    return Status::OK();
  }

  // RunFedSgdWithCheckpoints' composition at its default options, with the
  // store hook wrapped.
  Status TracedBody(const std::string& dir) {
    HflServer server(*model_, validation_);
    clock_.Clear();
    const ckpt::CheckpointRunOptions defaults;
    Result<ckpt::CheckpointStore> store =
        ckpt::CheckpointStore::Open(dir, defaults.keep);
    if (!store.ok()) return store.status();
    HflPhiAccumulator accumulator(participants_.size());
    ckpt::HflStoreHook hook(&*store, &server, &accumulator, defaults.every,
                            shape_.epochs);
    TimedStoreHook timed_hook(&hook, &*store);
    FedSgdConfig config = TrainConfig();
    config.checkpoint_hook = &timed_hook;
    HflTrainingLog log;
    const auto start = Clock::now();
    DIGFL_RETURN_IF_ERROR(Take(
        RunFedSgd(*model_, participants_, server, init_, config, &clock_),
        &log));
    const double train_s = Since(start);
    DIGFL_RETURN_IF_ERROR(RecordTrainingLayers(train_s, log, server,
                                               {participant_ops_.get()}));

    const std::vector<double>& hook_s = timed_hook.seconds();
    double hook_total = 0.0;
    for (double s : hook_s) {
      AddLayer("ckpt.hook.ms_p50", s * 1e3);
      hook_total += s;
    }
    AddLayer("ckpt.hook.ms_last", hook_s.empty() ? 0.0 : hook_s.back() * 1e3);
    AddLayer("ckpt.hook.busy_share", hook_total / train_s);
    const std::vector<double>& bytes = timed_hook.image_bytes();
    double bytes_written = 0.0;
    for (double b : bytes) bytes_written += b;
    AddLayer("ckpt.image_bytes_last", bytes.empty() ? 0.0 : bytes.back());
    AddLayer("ckpt.image_bytes_slope", Slope(timed_hook.epochs(), bytes));
    AddLayer("ckpt.bytes_written", bytes_written);

    ContributionReport phi;
    phi.total = accumulator.total();
    phi.per_epoch = accumulator.per_epoch();
    DIGFL_RETURN_IF_ERROR(
        CheckReference(phi, &reference_, "hook-wrapped checkpointed φ̂"));
    DIGFL_RETURN_IF_ERROR(ProbeCodec(dir + "-probe", log, accumulator));
    RecordRep(true, train_s, {}, 0.0, {});
    return Status::OK();
  }

  // Encode, commit, load and decode of the final state, each timed alone.
  Status ProbeCodec(const std::string& dir, const HflTrainingLog& log,
                    const HflPhiAccumulator& accumulator) {
    RemoveDir(dir);
    Result<ckpt::CheckpointStore> store =
        ckpt::CheckpointStore::Open(dir, ckpt::CheckpointRunOptions().keep);
    if (!store.ok()) return store.status();
    Status status = Status::OK();
    for (uint64_t k = 0; k < 3 && status.ok(); ++k) {
      auto start = Clock::now();
      Result<std::string> payload = ckpt::EncodeHflCheckpoint(
          shape_.epochs, kHflLearningRate, {}, log, accumulator);
      AddLayer("ckpt.encode.us", Since(start) * 1e6);
      if (!payload.ok()) {
        status = payload.status();
        break;
      }
      start = Clock::now();
      status = store->Commit(shape_.epochs + k, *payload);
      AddLayer("ckpt.commit.us", Since(start) * 1e6);
      if (!status.ok()) break;
      start = Clock::now();
      Result<ckpt::CheckpointStore::Loaded> loaded = store->LoadLatest();
      AddLayer("ckpt.load.us", Since(start) * 1e6);
      if (!loaded.ok()) {
        status = loaded.status();
        break;
      }
      start = Clock::now();
      Result<ckpt::HflCheckpointState> decoded =
          ckpt::DecodeHflCheckpoint(loaded->payload);
      AddLayer("ckpt.decode.us", Since(start) * 1e6);
      if (!decoded.ok()) {
        status = decoded.status();
      } else if (!SameEpochs(decoded->log, log)) {
        status = Status::Internal("decoded checkpoint log differs");
      }
    }
    RemoveDir(dir);
    return status;
  }

  size_t store_count_ = 0;
};

// Flat coordinator over loopback TCP with one ParticipantNode thread per
// participant, then Alg. #1's HVP requests over the same connections.
class HflNet : public HflWorkload {
 public:
  explicit HflNet(const RunOptions& options)
      : HflWorkload(options, {0.005, 3, 1001}) {}
  ~HflNet() override { StopFederation(); }

 protected:
  Status Prepare() override { return PrepareReference(); }

  Status Setup(bool traced) override {
    DIGFL_RETURN_IF_ERROR(BuildFederation(traced));
    node_models_.clear();
    node_ops_.clear();
    const size_t features = validation_.num_features();
    for (size_t i = 0; i < participants_.size(); ++i) {
      if (traced) {
        auto ops = std::make_shared<OpLog>();
        node_models_.push_back(std::make_unique<TimedModel>(
            plain_model_->Clone(), features, ops, ops));
        node_ops_.push_back(std::move(ops));
      } else {
        node_models_.push_back(plain_model_->Clone());
      }
    }
    const uint64_t digest = net::FederationConfigDigest(
        model_->NumParams(), shape_.epochs, kHflLearningRate, 1.0, 1,
        options_.seed);
    net::CoordinatorOptions coordinator_options;
    coordinator_options.num_participants = participants_.size();
    coordinator_options.config_digest = digest;
    const auto start = Clock::now();
    DIGFL_RETURN_IF_ERROR(
        Take(net::Coordinator::Create(coordinator_options), &coordinator_));
    node_status_.assign(participants_.size(), Status::OK());
    for (size_t i = 0; i < participants_.size(); ++i) {
      net::ParticipantNodeOptions node_options;
      node_options.port = coordinator_->port();
      node_options.participant_id = i;
      node_options.config_digest = digest;
      node_threads_.emplace_back([this, i, node_options] {
        net::ParticipantNode node(*node_models_[i], participants_[i],
                                  node_options);
        node_status_[i] = node.Run();
      });
    }
    DIGFL_RETURN_IF_ERROR(coordinator_->WaitForParticipants(10000));
    handshake_s_.push_back(Since(start));
    return Status::OK();
  }

  Status Body(bool traced) override {
    HflServer server(*model_, validation_);
    clock_.Clear();
    HflTrainingLog log;
    auto start = Clock::now();
    DIGFL_RETURN_IF_ERROR(
        Take(coordinator_->RunFederatedTraining(server, init_, TrainConfig(),
                                                &clock_),
             &log));
    const double train_s = Since(start);
    const net::CoordinatorStats stats = coordinator_->stats();
    extra_failures_ = stats.round_timeouts + stats.conn_errors;
    if (!traced) {
      // Traced repetitions piggyback telemetry on the replies, so the wire
      // bytes come from the untraced ones.
      AddLayer("net.bytes_per_round",
               static_cast<double>(log.comm.TotalBytes()) /
                   static_cast<double>(shape_.epochs));
    }
    std::vector<const OpLog*> node_logs;
    for (const auto& ops : node_ops_) node_logs.push_back(ops.get());
    if (traced) {
      DIGFL_RETURN_IF_ERROR(
          RecordTrainingLayers(train_s, log, server, node_logs));
    }

    ContributionReport alg2;
    double alg2_s = 0.0;
    DIGFL_RETURN_IF_ERROR(TimeAlg2(server, log, &alg2, &alg2_s));

    // Alg. #1's per-epoch exchange over the wire: every participant's
    // local HVP at θ_T against the validation gradient.
    Vec v;
    DIGFL_RETURN_IF_ERROR(Take(server.ValidationGradient(log.final_params), &v));
    std::vector<Vec> expected(participants_.size());
    for (size_t i = 0; i < participants_.size(); ++i) {
      DIGFL_RETURN_IF_ERROR(Take(participants_[i].ComputeLocalHvp(
                                     *plain_model_, log.final_params, v),
                                 &expected[i]));
    }
    std::vector<double> hvp_round_s;
    std::vector<Vec> replies(participants_.size());
    for (size_t r = 0; r < kHvpRounds; ++r) {
      start = Clock::now();
      for (size_t i = 0; i < participants_.size(); ++i) {
        DIGFL_RETURN_IF_ERROR(Take(coordinator_->RequestHvp(
                                       i, log.final_params, v, kHvpTimeoutMs),
                                   &replies[i]));
      }
      hvp_round_s.push_back(Since(start));
      if (!BitEqual(replies, expected)) {
        return Status::Internal("remote HVP differs from the in-process one");
      }
    }
    DIGFL_RETURN_IF_ERROR(StopFederation());
    DIGFL_RETURN_IF_ERROR(
        CheckReference(alg2, &reference_, "distributed Alg. #2 φ̂"));

    if (traced) {
      double hvp_wall = 0.0;
      for (double s : hvp_round_s) hvp_wall += s;
      RecordHvpLayers(node_logs, hvp_wall);
      RecordNetLayers(log, stats, node_logs);
    }
    RecordRep(traced, train_s, clock_.EpochSeconds(), alg2_s, hvp_round_s);
    return Status::OK();
  }

  void Teardown() override { StopFederation(); }

  void AddDetails(RunResult& result) const override {
    result.details["handshake_ms_p50"] = Median(handshake_s_) * 1e3;
  }

 private:
  // Participant compute per round (one local step = one gradient call on
  // each node) and what the collect path adds on top of the slowest one.
  void RecordNetLayers(const HflTrainingLog& log,
                       const net::CoordinatorStats& stats,
                       const std::vector<const OpLog*>& node_logs) {
    std::vector<std::vector<double>> compute;
    for (const OpLog* ops : node_logs) {
      compute.push_back(ops->Samples(ModelOp::kGradient));
      for (double s : compute.back()) {
        AddLayer("net.participant_compute.us_p50", s * 1e6);
      }
    }
    const std::vector<double> rounds = clock_.EpochSeconds();
    for (size_t j = 0; j < rounds.size(); ++j) {
      const size_t round = j + 1;  // gap j ends at round j+1's aggregation
      double slowest = 0.0;
      bool complete = true;
      for (const auto& node : compute) {
        if (round >= node.size()) {
          complete = false;
          break;
        }
        slowest = std::max(slowest, node[round]);
      }
      if (complete) {
        AddLayer("net.coord_wait.us_p50", (rounds[j] - slowest) * 1e6);
      }
    }
    AddLayer("net.handshake_ms", handshake_s_.back() * 1e3);
    AddLayer("net.retries", static_cast<double>(stats.round_retries));
    AddLayer("net.timeouts", static_cast<double>(stats.round_timeouts));
    AddLayer("net.conn_errors", static_cast<double>(stats.conn_errors));

    net::RoundRequestMsg request;
    request.epoch = shape_.epochs;
    request.learning_rate = kHflLearningRate;
    request.params = log.final_params;
    net::RoundReplyMsg reply;
    reply.epoch = shape_.epochs;
    reply.delta = log.final_params;
    const std::string reply_bytes = net::EncodeRoundReply(reply);
    for (int k = 0; k < 200; ++k) {
      auto start = Clock::now();
      const std::string bytes = net::EncodeRoundRequest(request);
      AddLayer("net.codec.encode_us", Since(start) * 1e6);
      start = Clock::now();
      Result<net::RoundReplyMsg> decoded = net::DecodeRoundReply(reply_bytes);
      AddLayer("net.codec.decode_us", Since(start) * 1e6);
      if (bytes.empty() || !decoded.ok()) break;
    }
  }

  // Shuts the coordinator down and joins every node; the first node error.
  Status StopFederation() {
    if (coordinator_ != nullptr) coordinator_->Shutdown("repetition complete");
    for (std::thread& thread : node_threads_) thread.join();
    node_threads_.clear();
    coordinator_.reset();
    Status first = Status::OK();
    for (const Status& status : node_status_) {
      if (!status.ok() && first.ok()) first = status;
    }
    node_status_.clear();
    return first;
  }

  std::vector<std::unique_ptr<Model>> node_models_;
  std::vector<std::shared_ptr<OpLog>> node_ops_;
  std::unique_ptr<net::Coordinator> coordinator_;
  std::vector<Status> node_status_;
  std::vector<double> handshake_s_;
  // Declared last: joined (in StopFederation) before the members it uses go.
  std::vector<std::thread> node_threads_;
};

// ------------------------------------------------------------- VFL.

// Paillier-encrypted vertical linear regression with Eq. 27 φ̂ in-protocol;
// the plaintext trainer on the same inputs is the reference.
class VflPaillier : public Workload {
 public:
  explicit VflPaillier(const RunOptions& options) : Workload(options) {}

 protected:
  uint64_t OperationsPerRep() const override { return kVflEpochs; }

  Status Prepare() override {
    DIGFL_RETURN_IF_ERROR(BuildInputs());
    VflTrainConfig config;
    config.epochs = kVflEpochs;
    config.learning_rate = kVflLearningRate;
    DIGFL_RETURN_IF_ERROR(Take(RunVflTraining(*model_, *blocks_, train_,
                                              validation_, config),
                               &plain_log_));
    DIGFL_RETURN_IF_ERROR(Take(EvaluateVflContributions(*model_, *blocks_,
                                                        train_, validation_,
                                                        plain_log_),
                               &plain_phi_));
    // Key generation alone, to state its share of one encrypted call.
    Rng rng(ProtocolSeed());
    const auto start = Clock::now();
    Result<PaillierKeyPair> keys = Paillier::GenerateKeyPair(kVflKeyBits, rng);
    keygen_s_ = Since(start);
    return keys.status();
  }

  Status Setup(bool) override { return BuildInputs(); }

  Status Body(bool traced) override {
    EncryptedVflConfig config;
    config.epochs = kVflEpochs;
    config.learning_rate = kVflLearningRate;
    config.key_bits = kVflKeyBits;
    config.fraction_bits = kVflFractionBits;
    config.seed = ProtocolSeed();
    auto start = Clock::now();
    Result<EncryptedVflResult> encrypted =
        RunEncryptedVflLinReg(train_, validation_, *blocks_, config);
    const double call_s = Since(start);
    if (!encrypted.ok()) return encrypted.status();

    // The log-based estimators take microseconds: time batches of calls and
    // keep the fastest batch's mean, like every other timing here.
    ContributionReport eq27;
    ContributionReport eq26;
    DigFlVflOptions second_order;
    second_order.include_second_order = true;
    double eq27_s = std::numeric_limits<double>::infinity();
    double eq26_s = eq27_s;
    for (size_t k = 0; k < kVflEvalBatches; ++k) {
      start = Clock::now();
      for (size_t j = 0; j < kVflEvalBatch; ++j) {
        DIGFL_RETURN_IF_ERROR(Take(EvaluateVflContributions(*model_, *blocks_,
                                                            train_, validation_,
                                                            plain_log_),
                                   &eq27));
      }
      eq27_s = std::min(eq27_s, Since(start) /
                                     static_cast<double>(kVflEvalBatch));
      start = Clock::now();
      for (size_t j = 0; j < kVflEvalBatch; ++j) {
        DIGFL_RETURN_IF_ERROR(Take(
            EvaluateVflContributions(*model_, *blocks_, train_, validation_,
                                     plain_log_, second_order),
            &eq26));
      }
      eq26_s = std::min(eq26_s, Since(start) /
                                     static_cast<double>(kVflEvalBatch));
    }

    double param_err = 0.0;
    for (size_t j = 0; j < plain_log_.final_params.size(); ++j) {
      param_err = std::max(param_err, std::abs(encrypted->final_params[j] -
                                               plain_log_.final_params[j]));
    }
    double phi_err = 0.0;
    if (encrypted->per_epoch_contributions.size() != kVflEpochs) {
      return Status::Internal("encrypted run returned no per-epoch φ̂");
    }
    for (size_t t = 0; t < kVflEpochs; ++t) {
      for (size_t i = 0; i < kVflParticipants; ++i) {
        phi_err = std::max(phi_err,
                           std::abs(encrypted->per_epoch_contributions[t][i] -
                                    plain_phi_.per_epoch[t][i]));
      }
    }
    MaxLayer("vfl.param_err_max", param_err);
    MaxLayer("vfl.phi_err_max", phi_err);
    if (!(param_err <= kVflErrorBound) || !(phi_err <= kVflErrorBound)) {
      return Status::Internal("encrypted run strays from plaintext: param " +
                              std::to_string(param_err) + ", φ̂ " +
                              std::to_string(phi_err));
    }
    if (!SameReport(eq27, plain_phi_) || !AllFinite(eq26)) {
      return Status::Internal("plaintext VFL φ̂ is not repeatable");
    }

    if (traced) DIGFL_RETURN_IF_ERROR(RecordLayers(call_s, *encrypted));
    RecordRep(traced, call_s, {call_s / static_cast<double>(kVflEpochs)},
              eq27_s, {eq26_s});
    return Status::OK();
  }

  void AddDetails(RunResult& result) const override {
    result.details["keygen_s"] = keygen_s_;
  }

 private:
  uint64_t ProtocolSeed() const { return 0x5eed0000ULL + options_.seed; }

  Status BuildInputs() {
    PaperDatasetOptions data_options;
    data_options.sample_fraction = kVflSampleFraction;
    data_options.seed = options_.seed;
    PaperDatasetSpec spec;
    DIGFL_RETURN_IF_ERROR(
        Take(MakePaperDataset(PaperDatasetId::kBoston, data_options), &spec));
    Rng rng(options_.seed + 1);
    std::pair<Dataset, Dataset> split;
    DIGFL_RETURN_IF_ERROR(Take(SplitHoldout(spec.data, 0.2, rng), &split));
    train_ = std::move(split.first);
    validation_ = std::move(split.second);
    const size_t d = spec.data.num_features();
    std::vector<FeatureBlock> blocks;
    DIGFL_RETURN_IF_ERROR(
        Take(SplitFeatureBlocks(d, kVflParticipants), &blocks));
    Result<VflBlockModel> block_model =
        VflBlockModel::Create(std::move(blocks), d);
    if (!block_model.ok()) return block_model.status();
    blocks_.emplace(std::move(block_model).value());
    model_ = std::make_unique<LinearRegression>(d);
    return Status::OK();
  }

  Status RecordLayers(double call_s, const EncryptedVflResult& encrypted) {
    const SpanTotals keygen = FindSpans("crypto.paillier.keygen");
    const SpanTotals encrypt = FindSpans("crypto.paillier.encrypt");
    const SpanTotals decrypt = FindSpans("crypto.paillier.decrypt");
    AddLayer("crypto.keygen.s", keygen.seconds);
    AddLayer("crypto.keygen_share", keygen.seconds / call_s);
    AddLayer("crypto.encrypt.calls", static_cast<double>(encrypt.count));
    AddLayer("crypto.decrypt.calls", static_cast<double>(decrypt.count));
    AddLayer("crypto.busy_share",
             (keygen.seconds + encrypt.seconds + decrypt.seconds) / call_s);
    AddLayer("vfl.bytes_per_epoch",
             static_cast<double>(encrypted.comm.TotalBytes()) /
                 static_cast<double>(kVflEpochs));
    VflPhiAccumulator accumulator(kVflParticipants);
    for (const VflEpochRecord& record : plain_log_.epochs) {
      const auto start = Clock::now();
      Status status =
          accumulator.Consume(*model_, *blocks_, validation_, record);
      AddLayer("core.phi_consume.us_p50", Since(start) * 1e6);
      DIGFL_RETURN_IF_ERROR(status);
    }
    if (!probed_) {
      probed_ = true;
      DIGFL_RETURN_IF_ERROR(ProbePaillier());
    }
    return Status::OK();
  }

  // Each Paillier operation timed alone at the workload's key size.
  Status ProbePaillier() {
    Rng rng(ProtocolSeed() + 1);
    Result<PaillierKeyPair> keys = Paillier::GenerateKeyPair(kVflKeyBits, rng);
    if (!keys.ok()) return keys.status();
    const PaillierPublicKey& pub = keys->public_key;
    std::vector<PaillierCiphertext> ciphertexts;
    for (size_t k = 0; k < kPaillierProbeOps; ++k) {
      const BigInt message = BigInt::RandomBelow(pub.n, rng);
      auto start = Clock::now();
      Result<PaillierCiphertext> c = Paillier::Encrypt(pub, message, rng);
      AddLayer("crypto.encrypt.us_p50", Since(start) * 1e6);
      if (!c.ok()) return c.status();
      start = Clock::now();
      Result<BigInt> back = Paillier::Decrypt(pub, keys->private_key, *c);
      AddLayer("crypto.decrypt.us_p50", Since(start) * 1e6);
      if (!back.ok()) return back.status();
      if (!(*back == message)) {
        return Status::Internal("Paillier round trip lost the message");
      }
      ciphertexts.push_back(*c);
    }
    for (size_t k = 0; k + 1 < ciphertexts.size(); ++k) {
      auto start = Clock::now();
      PaillierCiphertext sum =
          Paillier::Add(pub, ciphertexts[k], ciphertexts[k + 1]);
      AddLayer("crypto.add.us_p50", Since(start) * 1e6);
      // A fixed-point-sized scalar, as the protocol multiplies by.
      const BigInt scalar(rng.NextBits() >> 16);
      start = Clock::now();
      PaillierCiphertext product = Paillier::ScalarMul(pub, sum, scalar);
      AddLayer("crypto.scalar_mul.us_p50", Since(start) * 1e6);
      if (product.value().ByteLength() == 0) {
        return Status::Internal("empty Paillier product");
      }
    }
    return Status::OK();
  }

  Dataset train_;
  Dataset validation_;
  std::optional<VflBlockModel> blocks_;
  std::unique_ptr<Model> model_;
  VflTrainingLog plain_log_;
  ContributionReport plain_phi_;
  double keygen_s_ = 0.0;
  bool probed_ = false;
};

}  // namespace

Result<RunResult> RunWorkload(const RunOptions& options) {
  std::unique_ptr<Workload> workload;
  if (options.workload == "hfl_train") {
    workload = std::make_unique<HflTrain>(options);
  } else if (options.workload == "hfl_ckpt") {
    workload = std::make_unique<HflCkpt>(options);
  } else if (options.workload == "hfl_net") {
    workload = std::make_unique<HflNet>(options);
  } else if (options.workload == "vfl_paillier") {
    workload = std::make_unique<VflPaillier>(options);
  } else {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  return workload->Run();
}

}  // namespace perfbench
