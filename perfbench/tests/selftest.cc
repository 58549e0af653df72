// Self-tests of the benchmark's own helpers: the statistics, the failure
// accounting, the catalog BENCHMARK.json declares, and the transparency of
// every observer the traced runs hand to the library (a decorated run's log
// and φ̂ are bitwise equal to an undecorated one).
//
//   python3 perfbench/run.py --selftest

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/hfl_resume.h"
#include "ckpt/store.h"
#include "compare.h"
#include "core/digfl_hfl.h"
#include "data/paper_datasets.h"
#include "data/partition.h"
#include "hfl/fed_sgd.h"
#include "nn/mlp.h"
#include "observers.h"
#include "stats.h"
#include "telemetry/json.h"
#include "timed_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace digfl;

TEST(StatsTest, MedianOfOddEvenAndEmptySamples) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const auto q = Quartiles(ten);
  EXPECT_DOUBLE_EQ(q[0], 2.75);
  EXPECT_DOUBLE_EQ(q[1], 5.5);
  EXPECT_DOUBLE_EQ(q[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto two = Quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(two[0], 0.75);
  EXPECT_DOUBLE_EQ(two[1], 1.5);
  EXPECT_DOUBLE_EQ(two[2], 2.25);
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const auto five = Quartiles({5.0, 4.0, 3.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(five[0], 1.5);
  EXPECT_DOUBLE_EQ(five[1], 3.0);
  EXPECT_DOUBLE_EQ(five[2], 4.5);
}

std::vector<double> OneTo(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;
}

TEST(StatsTest, TailIsTheHighestPercentileWithTenSamplesBeyond) {
  const Tail thousand = HighestTail(OneTo(1000));
  EXPECT_EQ(thousand.percentile, 99u);
  EXPECT_DOUBLE_EQ(thousand.value, 990.0);
  EXPECT_EQ(thousand.beyond, 10u);

  const Tail hundred = HighestTail(OneTo(100));
  EXPECT_EQ(hundred.percentile, 90u);
  EXPECT_DOUBLE_EQ(hundred.value, 90.0);
  EXPECT_EQ(hundred.beyond, 10u);

  // p98 would leave 9 of 468 beyond; p97 leaves 14.
  const Tail odd = HighestTail(OneTo(468));
  EXPECT_EQ(odd.percentile, 97u);
  EXPECT_EQ(odd.beyond, 14u);
  EXPECT_EQ(odd.samples, 468u);

  // Too few samples for any percentile: the maximum, flagged as p100.
  const Tail few = HighestTail(OneTo(19));
  EXPECT_EQ(few.percentile, 100u);
  EXPECT_DOUBLE_EQ(few.value, 19.0);
  EXPECT_EQ(few.beyond, 0u);
}

TEST(StatsTest, SlopeOfALine) {
  EXPECT_DOUBLE_EQ(Slope({1, 2, 3, 4}, {10, 12, 14, 16}), 2.0);
  EXPECT_DOUBLE_EQ(Slope({1}, {10}), 0.0);
}

TEST(TallyTest, FailedRepetitionsCountEveryOperation) {
  Tally tally;
  EXPECT_FALSE(tally.AllPassed());  // nothing attempted is not a pass
  tally.Record(40, true);
  EXPECT_TRUE(tally.AllPassed());
  tally.Record(40, false);
  EXPECT_EQ(tally.attempted(), 80u);
  EXPECT_EQ(tally.failed(), 40u);
  EXPECT_DOUBLE_EQ(tally.FailedShare(), 0.5);
  EXPECT_FALSE(tally.AllPassed());
}

TEST(TallyTest, FailuresInsideAPassingRepetitionAreCountedAndCapped) {
  Tally tally;
  tally.Record(10, true);
  tally.AddFailures(2);  // e.g. two rounds the coordinator timed out on
  EXPECT_EQ(tally.failed(), 2u);
  EXPECT_FALSE(tally.AllPassed());
  tally.AddFailures(100);
  EXPECT_EQ(tally.failed(), 10u);  // never more failed than attempted
}

// Names and units of one BENCHMARK.json metric list.
std::vector<std::pair<std::string, std::string>> Declared(
    const telemetry::json::Value& root, const char* key) {
  std::vector<std::pair<std::string, std::string>> out;
  const telemetry::json::Value* list = root.Find(key);
  if (list == nullptr || !list->is_array()) return out;
  for (const auto& item : list->items) {
    out.emplace_back(item.StringOr("name", ""), item.StringOr("unit", ""));
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> Catalog(
    const std::vector<MetricSpec>& specs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const MetricSpec& spec : specs) out.emplace_back(spec.name, spec.unit);
  return out;
}

TEST(CatalogTest, BenchmarkJsonDeclaresExactlyWhatTheBinaryPrints) {
  std::ifstream file(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(file.good());
  std::stringstream text;
  text << file.rdbuf();
  auto parsed = telemetry::json::Parse(text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(Declared(*parsed, "end_to_end"), Catalog(EndToEndMetrics()));
  EXPECT_EQ(Declared(*parsed, "per_layer"), Catalog(PerLayerMetrics()));
  std::vector<std::string> workloads;
  for (const auto& item : parsed->Find("workloads")->items) {
    workloads.push_back(item.StringOr("name", ""));
  }
  EXPECT_EQ(workloads, WorkloadNames());
}

// A small federation; every test trains the same one.
struct Federation {
  std::unique_ptr<Model> model;
  Dataset validation;
  std::vector<HflParticipant> participants;
  Vec init;
};

Federation MakeFederation() {
  PaperDatasetOptions data_options;
  data_options.sample_fraction = 0.005;
  data_options.seed = 3;
  PaperDatasetSpec spec =
      MakePaperDataset(PaperDatasetId::kMnist, data_options).value();
  Rng rng(4);
  auto split = SplitHoldout(spec.data, 0.1, rng).value();
  auto shards = PartitionIid(split.first, 3, rng).value();
  Federation federation;
  federation.validation = split.second;
  for (size_t i = 0; i < shards.size(); ++i) {
    federation.participants.emplace_back(i, shards[i]);
  }
  federation.model = std::make_unique<Mlp>(std::vector<size_t>{
      spec.data.num_features(), 8, static_cast<size_t>(spec.data.num_classes)});
  Rng init_rng(5);
  federation.init = federation.model->InitParams(init_rng).value();
  return federation;
}

FedSgdConfig SmallConfig() {
  FedSgdConfig config;
  config.epochs = 6;
  config.learning_rate = 0.3;
  return config;
}

struct Evaluated {
  HflTrainingLog log;
  ContributionReport alg2;
  ContributionReport alg1;
};

Evaluated TrainAndEvaluate(const Model& model, const Federation& federation,
                           AggregationPolicy* policy) {
  HflServer server(model, federation.validation);
  Evaluated out;
  out.log = RunFedSgd(model, federation.participants, server, federation.init,
                      SmallConfig(), policy)
                .value();
  out.alg2 = EvaluateHflContributions(model, federation.participants, server,
                                      out.log)
                 .value();
  DigFlHflOptions interactive;
  interactive.mode = HflEvaluatorMode::kInteractive;
  out.alg1 = EvaluateHflContributions(model, federation.participants, server,
                                      out.log, interactive)
                 .value();
  return out;
}

TEST(ObserverTest, TimedModelLeavesLogAndPhiBitwiseUnchanged) {
  const Federation federation = MakeFederation();
  const Evaluated plain = TrainAndEvaluate(*federation.model, federation,
                                           nullptr);

  auto participant_ops = std::make_shared<OpLog>();
  auto server_ops = std::make_shared<OpLog>();
  TimedModel timed(federation.model->Clone(),
                   federation.validation.num_features(), participant_ops,
                   server_ops);
  const Evaluated decorated = TrainAndEvaluate(timed, federation, nullptr);

  EXPECT_TRUE(BitEqual(decorated.log.final_params, plain.log.final_params));
  EXPECT_TRUE(SameReport(decorated.alg2, plain.alg2));
  EXPECT_TRUE(SameReport(decorated.alg1, plain.alg1));
  // Participants trained through the decorator, the server through its
  // clone, and Alg. #1's HVPs went through the participants' model.
  EXPECT_EQ(participant_ops->Samples(ModelOp::kGradient).size(),
            SmallConfig().epochs * federation.participants.size());
  EXPECT_FALSE(participant_ops->Samples(ModelOp::kHvp).empty());
  EXPECT_FALSE(server_ops->Samples(ModelOp::kLoss).empty());
  EXPECT_TRUE(server_ops->Samples(ModelOp::kHvp).empty());
}

TEST(ObserverTest, EpochClockIsTheUniformPolicy) {
  const Federation federation = MakeFederation();
  const Evaluated plain = TrainAndEvaluate(*federation.model, federation,
                                           nullptr);
  EpochClock clock;
  const Evaluated clocked = TrainAndEvaluate(*federation.model, federation,
                                             &clock);
  EXPECT_TRUE(BitEqual(clocked.log.final_params, plain.log.final_params));
  EXPECT_TRUE(SameReport(clocked.alg2, plain.alg2));
  EXPECT_EQ(clock.EpochSeconds().size(), SmallConfig().epochs - 1);
}

TEST(ObserverTest, TimedStoreHookLeavesCheckpointedPhiUnchanged) {
  const Federation federation = MakeFederation();
  const std::string root =
      std::string(PERFBENCH_BINARY_DIR) + "/selftest-ckpt";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  HflServer server(*federation.model, federation.validation);
  ckpt::CheckpointRunOptions options;
  options.dir = root + "/plain";
  const ckpt::HflCheckpointedRun plain =
      ckpt::RunFedSgdWithCheckpoints(*federation.model,
                                     federation.participants, server,
                                     federation.init, SmallConfig(), options)
          .value();

  ckpt::CheckpointStore store =
      ckpt::CheckpointStore::Open(root + "/wrapped", options.keep).value();
  HflPhiAccumulator accumulator(federation.participants.size());
  ckpt::HflStoreHook hook(&store, &server, &accumulator, options.every,
                          SmallConfig().epochs);
  TimedStoreHook timed(&hook, &store);
  FedSgdConfig config = SmallConfig();
  config.checkpoint_hook = &timed;
  const HflTrainingLog log =
      RunFedSgd(*federation.model, federation.participants, server,
                federation.init, config)
          .value();

  EXPECT_TRUE(BitEqual(log.final_params, plain.log.final_params));
  EXPECT_TRUE(BitEqual(accumulator.total(), plain.contributions.total));
  EXPECT_EQ(timed.seconds().size(), SmallConfig().epochs);
  ASSERT_EQ(timed.image_bytes().size(), SmallConfig().epochs);
  // Full-log images grow with every epoch.
  EXPECT_GT(timed.image_bytes().back(), timed.image_bytes().front());
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace perfbench
