// Training one SVM end to end: Gram::Of, an SmoSolver solve on it and
// BuildModel, the path every solve of a coupled-SVM chain takes.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "train_svm.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

using testutil::TrainSvm;

la::Matrix SeparableData(std::vector<double>* labels, size_t n,
                         uint64_t seed) {
  Rng rng(seed);
  la::Matrix data(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*labels)[i] = (i % 2 == 0) ? 1.0 : -1.0;
    data.At(i, 0) = rng.Gaussian() + 2.5 * (*labels)[i];
    data.At(i, 1) = rng.Gaussian();
  }
  return data;
}

TEST(TrainerTest, SeparableDataPerfectlyClassified) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 30, 41);
  auto out = TrainSvm(data, y, KernelParams::Linear(),
                      std::vector<double>(y.size(), 10.0));
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(out->model.Predict(data.Row(i)), y[i]) << "sample " << i;
  }
}

TEST(TrainerTest, SlacksMatchDecisions) {
  // The coupled chain's flip rule reads each row's hinge slack
  // max(0, 1 - y f) from the solve's training decisions; those are the
  // built model's decisions on the training rows.
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 20, 43);
  auto out = TrainSvm(data, y, KernelParams::Rbf(1.0),
                      std::vector<double>(y.size(), 1.0));
  ASSERT_TRUE(out.ok());
  const std::vector<double>& decisions = out->solution.train_decisions;
  ASSERT_EQ(decisions.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    const double model_decision = out->model.Decision(data.Row(i));
    EXPECT_NEAR(decisions[i], model_decision, 1e-12);
    EXPECT_NEAR(std::max(0.0, 1.0 - y[i] * decisions[i]),
                std::max(0.0, 1.0 - y[i] * model_decision), 1e-12);
  }
}

TEST(TrainerTest, SupportVectorsAreSubset) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 40, 47);
  auto out = TrainSvm(data, y, KernelParams::Linear(),
                      std::vector<double>(y.size(), 100.0));
  ASSERT_TRUE(out.ok());
  // Widely separable data keeps only a few support vectors, each a training
  // row with a positive alpha.
  const SvmModel& model = out->model;
  EXPECT_LT(model.num_support_vectors(), 40u);
  EXPECT_GE(model.num_support_vectors(), 2u);
  ASSERT_EQ(model.support_rows().size(), model.num_support_vectors());
  for (size_t s = 0; s < model.num_support_vectors(); ++s) {
    const size_t row = model.support_rows()[s];
    EXPECT_GT(out->solution.alpha[row], 0.0);
    EXPECT_EQ(model.support_vectors().Row(s), data.Row(row));
  }
}

TEST(TrainerTest, WeightedTrainingLimitsLowCSamples) {
  // An intentionally mislabeled sample with a tiny C bound cannot dominate.
  la::Matrix data(5, 1);
  data.SetRow(0, {0.0});
  data.SetRow(1, {0.5});
  data.SetRow(2, {3.0});
  data.SetRow(3, {3.5});
  data.SetRow(4, {0.2});  // mislabeled negative in positive territory
  const std::vector<double> y{1, 1, -1, -1, -1};
  auto out =
      TrainSvm(data, y, KernelParams::Linear(), {10, 10, 10, 10, 1e-3});
  ASSERT_TRUE(out.ok());
  // The mislabeled point has negligible influence: points near it still
  // classify positive.
  EXPECT_LE(out->solution.alpha[4], 1e-3);
  EXPECT_GT(out->model.Decision({0.3}), 0.0);
}

TEST(TrainerTest, InputValidation) {
  const auto solve = [](const la::Matrix& data, std::vector<double> labels,
                        std::vector<double> c_bounds) {
    const Gram gram = Gram::Of(data, KernelParams::Rbf(1.0)).value();
    return SmoSolver(gram, std::move(labels), std::move(c_bounds))
        .Solve()
        .status()
        .code();
  };
  EXPECT_EQ(solve(la::Matrix(), {}, {}), StatusCode::kInvalidArgument);

  const la::Matrix data(2, 1);
  EXPECT_EQ(solve(data, {1.0}, {1.0}),  // label count
            StatusCode::kInvalidArgument);
  EXPECT_EQ(solve(data, {1.0, -1.0}, {1.0}),  // C bound count
            StatusCode::kInvalidArgument);
  EXPECT_EQ(solve(data, {1.0, -1.0}, {1.0, 1.0}), StatusCode::kOk);
}

TEST(TrainerTest, RejectsTrainingSetsAboveTheBound) {
  // One column keeps the refused input small: the bound is checked before
  // any n^2 Gram is allocated.
  const la::Matrix data(kMaxTrainingRows + 1, 1);
  std::vector<double> y(data.rows(), 1.0);
  for (size_t i = 0; i < y.size(); i += 2) y[i] = -1.0;
  auto out = TrainSvm(data, y, KernelParams::Rbf(1.0),
                      std::vector<double>(y.size(), 1.0));
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, ConvergedFlagSet) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 10, 53);
  auto out = TrainSvm(data, y, KernelParams::Rbf(1.0),
                      std::vector<double>(y.size(), 1.0));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->solution.converged);
  EXPECT_GT(out->solution.iterations, 0);
}

}  // namespace
}  // namespace cbir::svm
