#include "svm/trainer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace cbir::svm {
namespace {

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
  TrainOptions options;
  options.kernel = KernelParams::Linear();
  options.c = 10.0;
  SvmTrainer trainer(options);
  auto out = trainer.Train(data, y);
  ASSERT_TRUE(out.ok()) << out.status();
  for (size_t i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(out->model.Predict(data.Row(i)), y[i]) << "sample " << i;
  }
}

TEST(TrainerTest, SlacksMatchDecisions) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 20, 43);
  SvmTrainer trainer;
  auto out = trainer.Train(data, y);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->slacks.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    const double expected =
        std::max(0.0, 1.0 - y[i] * out->train_decisions[i]);
    EXPECT_NEAR(out->slacks[i], expected, 1e-12);
    EXPECT_NEAR(out->train_decisions[i], out->model.Decision(data.Row(i)),
                1e-12);
  }
}

TEST(TrainerTest, SupportVectorsAreSubset) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 40, 47);
  TrainOptions options;
  options.kernel = KernelParams::Linear();
  options.c = 100.0;
  SvmTrainer trainer(options);
  auto out = trainer.Train(data, y);
  ASSERT_TRUE(out.ok());
  // Widely separable data keeps only a few support vectors.
  EXPECT_LT(out->model.num_support_vectors(), 40u);
  EXPECT_GE(out->model.num_support_vectors(), 2u);
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
  TrainOptions options;
  options.kernel = KernelParams::Linear();
  SvmTrainer trainer(options);
  auto out = trainer.TrainWeighted(data, y, {10, 10, 10, 10, 1e-3});
  ASSERT_TRUE(out.ok());
  // The mislabeled point has negligible influence: points near it still
  // classify positive.
  EXPECT_GT(out->model.Decision({0.3}), 0.0);
}

// A solve chain keeps only duals and bias, then builds its one model; that
// model must be the one TrainWeighted builds from the same solve.
TEST(TrainerTest, SolveThenBuildModelEqualsTrainWeighted) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 24, 5);
  std::vector<double> c_bounds(y.size(), 1.0);
  for (size_t i = 0; i < c_bounds.size(); i += 3) c_bounds[i] = 0.05;
  TrainOptions options;
  options.kernel = KernelParams::Rbf(0.5);
  const SvmTrainer trainer(options);
  auto trained = trainer.TrainWeighted(data, y, c_bounds);
  auto solved = trainer.SolveWeighted(Gram::Of(data, options.kernel).value(),
                                      y, c_bounds);
  ASSERT_TRUE(trained.ok() && solved.ok());
  EXPECT_TRUE(solved->model.empty());
  EXPECT_EQ(solved->alpha, trained->alpha);
  EXPECT_EQ(solved->bias, trained->model.bias());
  EXPECT_EQ(solved->slacks, trained->slacks);

  const SvmModel built =
      BuildModel(options.kernel, data, y, solved->alpha, solved->bias);
  EXPECT_EQ(built.coefficients(), trained->model.coefficients());
  EXPECT_EQ(built.support_vectors().data(),
            trained->model.support_vectors().data());
  EXPECT_EQ(built.bias(), trained->model.bias());
}

TEST(TrainerTest, InputValidation) {
  la::Matrix empty;
  SvmTrainer trainer;
  EXPECT_FALSE(trainer.Train(empty, {}).ok());

  la::Matrix data(2, 1);
  EXPECT_FALSE(trainer.Train(data, {1.0}).ok());           // label count
  EXPECT_FALSE(trainer.TrainWeighted(data, {1.0, -1.0}, {1.0}).ok());
}

TEST(TrainerTest, RejectsTrainingSetsAboveTheBound) {
  // One column keeps the refused input small: the bound is checked before
  // any n^2 Gram is allocated.
  const la::Matrix data(kMaxTrainingRows + 1, 1);
  std::vector<double> y(data.rows(), 1.0);
  for (size_t i = 0; i < y.size(); i += 2) y[i] = -1.0;
  auto out = SvmTrainer().Train(data, y);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainerTest, ConvergedFlagSet) {
  std::vector<double> y;
  const la::Matrix data = SeparableData(&y, 10, 53);
  SvmTrainer trainer;
  auto out = trainer.Train(data, y);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->converged);
  EXPECT_GT(out->iterations, 0);
}

TEST(TrainerDeathTest, NonPositiveC) {
  TrainOptions options;
  options.c = 0.0;
  EXPECT_DEATH(SvmTrainer{options}, "Check failed");
}

}  // namespace
}  // namespace cbir::svm
