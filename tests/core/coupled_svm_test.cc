// The paper's two-modality coupled SVM (LRF-CSVM): MultiCoupledSvm with
// K = 2, modality 0 visual and modality 1 log.
#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_coupled_svm.h"
#include "two_modality_problem.h"

namespace cbir::core {
namespace {

using testutil::Decision;
using testutil::TestOptions;
using testutil::Train;
using testutil::TwoModalityData;
using testutil::TwoModalityProblem;

TEST(CoupledSvmTest, TrainsOnCleanTwoModalityData) {
  const TwoModalityData data = TwoModalityProblem(8, 6, 3.0, 2.0, 1);
  MultiCoupledSvm csvm(TestOptions());
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_GT(model->diagnostics.outer_iterations, 1);
  // Labeled points classified correctly by the coupled decision.
  for (size_t i = 0; i < data.labels.size(); ++i) {
    const double f = Decision(*model, data, i);
    EXPECT_GT(data.labels[i] * f, 0.0) << "labeled sample " << i;
  }
}

TEST(CoupledSvmTest, DecisionIsSumOfModalities) {
  const TwoModalityData data = TwoModalityProblem(6, 4, 2.0, 2.0, 3);
  MultiCoupledSvm csvm(TestOptions());
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  const la::Vec x = data.visual.Row(0);
  const la::Vec r = data.log.Row(0);
  EXPECT_NEAR(model->Decision({x, r}),
              model->models[0].Decision(x) + model->models[1].Decision(r),
              1e-12);
}

TEST(CoupledSvmTest, CorrectsMislabeledUnlabeledSample) {
  // The unlabeled sample sits deep in positive territory in BOTH modalities
  // but is pseudo-labeled -1: the Delta-gated flip must correct it.
  TwoModalityData data = TwoModalityProblem(8, 0, 3.0, 2.0, 5);
  data.visual = la::Matrix(17, 2);
  data.log = la::Matrix(17, 1);
  {
    const TwoModalityData base = TwoModalityProblem(8, 0, 3.0, 2.0, 5);
    for (size_t i = 0; i < 16; ++i) {
      data.visual.SetRow(i, base.visual.Row(i));
      data.log.SetRow(i, base.log.Row(i));
    }
    data.labels = base.labels;
  }
  data.visual.SetRow(16, {3.0, 0.0});  // clearly positive visually
  data.log.SetRow(16, {2.0});          // clearly positive in the log view
  data.initial_unlabeled_labels = {-1.0};

  // A lone violator has no opposite-class partner, so this exercises the
  // literal Fig. 1 rule (balance guard off).
  MultiCsvmOptions options = TestOptions();
  options.enforce_class_balance = false;
  MultiCoupledSvm csvm(options);
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ(model->unlabeled_labels.size(), 1u);
  EXPECT_DOUBLE_EQ(model->unlabeled_labels[0], 1.0);
  EXPECT_GE(model->diagnostics.total_flips, 1);
}

TEST(CoupledSvmTest, HugeDeltaPreventsFlips) {
  TwoModalityData data = TwoModalityProblem(8, 0, 3.0, 2.0, 5);
  // Same mislabeled construction as above.
  TwoModalityData extended;
  extended.visual = la::Matrix(17, 2);
  extended.log = la::Matrix(17, 1);
  for (size_t i = 0; i < 16; ++i) {
    extended.visual.SetRow(i, data.visual.Row(i));
    extended.log.SetRow(i, data.log.Row(i));
  }
  extended.labels = data.labels;
  extended.visual.SetRow(16, {3.0, 0.0});
  extended.log.SetRow(16, {2.0});
  extended.initial_unlabeled_labels = {-1.0};

  MultiCsvmOptions options = TestOptions();
  options.enforce_class_balance = false;
  options.delta = 1e6;  // flips disabled
  MultiCoupledSvm csvm(options);
  auto model = Train(csvm, extended);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->unlabeled_labels[0], -1.0);
  EXPECT_EQ(model->diagnostics.total_flips, 0);
}

TEST(CoupledSvmTest, BalancedCorrectionSwapsOpposedViolators) {
  // Two unlabeled samples with SWAPPED pseudo-labels: one deep positive
  // labeled -1, one deep negative labeled +1. The balance-preserving
  // correction must swap both in one round.
  const TwoModalityData base = TwoModalityProblem(8, 0, 3.0, 2.0, 21);
  TwoModalityData data;
  data.visual = la::Matrix(18, 2);
  data.log = la::Matrix(18, 1);
  for (size_t i = 0; i < 16; ++i) {
    data.visual.SetRow(i, base.visual.Row(i));
    data.log.SetRow(i, base.log.Row(i));
  }
  data.labels = base.labels;
  data.visual.SetRow(16, {3.0, 0.0});   // positive region
  data.log.SetRow(16, {2.0});
  data.visual.SetRow(17, {-3.0, 0.0});  // negative region
  data.log.SetRow(17, {-2.0});
  data.initial_unlabeled_labels = {-1.0, 1.0};  // both wrong

  MultiCoupledSvm csvm(TestOptions());  // balance guard on by default
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_DOUBLE_EQ(model->unlabeled_labels[0], 1.0);
  EXPECT_DOUBLE_EQ(model->unlabeled_labels[1], -1.0);
}

TEST(CoupledSvmTest, BalanceGuardBlocksOneSidedCollapse) {
  // All unlabeled pseudo-negatives sit in positive territory. The literal
  // Fig. 1 rule would flip them all (losing every pseudo-negative); the
  // balanced correction must keep the ratio intact.
  const TwoModalityData base = TwoModalityProblem(8, 0, 3.0, 2.0, 23);
  TwoModalityData data;
  data.visual = la::Matrix(20, 2);
  data.log = la::Matrix(20, 1);
  for (size_t i = 0; i < 16; ++i) {
    data.visual.SetRow(i, base.visual.Row(i));
    data.log.SetRow(i, base.log.Row(i));
  }
  data.labels = base.labels;
  for (size_t j = 0; j < 4; ++j) {
    data.visual.SetRow(16 + j, {3.0 + 0.1 * j, 0.0});
    data.log.SetRow(16 + j, {2.0});
    data.initial_unlabeled_labels.push_back(-1.0);
  }

  MultiCoupledSvm csvm(TestOptions());
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  int negatives = 0;
  for (double yj : model->unlabeled_labels) {
    if (yj < 0) ++negatives;
  }
  EXPECT_EQ(negatives, 4);  // ratio preserved
  EXPECT_EQ(model->diagnostics.total_flips, 0);
}

TEST(CoupledSvmTest, NoUnlabeledReducesToSupervised) {
  const TwoModalityData data = TwoModalityProblem(10, 0, 3.0, 2.0, 7);
  MultiCoupledSvm csvm(TestOptions());
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(model->unlabeled_labels.empty());
  // With no unlabeled data the rho annealing collapses to a single solve.
  EXPECT_EQ(model->diagnostics.outer_iterations, 1);
  EXPECT_EQ(model->diagnostics.total_flips, 0);
}

TEST(CoupledSvmTest, RhoInitEqualToRhoRunsOneOuterIteration) {
  MultiCsvmOptions options = TestOptions();
  options.rho_init = options.rho;
  const TwoModalityData data = TwoModalityProblem(6, 4, 3.0, 2.0, 9);
  MultiCoupledSvm csvm(options);
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->diagnostics.outer_iterations, 1);
}

TEST(CoupledSvmTest, RhoBelowRhoInitAnnealsFromRho) {
  // A valid positive rho below the default rho_init = 1e-4: the annealing
  // starts at rho itself, so one outer iteration at the final weight.
  MultiCsvmOptions options = TestOptions();
  options.rho = 5e-5;
  ASSERT_LT(options.rho, options.rho_init);
  ASSERT_TRUE(MultiCoupledSvm::Validate(options).ok());
  const TwoModalityData data = TwoModalityProblem(6, 4, 3.0, 2.0, 9);
  auto model = Train(MultiCoupledSvm(options), data);
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->diagnostics.outer_iterations, 1);
  EXPECT_EQ(model->unlabeled_labels.size(), 4u);
}

TEST(CoupledSvmTest, ValidateRejectsBadOptions) {
  const auto expect_invalid = [](MultiCsvmOptions options) {
    const Status status = MultiCoupledSvm::Validate(options);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  };
  MultiCsvmOptions options = TestOptions();
  EXPECT_TRUE(MultiCoupledSvm::Validate(options).ok());
  options.rho = 0.0;
  expect_invalid(options);
  options.rho = std::nan("");
  expect_invalid(options);
  options = TestOptions();
  options.rho_init = -1.0;
  expect_invalid(options);
  options = TestOptions();
  options.delta = -1.0;
  expect_invalid(options);
  options = TestOptions();
  options.max_inner_iterations = 0;
  expect_invalid(options);
}

TEST(CoupledSvmTest, AnnealingStepsAreLogarithmicInRhoRatio) {
  MultiCsvmOptions options = TestOptions();
  options.rho_init = 1e-4;
  options.rho = 0.5;
  const TwoModalityData data = TwoModalityProblem(6, 4, 3.0, 2.0, 11);
  MultiCoupledSvm csvm(options);
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  // ceil(log2(0.5 / 1e-4)) = 13 doublings + the initial solve.
  EXPECT_EQ(model->diagnostics.outer_iterations, 14);
}

TEST(CoupledSvmTest, RejectsBadInput) {
  MultiCoupledSvm csvm(TestOptions());
  TwoModalityData empty;
  EXPECT_FALSE(Train(csvm, empty).ok());

  TwoModalityData mismatched = TwoModalityProblem(4, 2, 2.0, 2.0, 13);
  mismatched.initial_unlabeled_labels.push_back(1.0);  // rows now disagree
  EXPECT_FALSE(Train(csvm, mismatched).ok());
}

TEST(CoupledSvmTest, DiagnosticsObjectivesPopulated) {
  const TwoModalityData data = TwoModalityProblem(8, 4, 3.0, 2.0, 15);
  MultiCoupledSvm csvm(TestOptions());
  auto model = Train(csvm, data);
  ASSERT_TRUE(model.ok());
  EXPECT_LE(model->diagnostics.visual_objective, 1e-9);
  EXPECT_LE(model->diagnostics.log_objective, 1e-9);
}

TEST(CoupledSvmDeathTest, InvalidOptions) {
  MultiCsvmOptions bad = TestOptions();
  bad.delta = -1.0;
  EXPECT_DEATH(MultiCoupledSvm{bad}, "Check failed");
}

}  // namespace
}  // namespace cbir::core
