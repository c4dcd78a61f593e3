#include "core/multi_coupled_svm.h"

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "svm/gram.h"
#include "util/rng.h"

namespace cbir::core {
namespace {

// K Gaussian modalities, each carrying the class signal with its own gap.
struct MultiProblem {
  std::vector<la::Matrix> data;  ///< one sample matrix per modality
  std::vector<double> labels;
  std::vector<double> initial_unlabeled;

  /// Every modality with C = 10 and an RBF(0.5) kernel.
  std::vector<ModalityView> Views() const {
    std::vector<ModalityView> views(data.size());
    for (size_t k = 0; k < data.size(); ++k) {
      views[k].data = &data[k];
      views[k].kernel = svm::KernelParams::Rbf(0.5);
      views[k].c = 10.0;
    }
    return views;
  }
};

MultiProblem MakeProblem(size_t num_modalities, size_t nl_per_class,
                         size_t nu, uint64_t seed) {
  Rng rng(seed);
  const size_t nl = 2 * nl_per_class;
  const size_t n = nl + nu;
  MultiProblem p;
  std::vector<double> truth(n);
  for (size_t i = 0; i < n; ++i) {
    truth[i] = (i % 2 == 0) ? 1.0 : -1.0;
  }
  for (size_t k = 0; k < num_modalities; ++k) {
    la::Matrix m(n, 2 + k);
    const double gap = 2.0 + 0.5 * static_cast<double>(k);
    for (size_t i = 0; i < n; ++i) {
      for (size_t d = 0; d < m.cols(); ++d) {
        m.At(i, d) = rng.Gaussian() + (d == 0 ? gap * truth[i] : 0.0);
      }
    }
    p.data.push_back(std::move(m));
  }
  p.labels.assign(truth.begin(), truth.begin() + static_cast<long>(nl));
  p.initial_unlabeled.assign(truth.begin() + static_cast<long>(nl),
                             truth.end());
  return p;
}

MultiCsvmOptions TestOptions() {
  MultiCsvmOptions options;
  options.rho = 0.5;
  return options;
}

TEST(MultiCoupledSvmTest, TrainsOnThreeModalities) {
  const MultiProblem p = MakeProblem(3, 8, 6, 1);
  MultiCoupledSvm csvm(TestOptions());
  auto model = csvm.TrainViews(p.Views(), p.labels, p.initial_unlabeled);
  ASSERT_TRUE(model.ok()) << model.status();
  ASSERT_EQ(model->models.size(), 3u);
  // All labeled samples classified correctly by the summed decision.
  for (size_t i = 0; i < p.labels.size(); ++i) {
    std::vector<la::Vec> sample;
    for (const la::Matrix& m : p.data) sample.push_back(m.Row(i));
    EXPECT_GT(p.labels[i] * model->Decision(sample), 0.0) << "sample " << i;
  }
}

TEST(MultiCoupledSvmTest, SingleModalityDegeneratesToWeightedSvm) {
  const MultiProblem p = MakeProblem(1, 10, 4, 5);
  MultiCoupledSvm csvm(TestOptions());
  auto model = csvm.TrainViews(p.Views(), p.labels, p.initial_unlabeled);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->models.size(), 1u);
  EXPECT_EQ(model->unlabeled_labels.size(), 4u);
  // There is no log modality, so no log objective.
  EXPECT_EQ(model->diagnostics.log_objective, 0.0);
}

TEST(MultiCoupledSvmTest, FlipRequiresUnanimousRejection) {
  // The unlabeled sample is wrong in modality 0 but comfortably correct in
  // modality 1: the all-modalities gate must block the flip.
  MultiProblem p = MakeProblem(2, 8, 0, 7);
  const size_t n = p.labels.size() + 1;
  for (size_t k = 0; k < 2; ++k) {
    la::Matrix extended(n, p.data[k].cols());
    for (size_t i = 0; i + 1 < n; ++i) {
      extended.SetRow(i, p.data[k].Row(i));
    }
    p.data[k] = std::move(extended);
  }
  // Pseudo-label -1. Modality 0 places it deep positive (rejects the
  // label); modality 1 places it deep negative (confirms the label).
  {
    la::Vec row0(p.data[0].cols(), 0.0);
    row0[0] = 3.0;
    p.data[0].SetRow(n - 1, row0);
    la::Vec row1(p.data[1].cols(), 0.0);
    row1[0] = -3.0;
    p.data[1].SetRow(n - 1, row1);
  }
  p.initial_unlabeled = {-1.0};

  MultiCsvmOptions options = TestOptions();
  options.enforce_class_balance = false;  // isolate the unanimity gate
  MultiCoupledSvm csvm(options);
  auto model = csvm.TrainViews(p.Views(), p.labels, p.initial_unlabeled);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->unlabeled_labels[0], -1.0);
  EXPECT_EQ(model->diagnostics.total_flips, 0);
}

// FNV-1a over the bit patterns of `values`: one number that changes when
// any bit of any entry does.
uint64_t HashBits(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    h = (h ^ std::bit_cast<uint64_t>(v)) * 1099511628211ull;
  }
  return h;
}

TEST(MultiCoupledSvmTest, ChainIsPinnedExactly) {
  // An LRF-CSVM chain in miniature: two modalities, 16 labeled and 12
  // pseudo-labeled rows, three of each class's pseudo-labels wrong. Each
  // modality's first solve starts from zero and every later one from its
  // predecessor's alphas. The counters, the final pseudo-labels and the
  // bits of every bias and alpha are pinned, so any change to how the
  // chain drives its solves shows here.
  MultiProblem p = MakeProblem(2, 8, 12, 13);
  for (size_t j : {0, 1, 2, 3, 4, 5}) {
    p.initial_unlabeled[j] = -p.initial_unlabeled[j];
  }

  MultiCsvmOptions options = TestOptions();
  options.delta = 1.0;
  auto model = MultiCoupledSvm(options).TrainViews(p.Views(), p.labels,
                                                   p.initial_unlabeled);
  ASSERT_TRUE(model.ok()) << model.status();
  const CsvmDiagnostics& diag = model->diagnostics;
  EXPECT_EQ(diag.outer_iterations, 14);
  EXPECT_EQ(diag.inner_iterations, 1);
  EXPECT_EQ(diag.total_flips, 6);
  EXPECT_EQ(diag.total_smo_iterations, 504);
  // Every wrong pseudo-label is corrected, in one round of three swaps.
  EXPECT_EQ(model->unlabeled_labels,
            (std::vector<double>{1, -1, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1}));
  ASSERT_EQ(model->models.size(), 2u);
  // bias = -0.035818603363350403
  EXPECT_EQ(std::bit_cast<uint64_t>(model->models[0].bias()),
            0xbfa256d0e411668full)
      << model->models[0].bias();
  // bias = -0.1646229637607291
  EXPECT_EQ(std::bit_cast<uint64_t>(model->models[1].bias()),
            0xbfc5125d82c2ef32ull)
      << model->models[1].bias();
  EXPECT_EQ(HashBits(model->alphas[0]), 0x1caa267c8d4dddd0ull);
  EXPECT_EQ(HashBits(model->alphas[1]), 0x685b74914af4e1b4ull);
}

TEST(MultiCoupledSvmTest, RejectsBadInput) {
  MultiCoupledSvm csvm(TestOptions());
  EXPECT_FALSE(csvm.TrainViews({}, {1.0}, {}).ok());

  MultiProblem p = MakeProblem(2, 4, 2, 9);
  EXPECT_FALSE(csvm.TrainViews(p.Views(), {}, p.initial_unlabeled).ok());

  for (double c : {0.0, -1.0}) {
    std::vector<ModalityView> views = p.Views();
    views[0].c = c;
    auto model = csvm.TrainViews(views, p.labels, p.initial_unlabeled);
    ASSERT_FALSE(model.ok()) << "C = " << c;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
  }

  p.data[1] = la::Matrix(3, 2);  // row mismatch
  EXPECT_FALSE(
      csvm.TrainViews(p.Views(), p.labels, p.initial_unlabeled).ok());
}

TEST(MultiCoupledSvmTest, RejectsTrainingSetsAboveTheBound) {
  // N_l + N' = 4097 rows of one column: refused before any n^2 Gram.
  MultiProblem p;
  p.data.assign(2, la::Matrix(svm::kMaxTrainingRows + 1, 1));
  p.labels.assign(svm::kMaxTrainingRows - 9, 1.0);
  p.labels[0] = -1.0;
  p.initial_unlabeled.assign(10, 1.0);
  auto model = MultiCoupledSvm(TestOptions())
                   .TrainViews(p.Views(), p.labels, p.initial_unlabeled);
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiCoupledSvmDeathTest, DecisionArityChecked) {
  const MultiProblem p = MakeProblem(2, 4, 0, 11);
  MultiCoupledSvm csvm(TestOptions());
  auto model = csvm.TrainViews(p.Views(), p.labels, {}).value();
  EXPECT_DEATH((void)model.Decision({p.data[0].Row(0)}),
               "Check failed");
}

}  // namespace
}  // namespace cbir::core
