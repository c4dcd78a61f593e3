// Tests for a Gram carried from one bind to the next (the cross-round path
// of a feedback session) and for SmoSolver solving on a Gram: carried
// entries are bit-identical to a fresh Gram's, so solves on either match
// exactly.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "svm/gram.h"
#include "svm/smo_solver.h"
#include "svm/trainer.h"
#include "util/rng.h"

namespace cbir::svm {
namespace {

la::Matrix RandomData(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  la::Matrix data(n, dims);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < dims; ++c) data.At(r, c) = rng.Gaussian();
  }
  return data;
}

/// Two-class Gaussian problem with some overlap so the solver iterates.
void MakeProblem(size_t n, uint64_t seed, la::Matrix* data,
                 std::vector<double>* labels) {
  Rng rng(seed);
  *data = la::Matrix(n, 4);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double y = (i % 2 == 0) ? 1.0 : -1.0;
    (*labels)[i] = y;
    for (size_t d = 0; d < 4; ++d) {
      data->At(i, d) = rng.Gaussian() + 0.5 * y;
    }
  }
}

Gram Fresh(const la::Matrix& data, const KernelParams& kernel) {
  Result<Gram> gram = Gram::Of(data, kernel);
  EXPECT_TRUE(gram.ok()) << gram.status();
  return std::move(gram).value();
}

/// The rows of `corpus` named by `ids`, in order.
la::Matrix Gather(const la::Matrix& corpus, const std::vector<int>& ids) {
  la::Matrix rows(ids.size(), corpus.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    rows.SetRow(i, corpus.Row(static_cast<size_t>(ids[i])));
  }
  return rows;
}

/// Binds `gram` to `ids` of `corpus` and requires it to equal a fresh Gram
/// of the same rows bit for bit.
void BindAndExpectFresh(Gram* gram, const la::Matrix& corpus,
                        const std::vector<int>& ids, const KernelParams& k) {
  const la::Matrix rows = Gather(corpus, ids);
  ASSERT_TRUE(gram->Bind(ids, rows, k).ok());
  const Gram fresh = Fresh(rows, k);
  ASSERT_EQ(gram->n(), fresh.n());
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = 0; j < ids.size(); ++j) {
      EXPECT_EQ(gram->RowPtr(i)[j], fresh.RowPtr(i)[j])
          << "row " << i << " col " << j;
    }
  }
}

Result<SmoSolution> Solve(const Gram& gram, const std::vector<double>& y,
                          double c, const SmoOptions& options = {}) {
  return SmoSolver(gram, y, std::vector<double>(y.size(), c), options)
      .Solve();
}

TEST(KernelCacheRebindTest, SlabIsAllocatedLazily) {
  // An unbound Gram holds nothing; a bind holds the n x n matrix, and
  // Clear() releases it.
  const la::Matrix data = RandomData(8, 3, 21);
  Gram gram;
  EXPECT_EQ(gram.AllocatedBytes(), 0u);
  ASSERT_TRUE(gram.Bind({0, 1, 2, 3, 4, 5, 6, 7}, data,
                        KernelParams::Rbf(0.5))
                  .ok());
  EXPECT_GE(gram.AllocatedBytes(), 8 * 8 * sizeof(double));
  gram.Clear();
  EXPECT_EQ(gram.AllocatedBytes(), 0u);
  EXPECT_EQ(gram.n(), 0u);
}

TEST(KernelCacheRebindTest, RebindInvalidatesRowsAndReusesAllocation) {
  // A bind to images the last bind did not hold carries nothing and
  // computes every entry; a Clear() has the same effect on the same ids.
  const la::Matrix corpus = RandomData(12, 3, 1);
  const KernelParams k = KernelParams::Rbf(0.4);
  Gram gram;
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3, 4, 5}, k);
  const size_t bytes = gram.AllocatedBytes();
  BindAndExpectFresh(&gram, corpus, {6, 7, 8, 9, 10, 11}, k);
  EXPECT_EQ(gram.carried(), 0u);
  EXPECT_EQ(gram.computed(), 21u);
  EXPECT_EQ(gram.AllocatedBytes(), bytes);  // same size, same footprint
  gram.Clear();
  BindAndExpectFresh(&gram, corpus, {6, 7, 8, 9, 10, 11}, k);
  EXPECT_EQ(gram.carried(), 0u);
}

TEST(KernelCacheRebindTest, RemappedGrowthCarriesSurvivingRows) {
  // New set = old images {0, 2, 3}, permuted, with two new images
  // interleaved, so rows mix copied entries and runs of computed ones.
  const la::Matrix corpus = RandomData(6, 3, 3);
  const KernelParams k = KernelParams::Rbf(0.3);
  Gram gram;
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3}, k);
  EXPECT_EQ(gram.computed(), 10u);
  BindAndExpectFresh(&gram, corpus, {2, 0, 4, 3, 5}, k);
  // Pairs within {0, 2, 3}: 3 x 4 / 2 = 6 carried; the other 15 - 6 = 9
  // (every pair with image 4 or 5) computed.
  EXPECT_EQ(gram.carried(), 6u);
  EXPECT_EQ(gram.computed(), 9u);
}

TEST(KernelCacheRebindTest, RemappedShrinkDropsDepartedRows) {
  const la::Matrix corpus = RandomData(6, 2, 6);
  const KernelParams k = KernelParams::Linear();
  Gram gram;
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3, 4, 5}, k);
  BindAndExpectFresh(&gram, corpus, {5, 1, 3}, k);
  EXPECT_EQ(gram.carried(), 6u);
  EXPECT_EQ(gram.computed(), 0u);
  EXPECT_EQ(gram.ids(), (std::vector<int>{5, 1, 3}));
}

TEST(KernelCacheRebindTest, RemappedWithDifferentParamsInvalidates) {
  const la::Matrix corpus = RandomData(4, 2, 7);
  Gram gram;
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3}, KernelParams::Rbf(0.5));
  // Same images, different gamma: nothing may be carried.
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3}, KernelParams::Rbf(2.0));
  EXPECT_EQ(gram.carried(), 0u);
  EXPECT_EQ(gram.computed(), 10u);
  EXPECT_TRUE(gram.kernel() == KernelParams::Rbf(2.0));
  // And a change of kernel type.
  BindAndExpectFresh(&gram, corpus, {0, 1, 2, 3},
                     KernelParams::Polynomial(2.0, 0.0, 3));
  EXPECT_EQ(gram.carried(), 0u);
}

TEST(SmoSharedCacheTest, SharedCacheSolveMatchesInternalExactly) {
  // A Gram carried from an earlier bind serves exactly the values a fresh
  // one does, so the solver trajectory is the same.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(40, 11, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.5);
  std::vector<int> ids(40);
  std::iota(ids.begin(), ids.end(), 100);

  // An earlier bind held the last 30 of these images.
  std::vector<int> earlier_rows(30);
  std::iota(earlier_rows.begin(), earlier_rows.end(), 10);
  Gram carried;
  ASSERT_TRUE(carried
                  .Bind(std::vector<int>(ids.begin() + 10, ids.end()),
                        Gather(data, earlier_rows), kernel)
                  .ok());
  ASSERT_TRUE(carried.Bind(ids, data, kernel).ok());
  EXPECT_EQ(carried.carried(), 30u * 31u / 2u);

  auto internal = Solve(Fresh(data, kernel), labels, 5.0);
  auto shared = Solve(carried, labels, 5.0);
  ASSERT_TRUE(internal.ok()) << internal.status();
  ASSERT_TRUE(shared.ok()) << shared.status();
  EXPECT_EQ(shared->alpha, internal->alpha);
  EXPECT_EQ(shared->bias, internal->bias);
  EXPECT_EQ(shared->iterations, internal->iterations);
}

TEST(SmoSharedCacheTest, SecondSolveReusesRowsAndReportsDeltaStats) {
  // Different C bounds, same kernel matrix: solves only read the Gram, so
  // its counts stay those of the one bind, and the second solve matches a
  // cold solve of the same problem.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(30, 12, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.8);
  const Gram gram = Fresh(data, kernel);

  ASSERT_TRUE(Solve(gram, labels, 1.0).ok());
  auto b = Solve(gram, labels, 10.0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(gram.computed(), 30u * 31u / 2u);
  EXPECT_EQ(gram.carried(), 0u);

  auto cold = Solve(Fresh(data, kernel), labels, 10.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(b->alpha, cold->alpha);
  EXPECT_EQ(b->bias, cold->bias);
}

TEST(SmoSharedCacheTest, LabelFlipsDoNotInvalidateSharedRows) {
  // The coupled SVM's label correction flips pseudo-labels between solves;
  // kernel values do not depend on labels, so one Gram serves both.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(24, 13, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.6);
  const Gram gram = Fresh(data, kernel);
  ASSERT_TRUE(Solve(gram, labels, 4.0).ok());

  std::vector<double> flipped = labels;
  flipped[3] = -flipped[3];
  flipped[8] = -flipped[8];
  auto b = Solve(gram, flipped, 4.0);
  ASSERT_TRUE(b.ok());
  auto cold = Solve(Fresh(data, kernel), flipped, 4.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(b->alpha, cold->alpha);
}

TEST(SmoSharedCacheTest, RejectsForeignMatrixAndParams) {
  // The solver reads rows by index: a Gram of another training set size is
  // refused, not read out of bounds.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(10, 15, &data, &labels);
  const KernelParams kernel = KernelParams::Rbf(0.5);
  const Gram smaller = Fresh(RandomData(9, 4, 1), kernel);
  EXPECT_EQ(Solve(smaller, labels, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  const Gram unbound;
  EXPECT_EQ(Solve(unbound, labels, 1.0).status().code(),
            StatusCode::kInvalidArgument);
  // The trainer checks the same before solving.
  EXPECT_EQ(SvmTrainer()
                .SolveWeighted(smaller, labels,
                               std::vector<double>(10, 1.0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SmoSharedCacheTest, TrainerThreadsSharedCacheThrough) {
  // Train builds the Gram of its data under the trainer's kernel: the same
  // solve as SolveWeighted on Gram::Of, plus the model.
  la::Matrix data;
  std::vector<double> labels;
  MakeProblem(20, 16, &data, &labels);
  TrainOptions options;
  options.kernel = KernelParams::Rbf(0.5);
  options.c = 3.0;
  const SvmTrainer trainer(options);
  auto trained = trainer.Train(data, labels);
  ASSERT_TRUE(trained.ok()) << trained.status();
  auto solved = trainer.SolveWeighted(Fresh(data, options.kernel), labels,
                                      std::vector<double>(20, 3.0));
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(trained->alpha, solved->alpha);
  EXPECT_EQ(trained->train_decisions, solved->train_decisions);
  EXPECT_GT(trained->model.num_support_vectors(), 0u);
}

TEST(SmoSharedCacheTest, SolveAfterRemappedGrowthMatchesFresh) {
  // The cross-round pattern: solve on 20 samples, grow the set to 30 (the
  // first 20 carry over), re-bind the Gram and solve again. The carried
  // Gram equals a fresh one, so the solve matches a cold solve exactly.
  la::Matrix grown_data;
  std::vector<double> grown_labels;
  MakeProblem(30, 17, &grown_data, &grown_labels);
  const KernelParams kernel = KernelParams::Rbf(0.5);
  std::vector<int> ids(30);
  std::iota(ids.begin(), ids.end(), 0);
  const std::vector<int> first_ids(ids.begin(), ids.begin() + 20);
  const std::vector<double> first_labels(grown_labels.begin(),
                                         grown_labels.begin() + 20);

  Gram gram;
  ASSERT_TRUE(gram.Bind(first_ids, Gather(grown_data, first_ids), kernel).ok());
  ASSERT_TRUE(Solve(gram, first_labels, 5.0).ok());

  ASSERT_TRUE(gram.Bind(ids, grown_data, kernel).ok());
  // The carried 20-row block: 20 x 21 / 2 entries; the 10 new rows' pairs
  // are computed: 465 - 210 = 255.
  EXPECT_EQ(gram.carried(), 210u);
  EXPECT_EQ(gram.computed(), 255u);
  auto remapped = Solve(gram, grown_labels, 5.0);
  ASSERT_TRUE(remapped.ok());

  auto reference = Solve(Fresh(grown_data, kernel), grown_labels, 5.0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(remapped->alpha, reference->alpha);
  EXPECT_EQ(remapped->bias, reference->bias);
  EXPECT_EQ(remapped->iterations, reference->iterations);
}

}  // namespace
}  // namespace cbir::svm
