#include "svm/model.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "util/logging.h"
#include "util/parallel.h"

namespace cbir::svm {
namespace {

/// Scores `num_rows` rows of a model with these coefficients and bias:
/// fill(r, k) writes row r's kernel values against every support vector
/// into k, and the row's decision is bias + <k, coefficients>. `work` sizes
/// the batch for the fan-out.
template <class FillKernelRow>
std::vector<double> ScoreRows(size_t num_rows, size_t work, double bias,
                              const std::vector<double>& coefficients,
                              const FillKernelRow& fill) {
  std::vector<double> out(num_rows);
  const size_t num_sv = coefficients.size();
  if (num_sv == 0) {
    std::fill(out.begin(), out.end(), bias);
    return out;
  }
  // Scoring one row is a batched kernel evaluation against all SVs followed
  // by a dot with the coefficients; rows are independent, so corpus-sized
  // batches fan out across threads (the per-query ranking hot path). A
  // candidate pool (a few hundred rows against <= 40 SVs) stays on the
  // calling thread: with concurrent sessions, starting and joining the
  // workers costs more than splitting the batch saves.
  const auto score_row = [&](size_t r, std::vector<double>& scratch) {
    fill(r, scratch.data());
    out[r] = bias + la::DotN(scratch.data(), coefficients.data(), num_sv);
  };
  if (work < (1u << 20)) {
    std::vector<double> scratch(num_sv);
    for (size_t r = 0; r < num_rows; ++r) score_row(r, scratch);
  } else {
    ParallelFor(num_rows, [&](size_t r) {
      thread_local std::vector<double> scratch;
      scratch.resize(num_sv);
      score_row(r, scratch);
    });
  }
  return out;
}

}  // namespace

SvmModel::SvmModel(KernelParams kernel, la::Matrix support_vectors,
                   std::vector<double> coefficients, double bias)
    : kernel_(kernel),
      support_vectors_(std::move(support_vectors)),
      sparse_support_vectors_(la::SparseRows::FromDense(support_vectors_)),
      coefficients_(std::move(coefficients)),
      bias_(bias) {
  CBIR_CHECK_EQ(support_vectors_.rows(), coefficients_.size());
}

double SvmModel::Decision(const la::Vec& x) const {
  double sum = bias_;
  for (size_t s = 0; s < support_vectors_.rows(); ++s) {
    sum += coefficients_[s] * EvalKernelRow(kernel_, support_vectors_, s, x);
  }
  return sum;
}

double SvmModel::Decision(la::SparseRowView x) const {
  const size_t dims = support_vectors_.cols();
  double sum = bias_;
  for (size_t s = 0; s < support_vectors_.rows(); ++s) {
    sum += coefficients_[s] *
           EvalKernel(kernel_, sparse_support_vectors_.Row(s), x, dims);
  }
  return sum;
}

std::vector<double> SvmModel::DecisionBatch(const la::Matrix& batch) const {
  const size_t num_sv = support_vectors_.rows();
  if (batch.rows() > 0 && num_sv > 0) {
    CBIR_CHECK_EQ(batch.cols(), support_vectors_.cols());
  }
  return ScoreRows(batch.rows(), batch.rows() * num_sv * batch.cols(), bias_,
                   coefficients_, [&](size_t r, double* kernel_row) {
                     EvalKernelRowBatch(kernel_, support_vectors_,
                                        batch.RowPtr(r), kernel_row, 0,
                                        num_sv);
                   });
}

std::vector<double> SvmModel::DecisionBatch(
    const la::SparseRows& batch) const {
  const size_t num_sv = support_vectors_.rows();
  const size_t dims = support_vectors_.cols();
  if (batch.rows() > 0 && num_sv > 0) CBIR_CHECK_EQ(batch.cols(), dims);
  // Merge steps: every (row, SV) pair walks both rows' nonzeros.
  const size_t work = batch.rows() * (num_sv + sparse_support_vectors_.nnz()) +
                      num_sv * batch.nnz();
  return ScoreRows(batch.rows(), work, bias_, coefficients_,
                   [&](size_t r, double* kernel_row) {
                     const la::SparseRowView x = batch.Row(r);
                     for (size_t s = 0; s < num_sv; ++s) {
                       kernel_row[s] = EvalKernel(
                           kernel_, sparse_support_vectors_.Row(s), x, dims);
                     }
                   });
}

void SvmModel::Save(std::ostream& os) const {
  os << "svm_model v1\n";
  os << static_cast<int>(kernel_.type) << " " << kernel_.gamma << " "
     << kernel_.coef0 << " " << kernel_.degree << "\n";
  os << support_vectors_.rows() << " " << support_vectors_.cols() << "\n";
  os.precision(17);
  os << bias_ << "\n";
  for (size_t s = 0; s < support_vectors_.rows(); ++s) {
    os << coefficients_[s];
    const double* p = support_vectors_.RowPtr(s);
    for (size_t c = 0; c < support_vectors_.cols(); ++c) os << " " << p[c];
    os << "\n";
  }
}

Result<SvmModel> SvmModel::Load(std::istream& is) {
  std::string magic, version;
  if (!(is >> magic >> version) || magic != "svm_model" || version != "v1") {
    return Status::InvalidArgument("svm model: bad header");
  }
  int type = 0;
  KernelParams kernel;
  if (!(is >> type >> kernel.gamma >> kernel.coef0 >> kernel.degree)) {
    return Status::IoError("svm model: truncated kernel params");
  }
  if (type < 0 || type > 2) {
    return Status::InvalidArgument("svm model: unknown kernel type");
  }
  kernel.type = static_cast<KernelType>(type);

  size_t rows = 0, cols = 0;
  double bias = 0.0;
  if (!(is >> rows >> cols >> bias)) {
    return Status::IoError("svm model: truncated shape");
  }
  la::Matrix sv(rows, cols);
  std::vector<double> coeffs(rows);
  for (size_t s = 0; s < rows; ++s) {
    if (!(is >> coeffs[s])) return Status::IoError("svm model: truncated");
    double* p = sv.RowPtr(s);
    for (size_t c = 0; c < cols; ++c) {
      if (!(is >> p[c])) return Status::IoError("svm model: truncated");
    }
  }
  return SvmModel(kernel, std::move(sv), std::move(coeffs), bias);
}

}  // namespace cbir::svm
