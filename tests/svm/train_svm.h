// One SVM trained the way every solve of a coupled-SVM chain runs: the
// training set's Gram, one SmoSolver solve on it, and the model built from
// the solve's duals.
#ifndef CBIR_TESTS_SVM_TRAIN_SVM_H_
#define CBIR_TESTS_SVM_TRAIN_SVM_H_

#include <utility>
#include <vector>

#include "la/matrix.h"
#include "svm/gram.h"
#include "svm/model.h"
#include "svm/smo_solver.h"
#include "util/result.h"

namespace cbir::svm::testutil {

struct TrainedSvm {
  SmoSolution solution;
  SvmModel model;
};

inline Result<TrainedSvm> TrainSvm(const la::Matrix& data,
                                   const std::vector<double>& labels,
                                   const KernelParams& kernel,
                                   std::vector<double> c_bounds) {
  CBIR_ASSIGN_OR_RETURN(const Gram gram, Gram::Of(data, kernel));
  CBIR_ASSIGN_OR_RETURN(SmoSolution solution,
                        SmoSolver(gram, labels, std::move(c_bounds)).Solve());
  SvmModel model =
      BuildModel(kernel, data, labels, solution.alpha, solution.bias);
  return TrainedSvm{std::move(solution), std::move(model)};
}

}  // namespace cbir::svm::testutil

#endif  // CBIR_TESTS_SVM_TRAIN_SVM_H_
