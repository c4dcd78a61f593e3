#ifndef CBIR_CORE_SCHEME_FACTORY_H_
#define CBIR_CORE_SCHEME_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/feedback_scheme.h"
#include "core/coupled_svm_scheme.h"
#include "util/result.h"

namespace cbir::core {

/// Creates a scheme by its paper name: "Euclidean", "RF-SVM", "LRF-2SVMs" or
/// "LRF-CSVM" (case-sensitive). The three SVM schemes are CoupledSvmScheme
/// instances; `csvm_options` configures their coupled SVM, and its n_prime
/// applies to LRF-CSVM only (the baselines train with N' = 0). An unknown
/// name returns NotFound; invalid `csvm_options` (rho or rho_init not
/// positive, negative delta or n_prime) return InvalidArgument.
Result<std::shared_ptr<FeedbackScheme>> MakeScheme(
    const std::string& name, const SchemeOptions& scheme_options,
    const LrfCsvmOptions& csvm_options = {});

/// The four schemes of the paper's evaluation, in table column order.
/// `csvm_options` must be valid (see MakeScheme).
std::vector<std::shared_ptr<FeedbackScheme>> MakePaperSchemes(
    const SchemeOptions& scheme_options,
    const LrfCsvmOptions& csvm_options = {});

}  // namespace cbir::core

#endif  // CBIR_CORE_SCHEME_FACTORY_H_
