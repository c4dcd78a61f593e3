#include "core/scheme_factory.h"

#include "core/euclidean_scheme.h"

namespace cbir::core {

Result<std::shared_ptr<FeedbackScheme>> MakeScheme(
    const std::string& name, const SchemeOptions& scheme_options,
    const LrfCsvmOptions& csvm_options) {
  if (name == "Euclidean") {
    return std::shared_ptr<FeedbackScheme>(new EuclideanScheme());
  }
  if (name != "RF-SVM" && name != "LRF-2SVMs" && name != "LRF-CSVM") {
    return Status::NotFound("unknown scheme: " + name);
  }
  if (Status s = MultiCoupledSvm::Validate(csvm_options.csvm); !s.ok()) {
    return Status::InvalidArgument(name + ": " + s.message());
  }
  if (csvm_options.n_prime < 0) {
    return Status::InvalidArgument(name + ": n_prime must be non-negative");
  }
  // The two SVM baselines are the coupled SVM without unlabeled rows:
  // RF-SVM on the visual modality alone, LRF-2SVMs on visual + log.
  LrfCsvmOptions options = csvm_options;
  if (name != "LRF-CSVM") options.n_prime = 0;
  return std::shared_ptr<FeedbackScheme>(new CoupledSvmScheme(
      name, /*use_log=*/name != "RF-SVM", scheme_options, options));
}

std::vector<std::shared_ptr<FeedbackScheme>> MakePaperSchemes(
    const SchemeOptions& scheme_options, const LrfCsvmOptions& csvm_options) {
  std::vector<std::shared_ptr<FeedbackScheme>> out;
  for (const char* name :
       {"Euclidean", "RF-SVM", "LRF-2SVMs", "LRF-CSVM"}) {
    out.push_back(MakeScheme(name, scheme_options, csvm_options).value());
  }
  return out;
}

}  // namespace cbir::core
