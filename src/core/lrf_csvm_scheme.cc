#include "core/lrf_csvm_scheme.h"

#include <unordered_set>

#include "svm/trainer.h"
#include "util/logging.h"

namespace cbir::core {

LrfCsvmScheme::LrfCsvmScheme(const SchemeOptions& scheme_options,
                             const LrfCsvmOptions& options)
    : scheme_options_(scheme_options), options_(options) {
  // The shared scheme options carry the data-derived kernels and C values of
  // the two modalities and the solver settings.
  options_.csvm.smo = scheme_options.smo;
  CBIR_CHECK_GE(options_.n_prime, 0);
}

CsvmDiagnostics LrfCsvmScheme::AggregatedDiagnostics() const {
  util::MutexLock lock(diagnostics_mu_);
  return aggregated_diagnostics_;
}

Result<MultiCoupledModel> LrfCsvmScheme::TrainForContext(
    const FeedbackContext& ctx) const {
  if (ctx.labeled_ids.empty()) {
    return Status::InvalidArgument("LRF-CSVM requires labeled samples");
  }
  if (ctx.log_features == nullptr || ctx.log_features->empty()) {
    return Status::FailedPrecondition("LRF-CSVM requires a user-feedback log");
  }

  const la::Matrix& visual_all = ctx.db->features();
  const la::Matrix& log_all = *ctx.log_features;
  const size_t nl = ctx.labeled_ids.size();

  la::Matrix train_visual(nl, visual_all.cols());
  la::Matrix train_log(nl, log_all.cols());
  for (size_t i = 0; i < nl; ++i) {
    const size_t id = static_cast<size_t>(ctx.labeled_ids[i]);
    train_visual.SetRow(i, visual_all.Row(id));
    train_log.SetRow(i, log_all.Row(id));
  }

  // --- Fig. 1 step 1: select the N' unlabeled samples ----------------------
  std::unordered_set<int> excluded(ctx.labeled_ids.begin(),
                                   ctx.labeled_ids.end());
  excluded.insert(ctx.query_id);

  SelectionInputs inputs;
  inputs.candidate_ids.reserve(ctx.scan_size());
  for (size_t pos = 0; pos < ctx.scan_size(); ++pos) {
    const int id = ctx.ScanId(pos);
    if (excluded.count(id) == 0) inputs.candidate_ids.push_back(id);
  }

  if (options_.selection == SelectionStrategy::kMostSimilar) {
    // Section 6.5: closeness to the labeled positives/negatives, measured
    // by combined kernel similarity (no SVM training needed).
    inputs.similarity_to_positives.reserve(inputs.candidate_ids.size());
    inputs.similarity_to_negatives.reserve(inputs.candidate_ids.size());
    for (int id : inputs.candidate_ids) {
      const la::Vec x = visual_all.Row(static_cast<size_t>(id));
      const la::Vec r = log_all.Row(static_cast<size_t>(id));
      double sim_pos = 0.0, sim_neg = 0.0;
      for (size_t j = 0; j < nl; ++j) {
        const double sim =
            svm::EvalKernelRow(scheme_options_.visual_kernel, train_visual, j,
                               x) +
            options_.selection_log_weight *
                svm::EvalKernelRow(scheme_options_.log_kernel, train_log, j, r);
        (ctx.labels[j] > 0 ? sim_pos : sim_neg) += sim;
      }
      inputs.similarity_to_positives.push_back(sim_pos);
      inputs.similarity_to_negatives.push_back(sim_neg);
    }
  } else {
    // Fig. 1 literal: combined decision values of the two labeled-only SVMs.
    svm::TrainOptions visual_options;
    visual_options.kernel = scheme_options_.visual_kernel;
    visual_options.c = scheme_options_.c_visual;
    visual_options.smo = options_.csvm.smo;
    svm::SvmTrainer visual_trainer(visual_options);
    CBIR_ASSIGN_OR_RETURN(svm::TrainOutput visual0,
                          visual_trainer.Train(train_visual, ctx.labels));

    svm::TrainOptions log_options;
    log_options.kernel = scheme_options_.log_kernel;
    log_options.c = scheme_options_.c_log;
    log_options.smo = options_.csvm.smo;
    svm::SvmTrainer log_trainer(log_options);
    CBIR_ASSIGN_OR_RETURN(svm::TrainOutput log0,
                          log_trainer.Train(train_log, ctx.labels));

    inputs.combined_decisions.reserve(inputs.candidate_ids.size());
    for (int id : inputs.candidate_ids) {
      const size_t i = static_cast<size_t>(id);
      inputs.combined_decisions.push_back(
          visual0.model.Decision(visual_all.Row(i)) +
          log0.model.Decision(log_all.Row(i)));
    }
  }

  const SelectionResult selection = SelectUnlabeled(
      options_.selection, inputs, options_.n_prime, options_.selection_seed);

  // --- Fig. 1 step 2: coupled training --------------------------------------
  const size_t nu = selection.ids.size();
  std::vector<int> row_ids;
  row_ids.reserve(nl + nu);
  row_ids.insert(row_ids.end(), ctx.labeled_ids.begin(),
                 ctx.labeled_ids.end());
  row_ids.insert(row_ids.end(), selection.ids.begin(), selection.ids.end());
  la::Matrix train_visual_all(nl + nu, visual_all.cols());
  la::Matrix train_log_all(nl + nu, log_all.cols());
  for (size_t i = 0; i < nl + nu; ++i) {
    const size_t id = static_cast<size_t>(row_ids[i]);
    train_visual_all.SetRow(i, visual_all.Row(id));
    train_log_all.SetRow(i, log_all.Row(id));
  }

  // Warm start from the previous round of this session: rows whose image was
  // already in last round's training set inherit its dual variables, fresh
  // rows start at zero (exactly the carried/new split the solver projects
  // back to feasibility).
  SessionState* state = ctx.session_state;
  std::vector<double> initial_visual_alpha, initial_log_alpha;
  if (state != nullptr && !state->visual_alpha.empty()) {
    initial_visual_alpha.assign(nl + nu, 0.0);
    initial_log_alpha.assign(nl + nu, 0.0);
    for (size_t i = 0; i < nl + nu; ++i) {
      if (auto it = state->visual_alpha.find(row_ids[i]);
          it != state->visual_alpha.end()) {
        initial_visual_alpha[i] = it->second;
      }
      if (auto it = state->log_alpha.find(row_ids[i]);
          it != state->log_alpha.end()) {
        initial_log_alpha[i] = it->second;
      }
    }
  }

  std::vector<ModalityView> views(2);
  views[0].kernel = scheme_options_.visual_kernel;
  views[0].c = scheme_options_.c_visual;
  views[0].initial_alpha = &initial_visual_alpha;
  views[1].kernel = scheme_options_.log_kernel;
  views[1].c = scheme_options_.c_log;
  views[1].initial_alpha = &initial_log_alpha;
  if (state != nullptr && scheme_options_.cross_round_kernel_cache) {
    // Cross-round path: the session state takes ownership of the gathered
    // matrices so the per-modality kernel caches bound to them survive
    // between rounds. Rows of carried-over images keep their cached kernel
    // entries (remapped by image id); only pairs involving new images cost
    // kernel evaluations.
    views[0].shared_cache =
        state->visual_rows.Bind(row_ids, std::move(train_visual_all),
                                scheme_options_.visual_kernel,
                                options_.csvm.smo.cache_rows);
    views[1].shared_cache = state->log_rows.Bind(
        std::move(row_ids), std::move(train_log_all),
        scheme_options_.log_kernel, options_.csvm.smo.cache_rows);
    views[0].data = &state->visual_rows.data();
    views[1].data = &state->log_rows.data();
  } else {
    views[0].data = &train_visual_all;
    views[1].data = &train_log_all;
  }

  auto model = MultiCoupledSvm(options_.csvm)
                   .TrainViews(views, ctx.labels, selection.initial_labels);

  if (model.ok()) {
    util::MutexLock lock(diagnostics_mu_);
    aggregated_diagnostics_.Accumulate(model->diagnostics);
  }

  if (model.ok() && state != nullptr) {
    // Only the duals are rebuilt; the kernel caches carry on to next round.
    state->visual_alpha.clear();
    state->log_alpha.clear();
    for (size_t i = 0; i < nl + nu; ++i) {
      const int id = i < nl ? ctx.labeled_ids[i]
                            : selection.ids[i - nl];
      state->visual_alpha[id] = model->alphas[0][i];
      state->log_alpha[id] = model->alphas[1][i];
    }
  }
  return model;
}

Result<std::vector<int>> LrfCsvmScheme::Rank(const FeedbackContext& ctx) const {
  CBIR_ASSIGN_OR_RETURN(MultiCoupledModel model, TrainForContext(ctx));

  // --- Fig. 1 step 3: rank by CSVM_Dist -------------------------------------
  std::vector<double> scores =
      model.models[0].DecisionBatch(ctx.ScanFeatures());
  const std::vector<double> log_scores =
      model.models[1].DecisionBatch(*ctx.ScanLogFeatures());
  for (size_t i = 0; i < scores.size(); ++i) scores[i] += log_scores[i];
  return FinalizeRanking(ctx, scores);
}

}  // namespace cbir::core
