#include "core/coupled_svm_scheme.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "svm/gram.h"

namespace cbir::core {
namespace {

la::Matrix GatherRows(const la::Matrix& all, const std::vector<int>& ids) {
  la::Matrix out(ids.size(), all.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::copy_n(all.RowPtr(static_cast<size_t>(ids[i])), all.cols(),
                out.RowPtr(i));
  }
  return out;
}

/// Modality k's rows of images `ids` as a dense matrix for the SMO solver
/// (0 = visual, 1 = log). Only training sets, at most N_l + N' rows, are
/// densified; everything else scores the log from its sparse rows.
la::Matrix TrainingRows(const FeedbackContext& ctx, size_t k,
                        const std::vector<int>& ids) {
  return k == 0 ? GatherRows(ctx.db->features(), ids)
                : ctx.LogRows()->GatherDense(ids);
}

}  // namespace

CoupledSvmScheme::CoupledSvmScheme(std::string name, bool use_log,
                                   const SchemeOptions& scheme_options,
                                   const LrfCsvmOptions& options)
    : name_(std::move(name)), options_(options) {
  // The shared scheme options carry the data-derived kernels and C values of
  // the modalities.
  modalities_.resize(use_log ? 2 : 1);
  modalities_[0].kernel = scheme_options.visual_kernel;
  modalities_[0].c = scheme_options.c_visual;
  if (use_log) {
    modalities_[1].kernel = scheme_options.log_kernel;
    modalities_[1].c = scheme_options.c_log;
  }
}

CsvmDiagnostics CoupledSvmScheme::AggregatedDiagnostics() const {
  util::MutexLock lock(diagnostics_mu_);
  return aggregated_diagnostics_;
}

Result<SelectionResult> CoupledSvmScheme::SelectForContext(
    const FeedbackContext& ctx) const {
  const size_t num_modalities = modalities_.size();
  const size_t nl = ctx.labeled_ids.size();
  std::unordered_set<int> excluded(ctx.labeled_ids.begin(),
                                   ctx.labeled_ids.end());
  excluded.insert(ctx.query_id);
  // Candidates are the scan space minus the labeled rows and the query;
  // their rows are read in place by scan position.
  SelectionInputs inputs;
  std::vector<size_t> positions;
  positions.reserve(ctx.scan_size());
  inputs.candidate_ids.reserve(ctx.scan_size());
  for (size_t pos = 0; pos < ctx.scan_size(); ++pos) {
    const int id = ctx.ScanId(pos);
    if (excluded.count(id) != 0) continue;
    positions.push_back(pos);
    inputs.candidate_ids.push_back(id);
  }

  if (options_.selection == SelectionStrategy::kMostSimilar) {
    // Section 6.5: closeness to the labeled positives/negatives, measured
    // by combined kernel similarity (no SVM training needed), summed over
    // the labeled images' columns in label order.
    std::vector<double> sim_pos(ctx.scan_size(), 0.0);
    std::vector<double> sim_neg(ctx.scan_size(), 0.0);
    std::vector<double> log_values;
    for (size_t j = 0; j < nl; ++j) {
      const int id = ctx.labeled_ids[j];
      const std::vector<double>& visual =
          ctx.KernelColumns(0).Column(id).values;
      double* sim = (ctx.labels[j] > 0 ? sim_pos : sim_neg).data();
      if (num_modalities == 1) {
        for (size_t pos = 0; pos < visual.size(); ++pos) {
          sim[pos] += visual[pos];
        }
        continue;
      }
      const svm::KernelColumn& log = ctx.KernelColumns(1).Column(id);
      if (log.sparse) {
        log_values.assign(visual.size(), log.fill);
        for (size_t i = 0; i < log.rows.size(); ++i) {
          log_values[log.rows[i]] = log.values[i];
        }
      }
      const double* log_sim =
          log.sparse ? log_values.data() : log.values.data();
      for (size_t pos = 0; pos < visual.size(); ++pos) {
        sim[pos] += visual[pos] + options_.selection_log_weight * log_sim[pos];
      }
    }
    inputs.similarity_to_positives.reserve(positions.size());
    inputs.similarity_to_negatives.reserve(positions.size());
    for (size_t pos : positions) {
      inputs.similarity_to_positives.push_back(sim_pos[pos]);
      inputs.similarity_to_negatives.push_back(sim_neg[pos]);
    }
  } else {
    // Fig. 1 literal: summed decision values of labeled-only SVMs, i.e. the
    // coupled SVM with N' = 0. Their support vectors are labeled images, so
    // every column they read is held.
    std::vector<la::Matrix> labeled(num_modalities);
    std::vector<ModalityView> views = modalities_;
    for (size_t k = 0; k < num_modalities; ++k) {
      labeled[k] = TrainingRows(ctx, k, ctx.labeled_ids);
      views[k].data = &labeled[k];
    }
    CBIR_ASSIGN_OR_RETURN(
        MultiCoupledModel model,
        MultiCoupledSvm(options_.csvm).TrainViews(views, ctx.labels, {}));
    std::vector<double> decisions = ctx.KernelColumns(0).SequentialDecisions(
        model.models[0], ctx.labeled_ids);
    if (num_modalities > 1) {
      const std::vector<double> log_decisions =
          ctx.KernelColumns(1).SequentialDecisions(model.models[1],
                                                   ctx.labeled_ids);
      for (size_t pos = 0; pos < decisions.size(); ++pos) {
        decisions[pos] += log_decisions[pos];
      }
    }
    inputs.combined_decisions.reserve(positions.size());
    for (size_t pos : positions) {
      inputs.combined_decisions.push_back(decisions[pos]);
    }
  }
  return SelectUnlabeled(options_.selection, inputs, options_.n_prime,
                         options_.selection_seed);
}

Status CoupledSvmScheme::BindColumns(const FeedbackContext& ctx) const {
  if (ctx.labeled_ids.empty()) {
    return Status::InvalidArgument(name_ + " requires labeled samples");
  }
  // The training set's bound, checked before any column is computed.
  if (ctx.labeled_ids.size() > svm::kMaxTrainingRows) {
    return Status::InvalidArgument(
        name_ + ": more than " + std::to_string(svm::kMaxTrainingRows) +
        " labeled samples");
  }
  const size_t num_modalities = modalities_.size();
  if (num_modalities > 1 && ctx.LogRows() == nullptr) {
    return Status::FailedPrecondition(name_ +
                                      " requires a user-feedback log");
  }
  for (size_t k = 0; k < num_modalities; ++k) {
    KernelColumnStore& columns = ctx.KernelColumns(k);
    columns.Bind(ctx, k, modalities_[k].kernel);
    columns.Hold(ctx.labeled_ids);
  }
  return Status::OK();
}

Result<MultiCoupledModel> CoupledSvmScheme::TrainForContext(
    const FeedbackContext& ctx) const {
  CBIR_RETURN_NOT_OK(BindColumns(ctx));
  std::vector<int> row_ids;
  return Train(ctx, &row_ids);
}

Result<MultiCoupledModel> CoupledSvmScheme::Train(
    const FeedbackContext& ctx, std::vector<int>* row_ids_out) const {
  const size_t num_modalities = modalities_.size();
  SelectionResult selection;
  if (options_.n_prime > 0) {
    CBIR_ASSIGN_OR_RETURN(selection, SelectForContext(ctx));
  }
  std::vector<int>& row_ids = *row_ids_out;
  row_ids = ctx.labeled_ids;
  row_ids.insert(row_ids.end(), selection.ids.begin(), selection.ids.end());

  // Warm start from the previous round of this session: rows whose image
  // was already in last round's training set inherit its dual variables,
  // fresh rows start at zero (exactly the carried/new split the solver
  // projects back to feasibility).
  SessionState* state = ctx.session_state;
  if (state != nullptr && state->alphas.size() < num_modalities) {
    state->alphas.resize(num_modalities);
  }
  std::vector<la::Matrix> rows(num_modalities);
  std::vector<std::vector<double>> initial_alpha(num_modalities);
  std::vector<ModalityView> views = modalities_;
  for (size_t k = 0; k < num_modalities; ++k) {
    rows[k] = TrainingRows(ctx, k, row_ids);
    views[k].data = &rows[k];
    views[k].initial_alpha = &initial_alpha[k];
    if (state == nullptr || state->alphas[k].empty()) continue;
    const std::unordered_map<int, double>& carried = state->alphas[k];
    initial_alpha[k].assign(row_ids.size(), 0.0);
    for (size_t i = 0; i < row_ids.size(); ++i) {
      if (auto it = carried.find(row_ids[i]); it != carried.end()) {
        initial_alpha[k][i] = it->second;
      }
    }
  }

  auto model = MultiCoupledSvm(options_.csvm)
                   .TrainViews(views, ctx.labels, selection.initial_labels);
  if (!model.ok()) return model;
  {
    util::MutexLock lock(diagnostics_mu_);
    aggregated_diagnostics_.Accumulate(model->diagnostics);
  }
  if (state != nullptr) {
    for (size_t k = 0; k < num_modalities; ++k) {
      std::unordered_map<int, double>& alpha = state->alphas[k];
      alpha.clear();
      for (size_t i = 0; i < row_ids.size(); ++i) {
        alpha[row_ids[i]] = model->alphas[k][i];
      }
    }
  }
  return model;
}

Result<std::vector<int>> CoupledSvmScheme::Rank(
    const FeedbackContext& ctx) const {
  CBIR_RETURN_NOT_OK(BindColumns(ctx));
  std::vector<int> row_ids;
  CBIR_ASSIGN_OR_RETURN(MultiCoupledModel model, Train(ctx, &row_ids));
  std::vector<double> scores =
      ctx.KernelColumns(0).Decisions(model.models[0], row_ids);
  for (size_t k = 1; k < model.models.size(); ++k) {
    const std::vector<double> modality_scores =
        ctx.KernelColumns(k).Decisions(model.models[k], row_ids);
    for (size_t i = 0; i < scores.size(); ++i) scores[i] += modality_scores[i];
  }
  return FinalizeRanking(ctx, scores);
}

}  // namespace cbir::core
