#include "logdb/relevance_matrix.h"

#include <algorithm>

#include "util/logging.h"

namespace cbir::logdb {

RelevanceMatrix::RelevanceMatrix(int num_images) : num_images_(num_images) {
  CBIR_CHECK_GT(num_images, 0);
  image_marks_.resize(static_cast<size_t>(num_images));
}

void RelevanceMatrix::AddSession(const LogSession& session) {
  const int session_index = num_sessions_++;
  std::vector<LogEntry> row;
  row.reserve(session.entries.size());
  for (const LogEntry& e : session.entries) {
    if (e.image_id < 0 || e.image_id >= num_images_) continue;
    if (e.judgment != 1 && e.judgment != -1) continue;
    auto it = std::find_if(row.begin(), row.end(), [&](const LogEntry& r) {
      return r.image_id == e.image_id;
    });
    if (it != row.end()) {
      it->judgment = e.judgment;  // keep last
    } else {
      row.push_back(e);
    }
  }
  for (const LogEntry& e : row) {
    image_marks_[static_cast<size_t>(e.image_id)].push_back(
        Mark{session_index, e.judgment});
    if (e.judgment > 0) {
      ++positive_count_;
    } else {
      ++negative_count_;
    }
  }
}

la::Vec RelevanceMatrix::LogVector(int image_id,
                                   double negative_weight) const {
  CBIR_CHECK_GE(image_id, 0);
  CBIR_CHECK_LT(image_id, num_images_);
  la::Vec out(static_cast<size_t>(num_sessions()), 0.0);
  for (const Mark& m : image_marks_[static_cast<size_t>(image_id)]) {
    out[static_cast<size_t>(m.session)] =
        m.value > 0 ? 1.0 : -negative_weight;
  }
  return out;
}

la::Matrix RelevanceMatrix::ToDenseMatrix(double negative_weight) const {
  la::Matrix out(static_cast<size_t>(num_images_),
                 static_cast<size_t>(num_sessions()), 0.0);
  for (int i = 0; i < num_images_; ++i) {
    double* row = out.RowPtr(static_cast<size_t>(i));
    for (const Mark& m : image_marks_[static_cast<size_t>(i)]) {
      row[m.session] = m.value > 0 ? 1.0 : -negative_weight;
    }
  }
  return out;
}

int RelevanceMatrix::CoveredImages() const {
  int covered = 0;
  for (const auto& marks : image_marks_) {
    if (!marks.empty()) ++covered;
  }
  return covered;
}

}  // namespace cbir::logdb
