#include "retrieval/image_database.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <utility>

#include "index/signature_index.h"
#include "retrieval/ranker.h"
#include "util/logging.h"
#include "util/parallel.h"

namespace cbir::retrieval {

ImageDatabase::ImageDatabase(const DatabaseOptions& options)
    : options_(options),
      corpus_(std::make_shared<imaging::SyntheticCorel>(options.corpus)),
      extractor_(options.feature) {}

ImageDatabase::ImageDatabase(const ImageDatabase& other)
    : options_(other.options_),
      corpus_(other.corpus_),
      extractor_(other.extractor_),
      normalizer_(other.normalizer_),
      categories_(other.categories_),
      features_(other.features_) {}  // index_ stays null: see the header

ImageDatabase& ImageDatabase::operator=(const ImageDatabase& other) {
  if (this == &other) return *this;
  options_ = other.options_;
  corpus_ = other.corpus_;
  extractor_ = other.extractor_;
  normalizer_ = other.normalizer_;
  categories_ = other.categories_;
  features_ = other.features_;
  index_.reset();  // would reference `other`'s (or our stale) storage
  return *this;
}

ImageDatabase ImageDatabase::Build(const DatabaseOptions& options) {
  ImageDatabase db(options);
  const int n = db.corpus_->num_images();
  db.categories_.resize(static_cast<size_t>(n));
  db.features_ = la::Matrix(static_cast<size_t>(n),
                            static_cast<size_t>(db.extractor_.dims()));

  ParallelFor(
      static_cast<size_t>(n),
      [&db](size_t i) {
        const int image_id = static_cast<int>(i);
        db.categories_[i] = db.corpus_->CategoryOf(image_id);
        const imaging::Image img = db.corpus_->GenerateById(image_id);
        db.features_.SetRow(i, db.extractor_.Extract(img));
      },
      options.num_threads);

  if (options.normalize) {
    db.normalizer_ = features::Normalizer::Fit(db.features_);
    db.normalizer_.ApplyAll(&db.features_);
  }
  return db;
}

ImageDatabase ImageDatabase::FromFeatures(la::Matrix features,
                                          std::vector<int> categories,
                                          int num_categories) {
  CBIR_CHECK_EQ(features.rows(), categories.size());
  CBIR_CHECK_GT(num_categories, 0);
  DatabaseOptions options;
  options.corpus.num_categories = num_categories;
  // Ceil-divide so corpus_->num_images() >= rows and RenderImage stays
  // callable for every injected row (its pixels are unrelated regardless).
  options.corpus.images_per_category = std::max<int>(
      1, (static_cast<int>(features.rows()) + num_categories - 1) /
             num_categories);
  options.normalize = false;
  ImageDatabase db(options);
  for (int c : categories) {
    CBIR_CHECK_GE(c, 0);
    CBIR_CHECK_LT(c, num_categories);
  }
  db.categories_ = std::move(categories);
  db.features_ = std::move(features);
  return db;
}

int ImageDatabase::category(int image_id) const {
  CBIR_CHECK_GE(image_id, 0);
  CBIR_CHECK_LT(image_id, num_images());
  return categories_[static_cast<size_t>(image_id)];
}

la::Vec ImageDatabase::feature(int image_id) const {
  CBIR_CHECK_GE(image_id, 0);
  CBIR_CHECK_LT(image_id, num_images());
  return features_.Row(static_cast<size_t>(image_id));
}

void ImageDatabase::BuildIndex(const IndexOptions& index_options) {
  index_ = MakeIndex(index_options);
  index_->Build(features_);
}

std::vector<int> ImageDatabase::TopK(const la::Vec& query, int k,
                                     std::vector<int>* candidates) const {
  if (index_ != nullptr) {
    return index_->QueryWithCandidates(query, k, candidates);
  }
  if (candidates != nullptr) candidates->clear();
  return RankByEuclidean(features_, query, k);
}

Status ImageDatabase::SaveToFile(const std::string& path) const {
  std::ofstream ofs(path, std::ios::trunc);
  if (!ofs) return Status::IoError("cannot open for writing: " + path);
  ofs << "cbir_db v2\n";
  const auto& c = options_.corpus;
  ofs << c.num_categories << " " << c.images_per_category << " " << c.width
      << " " << c.height << " " << c.seed << " " << c.difficulty << " "
      << c.outlier_fraction << "\n";
  ofs << features_.rows() << " " << features_.cols() << "\n";
  ofs.precision(17);
  for (size_t r = 0; r < features_.rows(); ++r) {
    ofs << categories_[r];
    const double* p = features_.RowPtr(r);
    for (size_t col = 0; col < features_.cols(); ++col) ofs << " " << p[col];
    ofs << "\n";
  }
  ofs << (normalizer_.fitted() ? 1 : 0) << "\n";
  if (normalizer_.fitted()) normalizer_.Save(ofs);

  // v2 index section. The signature block is the expensive part of a build
  // (100k+ corpora pay ~0.4s re-encoding), so it is stored verbatim (hex
  // words); hyperplanes/offsets re-derive from (seed, data) on load.
  if (const auto* sig =
          dynamic_cast<const SignatureIndex*>(index_.get());
      sig != nullptr) {
    const auto& opt = sig->options();
    ofs << "index signature " << opt.bits << " " << opt.candidate_factor
        << " " << opt.seed << "\n";
    const std::vector<uint64_t>& words = sig->signatures();
    ofs << sig->num_rows() << " " << sig->words_per_row() << "\n" << std::hex;
    for (size_t i = 0; i < words.size(); ++i) {
      ofs << words[i] << ((i + 1) % 8 == 0 ? "\n" : " ");
    }
    if (!words.empty() && words.size() % 8 != 0) ofs << "\n";
    ofs << std::dec;
  } else if (index_ != nullptr) {
    ofs << "index " << index_->name() << "\n";
  } else {
    ofs << "index none\n";
  }
  if (!ofs) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<ImageDatabase> ImageDatabase::LoadFromFile(const std::string& path) {
  std::ifstream ifs(path);
  if (!ifs) return Status::IoError("cannot open for reading: " + path);
  std::string magic, version;
  if (!(ifs >> magic >> version) || magic != "cbir_db" ||
      (version != "v1" && version != "v2")) {
    return Status::InvalidArgument("image database: bad header in " + path);
  }
  DatabaseOptions options;
  auto& c = options.corpus;
  if (!(ifs >> c.num_categories >> c.images_per_category >> c.width >>
        c.height >> c.seed >> c.difficulty >> c.outlier_fraction)) {
    return Status::IoError("image database: truncated corpus options");
  }
  size_t rows = 0, cols = 0;
  if (!(ifs >> rows >> cols)) {
    return Status::IoError("image database: truncated shape");
  }

  ImageDatabase db(options);
  db.categories_.resize(rows);
  db.features_ = la::Matrix(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    if (!(ifs >> db.categories_[r])) {
      return Status::IoError("image database: truncated categories");
    }
    double* p = db.features_.RowPtr(r);
    for (size_t col = 0; col < cols; ++col) {
      if (!(ifs >> p[col])) {
        return Status::IoError("image database: truncated features");
      }
    }
  }
  int has_normalizer = 0;
  if (!(ifs >> has_normalizer)) {
    return Status::IoError("image database: truncated normalizer flag");
  }
  if (has_normalizer) {
    CBIR_ASSIGN_OR_RETURN(db.normalizer_, features::Normalizer::Load(ifs));
  }
  if (version == "v1") return db;  // pre-index files carry no index section

  std::string tag, mode;
  if (!(ifs >> tag >> mode) || tag != "index") {
    return Status::IoError("image database: truncated index section");
  }
  if (mode == "none") {
    // nothing attached
  } else if (mode == "exact") {
    IndexOptions exact;
    exact.mode = IndexMode::kExact;
    db.BuildIndex(exact);  // exhaustive scan: nothing to deserialize
  } else if (mode == "signature") {
    SignatureIndexOptions sig_options;
    if (!(ifs >> sig_options.bits >> sig_options.candidate_factor >>
          sig_options.seed)) {
      return Status::IoError("image database: truncated signature options");
    }
    size_t sig_rows = 0, sig_words = 0;
    if (!(ifs >> sig_rows >> sig_words)) {
      return Status::IoError("image database: truncated signature shape");
    }
    auto sig = std::make_unique<SignatureIndex>(sig_options);
    if (sig_rows != rows || sig_words != sig->words_per_row()) {
      return Status::InvalidArgument(
          "image database: signature block shape does not match corpus");
    }
    std::vector<uint64_t> words(sig_rows * sig_words);
    ifs >> std::hex;
    for (uint64_t& w : words) {
      if (!(ifs >> w)) {
        return Status::IoError("image database: truncated signature block");
      }
    }
    ifs >> std::dec;
    sig->RestoreSignatures(db.features_, std::move(words));
    db.index_ = std::move(sig);
  } else {
    return Status::InvalidArgument("image database: unknown index mode '" +
                                   mode + "'");
  }
  return db;
}

}  // namespace cbir::retrieval
