#ifndef CBIR_RETRIEVAL_IMAGE_DATABASE_H_
#define CBIR_RETRIEVAL_IMAGE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "features/extractor.h"
#include "features/normalizer.h"
#include "imaging/synthetic.h"
#include "index/index_factory.h"
#include "la/matrix.h"
#include "util/result.h"

namespace cbir::retrieval {

/// \brief Options for building a feature database from the synthetic corpus.
struct DatabaseOptions {
  imaging::SyntheticCorelOptions corpus;
  features::FeatureOptions feature;
  /// Fit and apply per-dimension z-score normalization over the corpus.
  bool normalize = true;
  /// Worker threads for feature extraction (0 = hardware concurrency).
  int num_threads = 0;
};

/// \brief An indexed image corpus: ground-truth categories plus the
/// (normalized) 36-dim feature matrix, one row per image.
///
/// The database owns the corpus generator so callers can re-render any image
/// (the gallery example does). Building is deterministic in the corpus seed.
class ImageDatabase {
 public:
  /// Generates all images and extracts features (parallelized).
  static ImageDatabase Build(const DatabaseOptions& options);

  /// Wraps a precomputed feature matrix (one row per image, already
  /// normalized or not — no normalizer is fitted) in a database. For
  /// serving benches, load drivers, and tests that need big corpora without
  /// paying image rendering; RenderImage() on the result produces synthetic
  /// images unrelated to the injected features. `categories[i]` must be in
  /// [0, num_categories).
  static ImageDatabase FromFeatures(la::Matrix features,
                                    std::vector<int> categories,
                                    int num_categories);

  /// Copies drop the retrieval index: an index references the feature
  /// storage of the database it was built over, so sharing it would dangle
  /// once the original dies. Call BuildIndex on the copy if it needs one.
  /// Moves keep the index (the referenced heap buffer moves along).
  ImageDatabase(const ImageDatabase& other);
  ImageDatabase& operator=(const ImageDatabase& other);
  ImageDatabase(ImageDatabase&&) = default;
  ImageDatabase& operator=(ImageDatabase&&) = default;

  int num_images() const { return static_cast<int>(features_.rows()); }
  int num_categories() const { return options_.corpus.num_categories; }

  /// Ground-truth category of an image.
  int category(int image_id) const;
  const std::vector<int>& categories() const { return categories_; }

  /// COREL-style category label.
  std::string category_name(int category) const {
    return corpus_->CategoryName(category);
  }

  /// Normalized feature matrix (num_images x dims).
  const la::Matrix& features() const { return features_; }
  la::Vec feature(int image_id) const;

  /// Builds and attaches a retrieval index over features(), replacing any
  /// previous one. The index references this database's feature storage:
  /// rebuild after mutating features or after copying the database.
  /// Serialized by SaveToFile: a signature index round-trips its packed
  /// signature block (no re-encoding on load), an exact index is rebuilt
  /// for free.
  void BuildIndex(const IndexOptions& index_options);
  /// The attached retrieval index, or null when none was built.
  const Index* index() const { return index_.get(); }

  /// Top-k image ids by ascending Euclidean distance to `query` (ties on the
  /// smaller id; k <= 0 = full ranking). Routed through the attached index;
  /// falls back to the exhaustive scan when none is attached. Every corpus
  /// ranking in the library goes through here so one BuildIndex call
  /// accelerates all of them.
  /// `candidates`, when non-null, gets the attached index's
  /// Candidates(query, k) set from the same scan (empty, "every row",
  /// without an index).
  std::vector<int> TopK(const la::Vec& query, int k = -1,
                        std::vector<int>* candidates = nullptr) const;

  const features::Normalizer& normalizer() const { return normalizer_; }
  const features::FeatureExtractor& extractor() const { return extractor_; }
  const imaging::SyntheticCorel& corpus() const { return *corpus_; }
  const DatabaseOptions& options() const { return options_; }

  /// Re-renders an image (identical to the one whose features are stored).
  imaging::Image RenderImage(int image_id) const {
    return corpus_->GenerateById(image_id);
  }

  /// Text serialization of categories + features + normalizer + attached
  /// index (images are re-renderable from the corpus options, so pixels are
  /// never stored). Signature indexes store their packed signature block so
  /// 100k+ corpora skip the ~0.4s re-encoding on load; v1 files (written
  /// before indexes were serialized) still load, just without an index.
  Status SaveToFile(const std::string& path) const;
  static Result<ImageDatabase> LoadFromFile(const std::string& path);

 private:
  ImageDatabase(const DatabaseOptions& options);

  DatabaseOptions options_;
  std::shared_ptr<const imaging::SyntheticCorel> corpus_;
  features::FeatureExtractor extractor_;
  features::Normalizer normalizer_;
  std::vector<int> categories_;
  la::Matrix features_;
  /// References features_' heap storage; dropped on copy (see the copy
  /// constructor comment above), moved along with features_ on move.
  std::unique_ptr<Index> index_;
};

}  // namespace cbir::retrieval

#endif  // CBIR_RETRIEVAL_IMAGE_DATABASE_H_
