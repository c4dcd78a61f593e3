// Dataset gallery: regenerates Figure 2 of the paper ("some images selected
// from COREL image CDs") as a contact sheet of the synthetic stand-in for the
// Table 1 corpus, one strip of examples per category, plus intermediate
// feature-pipeline visualizations (grayscale, Canny edge map) for a sample
// image. Outputs PPM/PGM files.
#include <iostream>

#include "features/canny.h"
#include "imaging/color.h"
#include "imaging/ppm_io.h"
#include "imaging/resize.h"
#include "imaging/synthetic.h"

int main() {
  using namespace cbir;
  using namespace cbir::imaging;

  // The Table 1 corpus: experiment_driver's defaults.
  SyntheticCorelOptions options;
  options.num_categories = 20;
  options.images_per_category = 100;
  options.width = 96;
  options.height = 96;
  options.seed = 42;
  const SyntheticCorel corpus(options);

  // Reports a failed write; main then exits 1 instead of aborting.
  auto written = [](const Status& status, const std::string& path) {
    if (!status.ok()) {
      std::cerr << "could not write " << path << ": " << status << "\n";
    }
    return status.ok();
  };

  const int samples_per_category = 6;
  const int categories_shown = 10;
  const int cell = 96;
  Image sheet(cell * samples_per_category, cell * categories_shown,
              Rgb{255, 255, 255});

  std::cout << "=== Figure 2: sample images from the synthetic COREL "
               "stand-in ===\n";
  for (int c = 0; c < categories_shown; ++c) {
    std::cout << "category " << c << " (" << corpus.CategoryName(c)
              << "): theme hue=" << corpus.theme(c).base_hue
              << " shapes=" << corpus.theme(c).shape_kind
              << " bg=" << corpus.theme(c).bg_kind << "\n";
    for (int i = 0; i < samples_per_category; ++i) {
      Paste(&sheet, corpus.Generate(c, i * 7), i * cell, c * cell);
    }
  }
  if (!written(WritePpm(sheet, "fig2_gallery.ppm"), "fig2_gallery.ppm")) {
    return 1;
  }
  std::cout << "contact sheet written to fig2_gallery.ppm (" << sheet.width()
            << "x" << sheet.height() << ")\n";

  // Feature-pipeline visualization for one image.
  const Image sample = corpus.Generate(2, 5);
  const GrayImage gray = ToGray(sample);
  const features::CannyResult canny = features::Canny(gray);
  if (!written(WritePpm(sample, "gallery_sample.ppm"), "gallery_sample.ppm") ||
      !written(WritePgm(gray, "gallery_sample_gray.pgm"),
               "gallery_sample_gray.pgm") ||
      !written(WritePgm(canny.edges, "gallery_sample_edges.pgm"),
               "gallery_sample_edges.pgm")) {
    return 1;
  }
  std::cout << "wrote gallery_sample.ppm, gallery_sample_gray.pgm, "
               "gallery_sample_edges.pgm (" << canny.edge_count
            << " edge pixels)\n";

  std::cout << "\nPaper reference: Fig. 2 shows sample COREL photos "
               "(antique, antelope, aviation, balloon, ...).\n"
               "Substitution: the COREL photos are not redistributable, so "
               "each category is a procedural theme drawn from small\n"
               "vocabularies of hue family, background and shape kind. "
               "Categories collide on some of these axes, which\n"
               "recreates the semantic gap that the feedback log has to "
               "bridge.\n";
  return 0;
}
