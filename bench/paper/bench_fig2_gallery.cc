// Regenerates Figure 2 of the paper ("some images selected from COREL image
// CDs"): renders a contact sheet of the synthetic stand-in corpus, one strip
// of examples per category, and writes PPM files for visual inspection.
#include <iostream>

#include "imaging/ppm_io.h"
#include "imaging/resize.h"
#include "imaging/synthetic.h"

int main() {
  using namespace cbir::imaging;

  SyntheticCorelOptions options;
  options.num_categories = 20;
  options.images_per_category = 100;
  options.width = 96;
  options.height = 96;
  options.seed = 42;
  const SyntheticCorel corpus(options);

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

  const auto status = WritePpm(sheet, "fig2_gallery.ppm");
  if (status.ok()) {
    std::cout << "contact sheet written to fig2_gallery.ppm ("
              << sheet.width() << "x" << sheet.height() << ")\n";
  } else {
    std::cout << "could not write contact sheet: " << status.ToString()
              << "\n";
  }

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
