#ifndef CBIR_LA_VECTOR_OPS_H_
#define CBIR_LA_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace cbir::la {

/// Dense vector type used throughout the library for feature vectors and
/// log vectors. Double precision: the SMO solver's convergence tolerance is
/// far below float epsilon at realistic condition numbers.
using Vec = std::vector<double>;

/// Inner product <a, b>. Requires equal sizes.
double Dot(const Vec& a, const Vec& b);

/// Squared Euclidean distance ||a - b||^2. Requires equal sizes.
double SquaredDistance(const Vec& a, const Vec& b);

/// Euclidean distance ||a - b||.
double Distance(const Vec& a, const Vec& b);

/// L2 norm ||a||.
double Norm(const Vec& a);

/// In-place y += alpha * x. Requires equal sizes.
void Axpy(double alpha, const Vec& x, Vec* y);

/// In-place x *= alpha.
void Scale(double alpha, Vec* x);

/// Element-wise sum a + b.
Vec Add(const Vec& a, const Vec& b);

/// Element-wise difference a - b.
Vec Subtract(const Vec& a, const Vec& b);

/// Normalizes to unit L2 norm; leaves the zero vector untouched.
void NormalizeL2(Vec* x);

/// Unrolled inner product over raw storage; `a` and `b` hold `n` doubles.
double DotN(const double* a, const double* b, size_t n);

/// Unrolled squared distance over raw storage; `a` and `b` hold `n` doubles.
double SquaredDistanceN(const double* a, const double* b, size_t n);

/// Batch primitive: out[r] = ||rows[r] - query||^2 for r in [0, num_rows),
/// where `rows` is row-major contiguous storage with `dims` doubles per row.
/// The hot loop of Euclidean corpus scans and of every RBF kernel column.
/// Scores four rows per pass in 2-wide vector lanes; each out[r] is
/// bit-identical to SquaredDistanceN(rows[r], query, dims).
void SquaredDistanceToRows(const double* rows, size_t num_rows, size_t dims,
                           const double* query, double* out);

/// Batch primitive: out[r] = <rows[r], query>, same layout contract as
/// SquaredDistanceToRows. Hot loop of linear/polynomial kernel rows.
void DotToRows(const double* rows, size_t num_rows, size_t dims,
               const double* query, double* out);

}  // namespace cbir::la

#endif  // CBIR_LA_VECTOR_OPS_H_
