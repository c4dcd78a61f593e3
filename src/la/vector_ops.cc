#include "la/vector_ops.h"

#include <cmath>
#include <cstring>

#include "util/logging.h"

namespace cbir::la {

double DotN(const double* a, const double* b, size_t n) {
  // Four independent accumulators break the serial dependency chain so the
  // compiler can keep multiple FMAs in flight (and auto-vectorize).
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

double SquaredDistanceN(const double* a, const double* b, size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

namespace {

// Two doubles in one 128-bit register (GCC/Clang vector extension). Lane k of
// the pair (s0, s1) or (s2, s3) is SquaredDistanceN's accumulator of the
// same name, so each lane sees the same adds in the same order.
typedef double Pair __attribute__((vector_size(16)));

Pair LoadPair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// SquaredDistanceN's tail and final sum over a row's two accumulator pairs.
double FinishRow(Pair s01, Pair s23, const double* a, const double* b,
                 size_t i, size_t n) {
  double s0 = s01[0];
  for (; i < n; ++i) {
    const double d = a[i] - b[i];
    s0 += d * d;
  }
  return (s0 + s01[1]) + (s23[0] + s23[1]);
}

}  // namespace

void SquaredDistanceToRows(const double* rows, size_t num_rows, size_t dims,
                           const double* query, double* out) {
  // One row's add chain is latency-bound; four rows at once keep eight
  // independent chains in flight and load each query block once.
  size_t r = 0;
  for (; r + 4 <= num_rows; r += 4) {
    const double* a0 = rows + r * dims;
    const double* a1 = a0 + dims;
    const double* a2 = a1 + dims;
    const double* a3 = a2 + dims;
    Pair lo0 = {0.0, 0.0}, hi0 = lo0, lo1 = lo0, hi1 = lo0;
    Pair lo2 = lo0, hi2 = lo0, lo3 = lo0, hi3 = lo0;
    size_t i = 0;
    for (; i + 4 <= dims; i += 4) {
      const Pair qlo = LoadPair(query + i);
      const Pair qhi = LoadPair(query + i + 2);
      Pair d = LoadPair(a0 + i) - qlo;
      lo0 += d * d;
      d = LoadPair(a0 + i + 2) - qhi;
      hi0 += d * d;
      d = LoadPair(a1 + i) - qlo;
      lo1 += d * d;
      d = LoadPair(a1 + i + 2) - qhi;
      hi1 += d * d;
      d = LoadPair(a2 + i) - qlo;
      lo2 += d * d;
      d = LoadPair(a2 + i + 2) - qhi;
      hi2 += d * d;
      d = LoadPair(a3 + i) - qlo;
      lo3 += d * d;
      d = LoadPair(a3 + i + 2) - qhi;
      hi3 += d * d;
    }
    out[r] = FinishRow(lo0, hi0, a0, query, i, dims);
    out[r + 1] = FinishRow(lo1, hi1, a1, query, i, dims);
    out[r + 2] = FinishRow(lo2, hi2, a2, query, i, dims);
    out[r + 3] = FinishRow(lo3, hi3, a3, query, i, dims);
  }
  for (; r < num_rows; ++r) {
    out[r] = SquaredDistanceN(rows + r * dims, query, dims);
  }
}

void DotToRows(const double* rows, size_t num_rows, size_t dims,
               const double* query, double* out) {
  for (size_t r = 0; r < num_rows; ++r) {
    out[r] = DotN(rows + r * dims, query, dims);
  }
}

double Dot(const Vec& a, const Vec& b) {
  CBIR_CHECK_EQ(a.size(), b.size());
  return DotN(a.data(), b.data(), a.size());
}

double SquaredDistance(const Vec& a, const Vec& b) {
  CBIR_CHECK_EQ(a.size(), b.size());
  return SquaredDistanceN(a.data(), b.data(), a.size());
}

double Distance(const Vec& a, const Vec& b) {
  return std::sqrt(SquaredDistance(a, b));
}

double Norm(const Vec& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double alpha, const Vec& x, Vec* y) {
  CBIR_CHECK_EQ(x.size(), y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

void Scale(double alpha, Vec* x) {
  for (double& v : *x) v *= alpha;
}

Vec Add(const Vec& a, const Vec& b) {
  CBIR_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Subtract(const Vec& a, const Vec& b) {
  CBIR_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

void NormalizeL2(Vec* x) {
  const double n = Norm(*x);
  if (n > 0.0) Scale(1.0 / n, x);
}

}  // namespace cbir::la
