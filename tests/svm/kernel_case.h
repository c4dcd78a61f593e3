// Value parameter for the kernel-parameterized test suites.
#ifndef CBIR_TESTS_SVM_KERNEL_CASE_H_
#define CBIR_TESTS_SVM_KERNEL_CASE_H_

#include <cstddef>
#include <cstring>
#include <ostream>

#include <gtest/gtest.h>

#include "svm/kernel.h"

namespace cbir::svm::testutil {

struct KernelCase {
  KernelParams kernel;
};

// gtest names each case by printing its parameter, and prints a KernelParams
// as its raw bytes, including the padding after `type` and `degree`. Nothing
// writes those bytes, so they differ from run to run. Print the same bytes
// with the padding zeroed so that the case names are stable.
inline void PrintTo(const KernelCase& param, std::ostream* os) {
  const KernelParams& kernel = param.kernel;
  unsigned char bytes[sizeof(KernelParams)] = {};
  std::memcpy(bytes + offsetof(KernelParams, type), &kernel.type,
              sizeof(kernel.type));
  std::memcpy(bytes + offsetof(KernelParams, gamma), &kernel.gamma,
              sizeof(kernel.gamma));
  std::memcpy(bytes + offsetof(KernelParams, coef0), &kernel.coef0,
              sizeof(kernel.coef0));
  std::memcpy(bytes + offsetof(KernelParams, degree), &kernel.degree,
              sizeof(kernel.degree));
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof(bytes), os);
}

}  // namespace cbir::svm::testutil

#endif  // CBIR_TESTS_SVM_KERNEL_CASE_H_
