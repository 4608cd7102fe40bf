/**
 * @file
 * Shared SIMD-dispatch helpers for the kernel suites (test_simd_dispatch,
 * test_numeric_spgemm, test_scheduler_kernels): a scope guard that forces
 * one backend, and the list of backends a parity check runs under.
 */

#ifndef MISAM_TESTS_SIMD_TEST_UTIL_HH
#define MISAM_TESTS_SIMD_TEST_UTIL_HH

#include <vector>

#include "util/simd.hh"

namespace misam::simd_test {

/** Force a backend for one scope, restoring env-driven dispatch after. */
class ScopedBackend
{
  public:
    explicit ScopedBackend(simd::Backend backend)
    {
        simd::setBackendForTesting(backend);
    }

    ~ScopedBackend() { simd::resetBackendFromEnv(); }

    ScopedBackend(const ScopedBackend &) = delete;
    ScopedBackend &operator=(const ScopedBackend &) = delete;
};

/**
 * The backends to compare: always scalar, plus every vector backend
 * this host can execute (AVX2 and AVX-512 are probed independently, so
 * an AVX-512 host pins scalar == AVX2 == AVX-512). On a scalar-only
 * host the parity assertions degenerate to self-comparison, which keeps
 * the suites green (and still exercises the reference-count checks).
 */
inline std::vector<simd::Backend>
backendsUnderTest()
{
    std::vector<simd::Backend> backends = {simd::Backend::Scalar};
    for (simd::Backend vec : {simd::Backend::Avx2, simd::Backend::Neon,
                              simd::Backend::Avx512}) {
        if (simd::backendSupported(vec))
            backends.push_back(vec);
    }
    return backends;
}

} // namespace misam::simd_test

#endif // MISAM_TESTS_SIMD_TEST_UTIL_HH
