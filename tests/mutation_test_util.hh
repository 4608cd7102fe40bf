/**
 * @file
 * Helpers shared by the seeded mutation runs over the input parsers
 * (the Matrix Market reader in test_generate_io, the job-file parser in
 * test_serve): building a mutant by substitution, and the death-test
 * predicate every mutant must satisfy.
 */

#ifndef MISAM_TESTS_MUTATION_TEST_UTIL_HH
#define MISAM_TESTS_MUTATION_TEST_UTIL_HH

#include <sys/wait.h>

#include <string>

namespace misam::mutation_test {

/** Replace the first occurrence of `from` in `base` with `to`. */
inline std::string
substituted(const std::string &base, const std::string &from,
            const std::string &to)
{
    std::string out = base;
    out.replace(out.find(from), from.size(), to);
    return out;
}

/** Death-test predicate: a clean parse (0) or a refusal (1), no signal. */
inline bool
parsedOrRefused(int status)
{
    return WIFEXITED(status) &&
           (WEXITSTATUS(status) == 0 || WEXITSTATUS(status) == 1);
}

} // namespace misam::mutation_test

#endif // MISAM_TESTS_MUTATION_TEST_UTIL_HH
