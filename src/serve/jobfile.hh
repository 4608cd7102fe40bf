/**
 * @file
 * JSONL job files for the `misam serve` CLI subcommand.
 *
 * One job per line, a flat JSON object:
 *
 *     {"name":"layer3","a":"act3.mtx","b":"weights.mtx","repetitions":32}
 *     {"name":"graph","a":"web.mtx"}
 *     {"name":"spmm","a":"m.mtx","dense_cols":256}
 *
 * Fields:
 *   a           (required) Matrix Market path of the A operand.
 *   b           Path of B, or the literal "self" (default: self —
 *               requires square A).
 *   dense_cols  Generate a dense B with this many columns instead
 *               (mutually exclusive with b; same convention as the
 *               CLI's --dense-cols flag, seed 1).
 *   name        Job label (default: "job<line>").
 *   repetitions Executions the job stands for (default 1).
 *
 * Blank lines and lines starting with '#' are skipped; unknown keys
 * warn and are ignored (forward compatibility); malformed JSON is a
 * fatal error naming the line. A number must be a finite value that
 * strtod consumes whole (`1-2`, `--`, `1e999` are refused);
 * `dense_cols` must be an integer in [1, 4294967295] and
 * `repetitions` at least 1. Every refusal is a fatal naming file:line.
 *
 * Shared operands: a path that one job file names more than once (as
 * `a` or `b`, a line naming it as both counts twice) is read, converted
 * and fingerprinted once, at its first load; later loads get a copy
 * that carries the memoized fingerprint, and the last counted load
 * frees the retained matrix. A path named once is never retained. The
 * sharing lives in the specs of one parseJobFile call, never across
 * job files, so a file rewritten between two lines of one job file is
 * read at its first use only; the next job file reads it afresh. Matrix
 * Market checks run on that first read, so a bad operand is still
 * refused at its first load.
 */

#ifndef MISAM_SERVE_JOBFILE_HH
#define MISAM_SERVE_JOBFILE_HH

#include <memory>
#include <string>
#include <vector>

#include "core/misam.hh"

namespace misam {

/** A path's once-read operand, shared by the specs that name it. */
struct SharedOperand;

/** One parsed (not yet loaded) job line. */
struct ServeJobSpec
{
    std::string name;
    std::string a_path;
    std::string b_path;    ///< Empty: self (or dense_cols if set).
    Index dense_cols = 0;  ///< > 0: generate a dense B operand.
    double repetitions = 1.0;
    /// Set when the job file names the path more than once.
    std::shared_ptr<SharedOperand> a_shared;
    std::shared_ptr<SharedOperand> b_shared;
};

/** Parse a JSONL job file; fatal on malformed lines. */
std::vector<ServeJobSpec> parseJobFile(const std::string &path);

/**
 * Load one spec's matrices into an executable job. Thread-safe across
 * specs of one job file; a shared operand is read by its first load.
 */
BatchJob loadServeJob(const ServeJobSpec &spec);

/** parseJobFile + loadServeJob over every line. */
std::vector<BatchJob> loadJobFile(const std::string &path);

} // namespace misam

#endif // MISAM_SERVE_JOBFILE_HH
