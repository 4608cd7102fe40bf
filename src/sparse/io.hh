/**
 * @file
 * Matrix Market (.mtx) coordinate-format I/O.
 *
 * Supports the subset of the format SuiteSparse matrices use: coordinate
 * storage, real/integer/pattern fields, general or symmetric symmetry.
 * Lets users run Misam on real SuiteSparse downloads in place of the
 * synthetic proxies.
 *
 * Accepted syntax. The first line is the banner `%%MatrixMarket matrix
 * coordinate <field> <symmetry>`; the tag is case-sensitive, the other
 * four words are not. Blank lines and lines starting with '%' may follow
 * it; the first other line is the size line `rows cols nnz`. Then come
 * nnz entries `row col value` (`row col` for pattern), 1-based. Tokens
 * are separated by any run of space, tab, CR, LF, VT or FF, so CRLF line
 * ends, blank lines and entries split across lines are all fine, and
 * anything after the last entry is ignored. Indices and sizes are
 * unsigned decimals; values are decimal floating point with an optional
 * exponent (`1E-3`, `2.5e+05`, `.5`, `1.`); both take an optional leading
 * '+'. Values are rounded correctly, bit-identical to `istream >>
 * double` and `strtod`; a value that underflows reads as strtod's zero
 * or subnormal. Symmetric files are expanded: each off-diagonal entry is
 * also stored mirrored. Duplicate positions are summed.
 *
 * Refusals. Each one is a fatal() whose message starts `MatrixMarket:`:
 * empty input; a missing banner tag; an object or format other than
 * `matrix coordinate`; a field other than real/integer/pattern; a
 * symmetry other than general/symmetric; a size line that lacks three
 * unsigned tokens; rows or cols of 4294967295 (Index's maximum, where
 * `rows + 1` wraps to 0) or more; an nnz larger than the remaining
 * bytes could encode (4 per entry), checked before anything is
 * reserved; a truncated entry; a malformed index; a
 * missing or malformed value; a value that is inf or nan or overflows;
 * an index of 0 or beyond the size line. A token must end at a separator
 * or at the end of input: `1.5abc` or `0x10` is malformed, not `1.5` or
 * `0` followed by garbage.
 */

#ifndef MISAM_SPARSE_IO_HH
#define MISAM_SPARSE_IO_HH

#include <iosfwd>
#include <string>

#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace misam {

/**
 * Parse a Matrix Market stream into canonical (sorted, combined) COO.
 * Drains the stream into one buffer first; fatal() on bad input.
 */
CooMatrix readMatrixMarket(std::istream &in);

/**
 * Read a Matrix Market file into one buffer and parse it as
 * readMatrixMarket does; fatal() if it cannot be opened or parsed.
 */
CooMatrix readMatrixMarketFile(const std::string &path);

/**
 * Write a matrix as Matrix Market general/real coordinate format, rows in
 * order, so reading it back needs no sort. Values print as `%.6g`, what
 * `ostream << double` prints by default, whatever the stream's format
 * flags; the text is built in one buffer and written with one call.
 */
void writeMatrixMarket(std::ostream &out, const CsrMatrix &m);

/** Write to a file; fatal() if the file cannot be created. */
void writeMatrixMarketFile(const std::string &path, const CsrMatrix &m);

} // namespace misam

#endif // MISAM_SPARSE_IO_HH
