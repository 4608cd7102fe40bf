#include "sparse/io.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <string_view>

#include "util/logging.hh"

namespace misam {

namespace {

/** Bytes one read call asks for while draining a stream. */
constexpr std::streamsize kReadChunk = 1 << 16;

/** Room for one formatted field: any u64, or a %.6g double (<= 13). */
constexpr std::size_t kFieldBytes = 24;

/** The bytes `istream >>` skips in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

const char *
skipSpace(const char *p, const char *end)
{
    while (p != end && isSpace(*p))
        ++p;
    return p;
}

/** True if a token that ended at `p` is followed by a separator. */
bool
endsToken(const char *p, const char *end)
{
    return p == end || isSpace(*p);
}

/** Parse an unsigned decimal token at `p` (optional '+'); advances `p`. */
bool
parseUnsigned(const char *&p, const char *end, std::uint64_t &out)
{
    const char *q = p != end && *p == '+' ? p + 1 : p;
    const auto [next, ec] = std::from_chars(q, end, out);
    if (ec != std::errc() || !endsToken(next, end))
        return false;
    p = next;
    return true;
}

/**
 * Parse a decimal floating-point token at `p` (optional '+'); advances
 * `p`. Rounds exactly as `istream >> double` does (both are correctly
 * rounded). from_chars reports underflow as out of range where the
 * stream accepted strtod's zero or subnormal, so that case is handed to
 * strtod; overflow comes back as inf and is refused by the caller, as
 * the stream refused it.
 */
bool
parseValue(const char *&p, const char *end, double &out)
{
    const char *q = p != end && *p == '+' ? p + 1 : p;
    if (q != p && q != end && *q == '-')
        return false; // "+-" is not a number to istream either
    const auto [next, ec] = std::from_chars(q, end, out);
    if (ec == std::errc::result_out_of_range)
        out = std::strtod(std::string(q, next).c_str(), nullptr);
    else if (ec != std::errc())
        return false;
    if (!endsToken(next, end))
        return false;
    p = next;
    return true;
}

std::string
toLower(std::string_view s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

/** The next line at `p` without its '\n'; advances `p` past the '\n'. */
std::string_view
nextLine(const char *&p, const char *end)
{
    const char *start = p;
    while (p != end && *p != '\n')
        ++p;
    const std::string_view line(start, static_cast<std::size_t>(p - start));
    if (p != end)
        ++p;
    return line;
}

/** The next whitespace-delimited token of `line`; empty when none is left. */
std::string_view
nextWord(std::string_view &line)
{
    const char *p = skipSpace(line.data(), line.data() + line.size());
    const char *start = p;
    while (p != line.data() + line.size() && !isSpace(*p))
        ++p;
    line.remove_prefix(static_cast<std::size_t>(p - line.data()));
    return {start, static_cast<std::size_t>(p - start)};
}

/** Parse a whole Matrix Market buffer into COO; fatal() on bad input. */
CooMatrix
parseMatrixMarket(const std::string &buf)
{
    if (buf.empty())
        fatal("MatrixMarket: empty input");
    const char *p = buf.data();
    const char *const end = p + buf.size();

    std::string_view banner = nextLine(p, end);
    if (nextWord(banner) != "%%MatrixMarket")
        fatal("MatrixMarket: missing %%MatrixMarket banner");
    const std::string object = toLower(nextWord(banner));
    const std::string format = toLower(nextWord(banner));
    const std::string field = toLower(nextWord(banner));
    const std::string symmetry = toLower(nextWord(banner));
    if (object != "matrix" || format != "coordinate")
        fatal("MatrixMarket: only 'matrix coordinate' supported, got '",
              object, " ", format, "'");
    const bool pattern = field == "pattern";
    if (!pattern && field != "real" && field != "integer")
        fatal("MatrixMarket: unsupported field '", field, "'");
    const bool symmetric = symmetry == "symmetric";
    if (!symmetric && symmetry != "general")
        fatal("MatrixMarket: unsupported symmetry '", symmetry, "'");

    // Skip blank and comment lines; the first other line is the size line.
    std::string_view size_line;
    while (p != end) {
        const std::string_view line = nextLine(p, end);
        if (!line.empty() && line[0] != '%') {
            size_line = line;
            break;
        }
    }
    std::uint64_t rows = 0, cols = 0, nnz = 0;
    {
        const char *s = size_line.data();
        const char *const s_end = s + size_line.size();
        bool ok = true;
        for (std::uint64_t *dim : {&rows, &cols, &nnz}) {
            s = skipSpace(s, s_end);
            ok = ok && s != s_end && parseUnsigned(s, s_end, *dim);
        }
        if (!ok)
            fatal("MatrixMarket: bad size line '", size_line, "'");
    }
    // A dimension of Index's maximum is refused too: every `rows + 1` /
    // `cols + 1` in Index arithmetic (cooToCsr, csrToCsc, the CSR and
    // CSC constructors) would wrap to 0.
    constexpr std::uint64_t kMaxDim = std::numeric_limits<Index>::max();
    if (rows >= kMaxDim || cols >= kMaxDim)
        fatal("MatrixMarket: size ", rows, " x ", cols,
              " exceeds the 32-bit index range (largest dimension ",
              kMaxDim - 1, ")");
    // Each entry is at least two one-digit tokens plus a separator, and
    // entries are separated too: n entries need at least 4n - 1 bytes.
    const auto remaining = static_cast<std::uint64_t>(end - p);
    if (nnz > (remaining + 1) / 4)
        fatal("MatrixMarket: nnz ", nnz, " exceeds what the remaining ",
              remaining, " bytes can hold");

    CooMatrix coo(static_cast<Index>(rows), static_cast<Index>(cols));
    std::vector<CooEntry> &entries = coo.entries();
    entries.reserve(symmetric ? nnz * 2 : nnz);
    for (std::uint64_t i = 0; i < nnz; ++i) {
        const auto index = [&] {
            std::uint64_t x = 0;
            p = skipSpace(p, end);
            if (p == end)
                fatal("MatrixMarket: truncated at entry ", i);
            if (!parseUnsigned(p, end, x))
                fatal("MatrixMarket: bad index at entry ", i);
            return x;
        };
        const std::uint64_t r = index();
        const std::uint64_t c = index();
        double v = 1.0;
        if (!pattern) {
            p = skipSpace(p, end);
            if (p == end)
                fatal("MatrixMarket: missing value at entry ", i);
            if (!parseValue(p, end, v))
                fatal("MatrixMarket: bad value at entry ", i);
            if (!std::isfinite(v))
                fatal("MatrixMarket: non-finite value at entry ", i);
        }
        if (r == 0 || c == 0 || r > rows || c > cols)
            fatal("MatrixMarket: 1-based index out of range at entry ", i);
        const auto row = static_cast<Index>(r - 1);
        const auto col = static_cast<Index>(c - 1);
        entries.push_back({row, col, v});
        if (symmetric && row != col)
            entries.push_back({col, row, v});
    }
    coo.sortAndCombine();
    return coo;
}

/**
 * Read everything left in `in` into one buffer. in_avail() is the exact
 * remainder for string streams and regular files, so those take one
 * allocation of their own size; other streams grow chunk by chunk.
 */
std::string
drain(std::istream &in)
{
    std::streambuf &src = *in.rdbuf();
    std::string buf;
    std::streamsize want = std::max<std::streamsize>(src.in_avail(), 0) + 1;
    for (;;) {
        const std::size_t used = buf.size();
        buf.resize(used + static_cast<std::size_t>(want));
        const std::streamsize got = src.sgetn(buf.data() + used, want);
        buf.resize(used + static_cast<std::size_t>(got));
        if (got < want)
            return buf;
        want = kReadChunk;
    }
}

} // namespace

CooMatrix
readMatrixMarket(std::istream &in)
{
    return parseMatrixMarket(drain(in));
}

CooMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("MatrixMarket: cannot open '", path, "'");
    return readMatrixMarket(in);
}

void
writeMatrixMarket(std::ostream &out, const CsrMatrix &m)
{
    std::string buf = "%%MatrixMarket matrix coordinate real general\n";
    char line[3 * (kFieldBytes + 1)];
    char *p = line;
    const auto put = [&p](auto v, char sep) {
        p = std::to_chars(p, p + kFieldBytes, v).ptr;
        *p++ = sep;
    };
    put(m.rows(), ' ');
    put(m.cols(), ' ');
    put(m.nnz(), '\n');
    buf.append(line, p);
    // Typical lines are "r c v\n" with short indices and ~8-char values.
    buf.reserve(buf.size() + m.nnz() * 20);
    for (Index r = 0; r < m.rows(); ++r) {
        auto cols = m.rowCols(r);
        auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            p = line;
            put(r + 1, ' ');
            put(cols[k] + 1, ' ');
            // %.6g: exactly what `ostream << double` prints by default.
            p = std::to_chars(p, p + kFieldBytes, vals[k],
                              std::chars_format::general, 6)
                    .ptr;
            *p++ = '\n';
            buf.append(line, p);
        }
    }
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

void
writeMatrixMarketFile(const std::string &path, const CsrMatrix &m)
{
    std::ofstream out(path);
    if (!out)
        fatal("MatrixMarket: cannot create '", path, "'");
    writeMatrixMarket(out, m);
}

} // namespace misam
