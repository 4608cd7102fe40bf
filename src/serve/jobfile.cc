#include "serve/jobfile.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "sparse/convert.hh"
#include "sparse/fingerprint.hh"
#include "sparse/generate.hh"
#include "sparse/io.hh"
#include "util/logging.hh"

namespace misam {

/**
 * The operand of a path named more than once in one job file. The first
 * load reads and fingerprints it, later loads copy it, and the last
 * counted load takes it, leaving the slot empty.
 */
struct SharedOperand
{
    std::mutex mutex;
    std::size_t remaining = 0; ///< Counted loads still to come.
    std::optional<CsrMatrix> matrix;
};

namespace {

/** True when a spec's `b` names a Matrix Market file. */
bool
namesFile(const std::string &b_path)
{
    return !b_path.empty() && b_path != "self";
}

/** Read a path's operand, through its shared slot when it has one. */
CsrMatrix
loadOperand(const std::string &path, SharedOperand *slot)
{
    if (!slot)
        return cooToCsr(readMatrixMarketFile(path));
    const std::lock_guard<std::mutex> lock(slot->mutex);
    if (slot->remaining == 0) // Loaded more often than counted.
        return cooToCsr(readMatrixMarketFile(path));
    if (!slot->matrix) {
        slot->matrix = cooToCsr(readMatrixMarketFile(path));
        (void)fingerprintMatrix(*slot->matrix); // Copies carry the memo.
    }
    if (--slot->remaining > 0)
        return *slot->matrix;
    CsrMatrix last = std::move(*slot->matrix);
    slot->matrix.reset();
    return last;
}

/**
 * Minimal parser for one flat JSON object: string keys mapped to
 * string, number, or boolean values. No nesting — the job schema is
 * flat by design. Fatal (naming the file:line) on anything malformed.
 */
class FlatJsonParser
{
  public:
    FlatJsonParser(const std::string &line, const std::string &where)
        : s_(line), where_(where)
    {
    }

    /** Parse `{"k":v,...}`; calls field(key, ...) per member. */
    template <typename FieldFn>
    void
    parseObject(FieldFn &&field)
    {
        skipSpace();
        expect('{');
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            skipSpace();
            const std::string key = parseString();
            skipSpace();
            expect(':');
            skipSpace();
            field(key);
            skipSpace();
            const char c = next();
            if (c == '}')
                break;
            if (c != ',')
                fail("expected ',' or '}'");
        }
        skipSpace();
        if (pos_ != s_.size())
            fail("trailing characters after object");
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    fail("dangling escape");
                const char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  default:
                    fail("unsupported escape '\\", std::string(1, e),
                         "'");
                }
            } else {
                out += c;
            }
        }
    }

    /** A finite number whose whole token strtod consumes. */
    double
    parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
                s_[pos_] == 'e' || s_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            fail("expected a number");
        const std::string token = s_.substr(start, pos_ - start);
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size() || !std::isfinite(value)) {
            pos_ = start;
            fail("bad number '", token, "'");
        }
        return value;
    }

    /** Whatever value comes next, discarded (for unknown keys). */
    void
    skipValue()
    {
        if (peek() == '"') {
            parseString();
        } else if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            parseNumber();
        }
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args) const
    {
        fatal(where_, ": ", std::forward<Args>(args)...,
              " (column ", pos_ + 1, ")");
    }

  private:
    char
    next()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of line");
        return s_[pos_++];
    }

    void
    expect(char c)
    {
        if (next() != c)
            fail("expected '", std::string(1, c), "'");
    }

    void
    skipSpace()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    const std::string &s_;
    const std::string &where_;
    std::size_t pos_ = 0;
};

} // namespace

std::vector<ServeJobSpec>
parseJobFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("parseJobFile: cannot open ", path);

    std::vector<ServeJobSpec> specs;
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;

        const std::string where = path + ":" + std::to_string(lineno);
        FlatJsonParser parser(line, where);
        ServeJobSpec spec;
        spec.name = "job" + std::to_string(specs.size());
        parser.parseObject([&](const std::string &key) {
            if (key == "name") {
                spec.name = parser.parseString();
            } else if (key == "a") {
                spec.a_path = parser.parseString();
            } else if (key == "b") {
                spec.b_path = parser.parseString();
            } else if (key == "dense_cols") {
                constexpr Index kMax = std::numeric_limits<Index>::max();
                const double cols = parser.parseNumber();
                if (cols < 1.0 || cols > kMax || cols != std::floor(cols))
                    parser.fail("dense_cols must be an integer in [1, ",
                                kMax, "]");
                spec.dense_cols = static_cast<Index>(cols);
            } else if (key == "repetitions") {
                spec.repetitions = parser.parseNumber();
            } else {
                warn(where, ": ignoring unknown job key '", key, "'");
                parser.skipValue();
            }
        });
        if (spec.a_path.empty())
            fatal(where, ": job is missing required key 'a'");
        if (namesFile(spec.b_path) && spec.dense_cols > 0)
            fatal(where, ": 'b' and 'dense_cols' are mutually exclusive");
        if (spec.repetitions < 1.0)
            fatal(where, ": repetitions must be >= 1");
        specs.push_back(std::move(spec));
    }

    // Count every path's operand references; a path referenced twice
    // or more gets one slot, shared by the specs that name it.
    std::unordered_map<std::string, std::shared_ptr<SharedOperand>> slots;
    const auto count = [&](const std::string &p) {
        std::shared_ptr<SharedOperand> &slot = slots[p];
        if (!slot)
            slot = std::make_shared<SharedOperand>();
        ++slot->remaining;
    };
    const auto shared = [&](const std::string &p) {
        const std::shared_ptr<SharedOperand> &slot = slots.at(p);
        return slot->remaining > 1 ? slot : nullptr;
    };
    for (const ServeJobSpec &spec : specs) {
        count(spec.a_path);
        if (namesFile(spec.b_path))
            count(spec.b_path);
    }
    for (ServeJobSpec &spec : specs) {
        spec.a_shared = shared(spec.a_path);
        if (namesFile(spec.b_path))
            spec.b_shared = shared(spec.b_path);
    }
    return specs;
}

BatchJob
loadServeJob(const ServeJobSpec &spec)
{
    BatchJob job;
    job.name = spec.name;
    job.repetitions = spec.repetitions;
    job.a = loadOperand(spec.a_path, spec.a_shared.get());
    if (namesFile(spec.b_path)) {
        job.b = loadOperand(spec.b_path, spec.b_shared.get());
    } else if (spec.dense_cols > 0) {
        requireDenseCsrFits(job.a.cols(), spec.dense_cols,
                            "loadServeJob: job '" + spec.name + "'");
        // Same convention as the CLI's --dense-cols flag.
        Rng rng(1);
        job.b = generateDenseCsr(job.a.cols(), spec.dense_cols, rng);
    } else {
        if (job.a.rows() != job.a.cols())
            fatal("loadServeJob: job '", spec.name,
                  "' defaults to B = A but A is not square; give 'b' "
                  "or 'dense_cols'");
        job.b = job.a;
    }
    return job;
}

std::vector<BatchJob>
loadJobFile(const std::string &path)
{
    std::vector<BatchJob> jobs;
    for (const ServeJobSpec &spec : parseJobFile(path))
        jobs.push_back(loadServeJob(spec));
    return jobs;
}

} // namespace misam
