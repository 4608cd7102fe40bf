#include "hostspeed.hh"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

/** Lines of Matrix Market text one Text call parses. */
constexpr int kTextLines = 8000;

/** Keys one Sort call sorts. */
constexpr int kSortKeys = 32768;

/**
 * Thread CPU seconds of one call on an uncontended core of the
 * reference host, a KVM guest on a 2.1 GHz Xeon (Sapphire Rapids
 * family): the fastest calls seen there over several minutes.
 */
constexpr double kTextReferenceS = 2.0e-3;
constexpr double kSortReferenceS = 1.9e-3;

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t
lcg(std::uint64_t &x)
{
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x;
}

} // namespace

HostSpeed::HostSpeed(SpeedKernel kernel, double sensitivity)
    : kernel_(kernel), sensitivity_(sensitivity)
{
    std::uint64_t x = 12345;
    if (kernel_ == SpeedKernel::Text) {
        std::ostringstream out;
        for (int i = 0; i < kTextLines; ++i) {
            lcg(x);
            out << (x >> 40) % 5000 + 1 << ' ' << (x >> 20) % 5000 + 1 << ' '
                << static_cast<double>((x >> 11) % 100000) / 997.0 << '\n';
        }
        text_ = out.str();
    } else {
        for (int i = 0; i < kSortKeys; ++i)
            keys_.push_back(lcg(x));
    }
}

double
HostSpeed::runOnce()
{
    const double t0 = threadCpuSeconds();
    if (kernel_ == SpeedKernel::Text) {
        std::istringstream in(text_);
        std::vector<std::uint64_t> entries;
        entries.reserve(kTextLines);
        std::uint64_t r = 0, c = 0;
        double v = 0.0, sum = 0.0;
        while (in >> r >> c >> v) {
            sum += v;
            entries.push_back(r * 7919 + c);
        }
        std::sort(entries.begin(), entries.end());
        sink_ += entries[entries.size() / 2] + static_cast<std::uint64_t>(sum);
    } else {
        std::vector<std::uint64_t> keys = keys_;
        std::sort(keys.begin(), keys.end());
        std::vector<std::uint32_t> count(4096, 0);
        for (const std::uint64_t k : keys)
            ++count[k >> 52];
        sink_ += keys[keys.size() / 2] + count[7];
    }
    return threadCpuSeconds() - t0;
}

void
HostSpeed::sample(double budget_s)
{
    double spent = 0.0;
    int calls = 0;
    do {
        spent += runOnce();
        ++calls;
    } while (spent < budget_s);
    const double reference =
        kernel_ == SpeedKernel::Text ? kTextReferenceS : kSortReferenceS;
    gaps_.push_back(reference * calls / spent);
}

double
HostSpeed::speed() const
{
    if (gaps_.size() < 2)
        throw std::logic_error("HostSpeed::speed needs two samples");
    return 0.5 * (gaps_[gaps_.size() - 2] + gaps_.back());
}

double
HostSpeed::scale() const
{
    return std::pow(speed(), sensitivity_);
}

} // namespace perfbench
