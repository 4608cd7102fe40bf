#include "sparse/coo.hh"

#include <algorithm>

#include "util/logging.hh"

namespace misam {

double
CooMatrix::density() const
{
    if (rows_ == 0 || cols_ == 0)
        return 0.0;
    return static_cast<double>(entries_.size()) /
           (static_cast<double>(rows_) * static_cast<double>(cols_));
}

void
CooMatrix::addEntry(Index row, Index col, Value value)
{
    if (row >= rows_ || col >= cols_)
        panic("CooMatrix::addEntry: index (", row, ",", col,
              ") out of range for ", rows_, "x", cols_);
    entries_.push_back({row, col, value});
}

void
CooMatrix::sortAndCombine()
{
    if (isCanonical())
        return;
    std::sort(entries_.begin(), entries_.end());
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (out > 0 && entries_[out - 1].row == entries_[i].row &&
            entries_[out - 1].col == entries_[i].col) {
            entries_[out - 1].value += entries_[i].value;
        } else {
            entries_[out++] = entries_[i];
        }
    }
    entries_.resize(out);
}

bool
CooMatrix::isCanonical() const
{
    for (std::size_t i = 1; i < entries_.size(); ++i) {
        const auto &prev = entries_[i - 1];
        const auto &cur = entries_[i];
        const bool sorted = prev < cur;
        if (!sorted)
            return false;
    }
    return true;
}

} // namespace misam
