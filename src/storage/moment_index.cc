#include "storage/moment_index.h"

#include <bit>
#include <cassert>

namespace sbr::storage {

MomentSummary MomentIndex::Group(size_t signal, size_t k, size_t n) const {
  const size_t node = (n >> k) - 1;
  const View v = view();
  MomentSummary merged = v.Node(signal, k - 1, 2 * node);
  merged.Merge(v.Node(signal, k - 1, 2 * node + 1));
  return merged;
}

MomentSummary MomentIndex::View::Query(size_t signal, size_t lo,
                                       size_t hi) const {
  assert(hi <= size() && lo <= hi && signal < width_);
  MomentSummary out;
  while (lo < hi) {
    // Largest aligned power-of-two group starting at lo that fits in the
    // remaining range; both caps keep every referenced node complete.
    size_t k = lo == 0 ? static_cast<size_t>(std::bit_width(hi - lo)) - 1
                       : static_cast<size_t>(std::countr_zero(lo));
    const size_t span_k = static_cast<size_t>(std::bit_width(hi - lo)) - 1;
    k = std::min(k, span_k);
    out.Merge(Node(signal, k, lo >> k));
    lo += size_t{1} << k;
  }
  return out;
}

size_t MomentIndex::View::FirstGap(size_t signal, size_t lo, size_t hi) const {
  assert(hi <= size() && lo <= hi && signal < width_);
  while (lo < hi) {
    size_t k = lo == 0 ? static_cast<size_t>(std::bit_width(hi - lo)) - 1
                       : static_cast<size_t>(std::countr_zero(lo));
    const size_t span_k = static_cast<size_t>(std::bit_width(hi - lo)) - 1;
    k = std::min(k, span_k);
    if (Node(signal, k, lo >> k).has_gap) {
      return DescendToGap(signal, k, lo >> k);
    }
    lo += size_t{1} << k;
  }
  return hi;
}

size_t MomentIndex::View::DescendToGap(size_t signal, size_t level,
                                       size_t i) const {
  while (level > 0) {
    // A gap node always has a gap child; prefer the left one (lowest
    // chunk index, matching the legacy ascending scan's first failure).
    if (Node(signal, level - 1, 2 * i).has_gap) {
      i = 2 * i;
    } else {
      assert(Node(signal, level - 1, 2 * i + 1).has_gap);
      i = 2 * i + 1;
    }
    --level;
  }
  return i;
}

}  // namespace sbr::storage
