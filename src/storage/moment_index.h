// Hierarchical moment index: O(log n) compressed-domain aggregates over a
// chunk timeline.
//
// Each leaf is the exact `MomentSummary` {count, sum, sumsq, min, max,
// has_gap} of one (chunk, signal), folded at ingest with the query
// engine's own per-interval arithmetic. Above the leaves sits an implicit
// forest of power-of-two summary nodes: level k node i summarizes the
// aligned chunk group [i * 2^k, (i + 1) * 2^k) and is materialized the
// moment its last leaf arrives, so the whole structure is append-only —
// a node, once written, is never touched again.
//
// An aggregate over chunk range [lo, hi) decomposes into at most
// 2 * log2(n) aligned nodes (the standard sparse-segment decomposition),
// every one of which exists because complete ranges only reference
// complete groups. Gap chunks (protocol DataLoss) contribute `has_gap`
// leaves; the flag ORs upward, so a wide range touching a lost chunk
// fails in O(log n) too, and `FirstGap` descends the same nodes to name
// the offending chunk without a linear walk.
//
// Storage: one index serves every signal of a timeline. Node (k, i) of
// each of its `width` signals sits side by side in one slot, and all
// slots live in a single AppendLog (storage/append_log.h) in the order
// they are appended; a chunk's leaf slot and every group slot it
// completes go in with one append. Queries run on a View — the node
// log's view plus the width and leaf count, trivially copyable — which
// the QueryService publishes per epoch (storage/query_service.h).
// Readers of a view touch only nodes below its size, which the writer
// never writes again.
#ifndef SBR_STORAGE_MOMENT_INDEX_H_
#define SBR_STORAGE_MOMENT_INDEX_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "storage/append_log.h"

namespace sbr::storage {

/// Exact moments of one chunk range of one signal, combinable in O(1).
struct MomentSummary {
  double sum = 0.0;
  double sumsq = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  size_t count = 0;
  /// True if any covered chunk is a declared loss gap.
  bool has_gap = false;

  /// Folds `other` into this summary (order: this, then other — matching
  /// an ascending-chunk walk).
  void Merge(const MomentSummary& other) {
    sum += other.sum;
    sumsq += other.sumsq;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    has_gap = has_gap || other.has_gap;
  }

  /// The summary of a lost chunk: no samples, only the gap flag.
  static MomentSummary Gap() {
    MomentSummary s;
    s.has_gap = true;
    return s;
  }
};

/// Append-only hierarchical index over the per-chunk summaries of `width`
/// signals.
class MomentIndex {
 public:
  /// The index as of one moment: what queries read. Trivial, like
  /// AppendLog::View (View{} is the view of no index, width 0); valid
  /// while the index's node log lives.
  class View {
   public:
    /// Signals per chunk (0 for the view of no index).
    size_t width() const { return width_; }
    /// Chunks covered.
    size_t size() const { return leaves_; }

    /// Fold of `signal` over chunk range [lo, hi), half-open,
    /// hi <= size(). Touches at most 2 * log2(size()) nodes. An empty
    /// range returns the identity.
    MomentSummary Query(size_t signal, size_t lo, size_t hi) const;

    /// Lowest chunk index in [lo, hi) whose `signal` leaf has_gap, or
    /// `hi` if none. Same node decomposition as Query plus one
    /// root-to-leaf descent.
    size_t FirstGap(size_t signal, size_t lo, size_t hi) const;

   private:
    friend class MomentIndex;

    /// Node (k, i) summarizes chunks [i * 2^k, (i + 1) * 2^k). Its slot
    /// is appended right after leaf L = (i + 1) * 2^k - 1 and that leaf's
    /// lower-level nodes; 2j - popcount(j) slots precede leaf j, and a
    /// slot holds one summary per signal.
    const MomentSummary& Node(size_t signal, size_t k, size_t i) const {
      const size_t last = ((i + 1) << k) - 1;
      return nodes_[(2 * last - PopCount(last) + k) * width_ + signal];
    }

    /// Descends from `signal`'s node (level, i) to its leftmost gap leaf.
    size_t DescendToGap(size_t signal, size_t level, size_t i) const;

    AppendLog<MomentSummary>::View nodes_;
    size_t width_;
    size_t leaves_;
  };

  explicit MomentIndex(size_t width = 1) : width_(width) {}
  MomentIndex(const MomentIndex&) = default;
  MomentIndex& operator=(const MomentIndex&) = default;
  // A moved-from index is empty, like its node log.
  MomentIndex(MomentIndex&& other) noexcept
      : width_(other.width_),
        nodes_(std::move(other.nodes_)),
        leaves_(std::exchange(other.leaves_, 0)) {}
  MomentIndex& operator=(MomentIndex&& other) noexcept {
    width_ = other.width_;
    nodes_ = std::move(other.nodes_);
    leaves_ = std::exchange(other.leaves_, 0);
    return *this;
  }

  /// Signals per chunk.
  size_t width() const { return width_; }

  /// Chunks appended so far (== chunks on the timeline).
  size_t size() const { return leaves_; }

  View view() const {
    View v;
    v.nodes_ = nodes_.view();
    v.width_ = width_;
    v.leaves_ = leaves_;
    return v;
  }

  /// A read-only index holding this one's node log, as of view `v` (a
  /// view() of this index taken earlier). Like AppendLog::Prefix it
  /// reads nothing AppendChunk writes.
  MomentIndex Prefix(const View& v) const {
    MomentIndex out(width_);
    out.nodes_ = nodes_.Prefix(v.nodes_);
    out.leaves_ = v.leaves_;
    return out;
  }

  /// Appends the next chunk: leaf(s) is its summary of signal s, called
  /// for s = 0 .. width() - 1 in order. Its slot and the slot of every
  /// power-of-two group it completes are appended with one claim
  /// (amortized O(1) merges per chunk).
  template <typename Leaf>
  void AppendChunk(Leaf&& leaf) {
    const size_t n = leaves_ + 1;
    // Completing leaf n - 1 completes the aligned 2^k group ending at n
    // for every k dividing n.
    const size_t groups = static_cast<size_t>(std::countr_zero(n));
    nodes_.Append((1 + groups) * width_, [&](size_t i) {
      return i < width_ ? leaf(i) : Group(i % width_, i / width_, n);
    });
    leaves_ = n;
    assert(nodes_.size() == (2 * n - PopCount(n)) * width_);
  }

  MomentSummary Query(size_t signal, size_t lo, size_t hi) const {
    return view().Query(signal, lo, hi);
  }
  size_t FirstGap(size_t signal, size_t lo, size_t hi) const {
    return view().FirstGap(signal, lo, hi);
  }

 private:
  /// Bit count without a library call: std::popcount becomes one on
  /// x86-64 builds without POPCNT, and Query resolves a node per step.
  static size_t PopCount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<size_t>((x * 0x0101010101010101ULL) >> 56);
  }

  /// `signal`'s level-k node ending at leaf n - 1: the merge of its two
  /// level k-1 halves, both already in the log.
  MomentSummary Group(size_t signal, size_t k, size_t n) const;

  size_t width_ = 1;
  /// Every slot, in append (post-)order.
  AppendLog<MomentSummary> nodes_;
  size_t leaves_ = 0;
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_MOMENT_INDEX_H_
