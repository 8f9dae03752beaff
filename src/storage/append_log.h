// AppendLog: an append-only sequence whose copies share storage.
//
// A log is a handle {shared store, directory, size}: copying one copies a
// shared_ptr and two words, never an element and never a per-element
// reference count, and a handle only reads entries below its own size.
// Entries below any handle's size are never written again, so a reader
// working on a copy and the writer appending to the original never touch
// the same memory.
//
// A View is the same {directory, size} pair without the store: trivially
// copyable, so the query service publishes it under a seqlock
// (storage/seqlock.h) and readers index the log through it with no
// reference count at all. A view stays valid while its store lives, and
// a store never frees a directory or a block before it dies: when the
// directory fills it is replaced by a copy twice its size, and the
// replaced one stays with the store because older views and handles
// still read through it. Directory slots, like entries, are written
// once, before any handle or view can cover them. Prefix() turns a view
// back into a handle that holds the store.
//
// Appending claims the next slots with one compare-and-swap on the
// store's claimed count, however many entries an Append adds. A handle
// that loses it — a copy that fell behind because its original, or
// another copy, appended first — forks: it moves to a private store that
// shares every full block and deep-copies the partial one, then appends
// there. Logs therefore keep value semantics. The publish path never
// forks: snapshots only read.
//
// Blocks hold 1, 2, 4, ..., 64 entries, then 64 each, so a log leaves at
// most 63 entries unused.
#ifndef SBR_STORAGE_APPEND_LOG_H_
#define SBR_STORAGE_APPEND_LOG_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace sbr::storage {

/// Append-only vector of T with O(1) copies; T must be default
/// constructible and copy assignable.
template <typename T>
class AppendLog {
  using Block = std::shared_ptr<T[]>;

 public:
  /// Entries [0, size()) of a log, read through the directory they were
  /// appended under. Valid while the log's store lives. Trivial, so a
  /// seqlock reader builds one without first zeroing it; View{} is empty.
  class View {
   public:
    size_t size() const { return size_; }
    const T& operator[](size_t i) const {
      assert(i < size_);
      const Slot s = Locate(i);
      return dir_[s.block].get()[s.offset];
    }

   private:
    friend class AppendLog;
    const Block* dir_;
    size_t size_;
  };

  AppendLog() = default;
  AppendLog(const AppendLog&) = default;
  AppendLog& operator=(const AppendLog&) = default;
  // A moved-from log is empty (and may be appended to again).
  AppendLog(AppendLog&& other) noexcept
      : store_(std::move(other.store_)),
        dir_(std::exchange(other.dir_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AppendLog& operator=(AppendLog&& other) noexcept {
    store_ = std::move(other.store_);
    dir_ = std::exchange(other.dir_, nullptr);
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](size_t i) const { return view()[i]; }
  const T& back() const { return (*this)[size_ - 1]; }

  View view() const {
    View v;
    v.dir_ = dir_;
    v.size_ = size_;
    return v;
  }

  /// A handle on entries [0, v.size()) of this log's store, for a view
  /// `v` taken of this log (or of a handle sharing its store) earlier.
  /// Reads nothing an appender writes, so any thread may call it while
  /// the log appends — once the view covers an entry, the store exists
  /// and stays this log's until it forks.
  AppendLog Prefix(const View& v) const {
    AppendLog out;
    if (v.size_ == 0) return out;
    out.store_ = store_;
    out.dir_ = const_cast<Block*>(v.dir_);
    out.size_ = v.size_;
    return out;
  }

  void push_back(T value) {
    Claim(1);
    Put(std::move(value));
  }

  /// Appends `n` entries under one claim: entry i is make(i), called in
  /// order after entries 0 .. i-1 are readable, so it may read them.
  template <typename Make>
  void Append(size_t n, Make&& make) {
    if (n == 0) return;
    Claim(n);
    for (size_t i = 0; i < n; ++i) Put(make(i));
  }

 private:
  static constexpr size_t kMaxBlockLog2 = 6;
  static constexpr size_t kMaxBlock = size_t{1} << kMaxBlockLog2;
  /// Entries in the growing blocks 1, 2, ..., kMaxBlock.
  static constexpr size_t kRampEntries = 2 * kMaxBlock - 1;
  /// Slots of a store's first directory: the ramp plus one full block.
  static constexpr size_t kFirstDirectory = kMaxBlockLog2 + 2;

  struct Slot {
    size_t block;
    size_t offset;
  };

  static Slot Locate(size_t i) {
    if (i < kRampEntries) {
      const size_t b = static_cast<size_t>(std::bit_width(i + 1)) - 1;
      return {b, i + 1 - (size_t{1} << b)};
    }
    const size_t j = i - kRampEntries;
    return {kMaxBlockLog2 + 1 + (j >> kMaxBlockLog2), j & (kMaxBlock - 1)};
  }

  static size_t BlockCapacity(size_t block) {
    return block <= kMaxBlockLog2 ? size_t{1} << block : kMaxBlock;
  }

  struct Store {
    /// Entries handed out; only the handle whose size equals it appends.
    std::atomic<size_t> claimed{0};
    // Appender-only state, ordered between successive appenders by the
    // CAS on `claimed`: every directory the store has had, newest last,
    // and the newest one's slot count.
    std::vector<std::unique_ptr<Block[]>> dirs;
    size_t capacity = 0;
  };

  /// Claims slots [size_, size_ + n) of the store, forking if another
  /// handle claimed them first.
  void Claim(size_t n) {
    if (store_ == nullptr) store_ = std::make_shared<Store>();
    size_t expected = size_;
    if (!store_->claimed.compare_exchange_strong(
            expected, size_ + n, std::memory_order_acq_rel)) {
      Fork(n);
    }
  }

  /// Writes the next claimed slot.
  void Put(T value) {
    const Slot s = Locate(size_);
    if (s.offset == 0) AddBlock(s.block);
    dir_[s.block].get()[s.offset] = std::move(value);
    ++size_;
  }

  /// Allocates block `b` (and a larger directory when `b` overflows it).
  void AddBlock(size_t b) {
    Store& store = *store_;
    assert(store.dirs.empty() || dir_ == store.dirs.back().get());
    if (b == store.capacity) {
      const size_t grown =
          store.capacity == 0 ? kFirstDirectory : 2 * store.capacity;
      auto dir = std::make_unique<Block[]>(grown);
      std::copy_n(dir_, b, dir.get());
      dir_ = dir.get();
      store.dirs.push_back(std::move(dir));
      store.capacity = grown;
    }
    dir_[b] = std::make_shared<T[]>(BlockCapacity(b));
  }

  /// Moves this handle to a private store holding its first size_
  /// entries, with slots [size_, size_ + n) already claimed: full blocks
  /// are shared, the partial one is copied.
  void Fork(size_t n) {
    const Slot end = Locate(size_);
    const size_t used = end.block + (end.offset > 0 ? 1 : 0);
    auto store = std::make_shared<Store>();
    store->capacity = std::max(kFirstDirectory, std::bit_ceil(used));
    auto dir = std::make_unique<Block[]>(store->capacity);
    std::copy_n(dir_, end.block, dir.get());
    if (end.offset > 0) {
      dir[end.block] = std::make_shared<T[]>(BlockCapacity(end.block));
      std::copy_n(dir_[end.block].get(), end.offset,
                  dir[end.block].get());
    }
    store->claimed.store(size_ + n, std::memory_order_relaxed);
    dir_ = dir.get();
    store->dirs.push_back(std::move(dir));
    store_ = std::move(store);
  }

  std::shared_ptr<Store> store_;
  /// The directory this handle reads through; covers every entry below
  /// size_ (the store's newest directory while this handle appends).
  Block* dir_ = nullptr;
  size_t size_ = 0;
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_APPEND_LOG_H_
