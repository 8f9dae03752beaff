// Seqlock: one writer publishes a small trivially copyable value; any
// number of readers copy it out without a lock and without writing
// shared memory.
//
// The value lives in atomic words beside a sequence counter that is odd
// while a store is under way. A reader loads the counter, the words and
// the counter again, and retries unless both counter loads read the same
// even value. Every access is an atomic, so a reader that overlaps a
// store reads torn words but never races; it just discards them. The
// words are stored with release and loaded with acquire (plain moves on
// x86-64), which is what keeps the second counter load from passing the
// word loads without a fence:
//  - a word load that reads a store's value synchronizes with it, so the
//    store's odd counter write is visible to the second counter load,
//    which then cannot equal the first;
//  - the first counter load acquires the even counter a store ended
//    with, so everything the writer did before that store — say,
//    appending the log entries a published view covers — is visible to
//    the reader once its copy validates.
#ifndef SBR_STORAGE_SEQLOCK_H_
#define SBR_STORAGE_SEQLOCK_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace sbr::storage {

template <typename T>
class Seqlock {
 public:
  Seqlock() { Store(T{}); }
  Seqlock(const Seqlock&) = delete;
  Seqlock& operator=(const Seqlock&) = delete;

  /// The value of the last completed Store. Any thread.
  T Load() const {
    // Word by word straight into the result: copying a word buffer out
    // in wider moves would stall on store forwarding.
    T out;
    auto* bytes = reinterpret_cast<unsigned char*>(&out);
    for (;;) {
      const uint64_t before = seq_.load(std::memory_order_acquire);
      for (size_t i = 0; i < kWords; ++i) {
        const uint64_t word = words_[i].load(std::memory_order_acquire);
        std::memcpy(bytes + 8 * i, &word, 8);
      }
      if ((before & 1) == 0 &&
          seq_.load(std::memory_order_relaxed) == before) {
        return out;
      }
    }
  }

  /// Publishes `value`. One writer at a time.
  void Store(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) % 8 == 0);
    uint64_t words[kWords];
    std::memcpy(words, &value, sizeof(T));
    const uint64_t seq = seq_.load(std::memory_order_relaxed);
    seq_.store(seq + 1, std::memory_order_relaxed);
    for (size_t i = 0; i < kWords; ++i) {
      words_[i].store(words[i], std::memory_order_release);
    }
    seq_.store(seq + 2, std::memory_order_release);
  }

 private:
  static constexpr size_t kWords = sizeof(T) / 8;

  std::atomic<uint64_t> seq_{0};
  std::atomic<uint64_t> words_[kWords] = {};
};

}  // namespace sbr::storage

#endif  // SBR_STORAGE_SEQLOCK_H_
