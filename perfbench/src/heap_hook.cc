// Live-heap accounting for heap_bytes_per_sample: the benchmark binary
// replaces global operator new/delete with malloc/free wrappers that keep
// a running total of the bytes requested by live blocks. Each block
// carries its requested size in a small header, so the total does not
// depend on the allocator's rounding (glibc's mmap threshold moves at run
// time) and repeats bit for bit while a single thread allocates.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness.h"

namespace {

std::atomic<int64_t> g_live_bytes{0};

/// Sits immediately before every block handed out.
struct alignas(16) Header {
  std::size_t size;  ///< bytes the caller asked for
  void* base;        ///< what malloc/aligned_alloc returned
};

void* Allocate(std::size_t size, std::size_t align) {
  const std::size_t offset = align > sizeof(Header) ? align : sizeof(Header);
  void* base = nullptr;
  if (offset == sizeof(Header)) {
    base = std::malloc(size + offset);
  } else {
    base = std::aligned_alloc(align, (size + offset + align - 1) / align * align);
  }
  if (base == nullptr) throw std::bad_alloc();
  auto* user = static_cast<unsigned char*>(base) + offset;
  Header* header = reinterpret_cast<Header*>(user) - 1;
  header->size = size;
  header->base = base;
  g_live_bytes.fetch_add(static_cast<int64_t>(size), std::memory_order_relaxed);
  return user;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  Header* header = static_cast<Header*>(p) - 1;
  g_live_bytes.fetch_sub(static_cast<int64_t>(header->size),
                         std::memory_order_relaxed);
  std::free(header->base);
}

}  // namespace

namespace perfbench {

int64_t LiveHeapBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
