// Counting global allocator for the zero-allocation and allocation-budget
// tests. It replaces the global operator new/delete, so include it from
// exactly one translation unit per test binary (each test binary here is
// one .cc file).
//
// The plain and nothrow forms are replaced, and every delete that may
// receive their pointers (the library's temporary buffers take nothrow new
// and give back through sized delete), so no pointer crosses between this
// allocator and the default one. GCC flags free() on a pointer it watched
// come out of a new-expression — a false positive once the global
// operators are replaced with malloc/free in this TU.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace alloc_counter_detail {
inline std::atomic<std::size_t> g_allocation_count{0};
}  // namespace alloc_counter_detail

/// operator new calls since the binary started, on any thread.
inline std::size_t test_allocation_count() {
  return alloc_counter_detail::g_allocation_count.load(
      std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  alloc_counter_detail::g_allocation_count.fetch_add(
      1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  alloc_counter_detail::g_allocation_count.fetch_add(
      1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
