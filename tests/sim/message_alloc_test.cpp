// Allocation regression for the DES message path (DESIGN.md §17): a
// perfect-network replay allocates per slab chunk and per container
// doubling, never per message. This binary replaces the global operator
// new to count calls, so it is built on its own and skipped under
// sanitizers (which own the allocator).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <vector>

#include "sim/access_replay.hpp"
#include "testing/builders.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DREP_ALLOC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DREP_ALLOC_TEST_SANITIZED 1
#endif
#endif

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

}  // namespace

#ifndef DREP_ALLOC_TEST_SANITIZED

void* operator new(std::size_t size) {
  if (counting.load(std::memory_order_relaxed))
    allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

#endif  // DREP_ALLOC_TEST_SANITIZED

namespace drep::sim {
namespace {

/// operator new calls made by one perfect-network replay of `trace`.
std::uint64_t replay_allocations(const core::ReplicationScheme& scheme,
                                 std::span<const workload::Request> trace) {
  allocations.store(0);
  counting.store(true);
  const ReplayResult result = replay_trace(scheme, trace);
  counting.store(false);
  EXPECT_GT(result.traffic.total_messages(), trace.size());
  return allocations.load();
}

TEST(MessagePathAllocations, GrowWithSlabChunksNotMessages) {
#ifdef DREP_ALLOC_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer builds own operator new";
#else
  const core::Problem problem = testing::small_random_problem(
      /*seed=*/3, /*sites=*/12, /*objects=*/15, /*update_percent=*/20.0);
  core::ReplicationScheme scheme(problem);
  util::Rng rng(17);
  for (int step = 0; step < 40; ++step) {
    scheme.add(static_cast<core::SiteId>(rng.index(problem.sites())),
               static_cast<core::ObjectId>(rng.index(problem.objects())));
  }
  constexpr std::size_t kRequests = 40'000;
  std::vector<workload::Request> trace;
  trace.reserve(2 * kRequests);
  for (std::size_t i = 0; i < 2 * kRequests; ++i) {
    trace.push_back({static_cast<core::SiteId>(rng.index(problem.sites())),
                     static_cast<core::ObjectId>(rng.index(problem.objects())),
                     rng.bernoulli(0.2)});
  }
  const std::span<const workload::Request> all(trace);

  (void)replay_allocations(scheme, all.first(kRequests));  // warm statics
  const std::uint64_t single = replay_allocations(scheme, all.first(kRequests));
  const std::uint64_t twice = replay_allocations(scheme, all);
  // N more requests send well over N more messages. Per-message allocation
  // would add at least that many calls; the slabs add one per 4096 slots and
  // the queue's vectors one per doubling.
  EXPECT_GE(twice, single);
  EXPECT_LT(twice - single, 64u)
      << "single=" << single << " twice=" << twice;
#endif
}

}  // namespace
}  // namespace drep::sim
