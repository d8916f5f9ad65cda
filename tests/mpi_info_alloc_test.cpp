// Allocation budget of mpi::Info. This binary replaces the global operator
// new with a counting one, so it pins the mechanism behind the flat layout:
// lookups through long keys allocate nothing, and a copy costs a bounded
// number of allocations whatever the entry count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <string_view>

#include "calciom/arbiter_core.hpp"
#include "calciom/descriptor.hpp"
#include "mpi/info.hpp"

namespace {
// Plain counter: the tests below run on one thread.
std::size_t gAllocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++gAllocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using calciom::core::IoDescriptor;
using calciom::mpi::Info;
namespace msg = calciom::core::msg;

/// Allocations made by `fn`.
template <typename Fn>
std::size_t allocationsOf(Fn&& fn) {
  const std::size_t before = gAllocations;
  fn();
  return gAllocations - before;
}

/// An Inform as a hardened session sends it: every descriptor field plus
/// the protocol stamps.
Info populatedInform() {
  IoDescriptor d;
  d.appId = 7;
  d.appName = "an application name past the small-string limit";
  d.cores = 2048;
  d.totalBytes = 1ull << 40;
  d.files = 3;
  d.roundsPerFile = 12;
  d.bytesPerRound = 1ull << 28;
  d.estAloneSeconds = 812.25;
  Info info = d.toInfo();
  info.set(msg::kType, msg::kInform);
  info.setInt(msg::kSeq, 123456);
  info.setInt(msg::kEpoch, 9);
  info.setInt(msg::kIncarnation, 4);
  info.setDouble(msg::kProgress, 0.5);
  info.set(msg::kSessionState, "accessing");
  return info;
}

TEST(InfoAllocationTest, CounterSeesATemporaryStringBuiltFromALongKey) {
  // The failure mode this binary guards against, shown on the map layout
  // the flat Info replaced: a const char* key past 15 characters becomes a
  // heap-allocated std::string on every lookup.
  const std::map<std::string, std::string> map = {
      {IoDescriptor::kEstAlone, "1.0"}};
  std::size_t found = 0;
  const std::size_t n =
      allocationsOf([&] { found = map.count(IoDescriptor::kEstAlone); });
  EXPECT_EQ(found, 1u);
  EXPECT_GE(n, 1u);
}

TEST(InfoAllocationTest, LookupsThroughLongKeysAllocateNothing) {
  const Info info = populatedInform();
  // Keys past the small-string limit, hits and misses alike.
  const char* const longKeys[] = {
      IoDescriptor::kEstAlone,      IoDescriptor::kBytesPerRound,
      IoDescriptor::kTotalBytes,    IoDescriptor::kRounds,
      IoDescriptor::kAppName,       msg::kIncarnation,
      msg::kSessionState,           msg::kArbiterIncarnation,
      msg::kProgress,               "calciom.no_such_key_anywhere"};
  for (const char* key : longKeys) {
    ASSERT_GT(std::string_view(key).size(), 15u) << key;
    const std::size_t n = allocationsOf([&] {
      (void)info.get(key);
      (void)info.getInt(key);
      (void)info.getDouble(key);
      (void)info.getIntOr(key, 0);
      (void)info.getDoubleOr(key, 0.0);
      (void)info.has(key);
    });
    EXPECT_EQ(n, 0u) << key;
  }
  // The values come back intact, with no allocation either.
  std::optional<std::string_view> name;
  std::optional<double> estAlone;
  std::optional<std::int64_t> seq;
  EXPECT_EQ(allocationsOf([&] {
              name = info.get(IoDescriptor::kAppName);
              estAlone = info.getDouble(IoDescriptor::kEstAlone);
              seq = info.getInt(msg::kSeq);
            }),
            0u);
  EXPECT_EQ(name, "an application name past the small-string limit");
  EXPECT_EQ(estAlone, 812.25);
  EXPECT_EQ(seq, 123456);
  // The descriptor decode is lookups only, apart from the name it copies
  // out (one allocation: the name is past the small-string limit).
  EXPECT_EQ(allocationsOf([&] { (void)IoDescriptor::fromInfo(info); }), 1u);
}

TEST(InfoAllocationTest, CopyCostIsBoundedAndFlatInTheEntryCount) {
  // One buffer holds every entry: a copy is one allocation at 4 entries
  // and still one at 64 (the map layout paid a node per entry, plus one
  // string per key past 15 characters).
  for (const int entries : {4, 16, 64}) {
    Info info;
    for (int i = 0; i < entries; ++i) {
      info.setInt("calciom.synthetic_key_" + std::to_string(i), i);
    }
    std::optional<Info> copy;
    EXPECT_EQ(allocationsOf([&] { copy.emplace(info); }), 1u)
        << entries << " entries";
    EXPECT_EQ(*copy, info);
  }
}

}  // namespace
