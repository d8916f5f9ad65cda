// Unit tests for the MPI layer: Info dictionaries, collective cost models,
// and cross-application ports.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/info.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace {

using calciom::mpi::Communicator;
using calciom::mpi::CommCosts;
using calciom::mpi::Info;
using calciom::mpi::PortRegistry;
using calciom::sim::Engine;
using calciom::sim::Xoshiro256;

TEST(InfoTest, SetGetRoundTrip) {
  Info info;
  info.set("pattern", "strided");
  EXPECT_EQ(info.get("pattern"), "strided");
  EXPECT_EQ(info.get("missing"), std::nullopt);
  EXPECT_TRUE(info.has("pattern"));
  EXPECT_EQ(info.size(), 1u);
}

TEST(InfoTest, TypedAccessors) {
  Info info;
  info.setInt("files", 4);
  info.setDouble("bytes", 16.5e6);
  EXPECT_EQ(info.getInt("files"), 4);
  EXPECT_NEAR(*info.getDouble("bytes"), 16.5e6, 1.0);
  EXPECT_EQ(info.getIntOr("rounds", 7), 7);
  EXPECT_DOUBLE_EQ(info.getDoubleOr("alone", 2.5), 2.5);
}

TEST(InfoTest, MalformedNumbersReturnNullopt) {
  Info info;
  info.set("x", "not-a-number");
  EXPECT_EQ(info.getInt("x"), std::nullopt);
  EXPECT_EQ(info.getDouble("x"), std::nullopt);
}

TEST(InfoTest, EraseAndKeysAreDeterministic) {
  Info info;
  info.set("b", "2");
  info.set("a", "1");
  info.set("c", "3");
  info.erase("b");
  EXPECT_EQ(info.keys(), (std::vector<std::string>{"a", "c"}));
}

TEST(InfoTest, MergePrefersOther) {
  Info a;
  a.set("k", "old");
  a.set("only_a", "1");
  Info b;
  b.set("k", "new");
  b.set("only_b", "2");
  a.merge(b);
  EXPECT_EQ(a.get("k"), "new");
  EXPECT_EQ(a.get("only_a"), "1");
  EXPECT_EQ(a.get("only_b"), "2");
}

TEST(InfoTest, EqualityIsStructural) {
  Info a;
  a.set("x", "1");
  Info b;
  b.set("x", "1");
  EXPECT_EQ(a, b);
  b.set("y", "2");
  EXPECT_NE(a, b);
}

TEST(InfoTest, SetCanCopyFromItsOwnValues) {
  Info info;
  info.set("calciom.est_alone_seconds", "a value longer than fifteen chars");
  info.set("calciom.app_name", *info.get("calciom.est_alone_seconds"));
  info.set("calciom.est_alone_seconds", *info.get("calciom.app_name"));
  EXPECT_EQ(info.get("calciom.app_name"), "a value longer than fifteen chars");
  EXPECT_EQ(info.get("calciom.est_alone_seconds"),
            "a value longer than fifteen chars");
  info.merge(info);
  EXPECT_EQ(info.size(), 2u);
}

// ---- Equivalence with the std::map-backed Info it replaced -----------------

using Model = std::map<std::string, std::string>;

/// The parsing rules of the map-backed Info, verbatim: strtoll/strtod on the
/// stored string, nullopt on no conversion or ERANGE.
std::optional<std::int64_t> referenceInt(const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(parsed);
}

std::optional<double> referenceDouble(const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(v.c_str(), &end);
  if (end == v.c_str() || errno == ERANGE) {
    return std::nullopt;
  }
  return parsed;
}

std::uint64_t bitsOf(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// getInt/getDouble of `info` at `key` must equal the reference parse of
/// `raw`, bit for bit.
void expectParsesLikeReference(const Info& info, std::string_view key,
                               const std::string& raw) {
  EXPECT_EQ(info.getInt(key), referenceInt(raw)) << "value '" << raw << "'";
  const auto got = info.getDouble(key);
  const auto want = referenceDouble(raw);
  ASSERT_EQ(got.has_value(), want.has_value()) << "value '" << raw << "'";
  if (want) {
    EXPECT_EQ(bitsOf(*got), bitsOf(*want)) << "value '" << raw << "'";
  }
}

TEST(InfoTest, NumericParsingMatchesStrtollAndStrtod) {
  std::vector<std::string> inputs = {
      "", " ", "42", "  42", "\t7", "\n-7", "+42", "+", "-", "--5", "+-5",
      "-42", "42abc", "abc", "0x1A", "0x1p3", "00012", "-0", "1e3", "1e",
      "1e+", "9223372036854775807", "9223372036854775808",
      "-9223372036854775808", "-9223372036854775809",
      "99999999999999999999999", "1.5", " 1.5", "+1.5", "1.5.5", ".5", "5.",
      "-.5", "-0.000000", "0.000000", "3.141593", "0.000000001",
      "0.0000000000000000000001", "123456789012345678901234",
      "1234567890123456789012345", "12345678901234567.5",
      "0.1000000000000000055511151231257827", "1e308", "1e309", "-1e309",
      "4.9e-324", "1e-310", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "1e-400", "inf", "-inf", "INF", "nan",
      "-nan", "nan(123)", "infinity", "1.5abc", "1,5"};
  inputs.push_back("1" + std::string(310, '0') + ".0");
  inputs.push_back("-1" + std::string(310, '0'));
  inputs.push_back("0." + std::string(330, '0') + "1");
  inputs.push_back(std::string(400, '9'));
  // setDouble's own output for every magnitude class.
  for (const double d : {0.0, -0.0, 1.0, -2.5, 3.14159265358979, 4e-7,
                         0.99999951, 1e15, 1e22, 1e23, 1e300, 5e-324,
                         2.2250738585072014e-308,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity()}) {
    inputs.push_back(std::to_string(d));
  }
  Xoshiro256 rng(14);
  constexpr std::string_view kAlphabet = "0123456789+-. eExXpinfa\t";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    const auto len = rng.uniformInt(0, 30);
    for (std::int64_t c = 0; c < len; ++c) {
      // Mostly digits, so most strings are numbers of some shape.
      s.push_back(rng.uniform01() < 0.7
                      ? static_cast<char>('0' + rng.uniformInt(0, 9))
                      : kAlphabet[static_cast<std::size_t>(rng.uniformInt(
                            0, static_cast<std::int64_t>(kAlphabet.size()) -
                                   1))]);
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& raw : inputs) {
    Info info;
    info.set("calciom.est_alone_seconds", raw);
    expectParsesLikeReference(info, "calciom.est_alone_seconds", raw);
  }
}

TEST(InfoTest, SetDoubleAndSetIntFormatLikeToString) {
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 3.141592653589793,
                                 4e-7,
                                 0.99999951,
                                 -123456.789,
                                 1e300,
                                 -1e300,
                                 5e-324,
                                 std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::lowest(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity(),
                                 std::numeric_limits<double>::quiet_NaN(),
                                 -std::numeric_limits<double>::quiet_NaN()};
  Xoshiro256 rng(7);
  for (int i = 0; i < 2000; ++i) {
    doubles.push_back(rng.uniform(-1e6, 1e6));
    doubles.push_back(std::ldexp(
        rng.uniform01(), static_cast<int>(rng.uniformInt(-1074, 1023))));
  }
  for (const double d : doubles) {
    Info info;
    info.setDouble("k", d);
    EXPECT_EQ(info.get("k"), std::to_string(d));
  }
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{42},
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    Info info;
    info.setInt("k", v);
    EXPECT_EQ(info.get("k"), std::to_string(v));
    EXPECT_EQ(info.getInt("k"), v);
  }
}

/// Keys chosen to stress the sorted layout: the empty key, prefixes of each
/// other, bytes above 0x7f (std::string orders them after ASCII), and the
/// long protocol keys that defeat the small-string buffer.
const std::vector<std::string>& keyPool() {
  static const std::vector<std::string> pool = {
      "",
      "a",
      "ab",
      "abc",
      "b",
      "calciom.type",
      "calciom.seq",
      "calciom.epoch",
      "calciom.incarnation",
      "calciom.session_state",
      "calciom.est_alone_seconds",
      "calciom.est_alone_seconds.x",
      "calciom.bytes_per_round",
      std::string("\xff\x01"),
      std::string("z\x80"),
  };
  return pool;
}

std::string randomValue(Xoshiro256& rng) {
  static const std::vector<std::string> pool = {
      "", "0", "-1", " 12", "+3", "7x", "1e5", "0x10", "inform",
      "a value well past the fifteen-character small-string limit",
      std::string("embedded\0nul", 12), "nan", "-0.000000"};
  return pool[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

const std::string& randomKey(Xoshiro256& rng) {
  const auto& pool = keyPool();
  return pool[static_cast<std::size_t>(
      rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

/// One random mutation, applied to both the Info and the model.
void randomStep(Xoshiro256& rng, Info& info, Model& model) {
  const std::string& key = randomKey(rng);
  switch (rng.uniformInt(0, 4)) {
    case 0: {
      const std::string v = randomValue(rng);
      info.set(key, v);
      model[key] = v;
      break;
    }
    case 1: {
      const std::int64_t v =
          rng.uniform01() < 0.1
              ? static_cast<std::int64_t>(rng())
              : rng.uniformInt(-1000000, 1000000);
      info.setInt(key, v);
      model[key] = std::to_string(v);
      break;
    }
    case 2: {
      const double v =
          rng.uniform01() < 0.2
              ? std::ldexp(rng.uniform(-1.0, 1.0),
                           static_cast<int>(rng.uniformInt(-1074, 1023)))
              : rng.uniform(-1e4, 1e4);
      info.setDouble(key, v);
      model[key] = std::to_string(v);
      break;
    }
    case 3:
      info.erase(key);
      model.erase(key);
      break;
    default: {
      Info other;
      Model otherModel;
      const auto n = rng.uniformInt(0, 4);
      for (std::int64_t i = 0; i < n; ++i) {
        const std::string& k = randomKey(rng);
        const std::string v = randomValue(rng);
        other.set(k, v);
        otherModel[k] = v;
      }
      info.merge(other);
      for (const auto& [k, v] : otherModel) {
        model[k] = v;
      }
      break;
    }
  }
}

void expectMatchesModel(const Info& info, const Model& model) {
  ASSERT_EQ(info.size(), model.size());
  EXPECT_EQ(info.empty(), model.empty());
  std::vector<std::string> modelKeys;
  for (const auto& [k, v] : model) {
    modelKeys.push_back(k);
  }
  EXPECT_EQ(info.keys(), modelKeys);
  for (const std::string& key : keyPool()) {
    const auto it = model.find(key);
    const std::optional<std::string_view> want =
        it == model.end() ? std::nullopt
                          : std::optional<std::string_view>(it->second);
    // Through std::string, through a string_view slice of a longer buffer
    // (not NUL-terminated at the key's end), and through const char* where
    // the key has no embedded NUL.
    const std::string padded = key + "#tail";
    const std::string_view slice(padded.data(), key.size());
    EXPECT_EQ(info.get(key), want) << "key '" << key << "'";
    EXPECT_EQ(info.get(slice), want) << "key '" << key << "'";
    EXPECT_EQ(info.get(key.c_str()), want) << "key '" << key << "'";
    EXPECT_EQ(info.has(slice), want.has_value());
    EXPECT_EQ(info.has(key.c_str()), want.has_value());
    if (it != model.end()) {
      expectParsesLikeReference(info, slice, it->second);
    } else {
      EXPECT_EQ(info.getInt(slice), std::nullopt);
      EXPECT_EQ(info.getDouble(key.c_str()), std::nullopt);
    }
  }
  // Insertion order must not matter: rebuilt back to front, it is equal.
  Info rebuilt;
  for (auto it = model.rbegin(); it != model.rend(); ++it) {
    rebuilt.set(it->first, it->second);
  }
  EXPECT_EQ(info, rebuilt);
}

TEST(InfoTest, RandomOperationSequencesMatchAMapModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Xoshiro256 rng(seed);
    Info info;
    Model model;
    Info previous;
    Model previousModel;
    for (int step = 0; step < 150; ++step) {
      randomStep(rng, info, model);
      expectMatchesModel(info, model);
      EXPECT_EQ(info == previous, model == previousModel);
      const Info copy = info;
      EXPECT_EQ(copy, info);
      previous = info;
      previousModel = model;
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(CommunicatorTest, SingleProcessCollectivesAreFree) {
  Communicator comm(1, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1e6});
  EXPECT_DOUBLE_EQ(comm.barrierTime(), 0.0);
  EXPECT_DOUBLE_EQ(comm.bcastTime(1e6), 0.0);
  EXPECT_EQ(comm.treeDepth(), 0);
}

TEST(CommunicatorTest, BarrierScalesLogarithmically) {
  const CommCosts costs{.latency = 1e-3, .bandwidthPerProcess = 1e6};
  Communicator c64(64, costs);
  Communicator c1024(1024, costs);
  EXPECT_DOUBLE_EQ(c64.barrierTime(), 6e-3);
  EXPECT_DOUBLE_EQ(c1024.barrierTime(), 10e-3);
}

TEST(CommunicatorTest, NonPowerOfTwoRoundsUp) {
  Communicator c(1000, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1e6});
  EXPECT_EQ(c.treeDepth(), 10);
}

TEST(CommunicatorTest, BcastChargesBandwidthPerLevel) {
  Communicator c(8, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // 3 levels, 200 bytes at 100 B/s each level.
  EXPECT_DOUBLE_EQ(c.bcastTime(200.0), 6.0);
}

TEST(CommunicatorTest, GatherRootLinkDominates) {
  Communicator c(4, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // 3 ranks send 100B each through the root's 100B/s link.
  EXPECT_DOUBLE_EQ(c.gatherTime(100.0), 3.0);
}

TEST(CommunicatorTest, AllToAllUsesHalfAggregateInjection) {
  Communicator c(16, CommCosts{.latency = 0.0, .bandwidthPerProcess = 100.0});
  // Aggregate = 16*100/2 = 800 B/s.
  EXPECT_DOUBLE_EQ(c.allToAllTime(1600.0), 2.0);
}

TEST(CommunicatorTest, InvalidConfigThrows) {
  EXPECT_THROW(
      Communicator(0, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 1.0}),
      calciom::PreconditionError);
  EXPECT_THROW(
      Communicator(4, CommCosts{.latency = 1e-3, .bandwidthPerProcess = 0.0}),
      calciom::PreconditionError);
}

TEST(PortRegistryTest, DeliversAfterLatency) {
  Engine eng;
  PortRegistry ports(eng, 0.5);
  double deliveredAt = -1.0;
  std::uint32_t from = 0;
  ports.openPort("arbiter", [&](std::uint32_t f, Info payload) {
    deliveredAt = eng.now();
    from = f;
    EXPECT_EQ(payload.get("type"), "inform");
  });
  Info msg;
  msg.set("type", "inform");
  EXPECT_TRUE(ports.send("arbiter", 7, msg));
  eng.run();
  EXPECT_DOUBLE_EQ(deliveredAt, 0.5);
  EXPECT_EQ(from, 7u);
  EXPECT_EQ(ports.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, SendToMissingPortFails) {
  Engine eng;
  PortRegistry ports(eng, 0.1);
  EXPECT_FALSE(ports.send("nobody", 1, Info{}));
}

TEST(PortRegistryTest, PortClosedInFlightDropsMessage) {
  Engine eng;
  PortRegistry ports(eng, 1.0);
  int received = 0;
  ports.openPort("p", [&](std::uint32_t, Info) { ++received; });
  ports.send("p", 1, Info{});
  eng.scheduleAt(0.5, [&] { ports.closePort("p"); });
  eng.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ports.messagesDelivered(), 0u);
}

TEST(PortRegistryTest, MessagesPreserveSendOrderAtEqualLatency) {
  Engine eng;
  PortRegistry ports(eng, 0.2);
  std::vector<int> order;
  ports.openPort("p", [&](std::uint32_t, Info payload) {
    order.push_back(static_cast<int>(*payload.getInt("seq")));
  });
  for (int i = 0; i < 5; ++i) {
    Info m;
    m.setInt("seq", i);
    ports.send("p", 1, m);
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(PortRegistryTest, DeliverNowIsSynchronousAndCounted) {
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  int got = 0;
  reg.openPort("p", [&](std::uint32_t from, Info) {
    EXPECT_EQ(from, 3u);
    ++got;
  });
  Info payload;
  EXPECT_TRUE(reg.deliverNow("p", 3, payload));
  EXPECT_EQ(got, 1);  // no engine.run() needed: synchronous
  EXPECT_FALSE(reg.deliverNow("missing", 3, payload));
  EXPECT_EQ(reg.messagesDelivered(), 1u);
}

TEST(PortRegistryTest, PortClosedInFlightDropsTheMessage) {
  // A message addressed to a then-open port whose owner dies in flight is
  // dropped, never delivered (the GlobalArbiter's stale-Inform discard
  // guards the same scenario one layer up). A port unknown at send time is
  // refused outright.
  Engine eng;
  PortRegistry reg(eng, 1.0);
  int local = 0;
  reg.openPort("calciom/app/7", [&](std::uint32_t, Info) { ++local; });
  EXPECT_TRUE(reg.send("calciom/app/7", 1, Info{}));
  EXPECT_FALSE(reg.send("calciom/app/8", 1, Info{}));
  eng.scheduleAt(0.5, [&] { reg.closePort("calciom/app/7"); });  // app dies
  eng.run();
  EXPECT_EQ(local, 0);
  EXPECT_EQ(reg.messagesDelivered(), 0u);
}

TEST(PortRegistryTest, DeliverNowNeverReachesAMissingPort) {
  // Barrier hooks use deliverNow to land messages on concrete endpoints; a
  // closed port means the endpoint terminated between barriers, and the
  // message drops.
  Engine eng;
  PortRegistry reg(eng, 1e-3);
  EXPECT_FALSE(reg.deliverNow("calciom/app/9", 0, Info{}));
  EXPECT_EQ(reg.messagesDelivered(), 0u);
}

TEST(PortRegistryTest, HandlerCanReplyThroughAnotherPort) {
  Engine eng;
  PortRegistry ports(eng, 0.25);
  double replyAt = -1.0;
  ports.openPort("app", [&](std::uint32_t, Info) { replyAt = eng.now(); });
  ports.openPort("arbiter", [&](std::uint32_t from, Info) {
    ports.send("app", 0, Info{});
    (void)from;
  });
  ports.send("arbiter", 3, Info{});
  eng.run();
  EXPECT_DOUBLE_EQ(replyAt, 0.5);  // two hops of 0.25s
}

}  // namespace
