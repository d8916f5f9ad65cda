// Unit tests for the MPI layer: Info dictionaries, collective cost models,
// and cross-application ports.

#include <gtest/gtest.h>

#include "mpi/comm.hpp"
#include "mpi/info.hpp"
#include "mpi/port.hpp"
#include "sim/engine.hpp"

namespace {

using calciom::mpi::Communicator;
using calciom::mpi::CommCosts;
using calciom::mpi::Info;
using calciom::mpi::PortRegistry;
using calciom::sim::Engine;

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
