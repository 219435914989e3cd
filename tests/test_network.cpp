// Simulated transport: connection establishment, reachability, ordering,
// serialization delay, close semantics.

#include <gtest/gtest.h>

#include <vector>

#include "net/network.hpp"

namespace edhp::net {
namespace {

struct Fixture : ::testing::Test {
  sim::Simulation s{123};
  Network net{s};
};

TEST_F(Fixture, NodesGetDistinctIps) {
  std::vector<NodeId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(net.add_node(true));
  std::set<std::uint32_t> ips;
  for (auto id : ids) ips.insert(net.info(id).ip.value());
  EXPECT_EQ(ips.size(), 100u);
  EXPECT_FALSE(ips.contains(0u));
}

TEST_F(Fixture, ConnectDeliversBothEndpoints) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr accepted, initiated;
  net.listen(b, [&](EndpointPtr ep) { accepted = std::move(ep); });
  net.connect(a, b, [&](EndpointPtr ep) { initiated = std::move(ep); });
  s.run();
  ASSERT_TRUE(accepted);
  ASSERT_TRUE(initiated);
  EXPECT_EQ(accepted->local_node(), b);
  EXPECT_EQ(accepted->remote_node(), a);
  EXPECT_EQ(initiated->local_node(), a);
  EXPECT_EQ(initiated->remote_node(), b);
  EXPECT_TRUE(initiated->open());
}

TEST_F(Fixture, ConnectToNonListenerFails) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  bool called = false;
  EndpointPtr result = std::make_shared<Endpoint>();
  net.connect(a, b, [&](EndpointPtr ep) {
    called = true;
    result = std::move(ep);
  });
  s.run();
  EXPECT_TRUE(called);
  EXPECT_EQ(result, nullptr);
}

TEST_F(Fixture, ConnectToFirewalledNodeFails) {
  auto a = net.add_node(true);
  auto b = net.add_node(false);  // LowID: cannot accept
  net.listen(b, [](EndpointPtr) { FAIL() << "firewalled node accepted"; });
  bool failed = false;
  net.connect(a, b, [&](EndpointPtr ep) { failed = (ep == nullptr); });
  s.run();
  EXPECT_TRUE(failed);
}

TEST_F(Fixture, MessagesArriveInOrder) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  std::vector<int> received;
  EndpointPtr server_ep;
  net.listen(b, [&](EndpointPtr ep) {
    server_ep = ep;
    server_ep->on_message([&](Bytes m) { received.push_back(m[0]); });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    ASSERT_TRUE(ep);
    for (int i = 0; i < 10; ++i) {
      ep->send(Bytes{static_cast<std::uint8_t>(i)});
    }
    // Keep the endpoint alive for the duration of the run.
    static EndpointPtr keep;
    keep = std::move(ep);
  });
  s.run();
  ASSERT_EQ(received.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
}

TEST_F(Fixture, OrderHoldsWhenHandlerSendsRefillTheQueue) {
  // Each of the first five arrivals makes the sender queue two more on the
  // direction being drained: the queue refills right after it drains, then
  // wraps around its ring and grows while holding messages.
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  std::vector<int> received;
  EndpointPtr client, server;
  std::uint8_t next = 0;
  net.listen(b, [&](EndpointPtr ep) {
    server = ep;
    server->on_message([&](Bytes m) {
      received.push_back(m[0]);
      if (m[0] < 5) {
        client->send(Bytes{next++});
        client->send(Bytes{next++});
      }
    });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    client = std::move(ep);
    client->send(Bytes{next++});
  });
  s.run();
  ASSERT_EQ(received.size(), 11u);
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(received[static_cast<std::size_t>(i)], i);
  }
}

TEST_F(Fixture, CloseMidBurstDropsTheRest) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  std::vector<int> received;
  int closes = 0;
  EndpointPtr client, server;
  net.listen(b, [&](EndpointPtr ep) {
    server = ep;
    server->on_message([&](Bytes m) {
      received.push_back(m[0]);
      if (m[0] == 2) server->close();
    });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    client = std::move(ep);
    client->on_close([&] { ++closes; });
    for (std::uint8_t i = 0; i < 6; ++i) client->send(Bytes{i});
  });
  s.run();
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(closes, 1);
  EXPECT_FALSE(client->open());
  EXPECT_EQ(net.totals().messages_delivered, 3u);
}

TEST_F(Fixture, LargePayloadTakesLongerThanSmall) {
  auto a = net.add_node(true, 0.0, 100.0);  // 100 B/s uplink
  auto b = net.add_node(true);
  EndpointPtr keep_client, keep_server;
  double small_at = -1, big_at = -1;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([&](Bytes m) {
      if (m.size() < 100) {
        small_at = s.now();
      } else {
        big_at = s.now();
      }
    });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes(10, 0));     // 0.1 s serialization
    keep_client->send(Bytes(1000, 1));   // 10 s serialization, queued after
  });
  s.run();
  ASSERT_GT(small_at, 0);
  ASSERT_GT(big_at, 0);
  EXPECT_GT(big_at, small_at + 9.9);
}

TEST_F(Fixture, CloseNotifiesRemoteOnce) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int closes = 0;
  EndpointPtr keep_server, keep_client;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_close([&] { ++closes; });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->close();
    keep_client->close();  // idempotent
  });
  s.run();
  EXPECT_EQ(closes, 1);
  EXPECT_FALSE(keep_client->open());
}

TEST_F(Fixture, SendAfterCloseIsDropped) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int messages = 0;
  EndpointPtr keep_server, keep_client;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([&](Bytes) { ++messages; });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes{1});
    keep_client->close();
    keep_client->send(Bytes{2});
  });
  s.run();
  // The pre-close message was sent but close() raced it: our model drops
  // in-flight data once the connection is closed, like a RST.
  EXPECT_EQ(messages, 0);
}

TEST_F(Fixture, DroppedEndpointStopsDelivery) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int messages = 0;
  net.listen(b, [&](EndpointPtr ep) {
    // Accept but immediately drop our reference.
    ep->on_message([&](Bytes) { ++messages; });
  });
  EndpointPtr keep_client;
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes{1});
  });
  s.run();
  EXPECT_EQ(messages, 0);
}

TEST_F(Fixture, StatsCountDeliveries) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([](Bytes) {});
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes(7, 0));
    keep_client->send(Bytes(3, 0));
  });
  s.run();
  EXPECT_EQ(net.messages_delivered(), 2u);
  EXPECT_EQ(net.bytes_delivered(), 10u);
}

TEST_F(Fixture, UnknownNodeThrows) {
  EXPECT_THROW((void)net.info(99), std::out_of_range);
  EXPECT_THROW(net.listen(99, [](EndpointPtr) {}), std::out_of_range);
  EXPECT_THROW(net.connect(0, 99, [](EndpointPtr) {}), std::out_of_range);
}

}  // namespace
}  // namespace edhp::net

namespace edhp::net {
namespace {

TEST_F(Fixture, SendSizedAccountsVirtualBytes) {
  auto a = net.add_node(true, 0.0, 1000.0);  // 1000 B/s uplink
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  double arrival = -1;
  std::size_t payload_bytes = 0;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([&](Bytes m) {
      arrival = s.now();
      payload_bytes = m.size();
    });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    // 32 bytes materialized, 10,000 on the wire: ~10 s serialization.
    keep_client->send_sized(Bytes(32, 1), 10000);
  });
  s.run();
  ASSERT_GT(arrival, 0);
  EXPECT_EQ(payload_bytes, 32u);             // handler sees the sample only
  EXPECT_GE(arrival, 10.0);                  // timing follows the wire size
  EXPECT_EQ(net.bytes_delivered(), 10000u);  // stats follow the wire size
}

TEST_F(Fixture, SendSizedNeverShrinksBelowPayload) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([](Bytes) {});
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send_sized(Bytes(100, 1), 5);  // wire_size below payload
  });
  s.run();
  EXPECT_EQ(net.bytes_delivered(), 100u);
}

TEST_F(Fixture, StopListeningBetweenSynAndAcceptDropsAccept) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  bool accepted = false;
  EndpointPtr initiated;
  net.listen(b, [&](EndpointPtr) { accepted = true; });
  net.connect(a, b, [&](EndpointPtr ep) { initiated = std::move(ep); });
  // The SYN is in flight (one latency away); the target goes away first.
  net.stop_listening(b);
  s.run();
  EXPECT_FALSE(accepted);
  // The initiator still gets an endpoint — the handshake completed at
  // transport level — but nobody ever answers it.
  ASSERT_TRUE(initiated);
  EXPECT_TRUE(initiated->open());
  EXPECT_EQ(net.counters(b).connects_accepted, 0u);
  EXPECT_EQ(net.counters(a).connects_initiated, 1u);
}

TEST_F(Fixture, PerNodeCountersTrackTraffic) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = ep;
    keep_server->on_message([](Bytes) {});
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes(7, 0));
    keep_client->send(Bytes(3, 0));
  });
  net.connect(a, a, [](EndpointPtr) {});  // refused: a is not listening
  s.run();
  EXPECT_EQ(net.counters(a).connects_initiated, 2u);
  EXPECT_EQ(net.counters(a).refusals, 1u);
  EXPECT_EQ(net.counters(a).messages_sent, 2u);
  EXPECT_EQ(net.counters(a).bytes_serialized, 10u);
  EXPECT_EQ(net.counters(b).connects_accepted, 1u);
  EXPECT_EQ(net.counters(b).messages_delivered, 2u);
  EXPECT_EQ(net.counters(b).bytes_delivered, 10u);
  EXPECT_EQ(net.totals().messages_sent, 2u);
  EXPECT_EQ(net.totals().messages_delivered, 2u);
  EXPECT_THROW((void)net.counters(99), std::out_of_range);
}

TEST_F(Fixture, DatagramCountersTrackDrops) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  auto fw = net.add_node(false);  // unreachable: every datagram dropped
  int heard = 0;
  net.listen_datagram(b, [&](NodeId, Bytes) { ++heard; });
  for (int i = 0; i < 20; ++i) {
    net.send_datagram(a, b, Bytes{1});
    net.send_datagram(a, fw, Bytes{2});
  }
  s.run();
  const auto& c = net.counters(a);
  EXPECT_EQ(c.datagrams_sent, 40u);
  EXPECT_GE(c.datagrams_dropped, 20u);  // all 20 to the firewalled node
  EXPECT_EQ(static_cast<std::uint64_t>(heard),
            40u - c.datagrams_dropped);
  EXPECT_EQ(net.totals().datagrams_sent, 40u);
}

TEST_F(Fixture, DownNodeRefusesConnectsBothWays) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  net.listen(a, [](EndpointPtr) {});
  net.listen(b, [](EndpointPtr) {});
  net.set_node_up(b, false);
  EXPECT_FALSE(net.node_up(b));
  bool ab_failed = false, ba_failed = false;
  net.connect(a, b, [&](EndpointPtr ep) { ab_failed = (ep == nullptr); });
  net.connect(b, a, [&](EndpointPtr ep) { ba_failed = (ep == nullptr); });
  s.run();
  EXPECT_TRUE(ab_failed);
  EXPECT_TRUE(ba_failed);

  net.set_node_up(b, true);
  EndpointPtr up;
  net.connect(a, b, [&](EndpointPtr ep) { up = std::move(ep); });
  s.run();
  EXPECT_TRUE(up);
}

TEST_F(Fixture, DownNodeBlackholesDatagrams) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int heard = 0;
  net.listen_datagram(b, [&](NodeId, Bytes) { ++heard; });
  net.set_node_up(b, false);
  for (int i = 0; i < 10; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  EXPECT_EQ(heard, 0);
  EXPECT_EQ(net.counters(a).datagrams_dropped, 10u);
}

TEST_F(Fixture, AbortConnectionsRstsBothSides) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  int closes = 0;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = std::move(ep);
    keep_server->on_close([&] { ++closes; });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->on_close([&] { ++closes; });
  });
  s.run();
  ASSERT_TRUE(keep_client);
  EXPECT_EQ(net.abort_connections(b), 1u);
  s.run();
  EXPECT_EQ(closes, 2);
  EXPECT_FALSE(keep_client->open());
  EXPECT_EQ(net.totals().connections_aborted, 1u);
  EXPECT_EQ(net.counters(a).connections_aborted, 1u);
  EXPECT_EQ(net.counters(b).connections_aborted, 1u);
  // Idempotent: the connection is already gone.
  EXPECT_EQ(net.abort_connections(b), 0u);
}

TEST_F(Fixture, PartitionSplitsAndHeals) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  net.listen(b, [](EndpointPtr) {});
  net.set_partition(b, 1);
  EXPECT_EQ(net.partition_of(b), 1u);
  bool failed = false;
  net.connect(a, b, [&](EndpointPtr ep) { failed = (ep == nullptr); });
  s.run();
  EXPECT_TRUE(failed);

  net.set_partition(b, 0);
  EndpointPtr healed;
  net.connect(a, b, [&](EndpointPtr ep) { healed = std::move(ep); });
  s.run();
  EXPECT_TRUE(healed);
}

TEST_F(Fixture, AbortCrossPartitionSeversOnlyCrossGroupConns) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  auto c = net.add_node(true);
  EndpointPtr to_b, to_c, keep1, keep2;
  net.listen(b, [&](EndpointPtr ep) { keep1 = std::move(ep); });
  net.listen(c, [&](EndpointPtr ep) { keep2 = std::move(ep); });
  net.connect(a, b, [&](EndpointPtr ep) { to_b = std::move(ep); });
  net.connect(a, c, [&](EndpointPtr ep) { to_c = std::move(ep); });
  s.run();
  ASSERT_TRUE(to_b);
  ASSERT_TRUE(to_c);
  net.set_partition(b, 1);  // existing a–b connection is now cross-group
  EXPECT_EQ(net.abort_cross_partition(), 1u);
  s.run();
  EXPECT_FALSE(to_b->open());
  EXPECT_TRUE(to_c->open());
}

TEST_F(Fixture, LatencyFactorSlowsDelivery) {
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  EndpointPtr keep_server, keep_client;
  double first = -1, second = -1;
  net.listen(b, [&](EndpointPtr ep) {
    keep_server = std::move(ep);
    keep_server->on_message([&](Bytes) {
      (first < 0 ? first : second) = s.now();
    });
  });
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_client = std::move(ep);
    keep_client->send(Bytes{1});
  });
  s.run();
  ASSERT_GT(first, 0);
  // A congestion episode: subsequent connections are far slower.
  net.set_latency_factor(a, 1000.0);
  const auto t0 = s.now();
  EndpointPtr keep_slow;
  net.connect(a, b, [&](EndpointPtr ep) {
    keep_slow = std::move(ep);
    keep_slow->send(Bytes{2});
  });
  s.run();
  ASSERT_GT(second, 0);
  EXPECT_GT(second - t0, 50.0 * first);
  // Factor 1.0 restores the base model.
  net.set_latency_factor(a, 1.0);
}

TEST_F(Fixture, FindByIpResolvesNodes) {
  auto a = net.add_node(true);
  const auto ip = net.info(a).ip.value();
  const auto found = net.find_by_ip(ip);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, a);
  EXPECT_FALSE(net.find_by_ip(ip + 1).has_value() &&
               *net.find_by_ip(ip + 1) == a);
}

// --- Bursty loss, duplication and reordering (Gilbert–Elliott layer) ------

TEST_F(Fixture, BurstDupReorderCountersStayZeroByDefault) {
  // The GE chain, duplication and reordering are default-off: plain traffic
  // must never tick their counters (and therefore never draws for them).
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  net.listen_datagram(b, [](NodeId, Bytes) {});
  for (int i = 0; i < 50; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  EXPECT_EQ(net.totals().datagrams_dropped_burst, 0u);
  EXPECT_EQ(net.totals().datagrams_duplicated, 0u);
  EXPECT_EQ(net.totals().datagrams_reordered, 0u);
}

TEST(GilbertElliott, BadStateDropsBursts) {
  sim::Simulation s{7};
  LinkModel model;
  model.datagram_loss = 0;
  model.ge_p_enter_bad = 1.0;  // first transition lands in the bad state
  model.ge_p_exit_bad = 0.0;   // and stays there
  model.ge_loss_bad = 1.0;     // where everything burns
  Network net{s, model};
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int heard = 0;
  net.listen_datagram(b, [&](NodeId, Bytes) { ++heard; });
  for (int i = 0; i < 30; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  EXPECT_EQ(heard, 0);
  EXPECT_EQ(net.counters(a).datagrams_dropped_burst, 30u);
  EXPECT_EQ(net.totals().datagrams_dropped_burst, 30u);
}

TEST(GilbertElliott, RecoveringChannelDropsOnlyDuringEpisodes) {
  sim::Simulation s{7};
  LinkModel model;
  model.datagram_loss = 0;
  model.ge_p_enter_bad = 0.2;
  model.ge_p_exit_bad = 0.5;
  model.ge_loss_bad = 1.0;
  Network net{s, model};
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int heard = 0;
  net.listen_datagram(b, [&](NodeId, Bytes) { ++heard; });
  for (int i = 0; i < 200; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  const auto& c = net.counters(a);
  // The chain visits both states: some bursts, some clean deliveries, and
  // every drop is a burst drop (good-state loss is zero).
  EXPECT_GT(heard, 0);
  EXPECT_GT(c.datagrams_dropped_burst, 0u);
  EXPECT_EQ(c.datagrams_dropped, c.datagrams_dropped_burst);
  EXPECT_EQ(static_cast<std::uint64_t>(heard),
            200u - c.datagrams_dropped_burst);
}

TEST(DatagramFaults, DuplicationDeliversTwiceAndCounts) {
  sim::Simulation s{7};
  LinkModel model;
  model.datagram_loss = 0;
  model.datagram_dup = 1.0;
  Network net{s, model};
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  int heard = 0;
  net.listen_datagram(b, [&](NodeId, Bytes) { ++heard; });
  for (int i = 0; i < 25; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  EXPECT_EQ(heard, 50);  // every datagram arrives twice
  EXPECT_EQ(net.counters(a).datagrams_duplicated, 25u);
  EXPECT_EQ(net.totals().datagrams_duplicated, 25u);
}

TEST(DatagramFaults, ReorderedCopiesArriveLateAndCount) {
  sim::Simulation s{7};
  LinkModel model;
  model.datagram_loss = 0;
  model.datagram_reorder = 1.0;
  model.reorder_delay = 2.0;  // far beyond any latency sample
  Network net{s, model};
  auto a = net.add_node(true);
  auto b = net.add_node(true);
  std::vector<Time> arrivals;
  net.listen_datagram(b, [&](NodeId, Bytes) { arrivals.push_back(s.now()); });
  for (int i = 0; i < 10; ++i) net.send_datagram(a, b, Bytes{1});
  s.run();
  ASSERT_EQ(arrivals.size(), 10u);
  for (Time t : arrivals) EXPECT_GE(t, 2.0);  // the delay was applied
  EXPECT_EQ(net.counters(a).datagrams_reordered, 10u);
  EXPECT_EQ(net.totals().datagrams_reordered, 10u);
}

}  // namespace
}  // namespace edhp::net
