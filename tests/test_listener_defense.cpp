// Admission control on the two listeners that face untrusted eDonkey peers:
// the directory server and the honeypot. One suite, written against each
// listener's public API, pins the same decisions on both: LIFO shedding at
// the session cap, the per-remote connect bucket, the handshake and idle
// reaps, the per-session message bucket and the bounded oldest-first inbox
// with its batched service, also across a restart. A listener only switches
// the gate on; every case runs on the gate's production thresholds, which
// the suite pins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "honeypot/honeypot.hpp"
#include "net/admission.hpp"
#include "proto/messages.hpp"
#include "server/server.hpp"

namespace edhp {
namespace {

// The gate's thresholds (net/admission.cpp) this suite pins.
constexpr std::size_t kMaxSessions = 256;   // live sessions before shedding
constexpr double kConnectRate = 0.5;        // connect tokens per second per remote
constexpr std::size_t kConnectBurst = 12;   // connects a fresh remote may open at once
constexpr double kHandshakeTimeout = 30.0;  // silence allowed before a valid message
constexpr double kIdleTimeout = 7200.0;     // silence allowed after a valid message
constexpr std::size_t kMessageBurst = 80;   // messages a fresh session may send at once
constexpr std::size_t kMaxQueue = 512;      // inbox bound, shed oldest-first
constexpr std::size_t kQueueBatch = 64;     // packets decoded per service slice
constexpr double kQueueService = 0.05;      // seconds between service slices

/// Upload bandwidth of the suite's clients: fast enough that a burst of
/// messages leaves within one microsecond, the token buckets' resolution.
constexpr double kFastUplink = 1e12;

/// A latency factor that puts every link it applies to at the network's
/// one-way latency floor, kOneWay.
constexpr double kFloorLatency = 1e-3;
constexpr double kOneWay = 0.005;

enum class Listener { server, honeypot };

const char* name(Listener listener) {
  return listener == Listener::server ? "server" : "honeypot";
}

// Names the parameter in test names, which are then the same in every build.
void PrintTo(Listener listener, std::ostream* os) { *os << name(listener); }

/// A listener on its own simulated network, and what the suite observes of
/// it through its public API: its defense counters, and two valid messages
/// whose handling it can count apart.
class Rig {
 public:
  virtual ~Rig() = default;

  [[nodiscard]] virtual net::NodeId node() const = 0;
  [[nodiscard]] virtual const net::DefenseStats& stats() const = 0;
  /// A valid message, and how many of them the listener has handled.
  [[nodiscard]] virtual net::Bytes marker() const = 0;
  [[nodiscard]] virtual std::uint64_t markers() const = 0;
  /// Another valid message, counted apart from the marker.
  [[nodiscard]] virtual net::Bytes filler() const = 0;
  [[nodiscard]] virtual std::uint64_t fillers() const = 0;
  /// Take the listener down with all its sessions and bring it back up.
  virtual void restart() = 0;

  sim::Simulation simulation{1};
  net::Network network{simulation};
};

/// The directory server: a LOGIN is the marker, an OFFER-FILES sent before
/// logging in the filler.
class ServerRig final : public Rig {
 public:
  ServerRig() {
    server::ServerConfig config;
    config.defense = true;
    server_ = std::make_unique<server::Server>(network, node_, config);
    server_->start();
  }

  [[nodiscard]] net::NodeId node() const override { return node_; }
  [[nodiscard]] const net::DefenseStats& stats() const override {
    return server_->defense_stats();
  }
  [[nodiscard]] net::Bytes marker() const override {
    proto::LoginRequest login;
    login.user = UserId::from_words(7, 7);
    login.port = 4662;
    return proto::encode(proto::AnyMessage{login});
  }
  [[nodiscard]] std::uint64_t markers() const override {
    return server_->counters().logins;
  }
  [[nodiscard]] net::Bytes filler() const override {
    return proto::encode(proto::AnyMessage{proto::OfferFiles{}});
  }
  [[nodiscard]] std::uint64_t fillers() const override {
    return server_->counters().offer_before_login;
  }
  void restart() override {
    server_->stop();
    server_->start();
  }

 private:
  net::NodeId node_ = network.add_node(true);
  std::unique_ptr<server::Server> server_;
};

/// A honeypot logged into an undefended server: a HELLO is the marker, a
/// START-UPLOAD the filler; each one handled becomes a log record.
class HoneypotRig final : public Rig {
 public:
  HoneypotRig() {
    server_.start();
    honeypot::HoneypotConfig config;
    config.id = 1;
    config.name = "hp-defense";
    config.defense = true;
    honeypot_ = std::make_unique<honeypot::Honeypot>(
        network, network.add_node(true), config);
    honeypot_->connect_to_server(server_ref_);
  }

  [[nodiscard]] net::NodeId node() const override { return honeypot_->node(); }
  [[nodiscard]] const net::DefenseStats& stats() const override {
    return honeypot_->defense_stats();
  }
  [[nodiscard]] net::Bytes marker() const override {
    proto::Hello hello;
    hello.user = UserId::from_words(5, 6);
    hello.client_id = 0x7F000001;
    hello.port = 4662;
    return proto::encode(proto::AnyMessage{hello});
  }
  [[nodiscard]] std::uint64_t markers() const override {
    return count(logbook::QueryType::hello);
  }
  [[nodiscard]] net::Bytes filler() const override {
    return proto::encode(
        proto::AnyMessage{proto::StartUpload{FileId::from_words(0xAA, 0xBB)}});
  }
  [[nodiscard]] std::uint64_t fillers() const override {
    return count(logbook::QueryType::start_upload);
  }
  /// A crash and the manager's relaunch (the log survives the crash).
  void restart() override {
    honeypot_->crash();
    honeypot_->connect_to_server(server_ref_);
  }

 private:
  [[nodiscard]] std::uint64_t count(logbook::QueryType type) const {
    const auto& records = honeypot_->log().records;
    return static_cast<std::uint64_t>(
        std::count_if(records.begin(), records.end(),
                      [type](const auto& r) { return r.type == type; }));
  }

  net::NodeId server_node_ = network.add_node(true);
  honeypot::ServerRef server_ref_{server_node_, "test-server", 4661};
  server::Server server_{network, server_node_, {}};
  std::unique_ptr<honeypot::Honeypot> honeypot_;
};

class ListenerDefense : public ::testing::TestWithParam<Listener> {
 protected:
  /// The listener with its gate on. Its end of every link it accepts from
  /// now on is at the latency floor, so a client made by floor_client()
  /// connects and sends with exactly kOneWay latency.
  void SetUp() override {
    if (GetParam() == Listener::server) {
      rig_ = std::make_unique<ServerRig>();
    } else {
      rig_ = std::make_unique<HoneypotRig>();
    }
    rig_->network.set_latency_factor(rig_->node(), kFloorLatency);
  }

  net::NodeId floor_client() {
    const auto node = rig_->network.add_node(true, 0.0, kFastUplink);
    rig_->network.set_latency_factor(node, kFloorLatency);
    return node;
  }

  /// Open one connection from `from`; its endpoint is appended to `out`
  /// when the handshake completes, so `out` lists the connections in the
  /// order the listener accepted them.
  void connect(net::NodeId from, std::vector<net::EndpointPtr>& out) {
    rig_->network.connect(from, rig_->node(), [&out](net::EndpointPtr ep) {
      ASSERT_TRUE(ep) << "listener not listening";
      out.push_back(std::move(ep));
    });
  }

  /// Connect `client` now and time its `messages` packets (markers or
  /// fillers) so that they arrive at `arrive`: the handshake round trip,
  /// measured from now, is two one-way latencies. Its endpoint is appended
  /// to `out` when the handshake completes.
  void send_at(net::NodeId client, Time arrive, std::size_t messages,
               bool send_marker, std::vector<net::EndpointPtr>& out) {
    const Time connect_at = rig_->simulation.now();
    rig_->network.connect(
        client, rig_->node(), [=, this, &out](net::EndpointPtr e) {
          ASSERT_TRUE(e);
          out.push_back(e);
          const Time one_way = (rig_->simulation.now() - connect_at) / 2;
          rig_->simulation.schedule_at(arrive - one_way, [=, this] {
            for (std::size_t i = 0; i < messages; ++i) {
              e->send(send_marker ? rig_->marker() : rig_->filler());
            }
          });
        });
  }

  void run_until(Time t) { rig_->simulation.run_until(t); }

  std::unique_ptr<Rig> rig_;
};

// At the session cap the newest arrival is shed; the sessions already
// admitted stay open, and one that closes frees its place. Each connection
// comes from its own remote, so no connect bucket runs dry.
TEST_P(ListenerDefense, ShedsNewestArrivalAtSessionCap) {
  constexpr std::size_t kShed = 10;
  std::vector<net::EndpointPtr> conns;
  for (std::size_t i = 0; i < kMaxSessions + kShed; ++i) {
    connect(rig_->network.add_node(false), conns);
  }
  run_until(5.0);

  ASSERT_EQ(conns.size(), kMaxSessions + kShed);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    EXPECT_EQ(conns[i]->open(), i < kMaxSessions) << "connection " << i;
  }
  EXPECT_EQ(rig_->stats().accepted, kMaxSessions);
  EXPECT_EQ(rig_->stats().shed, kShed);

  conns[0]->close();
  run_until(10.0);
  std::vector<net::EndpointPtr> late;
  connect(rig_->network.add_node(false), late);
  connect(rig_->network.add_node(false), late);
  run_until(15.0);
  ASSERT_EQ(late.size(), 2u);
  EXPECT_TRUE(late[0]->open());
  EXPECT_FALSE(late[1]->open());
  EXPECT_EQ(rig_->stats().accepted, kMaxSessions + 1);
  EXPECT_EQ(rig_->stats().shed, kShed + 1);
  EXPECT_EQ(rig_->stats().reaped, 0u);
}

// Each remote node has its own connect bucket: a hot source is refused
// past its burst and earns its next connect exactly 1/kConnectRate seconds
// after it ran dry.
TEST_P(ListenerDefense, ConnectBucketLimitsEachRemote) {
  constexpr std::size_t kRefused = 8;
  const auto flooder = floor_client();
  const auto honest = floor_client();
  std::vector<net::EndpointPtr> flood, fair;
  for (std::size_t i = 0; i < kConnectBurst + kRefused; ++i) {
    connect(flooder, flood);
  }
  connect(honest, fair);
  run_until(1.0);

  ASSERT_EQ(flood.size(), kConnectBurst + kRefused);
  EXPECT_EQ(std::count_if(flood.begin(), flood.end(),
                          [](const auto& ep) { return ep->open(); }),
            static_cast<std::ptrdiff_t>(kConnectBurst));
  ASSERT_EQ(fair.size(), 1u);
  EXPECT_TRUE(fair[0]->open());
  EXPECT_EQ(rig_->stats().accepted, kConnectBurst + 1);
  EXPECT_EQ(rig_->stats().rate_limited, kRefused);

  // The flood drained the bucket when it arrived, at kOneWay. A connect
  // arriving 1 ms short of one refill interval later is refused; the next
  // one, arriving on the interval, takes the token.
  const Time refill = 1.0 / kConnectRate;
  rig_->simulation.schedule_at(refill - 0.001, [&] { connect(flooder, flood); });
  rig_->simulation.schedule_at(refill, [&] { connect(flooder, flood); });
  run_until(kOneWay + refill - 0.0005);
  EXPECT_EQ(rig_->stats().accepted, kConnectBurst + 1);
  EXPECT_EQ(rig_->stats().rate_limited, kRefused + 1);
  run_until(kOneWay + refill + 1.0);
  EXPECT_EQ(rig_->stats().accepted, kConnectBurst + 2);
  EXPECT_EQ(rig_->stats().rate_limited, kRefused + 1);
}

// A session that sends nothing valid is reaped at the handshake timeout,
// counted from its admission.
TEST_P(ListenerDefense, ReapsSilentSessionsAtHandshakeTimeout) {
  const auto attacker = floor_client();
  std::vector<net::EndpointPtr> conns;
  for (int i = 0; i < 3; ++i) connect(attacker, conns);
  run_until(kOneWay + kHandshakeTimeout - 0.001);
  ASSERT_EQ(conns.size(), 3u);
  for (const auto& ep : conns) EXPECT_TRUE(ep->open());
  EXPECT_EQ(rig_->stats().reaped, 0u);

  run_until(kOneWay + kHandshakeTimeout + 0.001);
  for (const auto& ep : conns) EXPECT_FALSE(ep->open());
  EXPECT_EQ(rig_->stats().accepted, 3u);
  EXPECT_EQ(rig_->stats().reaped, 3u);
}

// A valid message moves the session's deadline from the handshake timeout
// to the idle timeout, counted from the message's decoding.
TEST_P(ListenerDefense, ReapsIdleSessionAfterValidMessage) {
  const auto client = floor_client();
  net::EndpointPtr ep;
  rig_->network.connect(client, rig_->node(), [&](net::EndpointPtr e) {
    ASSERT_TRUE(e);
    ep = std::move(e);
    ep->send(rig_->marker());
  });
  // The marker arrives after the handshake round trip and one more
  // one-way latency, and is decoded one service slice later.
  const Time decoded = 3 * kOneWay + kQueueService;
  run_until(decoded + 0.001);
  ASSERT_TRUE(ep);
  EXPECT_EQ(rig_->markers(), 1u);

  run_until(decoded + kIdleTimeout - 0.001);
  EXPECT_TRUE(ep->open());
  EXPECT_EQ(rig_->stats().reaped, 0u);
  run_until(decoded + kIdleTimeout + 0.001);
  EXPECT_FALSE(ep->open());
  EXPECT_EQ(rig_->stats().reaped, 1u);
}

// A burst beyond the per-session message bucket is dropped message by
// message; the session stays open and a later in-budget message is served.
TEST_P(ListenerDefense, MessageBucketDropsBurstBeyondBudget) {
  const auto client = rig_->network.add_node(true, 0.0, kFastUplink);
  net::EndpointPtr ep;
  rig_->network.connect(client, rig_->node(), [&](net::EndpointPtr e) {
    ASSERT_TRUE(e);
    ep = std::move(e);
    for (std::size_t i = 0; i < kMessageBurst + 20; ++i) {
      ep->send(rig_->filler());
    }
  });
  run_until(10.0);
  ASSERT_TRUE(ep);
  EXPECT_EQ(rig_->fillers(), kMessageBurst);
  EXPECT_EQ(rig_->stats().rate_limited, 20u);
  EXPECT_EQ(rig_->stats().queue_dropped, 0u);
  EXPECT_TRUE(ep->open());

  ep->send(rig_->filler());
  run_until(20.0);
  EXPECT_EQ(rig_->fillers(), kMessageBurst + 1);
  EXPECT_EQ(rig_->stats().rate_limited, 20u);
}

// One packet more than the inbox holds: the oldest (the marker, which
// arrived first) is shed, and the rest are decoded at most kQueueBatch per
// service slice, one slice every kQueueService seconds.
TEST_P(ListenerDefense, InboxShedsOldestAndServesInBatches) {
  // Every client times its send so that it arrives at `arrive`: the
  // handshake round trip, measured from the connect call at t = 0, is two
  // one-way latencies.
  const Time flood_at = 5.0;
  const Time marker_at = flood_at - 0.01;
  std::vector<net::EndpointPtr> conns;
  const auto open_client = [&](Time arrive, std::size_t messages,
                               bool send_marker) {
    send_at(rig_->network.add_node(true, 0.0, kFastUplink), arrive, messages,
            send_marker, conns);
  };
  open_client(marker_at, 1, true);
  constexpr std::size_t kFlooders = 8;
  static_assert(kFlooders * kQueueBatch == kMaxQueue);
  for (std::size_t i = 0; i < kFlooders; ++i) {
    open_client(flood_at, kQueueBatch, false);
  }

  run_until(flood_at + 0.001);
  ASSERT_EQ(conns.size(), kFlooders + 1);
  EXPECT_EQ(rig_->stats().queue_dropped, 1u);
  EXPECT_EQ(rig_->fillers(), 0u);

  // The first slice runs kQueueService after the marker arrived.
  for (std::size_t slice = 1; slice <= kFlooders; ++slice) {
    run_until(marker_at + static_cast<double>(slice) * kQueueService + 0.001);
    EXPECT_EQ(rig_->fillers(), slice * kQueueBatch) << "slice " << slice;
  }
  run_until(flood_at + 10.0);
  EXPECT_EQ(rig_->fillers(), kMaxQueue);
  EXPECT_EQ(rig_->markers(), 0u);
  EXPECT_EQ(rig_->stats().queue_dropped, 1u);
  EXPECT_EQ(rig_->stats().rate_limited, 0u);
}

// A stop (server) or crash (honeypot) drops the inbox together with the
// service slice it had pending. After the restart, a fresh backlog drains
// at one batch per slice, starting kQueueService after its first packet
// arrived; the slice left over from before the restart serves none of it.
TEST_P(ListenerDefense, RestartDrainsFreshBacklogOneBatchPerSlice) {
  // Every link at the latency floor, so that clients connecting right
  // after the restart flood it before the old slice would have run.
  std::vector<net::EndpointPtr> conns;
  const auto flood = [&](Time arrive) {
    constexpr std::size_t kFlooders = kMaxQueue / kQueueBatch;
    for (std::size_t i = 0; i < kFlooders; ++i) {
      send_at(floor_client(), arrive, kQueueBatch, false, conns);
    }
  };

  // A full inbox at 5.0: one slice has run when the listener restarts at
  // 5.07, and the next would be due at 5.10. The fresh backlog arrives at
  // 5.09.
  const Time first_at = 5.0;
  const Time restart_at = first_at + kQueueService + 0.02;
  const Time second_at = restart_at + 0.02;
  flood(first_at);
  rig_->simulation.schedule_at(restart_at, [&] { rig_->restart(); });
  rig_->simulation.schedule_at(restart_at + 0.001, [&] { flood(second_at); });

  run_until(restart_at);
  EXPECT_EQ(rig_->fillers(), kQueueBatch);
  run_until(second_at + kQueueService - 0.001);
  EXPECT_EQ(rig_->fillers(), kQueueBatch) << "a slice ran before its time";
  for (std::size_t slice = 1; slice <= kMaxQueue / kQueueBatch; ++slice) {
    run_until(second_at + static_cast<double>(slice) * kQueueService + 0.001);
    EXPECT_EQ(rig_->fillers(), (slice + 1) * kQueueBatch) << "slice " << slice;
  }
  run_until(second_at + 10.0);
  EXPECT_EQ(rig_->fillers(), kQueueBatch + kMaxQueue);
  EXPECT_EQ(rig_->stats().queue_dropped, 0u);
  EXPECT_EQ(rig_->stats().rate_limited, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Listeners, ListenerDefense,
    ::testing::Values(Listener::server, Listener::honeypot),
    [](const ::testing::TestParamInfo<Listener>& listener) {
      return std::string(name(listener.param));
    });

}  // namespace
}  // namespace edhp
