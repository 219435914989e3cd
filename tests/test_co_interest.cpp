// Co-interest analysis (file-file overlap and peer-interest structure) and
// the honeypot upload-queue behaviour.

#include <gtest/gtest.h>

#include "analysis/co_interest.hpp"
#include "honeypot/honeypot.hpp"
#include "server/server.hpp"

namespace edhp {
namespace {

using logbook::LogFile;
using logbook::LogRecord;
using logbook::QueryType;

LogRecord frec(double t, std::uint64_t peer, FileId file) {
  LogRecord r;
  r.timestamp = t;
  r.peer = peer;
  r.type = QueryType::start_upload;
  r.file = file;
  r.flags = logbook::kFlagHasFile;
  return r;
}

LogFile stage2(std::vector<LogRecord> records) {
  LogFile log;
  log.header.peer_kind = logbook::PeerIdKind::stage2_index;
  log.records = std::move(records);
  return log;
}

const FileId fa = FileId::from_words(1, 1);
const FileId fb = FileId::from_words(2, 2);
const FileId fc = FileId::from_words(3, 3);

TEST(CoInterest, TopFileOverlapsRankedBySharedPeers) {
  // Peers 0,1,2 query A; 1,2 also query B; 2 also queries C.
  auto log = stage2({
      frec(1, 0, fa), frec(2, 1, fa), frec(3, 2, fa),
      frec(4, 1, fb), frec(5, 2, fb),
      frec(6, 2, fc),
  });
  const std::vector<FileId> files{fa, fb, fc};
  const auto overlaps = analysis::top_file_overlaps(log, files, 10);
  ASSERT_EQ(overlaps.size(), 3u);
  EXPECT_EQ(overlaps[0].a, fa);
  EXPECT_EQ(overlaps[0].b, fb);
  EXPECT_EQ(overlaps[0].shared_peers, 2u);
  EXPECT_DOUBLE_EQ(overlaps[0].jaccard, 2.0 / 3.0);
  // A-C and B-C both share exactly peer 2; B-C has higher Jaccard (2 vs 3
  // union), so it ranks before A-C.
  EXPECT_EQ(overlaps[1].shared_peers, 1u);
  EXPECT_EQ(overlaps[1].a, fb);
  EXPECT_EQ(overlaps[1].b, fc);
}

TEST(CoInterest, TopKTruncates) {
  auto log = stage2({
      frec(1, 0, fa), frec(2, 0, fb), frec(3, 0, fc),
  });
  const std::vector<FileId> files{fa, fb, fc};
  EXPECT_EQ(analysis::top_file_overlaps(log, files, 1).size(), 1u);
}

TEST(CoInterest, DisjointFilesYieldNoEdges) {
  auto log = stage2({frec(1, 0, fa), frec(2, 1, fb)});
  const std::vector<FileId> files{fa, fb};
  EXPECT_TRUE(analysis::top_file_overlaps(log, files, 10).empty());
}

TEST(CoInterest, ParallelMatchesSerial) {
  std::vector<LogRecord> records;
  Rng rng(7);
  std::vector<FileId> files;
  for (std::uint64_t f = 0; f < 20; ++f) {
    files.push_back(FileId::from_words(f, f));
  }
  for (int i = 0; i < 3000; ++i) {
    records.push_back(frec(i, rng.below(300),
                           files[rng.below(files.size())]));
  }
  auto log = stage2(std::move(records));
  analysis::ThreadPool pool(4);
  const auto serial = analysis::top_file_overlaps(log, files, 50, nullptr);
  const auto parallel = analysis::top_file_overlaps(log, files, 50, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].shared_peers, parallel[i].shared_peers);
    EXPECT_EQ(serial[i].a, parallel[i].a);
    EXPECT_EQ(serial[i].b, parallel[i].b);
  }
}

TEST(CoInterest, SummaryCountsMultiFilePeers) {
  auto log = stage2({
      frec(1, 0, fa), frec(2, 0, fb), frec(3, 0, fc),  // peer 0: 3 files
      frec(4, 1, fa),                                  // peer 1: 1 file
      frec(5, 2, fa), frec(6, 2, fa),                  // peer 2: 1 file (dup)
  });
  const auto summary = analysis::co_interest_summary(log);
  EXPECT_EQ(summary.attributed_peers, 3u);
  EXPECT_EQ(summary.multi_file_peers, 1u);
  EXPECT_EQ(summary.max_files_one_peer, 3u);
  EXPECT_NEAR(summary.avg_files_per_peer, 5.0 / 3.0, 1e-9);
}

TEST(CoInterest, EmptyLogIsZero) {
  const auto summary = analysis::co_interest_summary(stage2({}));
  EXPECT_EQ(summary.attributed_peers, 0u);
  EXPECT_EQ(summary.avg_files_per_peer, 0.0);
}

// --- Upload queue ------------------------------------------------------------

class QueueTest : public ::testing::Test {
 protected:
  void settle(double span = 120.0) { s.run_until(s.now() + span); }

  sim::Simulation s{71};
  net::Network net{s};
  net::NodeId server_node = net.add_node(true);
  server::Server server{net, server_node, {}};
  FileId bait = FileId::from_words(9, 9);

  void SetUp() override { server.start(); }

  struct FakePeer {
    net::EndpointPtr ep;
    std::vector<proto::AnyMessage> inbox;
  };

  FakePeer contact_and_request(honeypot::Honeypot& hp) {
    FakePeer p;
    const auto node = net.add_node(true);
    net.connect(node, hp.node(), [&](net::EndpointPtr ep) {
      p.ep = std::move(ep);
      ASSERT_TRUE(p.ep);
      p.ep->on_message([&](net::Bytes bytes) {
        p.inbox.push_back(proto::decode(proto::Channel::client_client, bytes));
      });
      proto::Hello hello;
      hello.user = UserId::from_words(node, node);
      hello.client_id = net.info(node).ip.value();
      hello.port = 4662;
      p.ep->send(proto::encode(proto::AnyMessage{hello}));
      p.ep->send(proto::encode(proto::AnyMessage{proto::StartUpload{bait}}));
    });
    settle();
    return p;
  }

  template <typename T>
  static bool got(const FakePeer& p) {
    for (const auto& m : p.inbox) {
      if (std::holds_alternative<T>(m)) return true;
    }
    return false;
  }
};

TEST_F(QueueTest, UnlimitedSlotsByDefault) {
  honeypot::HoneypotConfig c;
  c.name = "open-hp";
  honeypot::Honeypot hp(net, net.add_node(true), c);
  hp.connect_to_server(honeypot::ServerRef{server_node, "srv", 4661});
  settle();
  auto first = contact_and_request(hp);
  auto second = contact_and_request(hp);
  auto third = contact_and_request(hp);
  for (const auto* peer : {&first, &second, &third}) {
    EXPECT_TRUE(got<proto::AcceptUpload>(*peer));
    EXPECT_FALSE(got<proto::QueueRank>(*peer));
  }
}

}  // namespace
}  // namespace edhp
