// The manager-side data pipeline in isolation: take per-honeypot stage-1
// logs (written to disk in the binary format), merge them, run stage-2
// renumbering, anonymise a filename corpus, and export CSV — exactly what
// an operator does after a real campaign before publishing the dataset.
//
// Run: ./build/examples/anonymize_logs

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "anonymize/ip_anonymizer.hpp"
#include "anonymize/name_anonymizer.hpp"
#include "anonymize/renumber.hpp"
#include "logbook/log_io.hpp"
#include "logbook/merge.hpp"

using namespace edhp;

namespace {

/// Fabricate a small stage-1 log, as a honeypot would write it: IPs pass
/// through the salted one-way hash before the record exists.
logbook::LogFile make_stage1_log(std::uint16_t hp_id, const std::string& salt) {
  anonymize::IpAnonymizer stage1(salt);
  logbook::LogFile log;
  log.header.honeypot = hp_id;
  log.header.honeypot_name = "hp-" + std::to_string(hp_id);
  log.header.strategy = hp_id % 2 ? "random-content" : "no-content";
  log.header.server_name = "big-server";
  log.header.server_ip = 0x50E08101;
  log.header.server_port = 4661;

  const auto name_ref = log.intern("eMule 0.49b");
  // Three peers, one shared across honeypots (IP 82.34.1.9).
  const IpAddr peers[3] = {IpAddr(82, 34, 1, 9),
                           IpAddr(90, 10, 0, static_cast<std::uint8_t>(hp_id)),
                           IpAddr(134, 157, 8, 44)};
  double t = 60.0 * hp_id;
  for (const auto& ip : peers) {
    logbook::LogRecord r;
    r.timestamp = t += 30;
    r.honeypot = hp_id;
    r.type = logbook::QueryType::hello;
    r.peer = stage1.anonymize(ip);  // never the raw address
    r.user = 0x1111ull * (hp_id + 1u);
    r.peer_port = 4662;
    r.name_ref = name_ref;
    r.flags = logbook::kFlagHighId;
    log.records.push_back(r);
  }
  return log;
}

}  // namespace

int main() {
  const std::string salt = "campaign-2008-10-salt";  // shared by the manager
  const auto dir = std::filesystem::temp_directory_path() / "edhp-logs";
  std::filesystem::create_directories(dir);

  // 1. Honeypots write stage-1 logs to disk.
  std::vector<std::string> paths;
  for (std::uint16_t hp = 0; hp < 3; ++hp) {
    const auto log = make_stage1_log(hp, salt);
    const auto path = (dir / ("hp-" + std::to_string(hp) + ".edhplog")).string();
    logbook::save(path, log);
    paths.push_back(path);
    std::cout << "wrote " << path << " (" << log.records.size()
              << " records, stage-1 hashes)\n";
  }

  // 2. The manager gathers and merges them.
  std::vector<logbook::LogFile> logs;
  for (const auto& path : paths) {
    logs.push_back(logbook::load(path));
  }
  auto merged = logbook::merge_logs(logbook::borrow(logs));
  std::cout << "\nmerged: " << merged.records.size()
            << " records across 3 honeypots\n";

  // 3. Stage-2: coherent renumbering. The shared peer keeps one identity.
  const auto distinct = anonymize::renumber_peers(merged);
  std::cout << "stage-2 renumbering: " << distinct
            << " distinct peers (expected 5: two peers contacted every "
               "honeypot, three were local to one)\n";

  // 4. Filename anonymisation for the observed-files catalog.
  std::vector<std::string> observed_names{
      "Holiday.Video.2008.DVDRip.avi", "holiday.photos.2008.rar",
      "john_smith_birthday_party.avi", "linux-distribution-2008.10.iso",
      "jane.cv.2008.pdf",
  };
  anonymize::NameAnonymizer names(observed_names, 2);
  std::cout << "\nfilename anonymisation (threshold 2):\n";
  for (const auto& n : observed_names) {
    std::cout << "  " << n << "  ->  " << names.anonymize(n) << "\n";
  }
  const auto stats = names.stats();
  std::cout << "kept " << stats.kept_words << " frequent words, replaced "
            << stats.replaced_words << " rare ones\n";

  // 5. Publishable CSV.
  std::ostringstream csv;
  logbook::write_csv(csv, merged);
  std::cout << "\npublishable CSV (first lines):\n";
  std::istringstream lines(csv.str());
  std::string line;
  for (int i = 0; i < 5 && std::getline(lines, line); ++i) {
    std::cout << "  " << line << "\n";
  }

  if (std::getenv("EDHP_KEEP_LOGS") != nullptr) {
    std::cout << "\nEDHP_KEEP_LOGS set: logs left in " << dir.string()
              << " (try tools/edhp_inspect on them)\n";
  } else {
    std::filesystem::remove_all(dir);
  }
  return 0;
}
