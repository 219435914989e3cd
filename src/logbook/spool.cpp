#include "logbook/spool.hpp"

#include <bit>
#include <utility>

#include "common/bytes.hpp"
#include "logbook/journal.hpp"

namespace edhp::logbook {

std::uint64_t chunk_checksum(const LogChunk& chunk) {
  ByteWriter w(64 + chunk.records.size() * 56);
  w.u16(chunk.honeypot);
  w.u32(chunk.epoch);
  w.u64(chunk.seq);
  w.u64(chunk.name_base);
  w.u64(std::bit_cast<std::uint64_t>(chunk.cut_at_local));
  for (const auto& name : chunk.names) {
    w.str16(name);
  }
  for (const auto& r : chunk.records) {
    w.u64(std::bit_cast<std::uint64_t>(r.timestamp));
    w.u64(r.peer);
    w.u64(r.user);
    w.bytes(r.file.bytes());
    w.u32(r.client_version);
    w.u16(r.honeypot);
    w.u16(r.peer_port);
    w.u16(r.name_ref);
    w.u8(static_cast<std::uint8_t>(r.type));
    w.u8(r.flags);
  }
  return fnv1a(w.view());
}

std::uint64_t chunk_cost_bytes(const LogChunk& chunk) {
  // Fixed header: honeypot(2) + epoch(4) + seq(8) + name_base(8) = 22,
  // plus the trailing checksum word. Records are costed at their packed
  // wire width (56 B), names at length-prefixed size — NOT sizeof() of the
  // in-memory containers, so the figure is platform-independent.
  std::uint64_t cost = 22 + 8;
  for (const auto& name : chunk.names) {
    cost += 2 + name.size();
  }
  cost += chunk.records.size() * 56;
  return cost;
}

void SpoolStore::set_header(std::uint16_t honeypot, const LogHeader& header) {
  auto& hp = honeypots_[honeypot];
  hp.header = header;
  hp.header_set = true;
}

SpoolStore::Ingest SpoolStore::ingest(const LogChunk& chunk) {
  const auto key = std::make_pair(chunk.honeypot, chunk.seq);
  if (chunk_checksum(chunk) != chunk.checksum) {
    // The payload does not match what the honeypot stamped: a corrupted
    // transfer. Never merged, never acked — the sender keeps it spooled
    // and a later re-send (or the operator) resolves it.
    ++chunks_quarantined_;
    if (quarantine_.size() < kQuarantineRefCap) {
      quarantine_.push_back({chunk.honeypot, chunk.seq});
    }
    // Conservation accounting: the records are quarantined-resident only
    // while no intact copy of this sequence is durable. A corrupt re-send
    // of an already-stored sequence adds nothing (its records are safe),
    // and a re-quarantine of the same pending sequence is not re-counted.
    const auto hp_it = honeypots_.find(chunk.honeypot);
    const bool already_stored =
        hp_it != honeypots_.end() && hp_it->second.chunks.contains(chunk.seq);
    if (!already_stored && !quarantine_pending_.contains(key)) {
      if (quarantine_pending_.size() < kQuarantineRefCap) {
        quarantine_pending_.emplace(key, chunk.records.size());
        quarantine_resident_ += chunk.records.size();
      } else {
        quarantine_resident_untracked_ += chunk.records.size();
      }
    }
    return Ingest::quarantined;
  }
  auto& hp = honeypots_[chunk.honeypot];
  if (hp.chunks.contains(chunk.seq)) {
    ++chunks_duplicate_;
    return Ingest::duplicate;
  }
  // An intact copy landed: any earlier quarantine of this sequence is
  // reclassified — those records' terminal disposition is `stored`.
  if (const auto pending = quarantine_pending_.find(key);
      pending != quarantine_pending_.end()) {
    quarantine_resident_ -= pending->second;
    quarantine_pending_.erase(pending);
  }
  // Splice the name-table tail at its declared base. Re-sent chunks carry
  // the same (base, names) slice, and chunks are cut in order, so the table
  // grows append-only; an out-of-order arrival just pre-extends it.
  if (chunk.name_base + chunk.names.size() > hp.names.size()) {
    hp.names.resize(chunk.name_base + chunk.names.size());
  }
  for (std::size_t i = 0; i < chunk.names.size(); ++i) {
    hp.names[chunk.name_base + i] = chunk.names[i];
  }
  records_stored_ += chunk.records.size();
  hp.chunks.emplace(chunk.seq, chunk.records);
  ++chunks_accepted_;
  return Ingest::stored;
}

std::uint64_t SpoolStore::next_seq(std::uint16_t honeypot) const {
  const auto it = honeypots_.find(honeypot);
  if (it == honeypots_.end() || it->second.chunks.empty()) return 0;
  return it->second.chunks.rbegin()->first + 1;
}

LogFile SpoolStore::reassemble(std::uint16_t honeypot) const {
  LogFile out;
  const auto it = honeypots_.find(honeypot);
  if (it == honeypots_.end()) return out;
  const auto& hp = it->second;
  if (hp.header_set) out.header = hp.header;
  out.names = hp.names;
  if (out.names.empty()) out.names.push_back("");
  std::size_t total = 0;
  for (const auto& [seq, records] : hp.chunks) {
    total += records.size();
  }
  out.records.reserve(total);
  for (const auto& [seq, records] : hp.chunks) {
    out.records.insert(out.records.end(), records.begin(), records.end());
  }
  return out;
}

std::vector<LogFile> SpoolStore::reassemble_all() const {
  std::vector<LogFile> out;
  out.reserve(honeypots_.size());
  for (const auto& [id, hp] : honeypots_) {
    out.push_back(reassemble(id));
  }
  return out;
}

}  // namespace edhp::logbook
