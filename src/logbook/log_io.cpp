#include "logbook/log_io.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <vector>

#include "common/bytes.hpp"

namespace edhp::logbook {
namespace {

constexpr char kMagic[8] = {'E', 'D', 'H', 'P', 'L', 'O', 'G', '1'};

/// Encoded size of one record.
constexpr std::size_t kRecordBytes = 56;
/// Records are encoded and decoded in blocks of about 64 KiB, so neither
/// direction ever buffers a whole log.
constexpr std::size_t kBlockRecords = 64 * 1024 / kRecordBytes;

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void put_str(ByteWriter& w, const std::string& s) {
  w.u64(s.size());
  w.bytes(as_bytes(s));
}

void put_record(ByteWriter& w, const LogRecord& r) {
  w.u64(std::bit_cast<std::uint64_t>(r.timestamp));
  w.u64(r.peer);
  w.u64(r.user);
  w.bytes(r.file.bytes());
  w.u64(r.client_version);
  w.u64((static_cast<std::uint64_t>(r.honeypot) << 48) |
        (static_cast<std::uint64_t>(r.peer_port) << 32) |
        (static_cast<std::uint64_t>(r.name_ref) << 16) |
        (static_cast<std::uint64_t>(r.type) << 8) |
        static_cast<std::uint64_t>(r.flags));
}

void emit(std::ostream& out, const ByteWriter& w) {
  out.write(reinterpret_cast<const char*>(w.view().data()),
            static_cast<std::streamsize>(w.size()));
}

/// Reads exact-sized pieces of a stream into one reused buffer and hands
/// each out as a ByteReader; a short read is a DecodeError.
class Source {
 public:
  explicit Source(std::istream& in) : in_(in) {}

  ByteReader take(std::size_t n, const char* what) {
    if (buf_.size() < n) buf_.resize(n);
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_.gcount()) != n) {
      throw DecodeError(std::string("log: truncated ") + what);
    }
    consumed_ += n;
    return ByteReader({buf_.data(), n});
  }

  std::uint64_t u64(const char* what) { return take(8, what).u64(); }

  std::string str() {
    const auto n = u64("string length");
    if (n > (1u << 20)) throw DecodeError("log: absurd string length");
    const auto raw = take(n, "string").bytes(n);
    return {raw.begin(), raw.end()};
  }

  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }

 private:
  std::istream& in_;
  std::vector<std::uint8_t> buf_;
  std::uint64_t consumed_ = 0;
};

LogRecord get_record(ByteReader& in, std::size_t n_names) {
  LogRecord r;
  r.timestamp = std::bit_cast<double>(in.u64());
  r.peer = in.u64();
  r.user = in.u64();
  FileId::Bytes fb{};
  const auto file = in.bytes(fb.size());
  std::copy(file.begin(), file.end(), fb.begin());
  r.file = FileId(fb);
  r.client_version = static_cast<std::uint32_t>(in.u64());
  const auto packed = in.u64();
  r.honeypot = static_cast<std::uint16_t>(packed >> 48);
  r.peer_port = static_cast<std::uint16_t>((packed >> 32) & 0xFFFF);
  r.name_ref = static_cast<std::uint16_t>((packed >> 16) & 0xFFFF);
  const auto type = static_cast<std::uint8_t>((packed >> 8) & 0xFF);
  if (type > 2) throw DecodeError("log: bad record type");
  r.type = static_cast<QueryType>(type);
  r.flags = static_cast<std::uint8_t>(packed & 0xFF);
  if (r.name_ref >= n_names) {
    throw DecodeError("log: name reference out of range");
  }
  return r;
}

/// Parse a binary log. `size`, when known, is the input's total length:
/// the record array is then reserved once, after checking the record count
/// against the bytes left. Without it the array grows with the records
/// actually read, so a crafted count can never reserve more than the input
/// holds.
LogFile decode(std::istream& in, std::optional<std::uint64_t> size) {
  Source src(in);
  const auto magic = src.take(sizeof(kMagic), "magic").bytes(sizeof(kMagic));
  if (!std::ranges::equal(magic, as_bytes({kMagic, sizeof(kMagic)}))) {
    throw DecodeError("log: bad magic");
  }
  LogFile log;
  auto& h = log.header;
  h.honeypot = static_cast<std::uint16_t>(src.u64("header"));
  h.honeypot_name = src.str();
  h.strategy = src.str();
  h.server_name = src.str();
  h.server_ip = static_cast<std::uint32_t>(src.u64("header"));
  h.server_port = static_cast<std::uint16_t>(src.u64("header"));
  const auto kind = src.u64("header");
  if (kind > 1) throw DecodeError("log: bad peer-id kind");
  h.peer_kind = static_cast<PeerIdKind>(kind);

  const auto n_names = src.u64("name-table size");
  if (n_names == 0 || n_names > 0x10000) {
    throw DecodeError("log: bad name-table size");
  }
  log.names.clear();
  log.names.reserve(n_names);
  for (std::uint64_t i = 0; i < n_names; ++i) {
    log.names.push_back(src.str());
  }

  const auto n_records = src.u64("record count");
  if (size) {
    const auto left = *size - std::min(*size, src.consumed());
    if (n_records > left / kRecordBytes) {
      throw DecodeError("log: record count exceeds the input");
    }
    log.records.reserve(n_records);
  }
  for (std::uint64_t done = 0; done < n_records;) {
    const auto n = std::min<std::uint64_t>(kBlockRecords, n_records - done);
    ByteReader block = src.take(n * kRecordBytes, "record");
    for (std::uint64_t i = 0; i < n; ++i) {
      log.records.push_back(get_record(block, log.names.size()));
    }
    done += n;
  }
  return log;
}

}  // namespace

void write_binary(std::ostream& out, const LogFile& log) {
  ByteWriter head;
  head.bytes(as_bytes({kMagic, sizeof(kMagic)}));
  const auto& h = log.header;
  head.u64(h.honeypot);
  put_str(head, h.honeypot_name);
  put_str(head, h.strategy);
  put_str(head, h.server_name);
  head.u64(h.server_ip);
  head.u64(h.server_port);
  head.u64(static_cast<std::uint64_t>(h.peer_kind));
  head.u64(log.names.size());
  for (const auto& n : log.names) {
    put_str(head, n);
  }
  head.u64(log.records.size());
  emit(out, head);

  const auto& records = log.records;
  for (std::size_t at = 0; at < records.size(); at += kBlockRecords) {
    const auto end = std::min(records.size(), at + kBlockRecords);
    ByteWriter block((end - at) * kRecordBytes);
    for (std::size_t i = at; i < end; ++i) put_record(block, records[i]);
    emit(out, block);
  }
}

LogFile read_binary(std::istream& in) { return decode(in, std::nullopt); }

void save(const std::string& path, const LogFile& log) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  write_binary(out, log);
  if (!out) throw std::runtime_error("write failed: " + path);
}

LogFile load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::error_code error;
  const auto size = std::filesystem::file_size(path, error);
  if (error) throw std::runtime_error("cannot size: " + path);
  return decode(in, size);
}

void write_csv(std::ostream& out, const LogFile& log) {
  out << "timestamp,honeypot,type,peer,user,high_id,file,peer_port,"
         "client_name,client_version\n";
  for (const auto& r : log.records) {
    out << r.timestamp << ',' << r.honeypot << ',' << to_string(r.type) << ','
        << r.peer << ',' << r.user << ',' << (r.high_id() ? 1 : 0) << ','
        << (r.has_file() ? r.file.hex() : std::string{}) << ',' << r.peer_port
        << ',' << log.names[r.name_ref] << ',' << r.client_version << '\n';
  }
}

}  // namespace edhp::logbook
