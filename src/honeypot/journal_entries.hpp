#pragma once
// Typed payloads of the manager's write-ahead journal (logbook/journal.hpp):
// one struct per logbook::JournalEntryType, documented there.
//
// Each struct's `fields` function lists its fields once, in wire order, and
// serves both directions: Io<false> encodes through it, Io<true> decodes.
// The live Manager commits a transition by appending the encoded entry and
// applying it; replay applies the same entries decoded from the journal;
// edhp_inspect's triage modes read them. The journaled state itself is a
// Checkpoint, the payload of a checkpoint entry.
//
// Wire rules (little-endian): integers at their width, bool as u8 (non-zero
// reads true), enums as their underlying type, doubles as IEEE-754 bits in a
// u64, strings as str16, node ids as u64, vectors and maps as a u32 count
// and the elements. The frame type is the schema version. Decoding throws
// DecodeError, also for an element count the rest of the payload cannot hold
// (before allocating). Bytes after the last field are ignored.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/budget.hpp"
#include "common/bytes.hpp"
#include "honeypot/config.hpp"
#include "honeypot/honeypot.hpp"
#include "logbook/journal.hpp"
#include "logbook/merge.hpp"

namespace edhp::honeypot::journal {

using logbook::JournalEntryType;

/// `Self` is `T`, possibly const, so one field list of a type declared
/// elsewhere serves the encoder (const value) and the decoder (mutable one).
template <typename Self, typename T>
concept Is = std::same_as<std::remove_const_t<Self>, T>;

/// A 32-bit node id carried as u64 on the wire.
template <typename T>
struct AsU64 {
  T& value;
};
template <typename T>
AsU64<T> as_u64(T& value) {
  return {value};
}
template <typename T>
constexpr bool kIsAsU64 = false;
template <typename T>
constexpr bool kIsAsU64<AsU64<T>> = true;

void fields(Is<ServerRef> auto& s, auto& io) {
  io(as_u64(s.node), s.name, s.port);
}
void fields(Is<AdvertisedFile> auto& f, auto& io) { io(f.id, f.name, f.size); }
void fields(Is<logbook::ClockObservation> auto& o, auto& io) {
  io(o.honeypot, o.true_time, o.local_time);
}

/// A lying server benched, and the slots displaced away from it so the
/// reinstate can move exactly those honeypots back.
struct ServerQuarantine {
  static constexpr auto kType = JournalEntryType::server_quarantine;
  std::string server_name;
  ServerRef original;
  Time until = 0;
  std::vector<std::uint32_t> displaced;  ///< fleet indices
  bool operator==(const ServerQuarantine&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.server_name, e.original, e.until, e.displaced);
  }
};

enum class EscalateReason : std::uint8_t { failures = 0, heartbeat = 1 };

/// Everything the journal rebuilds. Live-only manager state (the honeypot
/// processes, relaunch backoff gates, downtime windows, the poll timer) is
/// not in it.
struct Checkpoint {
  static constexpr auto kType = JournalEntryType::checkpoint;
  struct Slot {  ///< the journaled half of one fleet slot
    std::uint16_t id = 0;
    net::NodeId host = 0;
    ServerRef server;
    std::uint32_t consecutive_failures = 0;  ///< failed relaunches in a row
    std::vector<AdvertisedFile> files;       ///< the ordered list
    bool operator==(const Slot&) const = default;
    static void fields(auto& s, auto& io) {
      io(s.id, as_u64(s.host), s.server, s.consecutive_failures, s.files);
    }
  };
  struct Health {  ///< probe-verdict ledger of one server
    double score = 0;
    std::uint64_t misses = 0;
    std::uint64_t confirms = 0;
    bool operator==(const Health&) const = default;
    static void fields(auto& h, auto& io) { io(h.score, h.misses, h.confirms); }
  };

  std::uint64_t relaunches = 0;
  std::uint64_t next_backup = 0;  ///< round-robin position in `backups`
  std::uint64_t escalations = 0;
  std::uint64_t heartbeat_escalations = 0;
  std::uint64_t re_advertise_repairs = 0;
  std::uint64_t manager_recoveries = 0;
  double manager_downtime = 0;
  std::uint64_t orphans_readopted = 0;
  bool started = false;  ///< polling requested
  std::vector<ServerRef> backups;
  std::vector<Slot> fleet;
  /// Per honeypot, the next spool sequence number not proven stored.
  std::map<std::uint16_t, std::uint64_t> ack_frontier;
  std::uint64_t servers_quarantined = 0;
  std::uint64_t servers_reinstated = 0;
  std::map<std::string, Health> health;
  std::vector<ServerQuarantine> quarantines;  ///< in force
  std::vector<logbook::ClockObservation> clock_obs;  ///< arrival order
  bool operator==(const Checkpoint&) const = default;

  static void fields(auto& c, auto& io) {
    io(c.relaunches, c.next_backup, c.escalations, c.heartbeat_escalations,
       c.re_advertise_repairs, c.manager_recoveries, c.manager_downtime,
       c.orphans_readopted, c.started, c.backups, c.fleet, c.ack_frontier);
    // The Byzantine and clock sections were appended to the format later:
    // a frame that ends before one replays with it (and what follows) empty.
    if (io.at_end()) return;
    io(c.servers_quarantined, c.servers_reinstated, c.health, c.quarantines);
    if (io.at_end()) return;
    io(c.clock_obs);
  }
};

struct Launch {
  static constexpr auto kType = JournalEntryType::launch;
  std::uint16_t id = 0;
  net::NodeId host = 0;
  ServerRef server;
  bool operator==(const Launch&) const = default;
  static void fields(auto& e, auto& io) { io(e.id, as_u64(e.host), e.server); }
};

struct Reassign {
  static constexpr auto kType = JournalEntryType::reassign;
  std::uint32_t index = 0;
  ServerRef server;
  bool operator==(const Reassign&) const = default;
  static void fields(auto& e, auto& io) { io(e.index, e.server); }
};

struct Advertise {
  static constexpr auto kType = JournalEntryType::advertise;
  std::uint32_t index = 0;
  std::vector<AdvertisedFile> files;
  bool operator==(const Advertise&) const = default;
  static void fields(auto& e, auto& io) { io(e.index, e.files); }
};

struct Backups {
  static constexpr auto kType = JournalEntryType::backups;
  std::vector<ServerRef> servers;
  bool operator==(const Backups&) const = default;
  static void fields(auto& e, auto& io) { io(e.servers); }
};

struct Start {
  static constexpr auto kType = JournalEntryType::start;
  bool operator==(const Start&) const = default;
  static void fields(auto&, auto&) {}
};

struct Stop {
  static constexpr auto kType = JournalEntryType::stop;
  bool operator==(const Stop&) const = default;
  static void fields(auto&, auto&) {}
};

struct Relaunch {
  static constexpr auto kType = JournalEntryType::relaunch;
  std::uint32_t index = 0;
  bool operator==(const Relaunch&) const = default;
  static void fields(auto& e, auto& io) { io(e.index); }
};

struct Escalate {
  static constexpr auto kType = JournalEntryType::escalate;
  std::uint32_t index = 0;
  EscalateReason reason = EscalateReason::failures;
  bool used_backup = false;  ///< false: reconnected in place
  bool operator==(const Escalate&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.index, e.reason, e.used_backup);
  }
};

struct Repair {
  static constexpr auto kType = JournalEntryType::repair;
  std::uint32_t index = 0;
  bool operator==(const Repair&) const = default;
  static void fields(auto& e, auto& io) { io(e.index); }
};

struct ChunkStored {
  static constexpr auto kType = JournalEntryType::chunk_stored;
  std::uint16_t honeypot = 0;
  std::uint32_t epoch = 0;    ///< audit only
  std::uint64_t seq = 0;
  std::uint32_t records = 0;  ///< audit only
  bool operator==(const ChunkStored&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.honeypot, e.epoch, e.seq, e.records);
  }
};

struct Recovered {
  static constexpr auto kType = JournalEntryType::recovered;
  double downtime = 0;  ///< control-plane dead time (s)
  std::uint32_t adopted = 0;
  bool operator==(const Recovered&) const = default;
  static void fields(auto& e, auto& io) { io(e.downtime, e.adopted); }
};

struct DegradeEnter {
  static constexpr auto kType = JournalEntryType::degrade_enter;
  std::uint16_t honeypot = 0;
  budget::DegradeReason reason = budget::DegradeReason::none;
  std::uint64_t resident_bytes = 0;  ///< spool bytes at the transition
  std::uint64_t unspooled_tail = 0;  ///< records not yet spooled
  bool operator==(const DegradeEnter&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.honeypot, e.reason, e.resident_bytes, e.unspooled_tail);
  }
};

struct DegradeExit {  ///< carries the honeypot's cumulative totals
  static constexpr auto kType = JournalEntryType::degrade_exit;
  std::uint16_t honeypot = 0;
  std::uint64_t records_shed = 0;
  std::uint64_t chunks_compacted = 0;
  std::uint64_t backpressure_cuts = 0;
  bool operator==(const DegradeExit&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.honeypot, e.records_shed, e.chunks_compacted, e.backpressure_cuts);
  }
};

struct ProbeVerdict {
  static constexpr auto kType = JournalEntryType::probe_verdict;
  std::uint16_t honeypot = 0;
  bool confirmed = false;
  std::string server;  ///< name of the server the probe ran against
  bool operator==(const ProbeVerdict&) const = default;
  static void fields(auto& e, auto& io) {
    io(e.honeypot, e.confirmed, e.server);
  }
};

struct ServerReinstate {
  static constexpr auto kType = JournalEntryType::server_reinstate;
  std::string server_name;
  bool operator==(const ServerReinstate&) const = default;
  static void fields(auto& e, auto& io) { io(e.server_name); }
};

struct ClockObservation {
  static constexpr auto kType = JournalEntryType::clock_observation;
  logbook::ClockObservation observation;
  bool operator==(const ClockObservation&) const = default;
  static void fields(auto& e, auto& io) { io(e.observation); }
};

template <typename... Entry>
struct EntryList {};
using AllEntries =
    EntryList<Checkpoint, Launch, Reassign, Advertise, Backups, Start, Stop,
              Relaunch, Escalate, Repair, ChunkStored, Recovered, DegradeEnter,
              DegradeExit, ProbeVerdict, ServerQuarantine, ServerReinstate,
              ClockObservation>;

// --- The codec ---------------------------------------------------------------

template <typename T>
std::size_t min_wire_size();

/// `n`, when `remaining` payload bytes can hold `n` elements of at least
/// `min_size` bytes each; throws DecodeError otherwise.
std::uint32_t checked_count(std::uint32_t n, std::size_t remaining,
                            std::size_t min_size);

/// Walks `fields` in one direction: Io<false> encodes a const entry into
/// bytes, Io<true> decodes a payload into a mutable one.
template <bool kDecode>
class Io {
 public:
  Io() = default;
  explicit Io(std::span<const std::uint8_t> payload) : buf_(payload) {}

  template <typename... T>
  void operator()(T&&... values) {
    (field(values), ...);
  }
  [[nodiscard]] bool at_end() const noexcept {
    if constexpr (kDecode) return buf_.remaining() == 0;
    return false;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] std::vector<std::uint8_t> take() && {
    return std::move(buf_).take();
  }

 private:
  std::uint32_t count(std::uint32_t n, std::size_t min_size) const {
    return checked_count(n, buf_.remaining(), min_size);
  }

  template <typename T>
  void field(T& v) {
    using V = std::remove_const_t<T>;
    if constexpr (std::is_enum_v<V>) {
      auto raw = static_cast<std::underlying_type_t<V>>(v);
      field(raw);
      if constexpr (kDecode) v = static_cast<V>(raw);
    } else if constexpr (std::is_same_v<V, double>) {
      auto bits = std::bit_cast<std::uint64_t>(v);
      field(bits);
      if constexpr (kDecode) v = std::bit_cast<double>(bits);
    } else if constexpr (kIsAsU64<V>) {
      std::uint64_t wide = v.value;
      field(wide);
      if constexpr (kDecode) {
        v.value = static_cast<std::remove_cvref_t<decltype(v.value)>>(wide);
      }
    } else if constexpr (std::is_unsigned_v<V> && kDecode) {  // bool too
      v = static_cast<V>(sizeof(V) == 1   ? buf_.u8()
                         : sizeof(V) == 2 ? buf_.u16()
                         : sizeof(V) == 4 ? buf_.u32()
                                          : buf_.u64());
    } else if constexpr (std::is_unsigned_v<V>) {
      if constexpr (sizeof(V) == 1) buf_.u8(v);
      if constexpr (sizeof(V) == 2) buf_.u16(v);
      if constexpr (sizeof(V) == 4) buf_.u32(v);
      if constexpr (sizeof(V) == 8) buf_.u64(v);
    } else if constexpr (std::is_same_v<V, std::string>) {
      if constexpr (kDecode) v = buf_.str16();
      else buf_.str16(v);
    } else if constexpr (std::is_same_v<V, FileId>) {
      if constexpr (kDecode) {
        FileId::Bytes id{};
        const auto raw = buf_.bytes(id.size());
        std::copy(raw.begin(), raw.end(), id.begin());
        v = FileId(id);
      } else {
        buf_.bytes(v.bytes());
      }
    } else if constexpr (requires { typename V::mapped_type; }) {
      // A map travels as its list of (key, value) pairs.
      std::vector<std::pair<typename V::key_type, typename V::mapped_type>>
          pairs(v.begin(), v.end());
      field(pairs);
      if constexpr (kDecode) v = V(pairs.begin(), pairs.end());
    } else if constexpr (requires { v.first, v.second; }) {
      field(v.first);
      field(v.second);
    } else if constexpr (requires { typename V::value_type; }) {
      auto n = static_cast<std::uint32_t>(v.size());
      field(n);
      if constexpr (kDecode) {
        v.resize(count(n, min_wire_size<typename V::value_type>()));
      }
      for (auto& element : v) field(element);
    } else if constexpr (requires { V::fields(v, *this); }) {
      V::fields(v, *this);
    } else {
      fields(v, *this);
    }
  }

  std::conditional_t<kDecode, ByteReader, ByteWriter> buf_;
};

/// The payload of `entry`.
template <typename Entry>
[[nodiscard]] std::vector<std::uint8_t> encode(const Entry& entry) {
  Io<false> io;
  io(entry);
  return std::move(io).take();
}

/// Decode a payload of Entry::kType. Throws DecodeError.
template <typename Entry>
[[nodiscard]] Entry decode(std::span<const std::uint8_t> payload) {
  Entry entry;
  Io<true> io(payload);
  io(entry);
  return entry;
}

/// Bytes of the smallest T (empty strings and lists): the decoder's bound on
/// how many elements a payload can hold.
template <typename T>
std::size_t min_wire_size() {
  static const std::size_t size = [] {
    Io<false> io;
    io(T{});
    return io.size();
  }();
  return size;
}

/// Decode `entry` and pass the typed struct to `visitor` when its type is one
/// of `Only...` (any type when the list is empty). Returns whether the type
/// matched; throws DecodeError when it matched but the payload is malformed.
template <typename... Only, typename Visitor>
bool visit(const logbook::JournalEntry& entry, Visitor&& visitor) {
  const auto dispatch = [&]<typename... E>(EntryList<E...>) {
    return ((entry.type == static_cast<std::uint8_t>(E::kType) &&
             (visitor(decode<E>(entry.payload)), true)) ||
            ...);
  };
  if constexpr (sizeof...(Only) == 0) {
    return dispatch(AllEntries{});
  } else {
    return dispatch(EntryList<Only...>{});
  }
}

/// Overload set of lambdas, for visitors.
template <typename... F>
struct Overloaded : F... {
  using F::operator()...;
};

}  // namespace edhp::honeypot::journal
