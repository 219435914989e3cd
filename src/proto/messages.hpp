#pragma once
// eDonkey message structures and their wire codecs.
//
// Every message exchanged in the platform — between honeypots and servers,
// peers and servers, and peers and honeypots — is one of these structs. The
// simulator serializes each message to real eDonkey wire bytes (header,
// opcode, payload) and the receiver parses them back, so this layer is
// exactly what a live deployment would link against.
//
// The opcode space is contextual: 0x01 is LOGIN-REQUEST on a client-server
// connection but HELLO on a client-client connection, so decoding requires
// the Channel the packet arrived on.

#include <array>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "proto/opcodes.hpp"
#include "proto/tags.hpp"

namespace edhp::proto {

/// Which kind of connection a packet travelled on (selects the opcode map).
enum class Channel : std::uint8_t {
  client_server,  ///< peer or honeypot <-> directory server
  client_client,  ///< peer <-> peer (including honeypots)
};

/// A file as advertised to a server (OFFER-FILES) or listed to another peer
/// (ASK-SHARED-FILES answer): hash, the advertiser's address, and metadata.
struct PublishedFile {
  FileId file;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  std::string name;
  std::uint32_t size = 0;  ///< bytes; 2008-era wire format is 32-bit

  bool operator==(const PublishedFile&) const = default;
};

/// One provider returned by FOUND-SOURCES.
struct SourceEntry {
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;

  bool operator==(const SourceEntry&) const = default;
};

// --- Client <-> server messages -------------------------------------------

/// First message on a server connection: identifies the client.
struct LoginRequest {
  UserId user;
  std::uint32_t client_id = 0;  ///< 0 until the server assigns one
  std::uint16_t port = 0;
  std::vector<Tag> tags;  ///< kTagName, kTagVersion, kTagPort

  bool operator==(const LoginRequest&) const = default;
};

/// Server's reply to login: the clientID for this session (HighID = the
/// peer's IP as u32, LowID < 2^24 when the peer is not reachable).
struct IdChange {
  std::uint32_t client_id = 0;
  std::uint32_t tcp_flags = 0;

  bool operator==(const IdChange&) const = default;
};

/// Advertise (replace) the sender's shared-file list; also the keep-alive.
struct OfferFiles {
  std::vector<PublishedFile> files;

  bool operator==(const OfferFiles&) const = default;
};

/// Ask the server for providers of a file.
struct GetSources {
  FileId file;

  bool operator==(const GetSources&) const = default;
};

/// Server's provider list for a file.
struct FoundSources {
  FileId file;
  std::vector<SourceEntry> sources;

  bool operator==(const FoundSources&) const = default;
};

/// Keyword search (single expression; the honeypot platform only needs
/// plain keyword queries).
struct SearchRequest {
  std::string query;

  bool operator==(const SearchRequest&) const = default;
};

/// Search results.
struct SearchResult {
  std::vector<PublishedFile> files;

  bool operator==(const SearchResult&) const = default;
};

/// Free-text administrative message from the server.
struct ServerMessage {
  std::string text;

  bool operator==(const ServerMessage&) const = default;
};

// --- Client <-> client messages -------------------------------------------

/// Handshake opening a peer connection. Carries the persistent user hash,
/// the session clientID, the listening port, metadata tags, and the address
/// of the server the peer is connected to.
struct Hello {
  UserId user;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  std::vector<Tag> tags;  ///< kTagName, kTagVersion
  std::uint32_t server_ip = 0;
  std::uint16_t server_port = 0;

  bool operator==(const Hello&) const = default;
};

/// Handshake reply; same payload as Hello.
struct HelloAnswer {
  UserId user;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  std::vector<Tag> tags;
  std::uint32_t server_ip = 0;
  std::uint16_t server_port = 0;

  bool operator==(const HelloAnswer&) const = default;
};

/// Request to be granted an upload slot for a file.
struct StartUpload {
  FileId file;

  bool operator==(const StartUpload&) const = default;
};

/// Grant of an upload slot.
struct AcceptUpload {
  bool operator==(const AcceptUpload&) const = default;
};

/// Position in the provider's upload queue.
struct QueueRank {
  std::uint32_t rank = 0;

  bool operator==(const QueueRank&) const = default;
};

/// Request up to three byte ranges [begin, end) of a file.
struct RequestParts {
  FileId file;
  std::array<std::uint32_t, kRequestPartRanges> begin{};
  std::array<std::uint32_t, kRequestPartRanges> end{};

  bool operator==(const RequestParts&) const = default;
};

/// One block of file content.
struct SendingPart {
  FileId file;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::vector<std::uint8_t> data;

  bool operator==(const SendingPart&) const = default;
};

/// Abort an in-progress transfer.
struct CancelTransfer {
  bool operator==(const CancelTransfer&) const = default;
};

/// Ask a peer for the list of files it shares (the "view shared files"
/// feature; may be refused by configuration).
struct AskSharedFiles {
  bool operator==(const AskSharedFiles&) const = default;
};

/// The peer's shared-file list.
struct AskSharedFilesAnswer {
  std::vector<PublishedFile> files;

  bool operator==(const AskSharedFilesAnswer&) const = default;
};

/// Any protocol message.
using AnyMessage =
    std::variant<LoginRequest, IdChange, OfferFiles, GetSources, FoundSources,
                 SearchRequest, SearchResult, ServerMessage, Hello, HelloAnswer,
                 StartUpload, AcceptUpload, QueueRank, RequestParts, SendingPart,
                 CancelTransfer, AskSharedFiles, AskSharedFilesAnswer>;

// --- Zero-copy view layer --------------------------------------------------
//
// decode_view() parses a packet without copying payload bytes: strings become
// std::string_view into the receive buffer, variable-length sequences (tags,
// file lists, source lists) are appended to a caller-owned MessageArena and
// addressed by index ranges. The views are valid only while BOTH the packet
// buffer and the arena live; net::Endpoint guarantees the buffer outlives the
// message handler, so a handler may decode and act on views with zero
// allocation in steady state. Consumers that retain data (server index,
// honeypot observation log, spool) must copy out of the views explicitly.

/// Index range into MessageArena::files.
struct FileRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Index range into MessageArena::sources.
struct SourceRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Non-owning counterpart of PublishedFile. `name` and `size` are extracted
/// from the tag list with the same strictness as the owning decoder; the raw
/// tags stay addressable through `tags` for consumers that want the rest.
struct PublishedFileView {
  FileId file;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  std::string_view name;
  std::uint32_t size = 0;
  TagRange tags;
};

/// Per-delivery scratch storage backing one decoded view message. reset() is
/// cheap (capacity is retained), so a long-lived arena reaches a zero-
/// allocation steady state after a handful of messages.
struct MessageArena {
  std::vector<TagView> tags;
  std::vector<PublishedFileView> files;
  std::vector<SourceEntry> sources;

  void reset() noexcept {
    tags.clear();
    files.clear();
    sources.clear();
  }

  [[nodiscard]] std::span<const TagView> of(TagRange r) const {
    return std::span<const TagView>(tags).subspan(r.first, r.count);
  }
  [[nodiscard]] std::span<const PublishedFileView> of(FileRange r) const {
    return std::span<const PublishedFileView>(files).subspan(r.first, r.count);
  }
  [[nodiscard]] std::span<const SourceEntry> of(SourceRange r) const {
    return std::span<const SourceEntry>(sources).subspan(r.first, r.count);
  }
};

struct LoginRequestView {
  UserId user;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  TagRange tags;
};

struct OfferFilesView {
  FileRange files;
};

struct FoundSourcesView {
  FileId file;
  SourceRange sources;
};

struct SearchRequestView {
  std::string_view query;
};

struct SearchResultView {
  FileRange files;
};

struct ServerMessageView {
  std::string_view text;
};

struct HelloView {
  UserId user;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  TagRange tags;
  std::uint32_t server_ip = 0;
  std::uint16_t server_port = 0;
};

struct HelloAnswerView {
  UserId user;
  std::uint32_t client_id = 0;
  std::uint16_t port = 0;
  TagRange tags;
  std::uint32_t server_ip = 0;
  std::uint16_t server_port = 0;
};

struct SendingPartView {
  FileId file;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::span<const std::uint8_t> data;  ///< borrows the packet buffer
};

struct AskSharedFilesAnswerView {
  FileRange files;
};

/// Any protocol message, view flavour. Fixed-size messages are shared with
/// AnyMessage; alternatives appear in the same order as AnyMessage.
using AnyMessageView =
    std::variant<LoginRequestView, IdChange, OfferFilesView, GetSources,
                 FoundSourcesView, SearchRequestView, SearchResultView,
                 ServerMessageView, HelloView, HelloAnswerView, StartUpload,
                 AcceptUpload, QueueRank, RequestParts, SendingPartView,
                 CancelTransfer, AskSharedFiles, AskSharedFilesAnswerView>;

/// Serialize a message into a complete packet (header + opcode + payload).
/// There is one encoder per message type. It reads the message's fields in
/// place (tags and file entries are written from their string views and
/// integers) and sizes the packet before writing it, so the returned buffer
/// is the call's one allocation. A sender that keeps a message between
/// sends (a per-node tag list, a reused scratch) encodes it without copying.
[[nodiscard]] std::vector<std::uint8_t> encode(const LoginRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const IdChange& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const OfferFiles& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const GetSources& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const FoundSources& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const SearchRequest& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const SearchResult& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const ServerMessage& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const Hello& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const HelloAnswer& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const StartUpload& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AcceptUpload& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const QueueRank& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const RequestParts& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const SendingPart& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const CancelTransfer& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AskSharedFiles& m);
[[nodiscard]] std::vector<std::uint8_t> encode(const AskSharedFilesAnswer& m);
/// The encoder of the type `msg` holds, for callers that hold a variant.
[[nodiscard]] std::vector<std::uint8_t> encode(const AnyMessage& msg);

/// Parse a complete packet received on `channel`; throws DecodeError on any
/// malformed input (bad marker, bad length, unknown opcode, short payload,
/// trailing bytes).
[[nodiscard]] AnyMessage decode(Channel channel,
                                std::span<const std::uint8_t> packet);

/// Zero-copy parse of a complete packet. Resets `arena`, then fills it with
/// the message's variable-length pieces. Accepts and rejects exactly the
/// same inputs as decode() — the owning decoder is implemented on top of
/// this one.
[[nodiscard]] AnyMessageView decode_view(Channel channel,
                                         std::span<const std::uint8_t> packet,
                                         MessageArena& arena);

/// Deep-copy a view message (plus its arena pieces) into an owning message.
[[nodiscard]] AnyMessage materialize(const AnyMessageView& msg,
                                     const MessageArena& arena);

/// Opcode a message serializes to (for logging and tests).
[[nodiscard]] std::uint8_t opcode_of(const AnyMessage& msg);

/// Human-readable message name (for logs and reports).
[[nodiscard]] std::string_view name_of(const AnyMessage& msg);
[[nodiscard]] std::string_view name_of(const AnyMessageView& msg);

}  // namespace edhp::proto
