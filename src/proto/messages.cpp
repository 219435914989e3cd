#include "proto/messages.hpp"

#include <limits>

namespace edhp::proto {
namespace {

constexpr std::size_t kMaxListedFiles = 1 << 20;  // hostile-input bound
/// Smallest possible wire footprint of one PublishedFile entry: 16-byte
/// hash + u32 clientID + u16 port + u32 tag count (with zero tags).
constexpr std::size_t kPublishedFileMinBytes = 16 + 4 + 2 + 4;

constexpr std::size_t kHeaderBytes = 1 + 4 + 1;  // marker, length, opcode
constexpr std::size_t kHashBytes = 16;

void put_hash(ByteWriter& w, std::span<const std::uint8_t> bytes16) {
  w.bytes(bytes16);
}

template <typename Tag128>
Hash128<Tag128> get_hash(ByteReader& r) {
  auto raw = r.bytes(16);
  typename Hash128<Tag128>::Bytes b{};
  std::copy(raw.begin(), raw.end(), b.begin());
  return Hash128<Tag128>(b);
}

/// One packet: the header, then the payload that `body` writes, then the
/// length field patched from what was written. `payload_bytes` sizes the
/// buffer up front, so an exact figure makes the packet one allocation.
template <typename Body>
std::vector<std::uint8_t> packet(std::uint8_t opcode, std::size_t payload_bytes,
                                 Body&& body) {
  ByteWriter w(kHeaderBytes + payload_bytes);
  w.u8(kProtoEDonkey);
  w.u32(0);  // length, patched below
  w.u8(opcode);
  body(w);
  // Length counts the opcode byte plus payload.
  w.patch_u32(1, static_cast<std::uint32_t>(w.size() - 5));
  return std::move(w).take();
}

std::vector<std::uint8_t> empty_packet(std::uint8_t opcode) {
  return packet(opcode, 0, [](ByteWriter&) {});
}

/// Wire size of one PublishedFile entry: hash, clientID, port, then a
/// two-tag list (name, size).
constexpr std::size_t published_file_bytes(std::size_t name_bytes) {
  return kHashBytes + 4 + 2 + 4 + string_tag_bytes(name_bytes) + kU32TagBytes;
}

std::size_t file_list_bytes(std::span<const PublishedFile> files) {
  std::size_t n = 4;
  for (const auto& f : files) n += published_file_bytes(f.name.size());
  return n;
}

void put_file_list(ByteWriter& w, std::span<const PublishedFile> files) {
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const auto& f : files) {
    put_hash(w, f.file.bytes());
    w.u32(f.client_id);
    w.u16(f.port);
    w.u32(2);  // tag count
    encode_tag(w, kTagName, std::string_view(f.name));
    encode_tag(w, kTagFileSize, f.size);
  }
}

void decode_published_file_view(ByteReader& r, MessageArena& arena) {
  PublishedFileView f;
  f.file = get_hash<FileTag>(r);
  f.client_id = r.u32();
  f.port = r.u16();
  f.tags = decode_tags_view(r, arena.tags);
  if (const TagView* t = find_tag(arena.of(f.tags), kTagName)) {
    f.name = t->as_string();
  }
  if (const TagView* t = find_tag(arena.of(f.tags), kTagFileSize)) {
    f.size = t->as_u32();
  }
  arena.files.push_back(f);
}

FileRange decode_file_list_view(ByteReader& r, MessageArena& arena) {
  const std::uint32_t n = r.u32();
  if (n > kMaxListedFiles) {
    throw DecodeError("file list: absurd count " + std::to_string(n));
  }
  // Cross-check the count against the bytes actually present before
  // reserve(): a 4-byte lie must not size a huge allocation.
  if (static_cast<std::size_t>(n) * kPublishedFileMinBytes > r.remaining()) {
    throw DecodeError("file list: count " + std::to_string(n) +
                      " exceeds payload");
  }
  FileRange range{static_cast<std::uint32_t>(arena.files.size()), n};
  arena.files.reserve(arena.files.size() + n);
  for (std::uint32_t i = 0; i < n; ++i) {
    decode_published_file_view(r, arena);
  }
  return range;
}

std::vector<std::uint8_t> file_list_packet(std::uint8_t opcode,
                                           std::span<const PublishedFile> files) {
  return packet(opcode, file_list_bytes(files),
                [files](ByteWriter& w) { put_file_list(w, files); });
}

/// HELLO and HELLO-ANSWER share one body.
template <typename H>
std::vector<std::uint8_t> hello_packet(std::uint8_t opcode, const H& m) {
  const std::size_t bytes = 1 + kHashBytes + 4 + 2 + encoded_size(m.tags) + 4 + 2;
  return packet(opcode, bytes, [&m](ByteWriter& w) {
    w.u8(16);  // hash size, always 16 for MD4
    put_hash(w, m.user.bytes());
    w.u32(m.client_id);
    w.u16(m.port);
    encode_tags(w, m.tags);
    w.u32(m.server_ip);
    w.u16(m.server_port);
  });
}

template <typename T>
T decode_hello_body_view(ByteReader& r, MessageArena& arena) {
  const std::uint8_t hash_size = r.u8();
  if (hash_size != 16) {
    throw DecodeError("HELLO: unexpected hash size " + std::to_string(hash_size));
  }
  T m;
  m.user = get_hash<UserTag>(r);
  m.client_id = r.u32();
  m.port = r.u16();
  m.tags = decode_tags_view(r, arena.tags);
  m.server_ip = r.u32();
  m.server_port = r.u16();
  return m;
}

}  // namespace

std::uint8_t opcode_of(const AnyMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::uint8_t {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequest>) return kOpLoginRequest;
        else if constexpr (std::is_same_v<T, IdChange>) return kOpIdChange;
        else if constexpr (std::is_same_v<T, OfferFiles>) return kOpOfferFiles;
        else if constexpr (std::is_same_v<T, GetSources>) return kOpGetSources;
        else if constexpr (std::is_same_v<T, FoundSources>) return kOpFoundSources;
        else if constexpr (std::is_same_v<T, SearchRequest>) return kOpSearchRequest;
        else if constexpr (std::is_same_v<T, SearchResult>) return kOpSearchResult;
        else if constexpr (std::is_same_v<T, ServerMessage>) return kOpServerMessage;
        else if constexpr (std::is_same_v<T, Hello>) return kOpHello;
        else if constexpr (std::is_same_v<T, HelloAnswer>) return kOpHelloAnswer;
        else if constexpr (std::is_same_v<T, StartUpload>) return kOpStartUpload;
        else if constexpr (std::is_same_v<T, AcceptUpload>) return kOpAcceptUpload;
        else if constexpr (std::is_same_v<T, QueueRank>) return kOpQueueRank;
        else if constexpr (std::is_same_v<T, RequestParts>) return kOpRequestParts;
        else if constexpr (std::is_same_v<T, SendingPart>) return kOpSendingPart;
        else if constexpr (std::is_same_v<T, CancelTransfer>) return kOpCancelTransfer;
        else if constexpr (std::is_same_v<T, AskSharedFiles>) return kOpAskSharedFiles;
        else if constexpr (std::is_same_v<T, AskSharedFilesAnswer>)
          return kOpAskSharedFilesAnswer;
      },
      msg);
}

std::string_view name_of(const AnyMessage& msg) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequest>) return "LOGIN-REQUEST";
        else if constexpr (std::is_same_v<T, IdChange>) return "ID-CHANGE";
        else if constexpr (std::is_same_v<T, OfferFiles>) return "OFFER-FILES";
        else if constexpr (std::is_same_v<T, GetSources>) return "GET-SOURCES";
        else if constexpr (std::is_same_v<T, FoundSources>) return "FOUND-SOURCES";
        else if constexpr (std::is_same_v<T, SearchRequest>) return "SEARCH-REQUEST";
        else if constexpr (std::is_same_v<T, SearchResult>) return "SEARCH-RESULT";
        else if constexpr (std::is_same_v<T, ServerMessage>) return "SERVER-MESSAGE";
        else if constexpr (std::is_same_v<T, Hello>) return "HELLO";
        else if constexpr (std::is_same_v<T, HelloAnswer>) return "HELLO-ANSWER";
        else if constexpr (std::is_same_v<T, StartUpload>) return "START-UPLOAD";
        else if constexpr (std::is_same_v<T, AcceptUpload>) return "ACCEPT-UPLOAD";
        else if constexpr (std::is_same_v<T, QueueRank>) return "QUEUE-RANK";
        else if constexpr (std::is_same_v<T, RequestParts>) return "REQUEST-PART";
        else if constexpr (std::is_same_v<T, SendingPart>) return "SENDING-PART";
        else if constexpr (std::is_same_v<T, CancelTransfer>) return "CANCEL-TRANSFER";
        else if constexpr (std::is_same_v<T, AskSharedFiles>) return "ASK-SHARED-FILES";
        else if constexpr (std::is_same_v<T, AskSharedFilesAnswer>)
          return "ASK-SHARED-FILES-ANSWER";
      },
      msg);
}

std::vector<std::uint8_t> encode(const LoginRequest& m) {
  return packet(kOpLoginRequest, kHashBytes + 4 + 2 + encoded_size(m.tags),
                [&m](ByteWriter& w) {
                  put_hash(w, m.user.bytes());
                  w.u32(m.client_id);
                  w.u16(m.port);
                  encode_tags(w, m.tags);
                });
}

std::vector<std::uint8_t> encode(const IdChange& m) {
  return packet(kOpIdChange, 8, [&m](ByteWriter& w) {
    w.u32(m.client_id);
    w.u32(m.tcp_flags);
  });
}

std::vector<std::uint8_t> encode(const OfferFiles& m) {
  return file_list_packet(kOpOfferFiles, m.files);
}

std::vector<std::uint8_t> encode(const GetSources& m) {
  return packet(kOpGetSources, kHashBytes,
                [&m](ByteWriter& w) { put_hash(w, m.file.bytes()); });
}

std::vector<std::uint8_t> encode(const FoundSources& m) {
  if (m.sources.size() > 0xFF) {
    throw DecodeError("FoundSources: more than 255 sources in one packet");
  }
  return packet(kOpFoundSources, kHashBytes + 1 + 6 * m.sources.size(),
                [&m](ByteWriter& w) {
                  put_hash(w, m.file.bytes());
                  w.u8(static_cast<std::uint8_t>(m.sources.size()));
                  for (const auto& s : m.sources) {
                    w.u32(s.client_id);
                    w.u16(s.port);
                  }
                });
}

std::vector<std::uint8_t> encode(const SearchRequest& m) {
  return packet(kOpSearchRequest, 1 + 2 + m.query.size(), [&m](ByteWriter& w) {
    w.u8(0x01);  // search-type: plain string expression
    w.str16(m.query);
  });
}

std::vector<std::uint8_t> encode(const SearchResult& m) {
  return file_list_packet(kOpSearchResult, m.files);
}

std::vector<std::uint8_t> encode(const ServerMessage& m) {
  return packet(kOpServerMessage, 2 + m.text.size(),
                [&m](ByteWriter& w) { w.str16(m.text); });
}

std::vector<std::uint8_t> encode(const Hello& m) {
  return hello_packet(kOpHello, m);
}

std::vector<std::uint8_t> encode(const HelloAnswer& m) {
  return hello_packet(kOpHelloAnswer, m);
}

std::vector<std::uint8_t> encode(const StartUpload& m) {
  return packet(kOpStartUpload, kHashBytes,
                [&m](ByteWriter& w) { put_hash(w, m.file.bytes()); });
}

std::vector<std::uint8_t> encode(const AcceptUpload&) {
  return empty_packet(kOpAcceptUpload);
}

std::vector<std::uint8_t> encode(const QueueRank& m) {
  return packet(kOpQueueRank, 4, [&m](ByteWriter& w) { w.u32(m.rank); });
}

std::vector<std::uint8_t> encode(const RequestParts& m) {
  return packet(kOpRequestParts, kHashBytes + 8 * kRequestPartRanges,
                [&m](ByteWriter& w) {
                  put_hash(w, m.file.bytes());
                  for (auto b : m.begin) w.u32(b);
                  for (auto e : m.end) w.u32(e);
                });
}

std::vector<std::uint8_t> encode(const SendingPart& m) {
  return packet(kOpSendingPart, kHashBytes + 8 + m.data.size(),
                [&m](ByteWriter& w) {
                  put_hash(w, m.file.bytes());
                  w.u32(m.begin);
                  w.u32(m.end);
                  w.bytes(m.data);
                });
}

std::vector<std::uint8_t> encode(const CancelTransfer&) {
  return empty_packet(kOpCancelTransfer);
}

std::vector<std::uint8_t> encode(const AskSharedFiles&) {
  return empty_packet(kOpAskSharedFiles);
}

std::vector<std::uint8_t> encode(const AskSharedFilesAnswer& m) {
  return file_list_packet(kOpAskSharedFilesAnswer, m.files);
}

std::vector<std::uint8_t> encode(const AnyMessage& msg) {
  return std::visit([](const auto& m) { return encode(m); }, msg);
}

std::string_view name_of(const AnyMessageView& msg) {
  return std::visit(
      [](const auto& m) -> std::string_view {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequestView>) return "LOGIN-REQUEST";
        else if constexpr (std::is_same_v<T, IdChange>) return "ID-CHANGE";
        else if constexpr (std::is_same_v<T, OfferFilesView>) return "OFFER-FILES";
        else if constexpr (std::is_same_v<T, GetSources>) return "GET-SOURCES";
        else if constexpr (std::is_same_v<T, FoundSourcesView>) return "FOUND-SOURCES";
        else if constexpr (std::is_same_v<T, SearchRequestView>) return "SEARCH-REQUEST";
        else if constexpr (std::is_same_v<T, SearchResultView>) return "SEARCH-RESULT";
        else if constexpr (std::is_same_v<T, ServerMessageView>) return "SERVER-MESSAGE";
        else if constexpr (std::is_same_v<T, HelloView>) return "HELLO";
        else if constexpr (std::is_same_v<T, HelloAnswerView>) return "HELLO-ANSWER";
        else if constexpr (std::is_same_v<T, StartUpload>) return "START-UPLOAD";
        else if constexpr (std::is_same_v<T, AcceptUpload>) return "ACCEPT-UPLOAD";
        else if constexpr (std::is_same_v<T, QueueRank>) return "QUEUE-RANK";
        else if constexpr (std::is_same_v<T, RequestParts>) return "REQUEST-PART";
        else if constexpr (std::is_same_v<T, SendingPartView>) return "SENDING-PART";
        else if constexpr (std::is_same_v<T, CancelTransfer>) return "CANCEL-TRANSFER";
        else if constexpr (std::is_same_v<T, AskSharedFiles>) return "ASK-SHARED-FILES";
        else if constexpr (std::is_same_v<T, AskSharedFilesAnswerView>)
          return "ASK-SHARED-FILES-ANSWER";
      },
      msg);
}

AnyMessageView decode_view(Channel channel, std::span<const std::uint8_t> packet,
                           MessageArena& arena) {
  arena.reset();
  ByteReader r(packet);
  const std::uint8_t marker = r.u8();
  if (marker != kProtoEDonkey) {
    throw DecodeError("packet: bad protocol marker");
  }
  const std::uint32_t length = r.u32();
  if (length != r.remaining()) {
    throw DecodeError("packet: length field " + std::to_string(length) +
                      " does not match payload " + std::to_string(r.remaining()));
  }
  if (length == 0) {
    throw DecodeError("packet: missing opcode");
  }
  const std::uint8_t op = r.u8();

  auto finish = [&r](AnyMessageView m) {
    r.expect_done(std::string(name_of(m)));
    return m;
  };

  if (channel == Channel::client_server) {
    switch (op) {
      case kOpLoginRequest: {
        LoginRequestView m;
        m.user = get_hash<UserTag>(r);
        m.client_id = r.u32();
        m.port = r.u16();
        m.tags = decode_tags_view(r, arena.tags);
        return finish(m);
      }
      case kOpIdChange: {
        IdChange m;
        m.client_id = r.u32();
        m.tcp_flags = r.u32();
        return finish(m);
      }
      case kOpOfferFiles:
        return finish(OfferFilesView{decode_file_list_view(r, arena)});
      case kOpGetSources:
        return finish(GetSources{get_hash<FileTag>(r)});
      case kOpFoundSources: {
        FoundSourcesView m;
        m.file = get_hash<FileTag>(r);
        const std::uint8_t n = r.u8();
        m.sources = SourceRange{static_cast<std::uint32_t>(arena.sources.size()), n};
        arena.sources.reserve(arena.sources.size() + n);
        for (std::uint8_t i = 0; i < n; ++i) {
          SourceEntry s;
          s.client_id = r.u32();
          s.port = r.u16();
          arena.sources.push_back(s);
        }
        return finish(m);
      }
      case kOpSearchRequest: {
        const std::uint8_t search_type = r.u8();
        if (search_type != 0x01) {
          throw DecodeError("SEARCH-REQUEST: unsupported search type");
        }
        return finish(SearchRequestView{r.str16_view()});
      }
      case kOpSearchResult:
        return finish(SearchResultView{decode_file_list_view(r, arena)});
      case kOpServerMessage:
        return finish(ServerMessageView{r.str16_view()});
      default:
        throw DecodeError("client-server packet: unknown opcode " +
                          std::to_string(op));
    }
  }

  switch (op) {
    case kOpHello:
      return finish(decode_hello_body_view<HelloView>(r, arena));
    case kOpHelloAnswer:
      return finish(decode_hello_body_view<HelloAnswerView>(r, arena));
    case kOpStartUpload:
      return finish(StartUpload{get_hash<FileTag>(r)});
    case kOpAcceptUpload:
      return finish(AcceptUpload{});
    case kOpQueueRank:
      return finish(QueueRank{r.u32()});
    case kOpRequestParts: {
      RequestParts m;
      m.file = get_hash<FileTag>(r);
      for (auto& b : m.begin) b = r.u32();
      for (auto& e : m.end) e = r.u32();
      return finish(m);
    }
    case kOpSendingPart: {
      SendingPartView m;
      m.file = get_hash<FileTag>(r);
      m.begin = r.u32();
      m.end = r.u32();
      if (m.end < m.begin) {
        throw DecodeError("SENDING-PART: end before begin");
      }
      m.data = r.bytes(r.remaining());
      return finish(m);
    }
    case kOpCancelTransfer:
      return finish(CancelTransfer{});
    case kOpAskSharedFiles:
      return finish(AskSharedFiles{});
    case kOpAskSharedFilesAnswer:
      return finish(AskSharedFilesAnswerView{decode_file_list_view(r, arena)});
    default:
      throw DecodeError("client-client packet: unknown opcode " +
                        std::to_string(op));
  }
}

namespace {

std::vector<Tag> materialize_tags(TagRange range, const MessageArena& arena) {
  std::vector<Tag> out;
  out.reserve(range.count);
  for (const TagView& v : arena.of(range)) {
    if (v.is_string()) {
      out.push_back(Tag::string_tag(v.name, std::string(v.as_string())));
    } else {
      out.push_back(Tag::u32_tag(v.name, v.as_u32()));
    }
  }
  return out;
}

std::vector<PublishedFile> materialize_files(FileRange range,
                                             const MessageArena& arena) {
  std::vector<PublishedFile> out;
  out.reserve(range.count);
  for (const PublishedFileView& v : arena.of(range)) {
    PublishedFile f;
    f.file = v.file;
    f.client_id = v.client_id;
    f.port = v.port;
    f.name = std::string(v.name);
    f.size = v.size;
    out.push_back(std::move(f));
  }
  return out;
}

}  // namespace

AnyMessage materialize(const AnyMessageView& msg, const MessageArena& arena) {
  return std::visit(
      [&arena](const auto& m) -> AnyMessage {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, LoginRequestView>) {
          return LoginRequest{m.user, m.client_id, m.port,
                              materialize_tags(m.tags, arena)};
        } else if constexpr (std::is_same_v<T, OfferFilesView>) {
          return OfferFiles{materialize_files(m.files, arena)};
        } else if constexpr (std::is_same_v<T, FoundSourcesView>) {
          const auto span = arena.of(m.sources);
          return FoundSources{m.file, {span.begin(), span.end()}};
        } else if constexpr (std::is_same_v<T, SearchRequestView>) {
          return SearchRequest{std::string(m.query)};
        } else if constexpr (std::is_same_v<T, SearchResultView>) {
          return SearchResult{materialize_files(m.files, arena)};
        } else if constexpr (std::is_same_v<T, ServerMessageView>) {
          return ServerMessage{std::string(m.text)};
        } else if constexpr (std::is_same_v<T, HelloView>) {
          return Hello{m.user,      m.client_id,  m.port,
                       materialize_tags(m.tags, arena), m.server_ip,
                       m.server_port};
        } else if constexpr (std::is_same_v<T, HelloAnswerView>) {
          return HelloAnswer{m.user,      m.client_id,  m.port,
                             materialize_tags(m.tags, arena), m.server_ip,
                             m.server_port};
        } else if constexpr (std::is_same_v<T, SendingPartView>) {
          return SendingPart{m.file,
                             m.begin,
                             m.end,
                             {m.data.begin(), m.data.end()}};
        } else if constexpr (std::is_same_v<T, AskSharedFilesAnswerView>) {
          return AskSharedFilesAnswer{materialize_files(m.files, arena)};
        } else {
          return m;  // fixed-size messages are shared between the variants
        }
      },
      msg);
}

AnyMessage decode(Channel channel, std::span<const std::uint8_t> packet) {
  MessageArena arena;
  return materialize(decode_view(channel, packet, arena), arena);
}

}  // namespace edhp::proto
