#include "robust/wire.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "robust/journal.h"
#include "util/posix_io.h"

namespace powerlim::robust {

namespace {

constexpr char kPrefix = 'W';

struct ParsedHeader {
  char tag = 0;
  std::uint32_t crc = 0;
  unsigned long long len = 0;
};

/// Parses "W <tag> <crc8> <len>" (the text before the newline).
bool parse_header(const std::string& header, ParsedHeader* out) {
  char prefix = 0;
  char tag = 0;
  char crc_text[16] = {0};
  unsigned long long len = 0;
  if (std::sscanf(header.c_str(), "%c %c %15s %llu", &prefix, &tag, crc_text,
                  &len) != 4 ||
      prefix != kPrefix || std::strlen(crc_text) != 8) {
    return false;
  }
  char* end = nullptr;
  const std::uint32_t crc =
      static_cast<std::uint32_t>(std::strtoul(crc_text, &end, 16));
  if (end == crc_text || *end != '\0') return false;
  out->tag = tag;
  out->crc = crc;
  out->len = len;
  return true;
}

}  // namespace

const char* to_string(WireDecode d) {
  switch (d) {
    case WireDecode::kOk:
      return "ok";
    case WireDecode::kEmpty:
      return "empty";
    case WireDecode::kCorrupt:
      return "corrupt";
    case WireDecode::kTrailing:
      return "trailing-bytes";
  }
  return "?";
}

std::string encode_wire_frame(char tag, const std::string& payload) {
  if (payload.size() > kMaxWirePayload) return std::string();
  char header[48];
  std::snprintf(header, sizeof header, "%c %c %08" PRIx32 " %zu\n", kPrefix,
                tag, crc32(payload.data(), payload.size()), payload.size());
  std::string frame = header;
  frame += payload;
  return frame;
}

Status write_wire_frame(int fd, char tag, const std::string& payload) {
  if (payload.size() > kMaxWirePayload) {
    return Status(StatusCode::kWireMalformed,
                  "refusing to send a frame over the " +
                      std::to_string(kMaxWirePayload) +
                      "-byte payload ceiling");
  }
  const std::string frame = encode_wire_frame(tag, payload);
  if (util::write_full(fd, frame.data(), frame.size()) != 0) {
    return Status(StatusCode::kInternal,
                  std::string("wire write failed: ") + std::strerror(errno));
  }
  return Status::Ok();
}

WireDecode decode_wire_frames(const std::string& bytes,
                              std::vector<WireFrame>* out) {
  out->clear();
  if (bytes.empty()) return WireDecode::kEmpty;
  FrameStream stream;
  stream.feed(bytes);
  WireFrame frame;
  for (;;) {
    const WireDecode d = stream.next(&frame);
    if (d == WireDecode::kOk) {
      out->push_back(frame);
      continue;
    }
    if (d == WireDecode::kCorrupt) return WireDecode::kCorrupt;
    break;  // kEmpty: nothing more decodable
  }
  if (out->empty()) return WireDecode::kCorrupt;
  return stream.buffered() == 0 ? WireDecode::kOk : WireDecode::kTrailing;
}

void FrameStream::feed(const std::string& bytes) {
  if (poisoned_) return;  // bytes after a torn frame are untrustworthy
  buffer_ += bytes;
}

void FrameStream::poison(const std::string& why) {
  poisoned_ = true;
  error_ = why;
  buffer_.clear();
}

WireDecode FrameStream::next(WireFrame* out) {
  if (poisoned_) return WireDecode::kCorrupt;
  if (buffer_.empty()) return WireDecode::kEmpty;
  const std::size_t header_end = buffer_.find('\n');
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxWireHeader) {
      poison("no frame header within " + std::to_string(kMaxWireHeader) +
             " bytes");
      return WireDecode::kCorrupt;
    }
    return WireDecode::kEmpty;
  }
  if (header_end > kMaxWireHeader) {
    poison("frame header line too long");
    return WireDecode::kCorrupt;
  }
  ParsedHeader h;
  if (!parse_header(buffer_.substr(0, header_end), &h)) {
    poison("malformed frame header");
    return WireDecode::kCorrupt;
  }
  if (h.len > max_payload_) {
    // Rejected before buffering or allocating anything payload-sized:
    // the hostile prefix costs the peer nothing but this connection.
    poison("hostile length prefix (" + std::to_string(h.len) + " > " +
           std::to_string(max_payload_) + " byte ceiling)");
    return WireDecode::kCorrupt;
  }
  const std::size_t payload_start = header_end + 1;
  if (buffer_.size() - payload_start < h.len) return WireDecode::kEmpty;
  std::string payload =
      buffer_.substr(payload_start, static_cast<std::size_t>(h.len));
  if (crc32(payload.data(), payload.size()) != h.crc) {
    poison("frame CRC mismatch");
    return WireDecode::kCorrupt;
  }
  out->tag = h.tag;
  out->payload = std::move(payload);
  buffer_.erase(0, payload_start + static_cast<std::size_t>(h.len));
  return WireDecode::kOk;
}

bool drain_fd(int fd, std::string* out) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = util::read_some(fd, buf, sizeof buf);
    if (n < 0) return false;
    if (n == 0) return true;
    out->append(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace powerlim::robust
