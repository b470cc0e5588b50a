#include "src/core/record_file.hpp"

#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "src/core/atomic_file.hpp"

namespace csim {

namespace {

// magic(4) + version(1) + payload_len(8) + payload_fnv(8)
constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 8 + 8;

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  Fnv1a f;
  f.bytes(bytes);
  return f.h;
}

std::string digest_hex(std::uint64_t d) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

// --- RecordWriter ------------------------------------------------------------

void RecordWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void RecordWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void RecordWriter::str(std::string_view s) {
  u64(s.size());
  out.append(s);
}

void RecordWriter::counters(const MissCounters& c) {
  for (const auto field : kMissCounterFields) u64(c.*field);
  for (const std::uint64_t v : c.by_class) u64(v);
}

// --- RecordReader ------------------------------------------------------------

std::uint8_t RecordReader::u8() {
  if (remaining() < 1) {
    ok_ = false;
    return 0;
  }
  return static_cast<std::uint8_t>(buf_[pos_++]);
}

std::uint64_t RecordReader::u64() {
  if (remaining() < 8) {
    ok_ = false;
    return 0;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

double RecordReader::f64() { return std::bit_cast<double>(u64()); }

std::string RecordReader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    ok_ = false;
    return {};
  }
  return std::string(bytes(static_cast<std::size_t>(n)));
}

std::string_view RecordReader::bytes(std::size_t n) {
  if (n > remaining()) {
    ok_ = false;
    return {};
  }
  const std::string_view s = buf_.substr(pos_, n);
  pos_ += n;
  return s;
}

MissCounters RecordReader::counters() {
  MissCounters c;
  for (const auto field : kMissCounterFields) c.*field = u64();
  for (std::uint64_t& v : c.by_class) v = u64();
  return c;
}

bool RecordReader::fits(std::uint64_t n, std::size_t bytes_per_entry) {
  if (bytes_per_entry != 0 && n > remaining() / bytes_per_entry) {
    ok_ = false;
    return false;
  }
  return true;
}

bool RecordReader::finish(std::string& why) const {
  if (!ok_) {
    why = "payload truncated mid-field";
    return false;
  }
  if (pos_ != buf_.size()) {
    why = "trailing bytes after payload";
    return false;
  }
  return true;
}

// --- Frames ------------------------------------------------------------------

std::string encode_frame(const RecordFormat& fmt, std::string_view payload) {
  RecordWriter w;
  w.out.reserve(kFrameHeaderBytes + payload.size());
  w.out.append(fmt.magic);
  w.u8(fmt.version);
  w.u64(payload.size());
  w.u64(fnv1a(payload));
  w.out.append(payload);
  return std::move(w.out);
}

Frame decode_frame(const RecordFormat& fmt, std::string_view bytes) {
  Frame f;
  const auto fail = [&](std::string error) {
    f.error = std::move(error);
    return f;
  };
  if (bytes.size() < kFrameHeaderBytes) return fail("truncated frame header");
  RecordReader hdr(bytes.substr(0, kFrameHeaderBytes));
  if (hdr.bytes(fmt.magic.size()) != fmt.magic) return fail("bad magic");
  f.version = hdr.u8();
  const std::uint64_t payload_len = hdr.u64();
  const std::uint64_t payload_fnv = hdr.u64();
  if (f.version < fmt.min_version || f.version > fmt.version) {
    return fail("unsupported version " + std::to_string(f.version));
  }
  const std::size_t available = bytes.size() - kFrameHeaderBytes;
  const std::string lengths = "declares " + std::to_string(payload_len) +
                              " payload bytes, " + std::to_string(available) +
                              " available";
  if (payload_len > fmt.max_payload || payload_len > available) {
    return fail("truncated record: " + lengths);
  }
  if (payload_len < available) return fail("bytes after the record: " + lengths);
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (fnv1a(payload) != payload_fnv) return fail("checksum mismatch");
  f.payload = payload;
  return f;
}

// --- Files -------------------------------------------------------------------

std::string record_path(const RecordFormat& fmt, const std::string& dir,
                        std::uint64_t digest) {
  return (std::filesystem::path(dir) /
          (digest_hex(digest) + std::string(fmt.extension)))
      .string();
}

std::string write_record_file(const RecordFormat& fmt, const std::string& dir,
                              std::uint64_t digest, std::string_view frame) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error(std::string(fmt.name) + ": cannot create " + dir +
                             ": " + ec.message());
  }
  std::string path = record_path(fmt, dir, digest);
  atomic_write_file(path, frame);
  return path;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

}  // namespace csim
