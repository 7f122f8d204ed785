// Versioned, endian-stable binary snapshot container (DESIGN.md §13).
//
// A snapshot file is a header followed by named sections:
//
//   header   magic "PABRSNAP" | u32 format_version | u32 system kind |
//            str git_sha | str build_type | u64 config digest |
//            f64 sim_time | u64 run_seed | u32 section count
//   section  str name | u64 payload size | u64 FNV-1a checksum | payload
//
// Every integer is written as explicit little-endian bytes and every
// double as the little-endian bytes of its IEEE-754 bit pattern, so a
// snapshot written on any host loads bit-for-bit on any other. Strings
// are u32 length + raw bytes. Section payloads are self-describing only
// to their producer — the container just frames, checksums and names
// them, which is what lets `pabr-snapshot` validate and diff files
// without instantiating a simulator.
//
// Readers are strict: bad magic, an unknown format version, a checksum
// mismatch, a truncated payload or an over-read all throw FormatError
// with a message naming the offending section. The load path never
// constructs simulation state from an unvalidated byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pabr::snapshot {

inline constexpr std::string_view kMagic = "PABRSNAP";
// Version history:
//   1 — initial format.
//   2 — SystemConfig gained `time_origin` (appended after `seed`).
inline constexpr std::uint32_t kFormatVersion = 2;

/// Which simulator wrote the file; a loader refuses a mismatched kind.
enum class SystemKind : std::uint32_t {
  kLinear = 1,   ///< core::CellularSystem (1-D road)
  kHex = 2,      ///< core::HexCellularSystem
  kSharded = 3,  ///< sim::sharded::ShardedExecutor
};

/// Malformed, truncated or corrupted snapshot input.
class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

/// Accumulates one section's payload with explicit little-endian
/// encoding.
class Encoder {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoding of one section's payload.
class Decoder {
 public:
  Decoder(std::string_view name, std::string_view payload)
      : name_(name), payload_(payload) {}

  std::uint8_t u8();
  bool b() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::string str();

  std::size_t remaining() const { return payload_.size() - pos_; }
  /// Every payload byte must be consumed — a partial read means the
  /// writer and reader disagree about the section layout.
  void finish() const;

 private:
  const unsigned char* take(std::size_t n);

  std::string name_;
  std::string_view payload_;
  std::size_t pos_ = 0;
};

struct Header {
  std::uint32_t format_version = kFormatVersion;
  SystemKind kind = SystemKind::kLinear;
  std::string git_sha;
  std::string build_type;
  std::uint64_t config_digest = 0;
  double sim_time = 0.0;
  std::uint64_t run_seed = 0;
};

/// Builds a snapshot in memory section by section; finish() frames and
/// checksums everything into the output stream.
class Writer {
 public:
  Writer(SystemKind kind, std::uint64_t config_digest, double sim_time,
         std::uint64_t run_seed);

  /// Starts a new section; all encoding calls go to it until the next
  /// begin_section()/finish(). Names must be unique within a file.
  Encoder& begin_section(std::string name);

  // Convenience forwarders into the current section.
  void u8(std::uint8_t v) { cur().u8(v); }
  void b(bool v) { cur().b(v); }
  void u32(std::uint32_t v) { cur().u32(v); }
  void u64(std::uint64_t v) { cur().u64(v); }
  void i64(std::int64_t v) { cur().i64(v); }
  void f64(double v) { cur().f64(v); }
  void str(std::string_view s) { cur().str(s); }

  void finish(std::ostream& os);

 private:
  Encoder& cur();

  Header header_;
  std::vector<std::pair<std::string, Encoder>> sections_;
  bool finished_ = false;
};

struct Section {
  std::string name;
  std::uint64_t checksum = 0;
  std::string payload;
};

/// Parses and validates a whole snapshot stream (header, framing, every
/// section checksum). Throws FormatError on any defect.
class Reader {
 public:
  explicit Reader(std::istream& is);

  const Header& header() const { return header_; }
  const std::vector<Section>& sections() const { return sections_; }

  bool has_section(std::string_view name) const;
  /// Decoder over a named section; throws FormatError when absent.
  Decoder open(std::string_view name) const;

  /// Refuses files written by a different simulator kind.
  void require_kind(SystemKind kind) const;

 private:
  Header header_;
  std::vector<Section> sections_;
};

/// "linear", "hex" or "sharded".
const char* kind_name(SystemKind kind);

/// Where snapshot `b` differs from `a`: the header's kind, config digest,
/// sim time and run seed (not the git sha or build type that produced
/// it), then every section's payload in a's order, then the sections
/// only b has. One line per difference, starting "header <field>" or
/// "section <name>"; `label_a`/`label_b` name the files in "only in"
/// lines. Empty when the snapshots are identical.
std::vector<std::string> differences(const Reader& a, const Reader& b,
                                     std::string_view label_a = "a",
                                     std::string_view label_b = "b");

}  // namespace pabr::snapshot
