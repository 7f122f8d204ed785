// pabr-snapshot — inspection tool for simulator snapshot files written
// by the --checkpoint-every flags and the save() APIs (DESIGN.md §13).
//
//   pabr_snapshot STATE.pabrsnap              # header meta + section table
//   pabr_snapshot STATE.pabrsnap --validate   # parse + checksum check only
//   pabr_snapshot A.pabrsnap --diff B.pabrsnap
//                                             # compare headers + sections
//
// Validation is the Reader's own strictness: bad magic, an unknown
// format version, a checksum mismatch or a truncated section all fail.
// The exit code is 0 for a valid file (or an identical pair under
// --diff) and 1 otherwise, so CI jobs can gate on it directly.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "snapshot/format.h"
#include "util/cli.h"

namespace {

using pabr::snapshot::FormatError;
using pabr::snapshot::kind_name;
using pabr::snapshot::Reader;

std::optional<Reader> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    std::cerr << "pabr_snapshot: cannot open " << path << "\n";
    return std::nullopt;
  }
  try {
    return Reader(is);
  } catch (const FormatError& e) {
    std::cerr << "pabr_snapshot: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

void print_inspect(const std::string& path, const Reader& r) {
  const auto& h = r.header();
  std::printf("file           %s\n", path.c_str());
  std::printf("format_version %u\n", h.format_version);
  std::printf("kind           %s\n", kind_name(h.kind));
  std::printf("git_sha        %s\n",
              h.git_sha.empty() ? "(unknown)" : h.git_sha.c_str());
  std::printf("build_type     %s\n",
              h.build_type.empty() ? "(unknown)" : h.build_type.c_str());
  std::printf("config_digest  %016llx\n",
              static_cast<unsigned long long>(h.config_digest));
  std::printf("sim_time       %.17g\n", h.sim_time);
  std::printf("run_seed       %llu\n",
              static_cast<unsigned long long>(h.run_seed));
  std::printf("sections       %zu\n", r.sections().size());
  std::printf("%-14s %12s  %s\n", "section", "bytes", "checksum");
  for (const auto& s : r.sections()) {
    std::printf("%-14s %12zu  %016llx\n", s.name.c_str(), s.payload.size(),
                static_cast<unsigned long long>(s.checksum));
  }
}

int diff(const std::string& path_a, const Reader& a, const std::string& path_b,
         const Reader& b) {
  const std::vector<std::string> lines =
      pabr::snapshot::differences(a, b, path_a, path_b);
  if (lines.empty()) {
    std::printf("identical: %s == %s\n", path_a.c_str(), path_b.c_str());
    return 0;
  }
  for (const std::string& line : lines) std::printf("%s\n", line.c_str());
  std::printf("%zu difference(s)\n", lines.size());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  pabr::cli::Parser parser(
      "pabr_snapshot",
      "inspect, validate and diff simulator snapshot files");
  bool validate = false;
  std::string diff_path;
  parser.add_bool("validate", &validate,
                  "parse + checksum check only; print one verdict line");
  parser.add_string("diff", &diff_path,
                    "compare against this second snapshot file");
  if (!parser.parse(argc, argv)) return 1;
  if (parser.positional().size() != 1) {
    std::cerr << parser.usage();
    std::cerr << "pabr_snapshot: exactly one snapshot file expected\n";
    return 1;
  }
  const std::string path = parser.positional().front();

  const auto reader = read_file(path);
  if (!reader.has_value()) {
    if (validate) std::printf("invalid %s\n", path.c_str());
    return 1;
  }

  if (!diff_path.empty()) {
    const auto other = read_file(diff_path);
    if (!other.has_value()) return 1;
    return diff(path, *reader, diff_path, *other);
  }

  if (validate) {
    std::printf("valid %s (%s, %zu sections, t=%.17g)\n", path.c_str(),
                kind_name(reader->header().kind), reader->sections().size(),
                reader->header().sim_time);
    return 0;
  }

  print_inspect(path, *reader);
  return 0;
}
