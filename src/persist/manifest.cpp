#include "persist/manifest.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "persist/encoding.h"
#include "persist/record_io.h"
#include "persist/store_codec.h"

namespace msa::persist {

namespace {

/// The single record type inside a `.levels` sidecar.
constexpr std::uint8_t kRecLevels = 30;

[[noreturn]] void levels_error(const std::string& path,
                               const std::string& what) {
  throw std::runtime_error("persist: levels manifest " + path + ": " + what);
}

}  // namespace

std::string levels_manifest_path(const std::string& store_path) {
  return store_path + ".levels";
}

std::string segment_file_name(const std::string& store_path,
                              std::uint64_t sequence) {
  const std::string base =
      std::filesystem::path(store_path).filename().string();
  char buf[32];
  std::snprintf(buf, sizeof buf, ".g%06" PRIu64 ".seg", sequence);
  return base + buf;
}

std::string segment_path(const std::string& store_path,
                         const SegmentRef& ref) {
  return (std::filesystem::path(store_path).parent_path() / ref.file)
      .string();
}

std::optional<LevelsManifest> read_levels_manifest(
    const std::string& store_path) {
  const std::string path = levels_manifest_path(store_path);
  if (!std::filesystem::exists(path)) return std::nullopt;

  std::optional<Record> rec;
  bool truncated = false;
  try {
    RecordReader reader{path};
    rec = reader.next();
    truncated = reader.truncated();
  } catch (const std::runtime_error& e) {
    levels_error(path, e.what());
  }
  if (!rec.has_value() || truncated || rec->type != kRecLevels) {
    levels_error(path, "missing or corrupt levels record");
  }

  LevelsManifest out;
  ByteReader r{rec->payload};
  out.format = r.u32();
  if (out.format != kLevelsManifestFormatVersion) {
    levels_error(path,
                 "unsupported format version " + std::to_string(out.format));
  }
  out.generation = r.u64();
  {
    const std::string blob = r.str();
    out.identity = decode_store_manifest(std::span<const std::uint8_t>{
        reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()});
  }
  const std::uint64_t n = r.count("levels manifest segment");
  out.segments.reserve(n);
  std::uint64_t prev_sequence = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    SegmentRef ref;
    ref.file = r.str();
    ref.level = r.u32();
    ref.sequence = r.varint();
    ref.bytes = r.varint();
    ref.trials = r.varint();
    ref.cells = r.varint();
    if (i > 0 && ref.sequence <= prev_sequence) {
      levels_error(path, "segment sequences out of order");
    }
    prev_sequence = ref.sequence;
    out.segments.push_back(std::move(ref));
  }
  return out;
}

void write_levels_manifest(const std::string& store_path,
                           const LevelsManifest& manifest) {
  ByteWriter w;
  w.u32(manifest.format);
  w.u64(manifest.generation);
  {
    const std::vector<std::uint8_t> blob =
        encode_store_manifest(manifest.identity);
    w.str(std::string_view{reinterpret_cast<const char*>(blob.data()),
                           blob.size()});
  }
  w.varint(manifest.segments.size());
  for (const SegmentRef& ref : manifest.segments) {
    w.str(ref.file);
    w.u32(ref.level);
    w.varint(ref.sequence);
    w.varint(ref.bytes);
    w.varint(ref.trials);
    w.varint(ref.cells);
  }

  const std::string path = levels_manifest_path(store_path);
  const std::string tmp = path + ".tmp";
  {
    RecordWriter writer{tmp, RecordWriter::Mode::kTruncate};
    writer.append(kRecLevels, w.bytes());
    writer.sync();
  }
  std::filesystem::rename(tmp, path);
  fsync_parent_dir(path);
}

void remove_segment_files(const std::string& store_path) {
  std::error_code ec;
  std::filesystem::remove(levels_manifest_path(store_path), ec);
  const std::filesystem::path store{store_path};
  const std::string base = store.filename().string();
  std::filesystem::path dir = store.parent_path();
  if (dir.empty()) dir = ".";
  if (!std::filesystem::is_directory(dir, ec)) return;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > base.size() && name.starts_with(base) &&
        name.ends_with(".seg")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  fsync_parent_dir(store_path);
}

}  // namespace msa::persist
