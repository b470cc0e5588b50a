#include "src/mem/warm_state.hpp"

#include <filesystem>
#include <memory>
#include <mutex>
#include <system_error>
#include <unordered_map>
#include <utility>

#include "src/core/record_file.hpp"

namespace csim {

namespace {

// Warm state scales with cache capacity + directory size; a multi-GB length
// is a corrupt field, not a real checkpoint.
constexpr RecordFormat kFormat{.name = "warm-state",
                               .magic = "CSCK",
                               .min_version = 1,
                               .version = 1,
                               .max_payload = 1u << 30,
                               .extension = ".csc"};

std::string encode_payload(const WarmState& ws) {
  RecordWriter w;
  w.out.reserve(512 + ws.directory.size() * 17 + ws.touched_lines.size() * 8);
  w.u64(ws.warm_digest);
  w.str(ws.app_name);
  w.u8(ws.scale);
  w.u64(ws.num_procs);
  w.u64(ws.procs_per_cluster);
  w.u8(ws.cluster_style);
  w.u64(ws.warmup_refs);
  w.u64(ws.proc_now.size());
  for (std::uint64_t v : ws.proc_now) w.u64(v);
  w.u64(ws.counters.size());
  for (const MissCounters& c : ws.counters) w.counters(c);
  w.u64(ws.touched_lines.size());
  for (Addr a : ws.touched_lines) w.u64(a);
  w.u64(ws.home_rr_next);
  w.u64(ws.homes.size());
  for (const auto& [page, home] : ws.homes) {
    w.u64(page);
    w.u64(home);
  }
  w.u64(ws.directory.size());
  for (const WarmDirLine& d : ws.directory) {
    w.u64(d.line);
    w.u8(d.state);
    w.u64(d.sharers);
  }
  w.u64(ws.caches.size());
  for (const auto& cache : ws.caches) {
    w.u64(cache.size());
    for (const WarmCacheLine& l : cache) {
      w.u64(l.line);
      w.u8(l.state);
    }
  }
  w.u64(ws.attraction.size());
  for (const auto& cluster : ws.attraction) {
    w.u64(cluster.size());
    for (const WarmAttractionLine& l : cluster) {
      w.u64(l.line);
      w.u64(l.proc_copies);
      w.u8(l.cluster_exclusive);
    }
  }
  return std::move(w.out);
}

bool decode_payload(std::string_view payload, WarmState& ws,
                    std::string& why) {
  RecordReader r(payload);
  ws.warm_digest = r.u64();
  ws.app_name = r.str();
  ws.scale = r.u8();
  ws.num_procs = static_cast<std::uint32_t>(r.u64());
  ws.procs_per_cluster = static_cast<std::uint32_t>(r.u64());
  ws.cluster_style = r.u8();
  ws.warmup_refs = r.u64();
  const std::uint64_t nproc = r.u64();
  if (!r.fits(nproc, 8)) {
    why = "proc_now count exceeds payload";
    return false;
  }
  ws.proc_now.reserve(nproc);
  for (std::uint64_t i = 0; i < nproc && r.ok(); ++i) {
    ws.proc_now.push_back(r.u64());
  }
  const std::uint64_t nclust = r.u64();
  if (!r.fits(nclust, kCountersRecordBytes)) {
    why = "counter count exceeds payload";
    return false;
  }
  ws.counters.reserve(nclust);
  for (std::uint64_t i = 0; i < nclust && r.ok(); ++i) {
    ws.counters.push_back(r.counters());
  }
  const std::uint64_t ntouched = r.u64();
  if (!r.fits(ntouched, 8)) {
    why = "touched-line count exceeds payload";
    return false;
  }
  ws.touched_lines.reserve(ntouched);
  for (std::uint64_t i = 0; i < ntouched && r.ok(); ++i) {
    ws.touched_lines.push_back(r.u64());
  }
  ws.home_rr_next = r.u64();
  const std::uint64_t nhomes = r.u64();
  if (!r.fits(nhomes, 16)) {
    why = "home-map count exceeds payload";
    return false;
  }
  ws.homes.reserve(nhomes);
  for (std::uint64_t i = 0; i < nhomes && r.ok(); ++i) {
    const Addr page = r.u64();
    ws.homes.emplace_back(page, static_cast<std::uint32_t>(r.u64()));
  }
  const std::uint64_t ndir = r.u64();
  if (!r.fits(ndir, 17)) {
    why = "directory count exceeds payload";
    return false;
  }
  ws.directory.reserve(ndir);
  for (std::uint64_t i = 0; i < ndir && r.ok(); ++i) {
    WarmDirLine d;
    d.line = r.u64();
    d.state = r.u8();
    d.sharers = r.u64();
    ws.directory.push_back(d);
  }
  const std::uint64_t ncaches = r.u64();
  if (!r.fits(ncaches, 8)) {
    why = "cache count exceeds payload";
    return false;
  }
  ws.caches.reserve(ncaches);
  for (std::uint64_t i = 0; i < ncaches && r.ok(); ++i) {
    const std::uint64_t nlines = r.u64();
    if (!r.fits(nlines, 9)) {
      why = "cache-line count exceeds payload";
      return false;
    }
    std::vector<WarmCacheLine> cache;
    cache.reserve(nlines);
    for (std::uint64_t j = 0; j < nlines && r.ok(); ++j) {
      WarmCacheLine l;
      l.line = r.u64();
      l.state = r.u8();
      cache.push_back(l);
    }
    ws.caches.push_back(std::move(cache));
  }
  const std::uint64_t nattr = r.u64();
  if (!r.fits(nattr, 8)) {
    why = "attraction count exceeds payload";
    return false;
  }
  ws.attraction.reserve(nattr);
  for (std::uint64_t i = 0; i < nattr && r.ok(); ++i) {
    const std::uint64_t nlines = r.u64();
    if (!r.fits(nlines, 17)) {
      why = "attraction-line count exceeds payload";
      return false;
    }
    std::vector<WarmAttractionLine> cluster;
    cluster.reserve(nlines);
    for (std::uint64_t j = 0; j < nlines && r.ok(); ++j) {
      WarmAttractionLine l;
      l.line = r.u64();
      l.proc_copies = r.u64();
      l.cluster_exclusive = r.u8();
      cluster.push_back(l);
    }
    ws.attraction.push_back(std::move(cluster));
  }
  return r.finish(why);
}

// In-process cache of decoded checkpoints, keyed by path and validated
// against the file's size + mtime on every hit. Sweeps resume many rows
// from the same checkpoint; re-reading and re-decoding the file per row
// costs more than the whole fast-forward replay for small apps. External
// modification (a new save, a corrupted file) changes the stat signature
// and falls through to the real loader. Bounded: sweeps touch a handful of
// warm digests at a time.
struct WarmCacheSlot {
  std::uintmax_t size = 0;
  std::filesystem::file_time_type mtime;
  std::shared_ptr<const WarmState> state;
};
std::mutex g_warm_cache_mu;                              // NOLINT
std::unordered_map<std::string, WarmCacheSlot> g_warm_cache;  // NOLINT
constexpr std::size_t kWarmCacheSlots = 8;

void warm_cache_put(const std::string& path, const WarmState& ws) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return;
  const std::lock_guard<std::mutex> lock(g_warm_cache_mu);
  if (g_warm_cache.size() >= kWarmCacheSlots &&
      g_warm_cache.find(path) == g_warm_cache.end()) {
    g_warm_cache.clear();  // coarse but rare: sweeps reuse few digests
  }
  g_warm_cache[path] =
      WarmCacheSlot{size, mtime, std::make_shared<const WarmState>(ws)};
}

std::shared_ptr<const WarmState> warm_cache_get(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return nullptr;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return nullptr;
  const std::lock_guard<std::mutex> lock(g_warm_cache_mu);
  const auto it = g_warm_cache.find(path);
  if (it == g_warm_cache.end() || it->second.size != size ||
      it->second.mtime != mtime) {
    return nullptr;
  }
  return it->second.state;
}

}  // namespace

std::string encode_warm_state(const WarmState& ws) {
  return encode_frame(kFormat, encode_payload(ws));
}

WarmLoad decode_warm_state(std::string_view bytes,
                           const std::string& origin) {
  WarmLoad out;
  const auto warn = [&](const std::string& what) {
    out.warnings.push_back("warm-state: " + origin + ": " + what +
                           " (checkpoint ignored)");
  };
  const Frame frame = decode_frame(kFormat, bytes);
  if (!frame.ok()) {
    warn(frame.error);
    return out;
  }
  WarmState ws;
  std::string why;
  if (!decode_payload(frame.payload, ws, why)) {
    warn(why);
    return out;
  }
  out.state = std::move(ws);
  return out;
}

std::string warm_state_path(const std::string& dir, std::uint64_t digest) {
  return record_path(kFormat, dir, digest);
}

void save_warm_state(const std::string& dir, const WarmState& ws) {
  const std::string path =
      write_record_file(kFormat, dir, ws.warm_digest, encode_warm_state(ws));
  warm_cache_put(path, ws);
}

WarmLoad load_warm_state(const std::string& dir, std::uint64_t digest) {
  WarmLoad out;
  const std::string path = warm_state_path(dir, digest);
  if (const std::shared_ptr<const WarmState> hit = warm_cache_get(path)) {
    out.state = *hit;
    return out;
  }
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) return out;  // no checkpoint yet: not an error
  out = decode_warm_state(*bytes, path);
  if (out.state && out.state->warm_digest != digest) {
    out.warnings.push_back("warm-state: " + path +
                           ": digest mismatch (checkpoint ignored)");
    out.state.reset();
  }
  if (out.state) warm_cache_put(path, *out.state);
  return out;
}

}  // namespace csim
