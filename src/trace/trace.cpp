#include "src/trace/trace.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "src/core/atomic_file.hpp"
#include "src/core/record_file.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"

namespace csim {

namespace {
constexpr std::string_view kMagic = "CSTR";
constexpr std::uint8_t kVersion = 1;
// Header: magic(4) version(1) procs(1) line_bytes(2) count(8); each record
// is proc(1) kind(1) addr(8).
constexpr std::uint64_t kHeaderBytes = 4 + 1 + 1 + 2 + 8;
constexpr std::uint64_t kRecordBytes = 1 + 1 + 8;
}  // namespace

void Trace::save(const std::string& path) const {
  RecordWriter w;
  w.out.reserve(kHeaderBytes + records_.size() * kRecordBytes);
  w.out.append(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(num_procs_));
  w.u8(static_cast<std::uint8_t>(line_bytes_ & 0xff));
  w.u8(static_cast<std::uint8_t>((line_bytes_ >> 8) & 0xff));
  w.u64(records_.size());
  for (const TraceRecord& r : records_) {
    w.u8(static_cast<std::uint8_t>(r.proc));
    w.u8(r.kind == AccessKind::Write ? 1 : 0);
    w.u64(r.addr);
  }
  atomic_write_file(path, w.out);
}

Trace Trace::load(const std::string& path) {
  const std::optional<std::string> bytes = read_file(path);
  if (!bytes) throw std::runtime_error("Trace::load: cannot open " + path);
  if (bytes->size() < kHeaderBytes) {
    throw std::runtime_error("Trace::load: truncated header");
  }
  RecordReader r(*bytes);
  if (r.bytes(kMagic.size()) != kMagic) {
    throw std::runtime_error("Trace::load: bad magic");
  }
  if (r.u8() != kVersion) throw std::runtime_error("Trace::load: bad version");
  Trace t;
  t.num_procs_ = r.u8();
  t.line_bytes_ = r.u8();
  t.line_bytes_ |= static_cast<unsigned>(r.u8()) << 8;
  if (t.num_procs_ == 0) {
    throw std::runtime_error("Trace::load: header declares zero processors");
  }
  if (t.line_bytes_ == 0 || (t.line_bytes_ & (t.line_bytes_ - 1)) != 0) {
    throw std::runtime_error(
        "Trace::load: line_bytes not a power of two: " +
        std::to_string(t.line_bytes_));
  }
  // Validate the declared record count against the real file size before
  // reserving: a corrupt header must fail cleanly, not attempt a
  // multi-gigabyte allocation.
  const std::uint64_t n = r.u64();
  if (n > r.remaining() / kRecordBytes) {
    throw std::runtime_error(
        "Trace::load: header declares " + std::to_string(n) +
        " records but the file holds at most " +
        std::to_string(r.remaining() / kRecordBytes));
  }
  t.records_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    TraceRecord rec;
    rec.proc = static_cast<ProcId>(r.u8());
    rec.kind = r.u8() != 0 ? AccessKind::Write : AccessKind::Read;
    rec.addr = r.u64();
    if (rec.proc >= t.num_procs_) {
      throw std::runtime_error(
          "Trace::load: record " + std::to_string(i) + " names proc " +
          std::to_string(rec.proc) + " of " + std::to_string(t.num_procs_));
    }
    t.records_.push_back(rec);
  }
  if (!r.ok()) throw std::runtime_error("Trace::load: truncated trace");
  return t;
}

ReplayResult replay_trace(const Trace& trace, const MachineSpec& cfg) {
  if (cfg.num_procs != trace.num_procs()) {
    throw std::invalid_argument("replay_trace: processor count mismatch");
  }
  cfg.validate();
  // Homes revert to pure first-touch round robin: a raw reference trace
  // carries no placement metadata (a known limitation of trace-driven
  // methodology).
  AddressSpace as;
  const std::unique_ptr<MemorySystem> mem =
      make_memory_system(std::make_shared<const MachineSpec>(cfg), as);

  ReplayResult out;
  std::vector<Cycles> clock(cfg.num_procs, 0);
  for (const TraceRecord& r : trace.records()) {
    Cycles& t = clock[r.proc];
    if (r.kind == AccessKind::Read) {
      const AccessResult a = mem->read(r.proc, r.addr, t);
      switch (a.kind) {
        case AccessResult::Kind::ReadMiss:
        case AccessResult::Kind::NearHit:
          t += 1 + a.latency;
          break;
        case AccessResult::Kind::Merge:
          t = std::max(t + 1, a.ready_at);
          break;
        default:
          t += 1;
      }
    } else {
      (void)mem->write(r.proc, r.addr, t);
      t += 1;
    }
  }
  out.totals = mem->totals();
  for (Cycles t : clock) out.approx_time = std::max(out.approx_time, t);
  return out;
}

Trace record_trace(Program& prog, const MachineSpec& cfg) {
  Simulator sim(cfg);
  Trace trace(cfg.num_procs, cfg.cache.line_bytes);
  // The recorder decorates a memory system of its own, built over its own
  // AddressSpace rather than the one Simulator::run creates: homes are
  // first-touch, and placement metadata affects only latency classes, not
  // the reference stream recorded here.
  AddressSpace as;
  const std::unique_ptr<MemorySystem> inner =
      make_memory_system(sim.spec(), as);
  RecordingMemorySystem rec(*inner, trace);
  (void)sim.run(prog, &rec);
  return trace;
}

}  // namespace csim
