// Warm-state checkpoints (src/mem/warm_state.hpp): codec round trip, the
// hardened loader's behaviour under every corruption shape the frame can
// take, the memory systems' refusal of a state that does not fit them, and
// the end-to-end acceptance invariant -- a run that restores from a
// checkpoint is digest-identical to one that warms in process, for both
// cluster organizations, and a damaged checkpoint degrades into a fresh
// warmup with the same answer.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.hpp"
#include "src/core/machine.hpp"
#include "src/core/record_file.hpp"
#include "src/core/simulator.hpp"
#include "src/mem/address_space.hpp"
#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"
#include "src/mem/warm_state.hpp"
#include "src/obs/manifest.hpp"

namespace csim {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    dir_ = (fs::temp_directory_path() /
            ("csim_warm_state_" + tag + "_" +
             std::to_string(static_cast<unsigned long>(::getpid()))))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

/// A small but fully populated state exercising every payload section.
WarmState sample_state() {
  WarmState ws;
  ws.warm_digest = 0x1122334455667788ull;
  ws.app_name = "fft";
  ws.scale = 2;
  ws.num_procs = 8;
  ws.procs_per_cluster = 4;
  ws.cluster_style = 1;
  ws.warmup_refs = 4096;
  ws.proc_now = {10, 20, 30, 40, 50, 60, 70, 80};
  ws.counters.resize(2);
  ws.counters[0].reads = 123;
  ws.counters[1].write_misses = 7;
  ws.touched_lines = {0x40, 0x80, 0x1000};
  ws.home_rr_next = 3;
  ws.homes = {{0x0, 1}, {0x1000, 0}};
  ws.directory = {{0x40, 2, 0x3}};
  ws.caches = {{{0x40, 1}, {0x80, 2}}, {{0x1000, 1}}};
  ws.attraction = {{{0x40, 0x1, 1}}, {}};
  return ws;
}

TEST(WarmStateCodec, RoundTripsEveryField) {
  const WarmState ws = sample_state();
  const WarmLoad loaded = decode_warm_state(encode_warm_state(ws), "test");
  ASSERT_TRUE(loaded.warnings.empty())
      << loaded.warnings.front();
  ASSERT_TRUE(loaded.state.has_value());
  const WarmState& got = *loaded.state;
  EXPECT_EQ(got.warm_digest, ws.warm_digest);
  EXPECT_EQ(got.app_name, ws.app_name);
  EXPECT_EQ(got.scale, ws.scale);
  EXPECT_EQ(got.num_procs, ws.num_procs);
  EXPECT_EQ(got.procs_per_cluster, ws.procs_per_cluster);
  EXPECT_EQ(got.cluster_style, ws.cluster_style);
  EXPECT_EQ(got.warmup_refs, ws.warmup_refs);
  EXPECT_EQ(got.proc_now, ws.proc_now);
  EXPECT_EQ(got.counters, ws.counters);
  EXPECT_EQ(got.touched_lines, ws.touched_lines);
  EXPECT_EQ(got.home_rr_next, ws.home_rr_next);
  EXPECT_EQ(got.homes, ws.homes);
  EXPECT_EQ(got.directory, ws.directory);
  EXPECT_EQ(got.caches, ws.caches);
  EXPECT_EQ(got.attraction, ws.attraction);
}

/// Each corruption shape must yield no state and exactly one warning naming
/// the shape -- never a throw, never a silently wrong state.
void expect_rejected(const std::string& bytes, const std::string& needle) {
  const WarmLoad loaded = decode_warm_state(bytes, "test");
  EXPECT_FALSE(loaded.state.has_value());
  ASSERT_EQ(loaded.warnings.size(), 1u);
  EXPECT_NE(loaded.warnings[0].find(needle), std::string::npos)
      << loaded.warnings[0];
}

TEST(WarmStateCodec, RejectsTruncatedFrameHeader) {
  expect_rejected(encode_warm_state(sample_state()).substr(0, 10),
                  "truncated frame header (checkpoint ignored)");
}

TEST(WarmStateCodec, RejectsBadMagic) {
  std::string bytes = encode_warm_state(sample_state());
  bytes[0] = 'X';
  expect_rejected(bytes, "bad magic (checkpoint ignored)");
}

TEST(WarmStateCodec, RejectsVersionSkew) {
  std::string bytes = encode_warm_state(sample_state());
  bytes[4] = 9;
  expect_rejected(bytes, "unsupported version 9 (checkpoint ignored)");
}

TEST(WarmStateCodec, RejectsTruncatedRecord) {
  const std::string bytes = encode_warm_state(sample_state());
  expect_rejected(bytes.substr(0, bytes.size() - 4), "truncated record");
}

TEST(WarmStateCodec, RejectsChecksumMismatch) {
  std::string bytes = encode_warm_state(sample_state());
  bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
  expect_rejected(bytes, "checksum mismatch (checkpoint ignored)");
}

// The on-disk bytes, not just the round trip: checkpoints written by earlier
// builds must stay loadable, so an encoder change that the decoder mirrors
// must still fail here.
TEST(WarmStateCodec, EncodedBytesArePinned) {
  const std::string bytes = encode_warm_state(sample_state());
  EXPECT_EQ(bytes.size(), 695u);
  EXPECT_EQ(fnv1a(bytes), 0x79bacee4ca136f99ULL);
}

TEST(WarmStateFiles, MissingFileIsSilentlyEmpty) {
  const TempDir tmp("missing");
  const WarmLoad loaded = load_warm_state(tmp.path(), 0xdeadbeef);
  EXPECT_FALSE(loaded.state.has_value());
  EXPECT_TRUE(loaded.warnings.empty());
}

TEST(WarmStateFiles, SaveLoadRoundTripsAndDigestKeyIsEnforced) {
  const TempDir tmp("files");
  const WarmState ws = sample_state();
  save_warm_state(tmp.path(), ws);
  ASSERT_TRUE(fs::exists(warm_state_path(tmp.path(), ws.warm_digest)));

  const WarmLoad hit = load_warm_state(tmp.path(), ws.warm_digest);
  ASSERT_TRUE(hit.state.has_value());
  EXPECT_TRUE(hit.warnings.empty());
  EXPECT_EQ(hit.state->proc_now, ws.proc_now);

  // A checkpoint filed under the wrong digest (a renamed or stale file) is
  // caught by the digest stored inside the payload.
  const std::uint64_t other = ws.warm_digest + 1;
  fs::copy_file(warm_state_path(tmp.path(), ws.warm_digest),
                warm_state_path(tmp.path(), other));
  const WarmLoad miss = load_warm_state(tmp.path(), other);
  EXPECT_FALSE(miss.state.has_value());
  ASSERT_EQ(miss.warnings.size(), 1u);
  EXPECT_NE(miss.warnings[0].find("digest mismatch (checkpoint ignored)"),
            std::string::npos);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

MachineSpec sampled_spec(ClusterStyle style, const std::string& ckpt_dir) {
  MachineSpecBuilder b;
  b.procs(16).procs_per_cluster(4).style(style).cache_kb(4).sample(4096, 4096,
                                                                   16384);
  if (!ckpt_dir.empty()) b.checkpoint_dir(ckpt_dir);
  return b.build();
}

SimResult run(const std::string& app, const MachineSpec& cfg) {
  const std::unique_ptr<Program> prog = make_app(app, ProblemScale::Test);
  return simulate(*prog, cfg);
}

// restore_warm_state's fit checks. A checkpoint file is outside input, so a
// state that does not fit the memory system must be refused, never
// installed. Each rig builds one organization directly, 8 processors with
// 1 KB caches.
template <class Mem>
class WarmRig {
 public:
  explicit WarmRig(unsigned ppc) : base_(as_.alloc(4 * 4096, "mem")) {
    MachineSpec cfg;
    cfg.num_procs = 8;
    cfg.procs_per_cluster = ppc;
    cfg.cache.per_proc_bytes = 1024;
    mem_ = std::make_unique<Mem>(std::make_shared<const MachineSpec>(cfg), as_);
  }

  /// Reads and writes from every processor, then captures the state.
  WarmState capture() {
    for (ProcId p = 0; p < 8; ++p) {
      (void)mem_->read(p, base_ + p * 64, 0);
      (void)mem_->write(p, base_ + 4096 + p * 128, 0);
    }
    WarmState ws;
    EXPECT_TRUE(mem_->capture_warm_state(ws));
    return ws;
  }

  bool restore(const WarmState& ws) { return mem_->restore_warm_state(ws); }

 private:
  AddressSpace as_;
  Addr base_;
  std::unique_ptr<Mem> mem_;
};

using SharedCacheRig = WarmRig<CoherenceController>;
using SharedMemoryRig = WarmRig<ClusteredMemorySystem>;

TEST(WarmStateRestoreChecks, AcceptsACaptureOfTheSameMachine) {
  EXPECT_TRUE(SharedCacheRig(4).restore(SharedCacheRig(4).capture()));
  EXPECT_TRUE(SharedMemoryRig(4).restore(SharedMemoryRig(4).capture()));
}

TEST(WarmStateRestoreChecks, RejectsACaptureFromTheOtherOrganization) {
  EXPECT_FALSE(SharedCacheRig(4).restore(SharedMemoryRig(4).capture()));
  EXPECT_FALSE(SharedMemoryRig(4).restore(SharedCacheRig(4).capture()));
  // The organization tag alone is enough.
  WarmState ws = SharedCacheRig(4).capture();
  ws.cluster_style = static_cast<std::uint8_t>(ClusterStyle::SharedMemory);
  EXPECT_FALSE(SharedCacheRig(4).restore(ws));
}

TEST(WarmStateRestoreChecks, RejectsACaptureFromAnotherClusterSize) {
  EXPECT_FALSE(SharedCacheRig(2).restore(SharedCacheRig(4).capture()));
  EXPECT_FALSE(SharedMemoryRig(2).restore(SharedMemoryRig(4).capture()));
}

TEST(WarmStateRestoreChecks, RejectsASharedCacheStateWithAnAttractionVector) {
  WarmState ws = SharedCacheRig(4).capture();
  ws.attraction.emplace_back();
  EXPECT_FALSE(SharedCacheRig(4).restore(ws));
}

TEST(WarmStateRestoreChecks, RejectsAnAttractionCountOtherThanTheClusters) {
  WarmState ws = SharedMemoryRig(4).capture();
  ASSERT_EQ(ws.attraction.size(), 2u);
  ws.attraction.pop_back();
  EXPECT_FALSE(SharedMemoryRig(4).restore(ws));
}

TEST(WarmStateRestore, FastForwardIsDigestIdenticalToInProcessWarmup) {
  for (const ClusterStyle style :
       {ClusterStyle::SharedCache, ClusterStyle::SharedMemory}) {
    SCOPED_TRACE(style == ClusterStyle::SharedCache ? "sc" : "sm");
    const TempDir tmp(style == ClusterStyle::SharedCache ? "rt_sc" : "rt_sm");

    // Reference: sampled, no checkpointing at all.
    const SimResult plain = run("fft", sampled_spec(style, ""));
    ASSERT_TRUE(plain.ok);

    // First checkpointed run warms in process and writes the file...
    const MachineSpec cfg = sampled_spec(style, tmp.path());
    const SimResult writer = run("fft", cfg);
    ASSERT_TRUE(writer.ok);
    const std::uint64_t digest =
        obs::warm_config_digest(cfg, "fft", ProblemScale::Test);
    ASSERT_TRUE(fs::exists(warm_state_path(tmp.path(), digest)));
    // The file's bytes are pinned too, not just the answer they restore to.
    const std::string bytes = read_file(warm_state_path(tmp.path(), digest));
    const bool sc = style == ClusterStyle::SharedCache;
    EXPECT_EQ(bytes.size(), sc ? 18530u : 29666u);
    EXPECT_EQ(fnv1a(bytes),
              sc ? 0x7610833b4438c774ULL : 0x937993853150741dULL);

    // ...the second fast-forwards from it. All three must agree bit for bit.
    const SimResult reader = run("fft", cfg);
    ASSERT_TRUE(reader.ok);
    EXPECT_EQ(obs::result_digest(writer), obs::result_digest(plain));
    EXPECT_EQ(obs::result_digest(reader), obs::result_digest(writer));
    EXPECT_EQ(reader.wall_time, writer.wall_time);
    EXPECT_EQ(reader.totals, writer.totals);
  }
}

TEST(WarmStateRestore, CorruptCheckpointFallsBackToFreshWarmupAndRewrites) {
  const TempDir tmp("fallback");
  const MachineSpec cfg = sampled_spec(ClusterStyle::SharedCache, tmp.path());
  const SimResult first = run("fft", cfg);
  ASSERT_TRUE(first.ok);

  const std::uint64_t digest =
      obs::warm_config_digest(cfg, "fft", ProblemScale::Test);
  const std::string path = warm_state_path(tmp.path(), digest);
  ASSERT_TRUE(fs::exists(path));

  // Truncate the checkpoint mid-record (the damage a crash during a
  // non-atomic copy would leave).
  const std::string bytes = read_file(path);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }

  // The run must not trust the damaged file: fresh warmup, same answer,
  // and the checkpoint is re-written intact for the next run.
  const SimResult second = run("fft", cfg);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(obs::result_digest(second), obs::result_digest(first));
  const WarmLoad reloaded = load_warm_state(tmp.path(), digest);
  EXPECT_TRUE(reloaded.state.has_value());
  EXPECT_TRUE(reloaded.warnings.empty());
}

TEST(WarmStateRestore, CheckpointIsSharedAcrossLatencyVariants) {
  // The point of the warm digest: latency knobs do not shape warm state, so
  // one checkpoint serves a whole latency sweep. A run with a different
  // latency model must reuse (not rewrite) the file and still agree with
  // its own uncheckpointed result.
  const TempDir tmp("latency");
  const MachineSpec base = sampled_spec(ClusterStyle::SharedCache, tmp.path());
  ASSERT_TRUE(run("fft", base).ok);
  const std::uint64_t digest =
      obs::warm_config_digest(base, "fft", ProblemScale::Test);
  const fs::file_time_type written =
      fs::last_write_time(warm_state_path(tmp.path(), digest));

  MachineSpec slow = base;
  slow.latency.remote_clean = base.latency.remote_clean + 100;
  slow.validate();
  EXPECT_EQ(obs::warm_config_digest(slow, "fft", ProblemScale::Test), digest);

  const SimResult ckpt = run("fft", slow);
  ASSERT_TRUE(ckpt.ok);
  EXPECT_EQ(fs::last_write_time(warm_state_path(tmp.path(), digest)), written);

  MachineSpec plain = slow;
  plain.sampling.checkpoint_dir.clear();
  const SimResult fresh = run("fft", plain);
  ASSERT_TRUE(fresh.ok);
  EXPECT_EQ(obs::result_digest(ckpt), obs::result_digest(fresh));
}

}  // namespace
}  // namespace csim
