// Workload framework: problem-size presets and the application registry.
//
// Each of the paper's nine applications (Table 2) is a Program whose
// per-processor bodies run the real algorithm over real data structures,
// issuing simulated memory references as they go. Problem sizes come in
// three presets:
//   Test    — tiny, for unit tests (milliseconds);
//   Default — scaled-down versions of the paper's inputs, sized so the whole
//             benchmark suite simulates in seconds (communication *patterns*,
//             which determine the clustering benefit percentages, are
//             topology-determined and size-stable — see DESIGN.md);
//   Paper   — the Table 2 sizes (8192-particle Barnes, 64K-point FFT,
//             512x512 LU, 50000-particle MP3D, 130x130 Ocean, 256K-key
//             Radix, ...).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/simulator.hpp"

namespace csim {

// ProblemScale (Test / Default / Paper) and to_string live in
// src/core/types.hpp so SimResult can record the preset that produced it.

/// Factory functions for each application (declared in their own headers as
/// well; collected here for generic sweeps).
std::unique_ptr<Program> make_lu(ProblemScale s);
std::unique_ptr<Program> make_fft(ProblemScale s);
std::unique_ptr<Program> make_ocean(ProblemScale s);
std::unique_ptr<Program> make_barnes(ProblemScale s);
std::unique_ptr<Program> make_fmm(ProblemScale s);
std::unique_ptr<Program> make_mp3d(ProblemScale s);
std::unique_ptr<Program> make_radix(ProblemScale s);
std::unique_ptr<Program> make_raytrace(ProblemScale s);
std::unique_ptr<Program> make_volrend(ProblemScale s);

struct AppFactory {
  std::string name;
  std::string description;
  std::function<std::unique_ptr<Program>(ProblemScale)> make;
};

/// All nine applications in the paper's Table 2 order.
const std::vector<AppFactory>& app_registry();

/// Creates an app by name; throws std::invalid_argument for unknown names.
std::unique_ptr<Program> make_app(std::string_view name,
                                  ProblemScale s = ProblemScale::Default);

/// Names of all registered applications.
std::vector<std::string> app_names();

// --- Helpers shared by workload bodies ------------------------------------

/// Reads every cache line of [base, base+bytes) once, with `compute_per_line`
/// busy cycles interleaved. Models streaming over a data block at line
/// granularity. Issued as a single run (Proc::run): one awaitable for the
/// whole stream instead of one coroutine suspension point per line.
Proc::OpAwaiter stream_read(Proc& p, Addr base, std::size_t bytes,
                            Cycles compute_per_line = 0);

/// Writes every cache line of [base, base+bytes) once.
Proc::OpAwaiter stream_write(Proc& p, Addr base, std::size_t bytes,
                             Cycles compute_per_line = 0);

}  // namespace csim
