#include "src/mem/memory_system.hpp"

#include <utility>

#include "src/mem/clustered_memory.hpp"
#include "src/mem/coherence.hpp"

namespace csim {

std::unique_ptr<MemorySystem> make_memory_system(
    std::shared_ptr<const MachineSpec> spec, const AddressSpace& as) {
  if (spec->cluster_style == ClusterStyle::SharedMemory) {
    return std::make_unique<ClusteredMemorySystem>(std::move(spec), as);
  }
  return std::make_unique<CoherenceController>(std::move(spec), as);
}

}  // namespace csim
