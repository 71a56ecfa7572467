// Simulated NUMA node topology. The paper's 384-core EPYC testbed is a
// 2-socket machine; this maps the simulated CPUs onto N nodes with an
// asymmetric access-cost matrix so every layer that would feel cross-socket
// traffic (buddy arenas, magazines, reclaim daemons, the software MMU's
// memory charges, the CNA lock) can ask "which node am I on?" and "how far is
// that frame?".
//
// CPUs map to nodes in contiguous blocks (CPUs [0, cpus_per_node) are node 0,
// the next block node 1, ...), mirroring how benches bind worker thread t to
// CPU t: a workload using the first K CPUs stays on node 0 unless it opts
// into striping. With nodes=1 the topology is degenerate — every cost is
// local and every layer above must collapse to the flat pre-NUMA behavior
// (CI runs a CORTENMM_NODES=1 leg to pin that).
#ifndef SRC_COMMON_TOPOLOGY_H_
#define SRC_COMMON_TOPOLOGY_H_

#include <cstdint>

#include "src/common/cpu.h"

namespace cortenmm {

inline constexpr int kMaxNodes = 8;

class NodeTopology {
 public:
  // Must be called before Instance() to override the node count
  // (env CORTENMM_NODES, default 2). No-op afterwards.
  static void Configure(int nodes);

  static NodeTopology& Instance();

  int nodes() const { return nodes_; }
  int cpus_per_node() const { return cpus_per_node_; }

  int NodeOfCpu(CpuId cpu) const {
    int node = cpu / cpus_per_node_;
    return node < nodes_ ? node : nodes_ - 1;
  }
  CpuId FirstCpuOfNode(int node) const { return node * cpus_per_node_; }

  // Spin iterations the software MMU charges per remote load/store, derived
  // from the cost delta over a local access. Zero when from == to.
  uint32_t RemotePenaltySpins(int from, int to) const {
    return cost_[from][to] - kLocalCost;
  }

  // Nodes ordered by access cost from |from| (nearest first, |from| itself
  // excluded) — the allocation spill order for remote fallback.
  const int* SpillOrder(int from, int* count) const {
    *count = nodes_ - 1;
    return spill_order_[from];
  }

 private:
  static constexpr uint32_t kLocalCost = 10;

  explicit NodeTopology(int nodes);
  NodeTopology(const NodeTopology&) = delete;
  NodeTopology& operator=(const NodeTopology&) = delete;

  int nodes_ = 1;
  int cpus_per_node_ = kMaxCpus;
  uint32_t cost_[kMaxNodes][kMaxNodes] = {};
  int spill_order_[kMaxNodes][kMaxNodes] = {};
};

// The calling thread's home node (auto-assigning a CPU if unbound).
inline int CurrentNode() {
  return NodeTopology::Instance().NodeOfCpu(CurrentCpu());
}

}  // namespace cortenmm

#endif  // SRC_COMMON_TOPOLOGY_H_
