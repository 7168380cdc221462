// Allocation ceilings for the in-process control plane, counted by a
// replacement global operator new. Counts of work repeat exactly for a seed
// on any host and any code layout, so a change that adds heap allocations to
// the message path fails here with no timing involved.
//
// World: fat-tree k=8 (128 hosts), 1,024 VMs, Round-Robin, loss 0. Only
// allocations made inside DistributedScoreRuntime::run() are counted.
//
// This binary replaces the global allocator, so it is not built under
// SCORE_SANITIZE or SCORE_TSAN, whose runtimes replace it themselves.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "baselines/placement.hpp"
#include "core/cost_model.hpp"
#include "core/link_weights.hpp"
#include "hypervisor/distributed_runtime.hpp"
#include "hypervisor/token_codec.hpp"
#include "topology/fat_tree.hpp"
#include "traffic/generator.hpp"
#include "util/rng.hpp"

namespace {

constexpr std::size_t kVms = 1024;
constexpr std::size_t kFrameBytes = score::hypervisor::token_frame_bytes(kVms);

bool counting = false;
std::uint64_t allocations = 0;
std::uint64_t frames = 0;  ///< allocations of exactly kFrameBytes

}  // namespace

void* operator new(std::size_t size) {
  if (counting) {
    ++allocations;
    if (size == kFrameBytes) ++frames;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using score::hypervisor::DistributedScoreRuntime;
using score::hypervisor::RuntimeConfig;
using score::hypervisor::RuntimeResult;

struct Counts {
  std::uint64_t allocations = 0;
  std::uint64_t frames = 0;
  std::uint64_t messages = 0;  ///< token + location + capacity messages
};

Counts counted_run(std::size_t rounds) {
  score::topo::FatTreeConfig topo_cfg;
  topo_cfg.k = 8;
  const score::topo::FatTree topo(topo_cfg);
  const score::core::CostModel model(
      topo, score::core::LinkWeights::exponential(topo.max_level()));
  score::traffic::GeneratorConfig gen;
  gen.num_vms = kVms;
  gen.seed = 42;
  const score::traffic::TrafficMatrix tm =
      score::traffic::generate_traffic(gen);
  score::util::Rng rng(43);
  score::core::Allocation alloc = score::baselines::make_allocation(
      topo, score::core::ServerCapacity{}, kVms, score::core::VmSpec{},
      score::baselines::PlacementStrategy::kRandom, rng);

  RuntimeConfig cfg;
  cfg.policy = "round-robin";
  cfg.iterations = rounds;
  cfg.stop_when_stable = false;
  DistributedScoreRuntime runtime(model, alloc, tm, cfg);

  allocations = 0;
  frames = 0;
  counting = true;
  const RuntimeResult r = runtime.run();
  counting = false;

  EXPECT_EQ(r.iterations.size(), rounds);
  EXPECT_EQ(r.messages_lost, 0u);
  EXPECT_GT(r.total_migrations, 0u);
  return {allocations, frames,
          r.token_messages + r.location_messages + r.capacity_messages};
}

// Each control message costs about one block: its own payload. The token
// moves between agents without a copy, probe payloads are built at their
// fixed size, in-flight messages wait in the network's slot pool, and a hold
// reuses its agent's buffers.
TEST(AllocCeilings, AtMostTwoAllocationsPerControlMessage) {
  const Counts c = counted_run(2);
  ASSERT_GT(c.messages, 10 * kVms);
  const double per_message =
      static_cast<double>(c.allocations) / static_cast<double>(c.messages);
  EXPECT_LE(per_message, 2.0) << c.allocations << " allocations for "
                              << c.messages << " control messages";
}

// No token hop allocates a frame: the injected token is the only frame a
// run allocates, however many rounds it walks. A copy of the frame
// allocates exactly its size; the event queue's and the network's pools
// still double as they reach their working size (the event heap reaches
// 6,144 B between 2 and 4 rounds here), so only exact frame sizes count.
TEST(AllocCeilings, TokenHopsAllocateNoFrame) {
  const Counts two = counted_run(2);
  const Counts four = counted_run(4);
  ASSERT_GT(four.messages, two.messages);
  EXPECT_EQ(two.frames, 1u) << "frames allocated in 2 rounds";
  EXPECT_EQ(four.frames, 1u) << "frames allocated in 4 rounds";
}

}  // namespace
