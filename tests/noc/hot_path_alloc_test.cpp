// Steady-state allocation audit for the per-cycle hot path.
//
// This TU replaces the global allocation functions with counting wrappers
// (affecting the whole test binary, which is harmless: they just delegate
// to malloc/free). The tests warm a network past its transient phase —
// ring buffers grown, stat slots interned, sensor epochs underway — then
// assert that further step() calls perform literally zero heap
// allocations. This is the enforcement half of the interned-handle /
// scratch-buffer / event-driven-accounting refactor: any future string
// stat key, per-cycle vector, or per-cycle tracker walk on the hot path
// shows up here as a nonzero count.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "nbtinoc/core/controller.hpp"
#include "nbtinoc/noc/network.hpp"
#include "nbtinoc/sim/fault_plan.hpp"
#include "nbtinoc/traffic/benchmarks.hpp"
#include "nbtinoc/traffic/datacenter.hpp"
#include "nbtinoc/traffic/synthetic.hpp"
#include "nbtinoc/traffic/trace.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

// Every replaceable allocation form is counted, the nothrow ones too: a form
// left to the runtime would escape the count, and under a sanitizer its
// block would come back through the delete below from another allocator.
void* counted_alloc_or_null(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc_or_null(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const auto alignment = static_cast<std::size_t>(align);
  if (posix_memalign(&p, alignment < sizeof(void*) ? sizeof(void*) : alignment,
                     size == 0 ? 1 : size) != 0)
    return nullptr;
  return p;
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_alloc_or_null(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc_or_null(size, align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_or_null(size);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_or_null(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc_or_null(size, align);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace nbtinoc::noc {
namespace {

NocConfig mesh(int width, int vcs) {
  NocConfig c;
  c.width = width;
  c.height = width;
  c.num_vcs = vcs;
  c.buffer_depth = 8;
  c.packet_length = 18;
  return c;
}

std::uint64_t allocations_during_steps(Network& net, int steps) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < steps; ++i) net.step();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(HotPathAllocation, IdleMeshStepIsAllocationFree) {
  Network net(mesh(4, 4));
  net.run(64);  // settle any first-cycle lazy initialization
  EXPECT_EQ(allocations_during_steps(net, 2'000), 0u);
}

TEST(HotPathAllocation, LoadedSensorWiseSteadyStateIsAllocationFree) {
  Network net(mesh(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_uniform_traffic(net, 0.3, 42);
  // Warm past ring growth, stat interning, and several 1024-cycle sensor
  // epochs, so the measured window is genuine steady state.
  net.run(6'000);
  // 2500 steps span at least two epoch refreshes: the sensor-read path and
  // the lazy stress-sync fence are part of the audited steady state.
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
}

TEST(HotPathAllocation, ActiveSetRunIsAllocationFree) {
  // The active-set scheduler's machinery — wake ring rotation, heap pops,
  // park-eligibility checks, the channel push hooks, the full-park jump and
  // the sources' Bernoulli pre-roll — must stay off the heap in steady
  // state: the bitmap is sized at mode entry and the heap's capacity
  // ratchets during warmup.
  Network net(mesh(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  // Low enough load that long fully parked stretches separate the packets.
  traffic::install_uniform_traffic(net, 0.005, 42);
  net.set_scheduler_mode(SchedulerMode::kActiveSet);
  // Long warm window: at this rate the peak wake-heap occupancy is only
  // reached after many packet coincidences.
  net.run(60'000);
  const auto steps_before = net.scheduler_stats().router_steps;
  const std::uint64_t skips_before = net.skip_stats().skips;
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  net.run(50'000);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u);
  // The audited window must have actually parked routers — far fewer router
  // steps than a full walk would execute — and jumped a fully parked fabric.
  EXPECT_LT(net.scheduler_stats().router_steps - steps_before,
            50'000u * static_cast<std::uint64_t>(net.num_routers()));
  EXPECT_GT(net.skip_stats().skips, skips_before);
}

TEST(HotPathAllocation, TraceReplaySteadyStateIsAllocationFree) {
  // The zero-copy replay contract, enforced: once the network is warm, a
  // trace-driven run performs no heap allocation at all — the replay
  // sources are cursors into the shared mapping, and generate_burst hands
  // whole same-cycle batches to the NI without any staging container.
  std::vector<std::unique_ptr<traffic::SyntheticSource>> sources;
  std::vector<ITrafficSource*> raw;
  for (NodeId id = 0; id < 16; ++id) {
    sources.push_back(std::make_unique<traffic::SyntheticSource>(
        id, 0.3, 18, traffic::DestinationPattern(traffic::PatternKind::kUniform, 4, 4),
        90 + static_cast<std::uint64_t>(id)));
    raw.push_back(sources.back().get());
  }
  const traffic::Trace trace = traffic::Trace::capture(raw, 20'000);
  const auto file = traffic::TraceFile::from_trace(trace, 16, "alloc audit");

  Network net(mesh(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_trace_replay(net, file);
  net.run(6'000);
  const std::uint64_t offered_before = net.stats().counter("noc.packets_offered");
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
  // The audited window must have replayed real traffic, not an exhausted
  // trace idling along.
  EXPECT_GT(net.stats().counter("noc.packets_offered"), offered_before);
}

TEST(HotPathAllocation, BenchmarkMixSteadyStateIsAllocationFree) {
  // Table IV's application sources: the Markov pre-roll and every
  // destination pick (neighbor locality, hotspot, uniform) stay off the heap.
  // The presets run at half rate and warm longer than the other audits:
  // their bursts grow the NI queues, and the window must not see a burst
  // deeper than the warmup's.
  Network net(mesh(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_benchmark_mix(net, traffic::random_mix(net.nodes(), 5), 42,
                                 /*hotspot=*/-1, /*rate_scale=*/0.5);
  net.run(20'000);
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
}

TEST(HotPathAllocation, DatacenterSteadyStateIsAllocationFree) {
  // The damq-bursty workload's source on its shared-buffer fabric: batch
  // draws, idle-segment skips and burst backlogs stay off the heap.
  NocConfig c = mesh(4, 4);
  c.buffer_org = BufferOrg::kShared;
  Network net(c);
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWiseSlotMd;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_datacenter_traffic(net, traffic::DatacenterProfile{}, 42);
  net.run(6'000);
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
}

TEST(HotPathAllocation, TopologyRoutedSteadyStateIsAllocationFree) {
  // The table-driven RC stage (route() lookups, dateline-class VC
  // subranges, multi-NI local ports) must stay off the heap on every
  // topology, not just the mesh the other audits cover.
  struct TopoLoad {
    const char* topology;
    double rate;  // below each topology's saturation point, so source
                  // queues reach a bounded steady state inside the warmup
  };
  for (const auto& [topology, rate] :
       {TopoLoad{"torus", 0.3}, {"ring", 0.05}, {"cmesh", 0.15}}) {
    NocConfig c = mesh(4, 4);
    c.topology = parse_topology_kind(topology);
    if (c.topology == TopologyKind::kConcentratedMesh) c.concentration = 2;
    Network net(c);
    const auto model = nbti::NbtiModel::calibrated({}, {});
    core::PolicyConfig pc;
    pc.kind = core::PolicyKind::kSensorWise;
    core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
    ctrl.attach();
    traffic::install_uniform_traffic(net, rate, 42);
    net.run(6'000);
    EXPECT_EQ(allocations_during_steps(net, 2'500), 0u) << topology;
  }
}

TEST(HotPathAllocation, SharedPoolRunIsAllocationFree) {
  // The DAMQ datapath — free-list claims, per-VC chain splices, waking-FIFO
  // maturation, slot-form gate commands, and the per-slot sensor banks the
  // slot policy reads — must stay off the heap: every list is fixed-size
  // intrusive arrays sized at construction.
  NocConfig c = mesh(4, 4);
  c.buffer_org = BufferOrg::kShared;
  Network net(c);
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWiseSlotMd;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  traffic::install_uniform_traffic(net, 0.3, 42);
  net.run(6'000);
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
}

TEST(HotPathAllocation, FaultyRunSteadyStateIsAllocationFree) {
  Network net(mesh(4, 4));
  const auto model = nbti::NbtiModel::calibrated({}, {});
  core::PolicyConfig pc;
  pc.kind = core::PolicyKind::kSensorWise;
  core::PolicyGateController ctrl(net, pc, model, {}, nbti::PvConfig{}, 7);
  ctrl.attach();
  sim::FaultInjector injector(sim::FaultPlan::uniform(0.02), /*seed=*/3);
  injector.bind_stats(&net.stats());
  net.set_fault_injector(&injector);
  traffic::install_uniform_traffic(net, 0.3, 42);
  net.run(6'000);
  EXPECT_EQ(allocations_during_steps(net, 2'500), 0u);
}

}  // namespace
}  // namespace nbtinoc::noc
