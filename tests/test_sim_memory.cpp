#include "sim/memory.hpp"

#include <gtest/gtest.h>

namespace rw::sim {
namespace {

struct AccessLog final : Observer {
  std::vector<MemAccess> seen;
  void on_mem_access(const MemAccess& a) override { seen.push_back(a); }
};

class MemoryTest : public ::testing::Test {
 protected:
  Kernel kernel;
  Tracer tracer;
  MemorySystem mem{kernel, tracer};
};

TEST_F(MemoryTest, ReadWriteRoundTrip) {
  mem.add_region("spm", 0x1000, 4096, 1, CoreId{0});
  mem.write_u64(CoreId{0}, 0x1000, 0x1122334455667788ULL);
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0x1000), 0x1122334455667788ULL);
  mem.write_u32(CoreId{0}, 0x1100, 0xcafebabe);
  EXPECT_EQ(mem.read_u32(CoreId{0}, 0x1100), 0xcafebabeu);
}

TEST_F(MemoryTest, RegionsStartZeroed) {
  mem.add_region("r", 0, 64, 1);
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0), 0u);
}

TEST_F(MemoryTest, RejectsOverlappingRegions) {
  mem.add_region("a", 0x1000, 0x100, 1);
  EXPECT_THROW(mem.add_region("b", 0x10ff, 0x100, 1),
               std::invalid_argument);
  EXPECT_NO_THROW(mem.add_region("c", 0x1100, 0x100, 1));
}

TEST_F(MemoryTest, UnmappedAccessThrows) {
  mem.add_region("r", 0x1000, 0x100, 1);
  EXPECT_THROW(mem.read_u64(CoreId{0}, 0x2000), std::out_of_range);
  // Access straddling the end of a region is also illegal.
  EXPECT_THROW(mem.read_u64(CoreId{0}, 0x10fc), std::out_of_range);
}

TEST_F(MemoryTest, LocalityEnforcementFaultsForeignAccess) {
  mem.add_region("spm0", 0x1000, 0x100, 1, CoreId{0});
  mem.add_region("shared", 0x8000, 0x100, 10);
  mem.set_enforce_locality(true);
  // Owner and shared accesses pass.
  EXPECT_NO_THROW(mem.write_u64(CoreId{0}, 0x1000, 1));
  EXPECT_NO_THROW(mem.write_u64(CoreId{1}, 0x8000, 1));
  // Foreign scratchpad access faults and is counted.
  EXPECT_THROW(mem.write_u64(CoreId{1}, 0x1000, 1), std::runtime_error);
  EXPECT_EQ(mem.locality_violations(), 1u);
}

TEST_F(MemoryTest, LocalityOffAllowsForeignAccess) {
  mem.add_region("spm0", 0x1000, 0x100, 1, CoreId{0});
  EXPECT_NO_THROW(mem.write_u64(CoreId{1}, 0x1000, 7));
  EXPECT_EQ(mem.read_u64(CoreId{0}, 0x1000), 7u);
}

TEST_F(MemoryTest, ObserversSeeAllAccesses) {
  mem.add_region("r", 0, 256, 1);
  AccessLog log;
  tracer.observers().attach(log);
  const std::vector<MemAccess>& seen = log.seen;
  mem.write_u32(CoreId{2}, 16, 99);
  mem.read_u32(CoreId{3}, 16);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].is_write);
  EXPECT_EQ(seen[0].core, CoreId{2});
  EXPECT_EQ(seen[0].value, 99u);
  EXPECT_FALSE(seen[1].is_write);
  EXPECT_EQ(seen[1].value, 99u);
}

TEST_F(MemoryTest, BlockTransfer) {
  mem.add_region("r", 0, 256, 1);
  std::vector<std::uint8_t> in{1, 2, 3, 4, 5};
  mem.write_block(CoreId{0}, 10, in);
  std::vector<std::uint8_t> out(5);
  mem.read_block(CoreId{0}, 10, out);
  EXPECT_EQ(out, in);
}

TEST_F(MemoryTest, PokePeekBypassObservers) {
  mem.add_region("r", 0, 64, 1);
  AccessLog log;
  tracer.observers().attach(log);
  std::vector<std::uint8_t> v{42};
  mem.poke(3, v);
  std::vector<std::uint8_t> out(1);
  mem.peek(3, out);
  EXPECT_EQ(out[0], 42);
  EXPECT_TRUE(log.seen.empty());
}

TEST_F(MemoryTest, LatencyLookup) {
  mem.add_region("fast", 0, 64, 1);
  mem.add_region("slow", 0x100, 64, 20);
  EXPECT_EQ(mem.latency_for(0), 1u);
  EXPECT_EQ(mem.latency_for(0x100), 20u);
}

TEST_F(MemoryTest, TracesAccessesWhenEnabled) {
  tracer.set_enabled(true);
  mem.add_region("r", 0, 64, 1);
  mem.write_u64(CoreId{1}, 0, 5);
  mem.read_u64(CoreId{1}, 0);
  EXPECT_EQ(tracer.filter(TraceKind::kMemWrite).size(), 1u);
  EXPECT_EQ(tracer.filter(TraceKind::kMemRead).size(), 1u);
}

TEST_F(MemoryTest, FindRegion) {
  mem.add_region("a", 0x1000, 0x100, 1);
  ASSERT_NE(mem.find_region(0x1050), nullptr);
  EXPECT_EQ(mem.find_region(0x1050)->name, "a");
  EXPECT_EQ(mem.find_region(0x2000), nullptr);
}

}  // namespace
}  // namespace rw::sim
