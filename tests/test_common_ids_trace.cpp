#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "common/ids.hpp"
#include "sim/trace.hpp"

namespace rw {
namespace {

struct DemoTag {};
using DemoId = Id<DemoTag>;

TEST(Ids, DefaultIsInvalid) {
  DemoId id;
  EXPECT_FALSE(id.is_valid());
  EXPECT_EQ(id, DemoId::invalid());
}

TEST(Ids, ValueAndIndex) {
  DemoId id{7};
  EXPECT_TRUE(id.is_valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(DemoId{1}, DemoId{2});
  EXPECT_EQ(DemoId{3}, DemoId{3});
  EXPECT_NE(DemoId{3}, DemoId{4});
}

TEST(Ids, Hashable) {
  std::unordered_set<DemoId> set;
  set.insert(DemoId{1});
  set.insert(DemoId{2});
  set.insert(DemoId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, Streaming) {
  std::ostringstream os;
  os << DemoId{5} << " " << DemoId{};
  EXPECT_EQ(os.str(), "#5 <invalid>");
}

TEST(TraceEvent, ToStringContainsFields) {
  sim::TraceEvent ev;
  ev.time = 123456;
  ev.kind = sim::TraceKind::kMsgSend;
  ev.core = sim::CoreId{2};
  ev.a = 42;
  const std::string s = ev.to_string("chan0");
  EXPECT_NE(s.find("msg_send"), std::string::npos);
  EXPECT_NE(s.find("core2"), std::string::npos);
  EXPECT_NE(s.find("chan0"), std::string::npos);
  EXPECT_NE(s.find("a=42"), std::string::npos);
}

TEST(TraceEvent, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(sim::TraceKind::kCustom); ++k) {
    const char* name =
        sim::trace_kind_name(static_cast<sim::TraceKind>(k));
    EXPECT_STRNE(name, "?");
    EXPECT_GT(std::string(name).size(), 2u);
  }
}

TEST(Tracer, ListenersFireEvenWhenRetentionOff) {
  sim::Tracer tracer;
  tracer.set_enabled(false);
  struct Counter final : sim::Observer {
    int fired = 0;
    void on_trace(const sim::TraceEvent&, std::string_view) override {
      ++fired;
    }
  } counter;
  EXPECT_FALSE(tracer.active());
  tracer.observers().attach(counter);
  EXPECT_TRUE(tracer.active());
  tracer.record(0, sim::TraceKind::kCustom, sim::CoreId{}, "x");
  EXPECT_EQ(counter.fired, 1);
  EXPECT_TRUE(tracer.events().empty());  // nothing retained
  tracer.set_enabled(true);
  tracer.record(1, sim::TraceKind::kCustom, sim::CoreId{}, "y");
  EXPECT_EQ(tracer.events().size(), 1u);
  EXPECT_EQ(counter.fired, 2);
}

TEST(Tracer, FilterByKind) {
  sim::Tracer tracer;
  tracer.set_enabled(true);
  tracer.record(0, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  tracer.record(1, sim::TraceKind::kMemWrite, sim::CoreId{0}, "m");
  tracer.record(2, sim::TraceKind::kMemRead, sim::CoreId{0}, "m");
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemRead).size(), 2u);
  EXPECT_EQ(tracer.filter(sim::TraceKind::kMemWrite).size(), 1u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

// ------------------------------------------------ compact trace layout

static_assert(sizeof(sim::TraceEvent) == 32);
static_assert(std::is_trivially_copyable_v<sim::TraceEvent>);

TEST(TraceEvent, LabelFieldHoldsTheWholeIdRange) {
  sim::TraceEvent ev;
  EXPECT_EQ(ev.label, 0u);  // the empty label
  ev.label = sim::LabelTable::kIdRange - 1;
  EXPECT_EQ(ev.label, sim::LabelTable::kIdRange - 1);
}

TEST(LabelTable, InternIsCanonicalAndIdZeroIsEmpty) {
  sim::LabelTable t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.view(0), "");
  EXPECT_EQ(t.intern(""), 0u);
  const sim::LabelId a = t.intern("alpha");
  const sim::LabelId b = t.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern(std::string("alp") + "ha"), a);
  EXPECT_EQ(t.view(b), "beta");
  EXPECT_EQ(t.size(), 3u);
}

TEST(LabelTable, ViewsStayValidWhileThousandsMoreAreInterned) {
  sim::LabelTable t;
  // A short label and one longer than an arena block must both stay put.
  const std::string long_label(10'000, 'x');
  const std::string_view short_view = t.view(t.intern("s0"));
  const std::string_view long_view = t.view(t.intern(long_label));
  const char* short_data = short_view.data();
  const char* long_data = long_view.data();
  for (int i = 0; i < 20'000; ++i) t.intern("label" + std::to_string(i));
  EXPECT_EQ(short_view.data(), short_data);
  EXPECT_EQ(long_view.data(), long_data);
  EXPECT_EQ(short_view, "s0");  // read through the old views (ASan checks)
  EXPECT_EQ(long_view, long_label);
  EXPECT_EQ(t.view(t.intern("label12345")), "label12345");
  EXPECT_EQ(t.size(), 20'003u);
  // A moved table keeps its entries where they were.
  const sim::LabelTable moved = std::move(t);
  EXPECT_EQ(moved.view(1).data(), short_data);
}

TEST(LabelTable, InterningPastTheCapacityFailsLoudly) {
  EXPECT_EQ(sim::LabelTable().size(), 1u);
  sim::LabelTable t(3);  // "" plus two more
  EXPECT_EQ(t.intern("a"), 1u);
  EXPECT_EQ(t.intern("b"), 2u);
  EXPECT_THROW(t.intern("c"), std::length_error);
  EXPECT_EQ(t.intern("a"), 1u);  // known labels still resolve
  EXPECT_EQ(t.size(), 3u);
  // The cap never exceeds the id range the event's label field holds.
  sim::LabelTable big(sim::LabelTable::kIdRange * 4);
  EXPECT_EQ(big.intern("x"), 1u);
}

/// Event i of a test log: time i, label "l<i % 7>", payloads from i.
void record_pattern(sim::Tracer& tr, std::size_t n, std::uint64_t salt) {
  for (std::size_t i = 0; i < n; ++i)
    tr.record(i, sim::TraceKind::kCustom,
              sim::CoreId{static_cast<std::uint32_t>(i % 3)},
              "l" + std::to_string(i % 7), i ^ salt, i + salt);
}

void expect_pattern(const sim::TraceLog& log, std::size_t n,
                    std::uint64_t salt) {
  ASSERT_EQ(log.size(), n);
  EXPECT_EQ(log.empty(), n == 0);
  std::size_t i = 0;
  for (const sim::TraceEvent& ev : log) {
    ASSERT_LT(i, n);
    EXPECT_EQ(ev.time, i);
    EXPECT_EQ(ev.a, i ^ salt);
    EXPECT_EQ(ev.b, i + salt);
    EXPECT_EQ(ev.core.value(), i % 3);
    EXPECT_EQ(log.label(ev), "l" + std::to_string(i % 7));
    EXPECT_EQ(&log[i], &ev);  // indexing agrees with iteration
    ++i;
  }
  EXPECT_EQ(i, n);
}

TEST(TraceLog, IterationSizeAndIndexingAcrossChunkBoundaries) {
  constexpr std::size_t kChunk = sim::TraceLog::kChunkEvents;
  static_assert(sim::TraceLog::kChunkBytes < 128 * 1024);
  sim::Tracer tr;
  tr.set_enabled(true);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, kChunk - 1,
                              kChunk, kChunk + 1, 3 * kChunk + 5}) {
    tr.clear();
    record_pattern(tr, n, n);
    expect_pattern(tr.events(), n, n);
  }
  // After clear(), a shorter re-recording shows none of the old events,
  // and a longer one reuses the old chunks and then grows.
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.events().begin(), tr.events().end());
  record_pattern(tr, kChunk + 2, 77);
  expect_pattern(tr.events(), kChunk + 2, 77);
  tr.clear();
  record_pattern(tr, 5 * kChunk, 78);
  expect_pattern(tr.events(), 5 * kChunk, 78);
}

TEST(TraceLog, CopiesAndMovesKeepEventsAndLabels) {
  sim::Tracer tr;
  tr.set_enabled(true);
  record_pattern(tr, sim::TraceLog::kChunkEvents + 9, 5);
  sim::TraceLog copy = tr.events();
  tr.clear();
  record_pattern(tr, 3, 6);  // the copy is independent of its source
  expect_pattern(copy, sim::TraceLog::kChunkEvents + 9, 5);
  sim::TraceLog moved = std::move(copy);
  expect_pattern(moved, sim::TraceLog::kChunkEvents + 9, 5);
  copy = moved;  // a moved-from log is assignable again
  expect_pattern(copy, sim::TraceLog::kChunkEvents + 9, 5);
}

}  // namespace
}  // namespace rw
