#include "core/shared_channel.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>

namespace phifi::fi {
namespace {

TEST(SharedChannel, InitiallyEmpty) {
  SharedChannel channel(64);
  EXPECT_FALSE(channel.record_ready());
  EXPECT_FALSE(channel.output_ready());
  EXPECT_EQ(channel.capacity(), 64u);
  EXPECT_TRUE(channel.output().empty());
}

TEST(SharedChannel, RecordRoundTrip) {
  SharedChannel channel(16);
  InjectionRecord record;
  record.injected = true;
  record.model = FaultModel::kDouble;
  record.worker = 42;
  record.progress_fraction = 0.75;
  std::strcpy(record.site_name, "var_x");
  std::strcpy(record.category, "matrix");
  channel.store_record(record);
  ASSERT_TRUE(channel.record_ready());
  const InjectionRecord loaded = channel.record();
  EXPECT_TRUE(loaded.injected);
  EXPECT_EQ(loaded.model, FaultModel::kDouble);
  EXPECT_EQ(loaded.worker, 42);
  EXPECT_DOUBLE_EQ(loaded.progress_fraction, 0.75);
  EXPECT_STREQ(loaded.site_name, "var_x");
}

TEST(SharedChannel, OutputRoundTripAndReset) {
  SharedChannel channel(8);
  const std::byte payload[4] = {std::byte{1}, std::byte{2}, std::byte{3},
                                std::byte{4}};
  channel.store_output(payload);
  ASSERT_TRUE(channel.output_ready());
  const auto output = channel.output();
  ASSERT_EQ(output.size(), 4u);
  EXPECT_EQ(std::memcmp(output.data(), payload, 4), 0);

  channel.reset();
  EXPECT_FALSE(channel.output_ready());
  EXPECT_FALSE(channel.record_ready());
  EXPECT_TRUE(channel.output().empty());
}

TEST(SharedChannel, SecondRecordOverwritesFirst) {
  SharedChannel channel(8);
  InjectionRecord provisional;
  provisional.injected = true;
  provisional.model = FaultModel::kZero;
  channel.store_record(provisional);
  InjectionRecord final_record = provisional;
  final_record.element_index = 99;
  std::strcpy(final_record.site_name, "final");
  channel.store_record(final_record);
  EXPECT_EQ(channel.record().element_index, 99u);
  EXPECT_STREQ(channel.record().site_name, "final");
}

TEST(SharedChannel, VisibleAcrossFork) {
  // The core property: a child's writes are observed by the parent.
  SharedChannel channel(16);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    InjectionRecord record;
    record.injected = true;
    record.element_index = 1234;
    channel.store_record(record);
    const std::byte payload[2] = {std::byte{0xaa}, std::byte{0xbb}};
    channel.store_output(payload);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_TRUE(channel.record_ready());
  ASSERT_TRUE(channel.output_ready());
  EXPECT_EQ(channel.record().element_index, 1234u);
  EXPECT_EQ(channel.output()[0], std::byte{0xaa});
  EXPECT_EQ(channel.output()[1], std::byte{0xbb});
}

TEST(SharedChannel, HeartbeatCountsAndResets) {
  SharedChannel channel(8);
  EXPECT_EQ(channel.heartbeat(), 0u);
  channel.beat();
  channel.beat();
  channel.beat();
  EXPECT_EQ(channel.heartbeat(), 3u);
  channel.reset();
  EXPECT_EQ(channel.heartbeat(), 0u);
}

TEST(SharedChannel, HeartbeatVisibleAcrossFork) {
  // The watchdog's liveness signal: child beats, parent observes.
  SharedChannel channel(8);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    for (int i = 0; i < 5; ++i) channel.beat();
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(channel.heartbeat(), 5u);
}

TEST(SharedChannel, PhaseLogRoundTripsInOrder) {
  SharedChannel channel(8);
  EXPECT_TRUE(channel.phases().empty());
  channel.store_phase("setup", 0.0, 0.001);
  channel.store_phase("kernel", 0.25, 0.010);
  const auto phases = channel.phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_STREQ(phases[0].name, "setup");
  EXPECT_DOUBLE_EQ(phases[0].fraction, 0.0);
  EXPECT_DOUBLE_EQ(phases[0].t_seconds, 0.001);
  EXPECT_STREQ(phases[1].name, "kernel");
  EXPECT_DOUBLE_EQ(phases[1].fraction, 0.25);

  channel.reset();
  EXPECT_TRUE(channel.phases().empty());
}

TEST(SharedChannel, PhaseLogTruncatesLongNamesAndDropsOverflow) {
  SharedChannel channel(8);
  // Names longer than the fixed slot are truncated, not overrun.
  channel.store_phase("a-phase-name-well-beyond-twenty-four-chars", 0.5,
                      0.1);
  const auto one = channel.phases();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_LT(std::strlen(one[0].name), sizeof(PhaseRecord{}.name));

  // A corrupted child looping on enter_phase must not wedge anything:
  // transitions past the fixed capacity are silently dropped.
  for (std::size_t i = 0; i < SharedChannel::kMaxPhases + 10; ++i) {
    channel.store_phase("loop", 0.5, 0.1);
  }
  EXPECT_EQ(channel.phases().size(), SharedChannel::kMaxPhases);
}

TEST(SharedChannel, PhasesVisibleAcrossFork) {
  SharedChannel channel(8);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    channel.store_phase("child-phase", 0.75, 0.002);
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  const auto phases = channel.phases();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_STREQ(phases[0].name, "child-phase");
  EXPECT_DOUBLE_EQ(phases[0].fraction, 0.75);
}

TEST(SharedChannel, ZeroCapacityHandlesEmptyOutput) {
  SharedChannel channel(0);
  channel.store_output({});
  EXPECT_TRUE(channel.output_ready());
  EXPECT_TRUE(channel.output().empty());
}

// A trial child can scribble anywhere in its own address space through an
// injected pointer fault, the shared mapping included. Whatever bytes it
// leaves there, the parent-side reads must stay bounded: valid bools,
// a fraction in [0, 1], NUL-terminated strings, an output span no longer
// than the capacity, and a bounded phase log.
TEST(SharedChannel, ParentReadsStayBoundedAfterChildScribbles) {
  for (const double planted_fraction :
       {std::numeric_limits<double>::quiet_NaN(), 7.5, -3.0,
        std::numeric_limits<double>::infinity()}) {
    SharedChannel channel(16);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // The header sits right before the output payload in the mapping.
      auto* header = reinterpret_cast<ShmHeader*>(
          const_cast<std::byte*>(channel.output().data()) -
          sizeof(ShmHeader));
      std::memset(static_cast<void*>(&header->record), 0xa5,
                  sizeof(header->record));
      std::memcpy(&header->record.progress_fraction, &planted_fraction,
                  sizeof(planted_fraction));
      std::memset(static_cast<void*>(header->phases), 0xa5,
                  sizeof(header->phases));
      header->output_size = ~std::uint64_t{0};
      header->phase_count.store(0xffffffffu, std::memory_order_release);
      header->record_ready.store(1, std::memory_order_release);
      _exit(0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    ASSERT_TRUE(channel.record_ready());
    const InjectionRecord loaded = channel.record();
    // 0xa5 is not a valid bool representation; it must read as true.
    EXPECT_TRUE(loaded.injected);
    EXPECT_TRUE(loaded.changed);
    EXPECT_GE(loaded.progress_fraction, 0.0) << planted_fraction;
    EXPECT_LE(loaded.progress_fraction, 1.0) << planted_fraction;
    EXPECT_LT(::strnlen(loaded.site_name, sizeof(loaded.site_name)),
              sizeof(loaded.site_name));
    EXPECT_LT(::strnlen(loaded.category, sizeof(loaded.category)),
              sizeof(loaded.category));
    EXPECT_LE(channel.output().size(), channel.capacity());
    const auto phases = channel.phases();
    EXPECT_EQ(phases.size(), SharedChannel::kMaxPhases);
    for (const PhaseRecord& phase : phases) {
      EXPECT_LT(::strnlen(phase.name, sizeof(phase.name)),
                sizeof(phase.name));
    }
  }
  // The clamp keeps a well-behaved fraction exactly.
  SharedChannel channel(16);
  InjectionRecord record;
  record.progress_fraction = 0.3125;
  channel.store_record(record);
  EXPECT_EQ(channel.record().progress_fraction, 0.3125);
}

}  // namespace
}  // namespace phifi::fi
