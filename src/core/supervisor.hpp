// Trial supervisor: the Supervisor script of CAROL-FI (Sec. 5.1).
//
// For each trial it forks the process; the child rebuilds the workload,
// starts a flip thread (the Flip-script analog), runs the benchmark on the
// emulated device, and reports output + injection record through a shared-
// memory channel. The parent acts as the watchdog: it reaps the child,
// kills it past the deadline, and classifies the outcome — Masked (output
// bit-identical to the golden copy), SDC (mismatch), or DUE (crash /
// abnormal exit / hang).
//
// Trials run in *slots*: each slot owns its own SharedChannel shm segment
// and watchdog state, so a multi-worker campaign can keep several forked
// children in flight at once (start_trial/poll_slots), while the classic
// one-at-a-time API (run_trial) drives slot 0 synchronously.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/flip_engine.hpp"
#include "core/golden_map.hpp"
#include "core/outcome.hpp"
#include "core/shared_channel.hpp"
#include "core/workload_api.hpp"
#include "phi/counters.hpp"
#include "phi/device_spec.hpp"
#include "telemetry/metrics.hpp"

namespace phifi::fi {

/// How the watchdog paces its child polls.
enum class WatchdogPoll {
  /// Legacy behaviour: a fixed 200µs sleep between polls.
  kFixed,
  /// Coarse sleeps (up to 20ms) far from the expected completion time,
  /// ~20 polls across the expected runtime near it, never finer than the
  /// fixed poll. Cuts supervisor CPU (it's proportional to wakeups) while
  /// keeping reap latency bounded by the same 200µs constant.
  kAdaptive,
};

/// How a trial child comes into existence.
enum class ForkMode {
  /// Cold start: every child re-runs factory + setup + register_sites.
  kLegacy,
  /// Warm image: the campaign process keeps the post-setup workload alive
  /// (restored via Workload::reset() after the golden run) and forks trial
  /// children directly from it; COW hands each child a pristine copy.
  kWarm,
  /// Fork server: a per-slot template process pays setup once and re-forks
  /// trial grandchildren from its warm image on command.
  kTemplate,
};

[[nodiscard]] constexpr std::string_view to_string(ForkMode mode) {
  switch (mode) {
    case ForkMode::kWarm:
      return "warm";
    case ForkMode::kTemplate:
      return "template";
    case ForkMode::kLegacy:
      break;
  }
  return "legacy";
}

struct SupervisorConfig {
  /// Enables the fork-server trial fast path: golden output shared through
  /// a sealed read-only mapping, children classifying in place and shipping
  /// only a verdict, setup paid once per campaign (warm mode) or once per
  /// slot (template mode) instead of once per trial. Outcome tallies are
  /// bit-identical to the legacy path for the same seeds.
  bool trial_fast_path = false;
  /// Input-generation seed; fixed for a whole campaign so every trial runs
  /// the same computation as the golden copy.
  std::uint64_t input_seed = 0x900d5eedULL;
  /// OS threads backing the emulated device inside each trial child.
  unsigned device_os_threads = 2;
  phi::DeviceSpec device_spec = phi::DeviceSpec::knights_corner_3120a();
  /// Watchdog deadline = max(min_timeout_seconds,
  ///                         timeout_factor * golden run time).
  double timeout_factor = 25.0;
  double min_timeout_seconds = 2.0;
  WatchdogPoll poll = WatchdogPoll::kAdaptive;
  /// Overdue children get SIGTERM first; SIGKILL follows after this grace
  /// window if they have not exited (injected faults can wedge signal
  /// handling, and test workloads may ignore SIGTERM outright).
  double kill_grace_seconds = 0.25;
  /// Per-child address-space cap in MiB (0 = inherit the parent's limit).
  /// A child that exhausts it fails allocation and is classified
  /// DueKind::kRlimit instead of wedging the host under memory pressure.
  std::size_t child_address_space_mb = 0;
  /// Per-child CPU-seconds cap (0 = unlimited). The kernel delivers
  /// SIGXCPU, classified DueKind::kRlimit — a runaway child dies by rlimit
  /// even if the watchdog itself is starved.
  unsigned child_cpu_seconds = 0;
  /// Heartbeat pulses the child emits over one run (0 disables the
  /// heartbeat protocol). While the heartbeat keeps advancing, a child past
  /// the base deadline is granted extensions up to
  /// max_deadline_factor * deadline — "slow but alive" is not a hang.
  unsigned heartbeat_divisions = 16;
  double max_deadline_factor = 4.0;
  /// If > 0, a child whose heartbeat has not advanced for this many seconds
  /// is killed *before* the absolute deadline and classified
  /// DueKind::kStall. Requires heartbeat_divisions > 0.
  double stall_timeout_seconds = 0.0;
  /// Optional metrics sink (not owned; must outlive the supervisor). The
  /// watchdog feeds supervisor.poll_interval_ms and
  /// supervisor.heartbeat_gap_ms histograms plus escalation counters.
  /// nullptr disables all observation at the cost of one branch per poll.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct TrialConfig {
  std::uint64_t trial_seed = 0;  ///< drives flip randomness + injection time
  FaultModel model = FaultModel::kSingle;
  SelectionPolicy policy = SelectionPolicy::kCarolFi;
  /// Consecutive elements the fault footprint covers (1 = one variable
  /// element; the beam model uses wider bursts for vector/cache strikes).
  unsigned burst_elements = 1;
  /// Injection-time fraction is drawn uniformly from this range. Kept off
  /// the exact endpoints so the flip reliably fires while the program runs.
  double earliest_fraction = 0.01;
  double latest_fraction = 0.99;
};

struct TrialResult {
  Outcome outcome = Outcome::kNotInjected;
  DueKind due_kind = DueKind::kNone;
  InjectionRecord record;
  /// Time window the injection fell into, in [0, time_windows).
  unsigned window = 0;
  double seconds = 0.0;
  /// Heartbeat pulses observed from the child (diagnostics).
  std::uint64_t heartbeats = 0;
  /// True when the child ignored SIGTERM and had to be SIGKILLed.
  bool escalated_kill = false;
  /// How this trial's child process came into existence.
  ForkMode fork_mode = ForkMode::kLegacy;
  /// True when the trial paid no workload setup anywhere in its critical
  /// path: warm-mode trials always (setup was amortized from the golden
  /// run), template-mode trials except the one that (re)spawned the
  /// template, legacy trials never.
  bool setup_skipped = false;

  // ---- telemetry (traced, not journaled: the journal stays the compact
  //      durability record, the trace is the observability record) ----

  /// Sub-interval boundaries, seconds from trial start, monotonic:
  /// fork span = [0, fork_done), child run = [fork_done, reaped),
  /// classify = [reaped, classified).
  double fork_done_seconds = 0.0;
  double reaped_seconds = 0.0;
  double classified_seconds = 0.0;
  /// Child-reported decomposition of its own wall-clock (zeros for trials
  /// that died before reporting): workload setup/reset, site registration +
  /// flip arming, and in-child classification (fast path only). The
  /// profiler subtracts these from the reap interval to isolate the run.
  double setup_seconds = 0.0;
  double inject_seconds = 0.0;
  double classify_child_seconds = 0.0;
  /// Watchdog poll iterations while the child ran (diagnostics).
  std::uint64_t polls = 0;
  /// Workload phase transitions the child reported, in order.
  std::vector<PhaseRecord> phases;
};

/// One trial that finished (exited, crashed, or was killed) during a
/// poll_slots() pass, classified and ready to hand back.
struct SlotCompletion {
  unsigned slot = 0;
  TrialResult result;
};

class TrialSupervisor {
 public:
  TrialSupervisor(WorkloadFactory factory, SupervisorConfig config = {});
  ~TrialSupervisor();

  TrialSupervisor(const TrialSupervisor&) = delete;
  TrialSupervisor& operator=(const TrialSupervisor&) = delete;

  /// Runs the fault-free golden execution in-process and records its output
  /// and timing. Must be called before run_trial(). The emulated device is
  /// torn down afterwards so the campaign process is single-threaded when
  /// it forks.
  void prepare_golden();

  /// Fast-path alternative to prepare_golden(): adopts a golden digest
  /// recorded by an earlier run (e.g. a fabric shard journal) instead of
  /// re-running the golden execution. Output metadata is probed from a
  /// setup-less workload instance; trials run in template mode and classify
  /// by digest alone (golden bytes are not materialized, so golden() stays
  /// empty and Masked outputs are unavailable). Requires trial_fast_path.
  void adopt_golden(std::uint64_t digest, std::uint64_t output_bytes,
                    double golden_seconds);

  /// Runs one injected trial in a forked child and classifies the outcome.
  /// Synchronous convenience over slot 0; must not be mixed with in-flight
  /// async slots.
  TrialResult run_trial(const TrialConfig& config);

  /// Runs a fault-free trial through the same fork/channel machinery;
  /// used for self-checks and injector-overhead measurement.
  TrialResult run_clean_trial();

  // ---- multi-slot (parallel campaign) API ----

  /// Grows the slot pool to `count` slots, each with its own shm channel
  /// sized for the golden output. Requires prepare_golden() first; never
  /// shrinks, and never reallocates the channel of an active slot.
  void ensure_slots(unsigned count);

  [[nodiscard]] unsigned slot_count() const {
    return static_cast<unsigned>(slots_.size());
  }
  [[nodiscard]] bool slot_active(unsigned slot) const;
  /// Number of slots with a forked child currently in flight.
  [[nodiscard]] unsigned active_slots() const { return active_count_; }

  /// Forks one injected trial into a free slot. Throws std::runtime_error
  /// on fork failure (the slot stays free; the attempt can be retried).
  void start_trial(unsigned slot, const TrialConfig& config);

  /// One scheduler pass: reaps any exited children with a single
  /// EINTR-safe waitpid(-1) loop, then runs the watchdog (deadline, stall,
  /// heartbeat extension, SIGTERM→SIGKILL escalation) over the slots still
  /// running. Returns every trial that completed this pass, classified.
  std::vector<SlotCompletion> poll_slots();

  /// Suggested sleep before the next poll_slots() call: the tightest
  /// adaptive (or fixed) poll interval across the active slots.
  [[nodiscard]] std::chrono::microseconds next_poll_delay() const;

  /// Blocks until a completion event is plausible, then returns so the
  /// caller can run poll_slots() again. Fast-path slots carry an event fd
  /// (warm: the trial's exit pipe; template: the fork-server's completion
  /// byte), so the wait is a poll(2) that the kernel ends the moment the
  /// trial is done — no reap latency and, on a loaded machine, no poll
  /// wakeups competing with the child for CPU. Bounded by a 10ms tick so
  /// watchdog bookkeeping (deadlines, stall detection) keeps running.
  /// Legacy slots have no event fd and fall back to next_poll_delay()
  /// sleeping, preserving the pre-fast-path schedule exactly.
  void wait_for_completion();

  /// SIGKILLs and reaps every active slot's trial without classifying —
  /// used to cancel speculative attempts past the campaign's finish line
  /// and to tear down on abort. Template-mode trials are cancelled through
  /// their live template, which keeps serving the slot.
  void kill_active_slots();

  [[nodiscard]] std::span<const std::byte> golden() const { return golden_; }
  [[nodiscard]] util::Shape output_shape() const { return shape_; }
  [[nodiscard]] ElementType output_type() const { return type_; }
  [[nodiscard]] unsigned time_windows() const { return windows_; }
  [[nodiscard]] double golden_seconds() const { return golden_seconds_; }
  [[nodiscard]] std::string_view workload_name() const { return name_; }

  /// FNV-1a 64 digest of the golden output (0 until prepared/adopted).
  [[nodiscard]] std::uint64_t golden_digest() const { return golden_digest_; }
  /// Golden output size in bytes; valid in adopted mode too, where the
  /// bytes themselves are not materialized.
  [[nodiscard]] std::uint64_t golden_output_bytes() const {
    return output_capacity_;
  }
  /// True when the golden was adopted from a recorded digest.
  [[nodiscard]] bool adopted() const { return adopted_; }
  /// The fork mode trials will run in (resolved by prepare/adopt_golden).
  [[nodiscard]] ForkMode fork_mode() const { return resolved_mode_; }
  /// Times a dead template process had to be respawned mid-campaign.
  [[nodiscard]] unsigned template_respawns() const {
    return template_respawns_;
  }
  /// PID of the slot's template (fork-server) process, or -1 when none is
  /// alive. Diagnostics and the template-crash drill in tests.
  [[nodiscard]] pid_t slot_template_pid(unsigned slot) const {
    return slot < slots_.size() ? slots_[slot].template_pid : -1;
  }

  /// Shuts down idle template processes (closes their command pipes and
  /// reaps them). Called by the destructor; requires no active slots.
  void shutdown_templates();

  /// Device performance counters of the golden run (arithmetic intensity
  /// per Sec. 3.2/4.2; feeds the report and the metrics registry).
  [[nodiscard]] const phi::CounterSnapshot& golden_counters() const {
    return golden_counters_;
  }

  /// Output bytes of the most recent completed (Masked/SDC) trial in slot
  /// 0; valid until the next trial starts there.
  [[nodiscard]] std::span<const std::byte> last_output() const;

  /// Output bytes of the given slot's last completed trial; valid until
  /// the slot is reused.
  [[nodiscard]] std::span<const std::byte> slot_output(unsigned slot) const;

 private:
  using Clock = std::chrono::steady_clock;

  /// Per-slot watchdog state. The channel is allocated once and reused
  /// across the trials scheduled into the slot.
  struct Slot {
    std::unique_ptr<SharedChannel> channel;
    pid_t pid = -1;
    bool active = false;
    bool injected = false;  ///< launched with an injection config
    FaultModel model = FaultModel::kSingle;  ///< launched fault model
    Clock::time_point start{};
    Clock::time_point last_beat_time{};
    Clock::time_point last_poll_time{};
    std::uint64_t last_beat = 0;
    std::uint64_t polls = 0;
    double fork_done = 0.0;
    // ---- fast path ----
    ForkMode mode = ForkMode::kLegacy;  ///< mode of the in-flight trial
    pid_t template_pid = -1;  ///< fork-server process (outlives trials)
    int cmd_fd = -1;          ///< parent end of the template command pipe
    /// Warm mode: read end of a per-trial pipe whose write end lives only
    /// in the child, so child exit (any exit, including SIGKILL) reads as
    /// EOF here — an exact, kernel-delivered completion event.
    int exit_fd = -1;
    TrialCommand pending{};   ///< last dispatched command, for respawn replay
    unsigned respawn_attempts = 0;  ///< respawns charged to the current trial
    bool setup_skipped = false;     ///< the in-flight trial paid no setup
  };

  TrialResult run_child(const TrialConfig* config);
  void launch(unsigned slot, const TrialConfig* config);
  /// Reaps + classifies a finished child and frees the slot.
  TrialResult finalize_slot(Slot& slot, int status, DueKind killed_as,
                            bool escalated);
  [[noreturn]] void child_main(const TrialConfig* config,
                               SharedChannel* channel);

  // ---- fast path ----
  /// Forks a fresh template process for the slot (template mode).
  void spawn_template(unsigned slot);
  /// Ensures a live template and hands it the slot's pending command,
  /// respawning (bounded) if the template died before it could be woken.
  void dispatch_pending(unsigned slot);
  /// Watchdog kill for a template-mode trial: signals the grandchild and
  /// waits for the template to publish its status. Returns false when the
  /// grandchild does not exist yet and `force` is not set (retry next
  /// poll); with `force`, kills the whole template subtree.
  bool kill_template_trial(Slot& slot, bool force, int* status,
                           bool* escalated);
  /// Takes the slot's template subtree down: SIGKILLs the grandchild and
  /// the template, reaps the template, closes the command socket and waits
  /// until the orphaned grandchild has exited. The next launch respawns.
  void kill_template(Slot& slot);
  /// Cancels the slot's in-flight trial through its live template (kill
  /// the grandchild, wait for the published status) so the template keeps
  /// serving; falls back to kill_template() when it is dead or wedged.
  void cancel_template_trial(Slot& slot);
  /// Reap-pass handler for a template process that died mid-campaign.
  void handle_template_death(unsigned slot);
  /// Template process body: setup once, then loop re-forking trial
  /// grandchildren from the warm image on command.
  [[noreturn]] void template_main(SharedChannel* channel, int cmd_fd);
  /// Fast-path trial body, shared by warm children and template
  /// grandchildren: inject, run, classify in place, ship the verdict.
  [[noreturn]] void fast_trial_main(Workload& workload, SiteRegistry& registry,
                                    const TrialCommand& command,
                                    SharedChannel* channel);

  WorkloadFactory factory_;
  SupervisorConfig config_;
  std::vector<std::byte> golden_;
  phi::CounterSnapshot golden_counters_;
  util::Shape shape_;
  ElementType type_ = ElementType::kF32;
  unsigned windows_ = 1;
  double golden_seconds_ = 0.0;
  std::string name_;
  std::vector<Slot> slots_;
  unsigned active_count_ = 0;
  bool prepared_ = false;
  // ---- fast path ----
  /// Warm post-setup workload image kept alive in the campaign process
  /// (warm mode only); trial children are forked straight from it.
  std::unique_ptr<Workload> warm_workload_;
  /// Site registry built once against warm_workload_; its raw pointers
  /// stay valid in every COW child.
  SiteRegistry warm_registry_;
  /// Sealed read-only shared mapping of the golden output.
  GoldenMap golden_map_;
  std::uint64_t golden_digest_ = 0;
  std::uint64_t output_capacity_ = 0;  ///< golden output bytes (both modes)
  bool adopted_ = false;
  ForkMode resolved_mode_ = ForkMode::kLegacy;
  unsigned template_respawns_ = 0;
};

}  // namespace phifi::fi
