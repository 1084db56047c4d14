#include "core/supervisor.hpp"

#include <cerrno>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <cstdio>
#include <new>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"
#include "util/posix_io.hpp"

namespace phifi::fi {

namespace {

using Clock = std::chrono::steady_clock;

/// Child exit code for an allocation failure under the address-space rlimit
/// (distinct from the generic uncaught-exception code 3).
constexpr int kChildExitRlimit = 4;

/// Template (fork-server) exit codes: fork of a trial grandchild failed /
/// waitpid on the grandchild failed. Either way the parent respawns it.
constexpr int kTemplateExitForkFailed = 5;
constexpr int kTemplateExitWaitFailed = 6;

/// A template that keeps dying this many times over one trial points at a
/// systemic problem (OOM killer, broken workload setup); give up loudly
/// rather than spin on respawns.
constexpr unsigned kMaxTemplateRespawns = 3;

/// Upper bound on one wait_for_completion() block. Completion itself wakes
/// the poll() instantly via an event fd; the tick only paces watchdog
/// bookkeeping (deadlines, stall detection), whose thresholds are seconds.
constexpr int kWatchdogTickMs = 10;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// waitpid that survives signal delivery to the campaign process: EINTR is
/// a retry, not an error. Any other failure is real and still throws.
// phicheck:eintr-helper retry loop below; every waitpid in this file routes here
pid_t waitpid_eintr(pid_t pid, int* status, int flags) {
  while (true) {
    const pid_t reaped = ::waitpid(pid, status, flags);
    if (reaped >= 0 || errno != EINTR) return reaped;
  }
}

/// Kills an overdue child: SIGTERM, a grace window, then SIGKILL. Returns
/// true if the SIGKILL escalation was needed. Always reaps the child.
bool kill_with_escalation(pid_t pid, double grace_seconds, int* status) {
  ::kill(pid, SIGTERM);
  const auto grace_start = Clock::now();
  while (seconds_since(grace_start) < grace_seconds) {
    const pid_t reaped = waitpid_eintr(pid, status, WNOHANG);
    if (reaped == pid) return false;
    if (reaped < 0) {
      throw std::runtime_error("TrialSupervisor: waitpid failed during kill");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid, SIGKILL);
  if (waitpid_eintr(pid, status, 0) < 0) {
    throw std::runtime_error("TrialSupervisor: waitpid failed after SIGKILL");
  }
  return true;
}

/// Poll pacing (WatchdogPoll::kAdaptive). Every wakeup costs parent CPU
/// (waitpid + clock reads), so the schedule minimizes wakeups: sleep half
/// the remaining gap (up to 20ms) far from the expected completion time,
/// then ~20 polls across the expected runtime near it — never finer than
/// the legacy fixed 200µs poll, so reap latency stays bounded by the same
/// constant while long trials cost orders of magnitude fewer wakeups.
std::chrono::microseconds adaptive_poll_interval(double elapsed,
                                                 double expected,
                                                 long min_floor_us) {
  using std::chrono::microseconds;
  if (expected <= 0.0) return microseconds(min_floor_us);
  const long floor_us = std::clamp(
      static_cast<long>(expected * 1e6 / 20.0), min_floor_us, 1000L);
  if (elapsed < 0.8 * expected) {
    const double gap = 0.8 * expected - elapsed;
    const auto us = static_cast<long>(gap * 1e6 / 2.0);
    return microseconds(std::clamp(us, floor_us, 20000L));
  }
  if (elapsed < 1.5 * expected + 0.002) return microseconds(floor_us);
  // Hang territory: completion is unlikely to be imminent, and kill
  // decisions tolerate ms-scale latency.
  return microseconds(std::max(floor_us, 1000L));
}

/// Flattens a TrialConfig into the POD command block the template loads
/// from shared memory. nullptr = clean (uninjected) trial.
TrialCommand to_command(const TrialConfig* config) {
  TrialCommand command;
  if (config == nullptr) return command;
  command.injected = true;
  command.trial_seed = config->trial_seed;
  command.model = static_cast<std::uint32_t>(config->model);
  command.policy = static_cast<std::uint32_t>(config->policy);
  command.burst = config->burst_elements;
  command.earliest_fraction = config->earliest_fraction;
  command.latest_fraction = config->latest_fraction;
  return command;
}

/// Wakes a template blocked on its command pipe. MSG_NOSIGNAL turns a dead
/// template into EPIPE instead of a campaign-killing SIGPIPE. Returns false
/// when the template is gone.
bool wake_template_fd(int fd) {
  const std::byte wake{1};
  return util::io::send_some(fd, &wake, 1, MSG_NOSIGNAL) == 1;
}

/// Waits (bounded) until a process that may not be our child has exited.
/// Used on orphaned grandchildren after SIGKILL: once the process is gone,
/// no verdict/heartbeat write can land. A pidfd turns readable at exit
/// whether or not we are the parent, so an orphan that lingers as a zombie
/// (its new parent may reap lazily) counts as gone; a kill(pid, 0) probe
/// sees the zombie as alive and spins out the whole timeout.
void wait_pid_gone(pid_t pid, double timeout_seconds) {
  const int fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  if (fd >= 0) {
    pollfd exited{fd, POLLIN, 0};
    (void)util::io::poll_retry(&exited, 1,
                               static_cast<int>(timeout_seconds * 1000.0));
    ::close(fd);
    return;
  }
  if (errno == ESRCH) return;  // already reaped
  // No pidfd support (pre-5.3 kernel or a seccomp filter): nap-probe.
  const auto start = Clock::now();
  while (::kill(pid, 0) == 0 && seconds_since(start) < timeout_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Closes every descriptor from `first` up, except `keep`. close_range(2)
/// where the kernel has it (5.9+); otherwise one close per possible fd.
void close_fds_from(int first, int keep) {
  const auto from = static_cast<unsigned>(first);
  const auto kept = static_cast<unsigned>(keep);
  const bool ranged =
      (kept <= from || ::close_range(from, kept - 1, 0) == 0) &&
      ::close_range(std::max(from, kept + 1), ~0U, 0) == 0;
  if (ranged) return;
  rlimit limit{};
  ::getrlimit(RLIMIT_NOFILE, &limit);
  const rlim_t end = std::min<rlim_t>(limit.rlim_cur, rlim_t{1} << 20);
  for (rlim_t fd = from; fd < end; ++fd) {
    if (fd != kept) ::close(static_cast<int>(fd));
  }
}

}  // namespace

TrialSupervisor::TrialSupervisor(WorkloadFactory factory,
                                 SupervisorConfig config)
    : factory_(factory), config_(config) {
  assert(factory_ != nullptr);
}

TrialSupervisor::~TrialSupervisor() {
  // Never leave orphaned trial children behind: a campaign that throws
  // mid-flight still reaps on unwind.
  kill_active_slots();
  shutdown_templates();
}

void TrialSupervisor::prepare_golden() {
  auto workload = factory_();
  workload->setup(config_.input_seed);
  const auto start = Clock::now();
  {
    // Scoped so the device's pool threads are joined before any fork.
    phi::Device device(config_.device_spec, config_.device_os_threads);
    ProgressTracker progress;
    progress.reset(workload->total_steps());
    workload->run(device, progress);
    progress.finish();
    // Snapshot while the device is still alive: arithmetic intensity of the
    // fault-free run (Sec. 3.2/4.2) for the report and metrics export.
    golden_counters_ = device.counters().snapshot();
  }
  golden_seconds_ = seconds_since(start);
  const auto bytes = workload->output_bytes();
  golden_.assign(bytes.begin(), bytes.end());
  shape_ = workload->output_shape();
  type_ = workload->output_type();
  windows_ = workload->time_windows();
  name_ = workload->name();
  output_capacity_ = golden_.size();
  // Digested on both paths: the journal header records it so a later
  // fast-path resume can adopt the golden without re-running it.
  golden_digest_ = fnv1a64(golden_);
  if (config_.trial_fast_path) {
    // Publish the golden once into a sealed read-only mapping every trial
    // child inherits, then pick the fork flavor: a workload that can
    // restore its post-setup image in place stays warm in this process and
    // trials fork straight from it; otherwise a per-slot template process
    // pays setup once and re-forks grandchildren.
    golden_map_.publish(golden_, golden_digest_);
    if (workload->reset()) {
      resolved_mode_ = ForkMode::kWarm;
      warm_workload_ = std::move(workload);
      warm_workload_->register_sites(warm_registry_);
    } else {
      resolved_mode_ = ForkMode::kTemplate;
    }
  }
  prepared_ = true;
  ensure_slots(1);
  util::log_info() << name_ << ": golden run " << golden_seconds_ << "s, "
                   << golden_.size() << " output bytes"
                   << (config_.trial_fast_path
                           ? (resolved_mode_ == ForkMode::kWarm
                                  ? " (fast path: warm re-fork)"
                                  : " (fast path: fork-server templates)")
                           : "");
}

void TrialSupervisor::adopt_golden(std::uint64_t digest,
                                   std::uint64_t output_bytes,
                                   double golden_seconds) {
  if (!config_.trial_fast_path) {
    throw std::runtime_error(
        "TrialSupervisor: adopt_golden requires the trial fast path");
  }
  if (digest == 0 || output_bytes == 0) {
    throw std::runtime_error("TrialSupervisor: cannot adopt an empty golden");
  }
  // Output metadata comes from a setup-less instance: shape, type, windows
  // and name are structural workload properties, fixed at construction.
  auto workload = factory_();
  shape_ = workload->output_shape();
  type_ = workload->output_type();
  windows_ = workload->time_windows();
  name_ = workload->name();
  golden_digest_ = digest;
  output_capacity_ = output_bytes;
  golden_seconds_ = golden_seconds;  // preserves the watchdog deadline
  adopted_ = true;
  // Always template mode: there is no golden run here to leave a warm
  // image behind, so a template must pay setup (once per slot).
  resolved_mode_ = ForkMode::kTemplate;
  prepared_ = true;
  ensure_slots(1);
  util::log_info() << name_ << ": adopted golden digest, skipped "
                   << golden_seconds << "s golden run";
}

void TrialSupervisor::ensure_slots(unsigned count) {
  assert(prepared_ && "call prepare_golden() first");
  while (slots_.size() < count) {
    Slot slot;
    slot.channel = std::make_unique<SharedChannel>(output_capacity_);
    slots_.push_back(std::move(slot));
  }
}

bool TrialSupervisor::slot_active(unsigned slot) const {
  return slot < slots_.size() && slots_[slot].active;
}

TrialResult TrialSupervisor::run_trial(const TrialConfig& config) {
  assert(prepared_ && "call prepare_golden() first");
  return run_child(&config);
}

TrialResult TrialSupervisor::run_clean_trial() {
  assert(prepared_ && "call prepare_golden() first");
  return run_child(nullptr);
}

std::span<const std::byte> TrialSupervisor::last_output() const {
  return slot_output(0);
}

std::span<const std::byte> TrialSupervisor::slot_output(unsigned slot) const {
  assert(slot < slots_.size());
  const auto output = slots_[slot].channel->output();
  // Fast-path Masked trials ship zero output bytes (the verdict is enough);
  // observers expecting the trial's output get the golden span, which is
  // bit-identical by definition of Masked.
  if (output.empty() && golden_map_.mapped() &&
      slots_[slot].channel->verdict_ready() &&
      slots_[slot].channel->verdict_matches()) {
    return golden_map_.golden();
  }
  return output;
}

TrialResult TrialSupervisor::run_child(const TrialConfig* config) {
  assert(active_count_ == 0 &&
         "synchronous run_trial cannot overlap in-flight slots");
  launch(0, config);
  while (true) {
    std::vector<SlotCompletion> done = poll_slots();
    if (!done.empty()) return std::move(done.front().result);
    wait_for_completion();
  }
}

void TrialSupervisor::launch(unsigned slot_index, const TrialConfig* config) {
  assert(slot_index < slots_.size());
  Slot& slot = slots_[slot_index];
  assert(!slot.active && "slot already has a child in flight");
  slot.channel->reset();
  SharedChannel* channel = slot.channel.get();
  const auto start = Clock::now();
  slot.mode = config_.trial_fast_path ? resolved_mode_ : ForkMode::kLegacy;
  slot.respawn_attempts = 0;
  slot.setup_skipped = false;
  if (slot.mode == ForkMode::kLegacy) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw std::runtime_error("TrialSupervisor: fork failed");
    }
    if (pid == 0) {
      child_main(config, channel);  // never returns
    }
    slot.pid = pid;
  } else if (slot.mode == ForkMode::kWarm) {
    // Warm image: fork straight from this process; COW hands the child a
    // pristine copy of the post-setup workload and the site registry
    // pointing into it. No factory, setup or registration in the child.
    const TrialCommand command = to_command(config);
    Workload& workload = *warm_workload_;
    SiteRegistry& registry = warm_registry_;
    // Exit pipe: the child inherits the write end and never touches it, so
    // any exit — clean, crash, or SIGKILL — closes it in the kernel and the
    // parent's read end EOFs. wait_for_completion() blocks on that instead
    // of napping on a timer, which both removes reap latency and keeps the
    // parent truly idle (off-CPU) while the child computes.
    int exit_pipe[2] = {-1, -1};
    if (::pipe(exit_pipe) != 0) {
      throw std::runtime_error("TrialSupervisor: pipe failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(exit_pipe[0]);
      ::close(exit_pipe[1]);
      throw std::runtime_error("TrialSupervisor: fork failed");
    }
    if (pid == 0) {
      fast_trial_main(workload, registry, command, channel);  // never returns
    }
    ::close(exit_pipe[1]);
    slot.exit_fd = exit_pipe[0];
    slot.pid = pid;
    slot.setup_skipped = true;
  } else {
    // Template mode: hand the command to the slot's fork server (spawning
    // it first if needed) and let it re-fork the trial grandchild. The
    // grandchild is not our waitpid child; completion arrives through the
    // channel's status_ready flag.
    slot.pending = to_command(config);
    slot.setup_skipped = slot.template_pid > 0;
    dispatch_pending(slot_index);
    slot.pid = -1;
  }
  slot.active = true;
  slot.injected = config != nullptr;
  slot.model = config != nullptr ? config->model : FaultModel::kSingle;
  slot.start = start;
  slot.fork_done = seconds_since(start);
  slot.polls = 0;
  slot.last_beat = slot.channel->heartbeat();
  slot.last_beat_time = start;
  slot.last_poll_time = start;
  ++active_count_;
}

void TrialSupervisor::spawn_template(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  if (slot.cmd_fd >= 0) {
    // Stale pipe from a dead template; a fresh socketpair guarantees no
    // queued wake bytes survive into the new process.
    ::close(slot.cmd_fd);
    slot.cmd_fd = -1;
  }
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("TrialSupervisor: socketpair failed");
  }
  SharedChannel* channel = slot.channel.get();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("TrialSupervisor: template fork failed");
  }
  if (pid == 0) {
    template_main(channel, fds[1]);  // never returns
  }
  ::close(fds[1]);
  slot.cmd_fd = fds[0];
  slot.template_pid = pid;
}

void TrialSupervisor::dispatch_pending(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  unsigned attempts = 0;
  while (true) {
    if (slot.template_pid < 0) {
      spawn_template(slot_index);
      slot.setup_skipped = false;  // this trial pays the template's setup
    }
    slot.channel->store_command(slot.pending);
    if (wake_template_fd(slot.cmd_fd)) return;
    // The template died between spawn and wake (EPIPE): reap and retry.
    int status = 0;
    (void)waitpid_eintr(slot.template_pid, &status, 0);
    slot.template_pid = -1;
    ++template_respawns_;
    if (++attempts >= kMaxTemplateRespawns) {
      throw std::runtime_error(
          "TrialSupervisor: template process keeps dying at startup");
    }
  }
}

void TrialSupervisor::start_trial(unsigned slot, const TrialConfig& config) {
  launch(slot, &config);
}

std::vector<SlotCompletion> TrialSupervisor::poll_slots() {
  std::vector<SlotCompletion> done;
  // Reap pass: a single EINTR-safe wait loop picks up every child that has
  // exited, whichever slot it ran in.
  while (active_count_ > 0) {
    int status = 0;
    const pid_t reaped = waitpid_eintr(-1, &status, WNOHANG);
    if (reaped == 0) break;
    if (reaped < 0) {
      throw std::runtime_error("TrialSupervisor: waitpid failed");
    }
    bool matched = false;
    for (unsigned i = 0; i < slots_.size(); ++i) {
      Slot& slot = slots_[i];
      if (slot.active && slot.pid == reaped) {
        done.push_back({i, finalize_slot(slot, status, DueKind::kNone,
                                         /*escalated=*/false)});
        matched = true;
        break;
      }
      if (slot.template_pid == reaped) {
        // A fork-server died. Idle slot: just forget it (the next launch
        // respawns). Active slot: clean up the orphaned grandchild and
        // replay the pending command — counter-indexed seeds make the
        // replayed trial bit-identical, so tallies are unaffected.
        slot.template_pid = -1;
        if (slot.active) handle_template_death(i);
        matched = true;
        break;
      }
    }
    if (!matched) {
      util::log_warn() << "TrialSupervisor: reaped unknown child pid "
                       << reaped;
    }
  }

  // Watchdog pass over the slots still running: deadline, heartbeat
  // extension, stall detection, escalation.
  telemetry::Histogram* poll_hist = nullptr;
  telemetry::Histogram* beat_hist = nullptr;
  if (config_.metrics != nullptr && active_count_ > 0) {
    poll_hist = &config_.metrics->histogram(
        "supervisor.poll_interval_ms", telemetry::watchdog_poll_edges_ms());
    beat_hist = &config_.metrics->histogram(
        "supervisor.heartbeat_gap_ms", telemetry::default_latency_edges_ms());
  }
  const double deadline = std::max(config_.min_timeout_seconds,
                                   config_.timeout_factor * golden_seconds_);
  const bool heartbeat_on = config_.heartbeat_divisions > 0;
  const double hard_deadline =
      heartbeat_on ? std::max(config_.max_deadline_factor, 1.0) * deadline
                   : deadline;
  // A child past the base deadline stays alive only while its heartbeat
  // advanced within this window; the optional stall timeout additionally
  // cuts a silent child before the deadline.
  const double liveness_window = config_.stall_timeout_seconds > 0.0
                                     ? config_.stall_timeout_seconds
                                     : deadline;

  for (unsigned i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.active) continue;
    ++slot.polls;
    // Template-mode completion: the grandchild is reaped by its template,
    // not by us, so "done" is the template's published wait status.
    if (slot.mode == ForkMode::kTemplate && slot.channel->status_ready()) {
      done.push_back({i, finalize_slot(slot, slot.channel->child_status(),
                                       DueKind::kNone, /*escalated=*/false)});
      continue;
    }
    const auto now = Clock::now();
    const double elapsed = seconds_since(slot.start);
    if (poll_hist != nullptr) {
      poll_hist->observe(
          std::chrono::duration<double, std::milli>(now - slot.last_poll_time)
              .count());
    }
    slot.last_poll_time = now;
    if (heartbeat_on) {
      const std::uint64_t beat = slot.channel->heartbeat();
      if (beat != slot.last_beat) {
        if (beat_hist != nullptr) {
          beat_hist->observe(std::chrono::duration<double, std::milli>(
                                 now - slot.last_beat_time)
                                 .count());
        }
        slot.last_beat = beat;
        slot.last_beat_time = now;
      }
    }
    const double beat_gap =
        std::chrono::duration<double>(now - slot.last_beat_time).count();

    DueKind killed_as = DueKind::kNone;
    if (heartbeat_on && config_.stall_timeout_seconds > 0.0 &&
        beat_gap > config_.stall_timeout_seconds) {
      killed_as = DueKind::kStall;
    } else if (elapsed > deadline) {
      const bool alive = heartbeat_on && beat_gap <= liveness_window &&
                         elapsed <= hard_deadline;
      if (!alive) killed_as = DueKind::kHang;
    }
    if (killed_as != DueKind::kNone) {
      int status = 0;
      if (slot.mode == ForkMode::kTemplate) {
        // Far past the hard deadline with still no grandchild pid, the
        // template itself is wedged (e.g. workload setup hangs): take the
        // whole subtree down instead of skipping forever.
        const bool force =
            elapsed > hard_deadline + std::max(1.0,
                                               config_.kill_grace_seconds);
        bool escalated = false;
        if (kill_template_trial(slot, force, &status, &escalated)) {
          done.push_back(
              {i, finalize_slot(slot, status, killed_as, escalated)});
        }
      } else {
        const bool escalated = kill_with_escalation(
            slot.pid, config_.kill_grace_seconds, &status);
        done.push_back({i, finalize_slot(slot, status, killed_as, escalated)});
      }
    }
  }
  return done;
}

bool TrialSupervisor::kill_template_trial(Slot& slot, bool force, int* status,
                                          bool* escalated) {
  const pid_t gpid = slot.channel->child_pid();
  if (gpid <= 0) {
    if (!force) return false;  // template hasn't forked yet; retry next poll
    // Wedged template, no grandchild: kill and reap the template itself.
    kill_template(slot);
    *status = SIGKILL;  // raw wait status: signaled by SIGKILL
    *escalated = true;
    return true;
  }
  // Normal path: signal the grandchild and wait for the template to reap
  // it and publish the status (SIGTERM, grace, then SIGKILL — mirroring
  // kill_with_escalation, with status_ready standing in for waitpid).
  ::kill(gpid, SIGTERM);
  const auto grace_start = Clock::now();
  while (seconds_since(grace_start) < config_.kill_grace_seconds) {
    if (slot.channel->status_ready()) {
      *status = slot.channel->child_status();
      *escalated = false;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(gpid, SIGKILL);
  *escalated = true;
  const auto kill_start = Clock::now();
  const double bound = std::max(1.0, config_.kill_grace_seconds);
  while (seconds_since(kill_start) < bound) {
    if (slot.channel->status_ready()) {
      *status = slot.channel->child_status();
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The grandchild is SIGKILLed but its template never published a status:
  // the template is wedged too. Take it down and synthesize the status.
  kill_template(slot);
  *status = SIGKILL;
  return true;
}

void TrialSupervisor::kill_template(Slot& slot) {
  const pid_t gpid =
      slot.channel->status_ready() ? 0 : slot.channel->child_pid();
  if (gpid > 0) ::kill(gpid, SIGKILL);
  if (slot.template_pid > 0) {
    ::kill(slot.template_pid, SIGKILL);
    int status = 0;
    (void)waitpid_eintr(slot.template_pid, &status, 0);
    slot.template_pid = -1;
  }
  if (slot.cmd_fd >= 0) {
    ::close(slot.cmd_fd);
    slot.cmd_fd = -1;
  }
  // With its template gone the grandchild is an orphan, not waitpid-able
  // here: wait until it has exited so no late write races the channel's
  // next reset.
  if (gpid > 0) wait_pid_gone(gpid, 1.0);
}

void TrialSupervisor::cancel_template_trial(Slot& slot) {
  // Cancel through the live template: SIGKILL the grandchild once it
  // exists, let the template reap it and publish the status, and keep the
  // template (and the setup it paid) for the slot's next trial. A command
  // still queued on the socket is read, forked and killed the same way.
  const auto start = Clock::now();
  const double bound = std::max(1.0, config_.kill_grace_seconds);
  bool killed = false;
  while (slot.template_pid > 0 && slot.cmd_fd >= 0 &&
         !slot.channel->status_ready() && seconds_since(start) < bound) {
    const pid_t gpid = slot.channel->child_pid();
    if (gpid > 0 && !killed) {
      ::kill(gpid, SIGKILL);
      killed = true;
    }
    // The template's completion byte, or a 1 ms tick to re-read the
    // grandchild pid it publishes after forking.
    pollfd done{slot.cmd_fd, POLLIN, 0};
    if (util::io::poll_retry(&done, 1, 1) <= 0) continue;
    if ((done.revents & POLLIN) != 0) {
      std::byte consumed;
      if (util::io::recv_some(slot.cmd_fd, &consumed, 1, MSG_DONTWAIT) == 0) {
        break;  // EOF: the template is gone
      }
    } else {
      break;  // POLLHUP/POLLERR without data: the template is gone
    }
  }
  // A template that died or wedged (setup that never returns) goes down
  // with its subtree; the slot's next launch respawns it.
  if (!slot.channel->status_ready()) kill_template(slot);
}

void TrialSupervisor::handle_template_death(unsigned slot_index) {
  Slot& slot = slots_[slot_index];
  ++template_respawns_;
  if (++slot.respawn_attempts > kMaxTemplateRespawns) {
    throw std::runtime_error(
        "TrialSupervisor: template process keeps dying mid-trial");
  }
  util::log_warn() << name_ << ": template for slot " << slot_index
                   << " died mid-trial; respawning and replaying";
  // The dead template's grandchild is now an orphan: kill_template waits
  // until it is truly gone before the channel is reset for the replay.
  kill_template(slot);
  slot.channel->reset();
  dispatch_pending(slot_index);
  if (config_.metrics != nullptr) {
    config_.metrics->counter("supervisor.template_respawns").inc();
  }
}

std::chrono::microseconds TrialSupervisor::next_poll_delay() const {
  if (config_.poll != WatchdogPoll::kAdaptive) {
    return std::chrono::microseconds(200);
  }
  auto delay = std::chrono::microseconds(20000);
  bool any = false;
  for (const Slot& slot : slots_) {
    if (!slot.active) continue;
    any = true;
    // Fast-path trials are often dominated by reap latency, so their poll
    // floor drops from the legacy 200µs to 50µs; the cost is bounded
    // because the adaptive schedule still backs off away from the expected
    // completion time.
    const long floor_us = slot.mode == ForkMode::kLegacy ? 200L : 50L;
    delay = std::min(delay, adaptive_poll_interval(seconds_since(slot.start),
                                                   golden_seconds_, floor_us));
  }
  return any ? delay : std::chrono::microseconds(200);
}

void TrialSupervisor::wait_for_completion() {
  // Gather the event fd of every active fast-path slot: warm trials EOF
  // their exit pipe, templates send a completion byte on the command
  // socketpair (whose closure also covers template death). Any active slot
  // without an event fd — legacy mode — forces the sleep fallback, because
  // poll(2) cannot express the legacy sub-ms schedule without busy-waiting.
  struct SlotEvent {
    pid_t hup_pid;  ///< process whose death a HUP on this fd signals
    bool drain;     ///< template completion byte, consumed here
  };
  std::vector<pollfd> fds;
  std::vector<SlotEvent> events;
  fds.reserve(slots_.size());
  events.reserve(slots_.size());
  bool evented = true;
  for (const Slot& slot : slots_) {
    if (!slot.active) continue;
    const bool warm = slot.mode == ForkMode::kWarm;
    const int fd = warm                               ? slot.exit_fd
                   : slot.mode == ForkMode::kTemplate ? slot.cmd_fd
                                                      : -1;
    if (fd < 0) {
      evented = false;
      break;
    }
    fds.push_back({fd, POLLIN, 0});
    events.push_back({warm ? slot.pid : slot.template_pid, !warm});
  }
  if (!evented || fds.empty()) {
    std::this_thread::sleep_for(next_poll_delay());
    return;
  }
  const int ready = util::io::poll_retry(
      fds.data(), static_cast<nfds_t>(fds.size()), kWatchdogTickMs);
  if (ready <= 0) return;  // watchdog tick: caller re-polls slots
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if ((fds[i].revents & (POLLHUP | POLLERR)) != 0 && events[i].hup_pid > 0) {
      // HUP means every write end is gone: the process is past the point of
      // running user code but may not be a zombie yet. Parking in a WNOWAIT
      // waitid hands it the CPU to finish dying — a single-core machine
      // would otherwise spin instantly-ready poll() against WNOHANG-empty
      // waitpid for a scheduler slice — while leaving the zombie for
      // poll_slots()'s reap pass.
      siginfo_t info;
      std::memset(&info, 0, sizeof(info));
      (void)::waitid(P_PID, static_cast<id_t>(events[i].hup_pid), &info,
                     WEXITED | WNOWAIT);
    } else if (events[i].drain && (fds[i].revents & POLLIN) != 0) {
      // Drain completion bytes so a byte observed after its trial was
      // already finalized via the channel flag cannot accumulate into a
      // stream of spurious instant wakes.
      std::byte consumed;
      (void)util::io::recv_some(fds[i].fd, &consumed, 1, MSG_DONTWAIT);
    }
  }
}

void TrialSupervisor::kill_active_slots() {
  for (Slot& slot : slots_) {
    if (!slot.active) continue;
    if (slot.mode == ForkMode::kTemplate) {
      cancel_template_trial(slot);
    } else if (slot.pid > 0) {
      ::kill(slot.pid, SIGKILL);
      int status = 0;
      (void)waitpid_eintr(slot.pid, &status, 0);
    }
    if (slot.exit_fd >= 0) {
      ::close(slot.exit_fd);
      slot.exit_fd = -1;
    }
    slot.active = false;
    slot.pid = -1;
    --active_count_;
  }
}

void TrialSupervisor::shutdown_templates() {
  assert(active_count_ == 0 && "shutdown_templates with trials in flight");
  // Closing the parent end of the command pipe EOFs the template's blocking
  // read; it _exit(0)s and we reap it. Templates hold no other process's
  // socket (template_main closes what it inherits), so closing every end
  // first lets them all exit in parallel.
  for (Slot& slot : slots_) {
    if (slot.cmd_fd >= 0) {
      ::close(slot.cmd_fd);
      slot.cmd_fd = -1;
    }
  }
  for (Slot& slot : slots_) {
    if (slot.template_pid > 0) {
      int status = 0;
      (void)waitpid_eintr(slot.template_pid, &status, 0);
      slot.template_pid = -1;
    }
  }
}

TrialResult TrialSupervisor::finalize_slot(Slot& slot, int status,
                                           DueKind killed_as,
                                           bool escalated) {
  TrialResult result;
  result.seconds = seconds_since(slot.start);
  result.fork_done_seconds = slot.fork_done;
  result.reaped_seconds = result.seconds;
  result.polls = slot.polls;
  result.heartbeats = slot.channel->heartbeat();
  result.escalated_kill = escalated;
  result.fork_mode = slot.mode;
  result.setup_skipped = slot.setup_skipped;
  result.setup_seconds = slot.channel->trial_setup_seconds();
  if (slot.mode == ForkMode::kTemplate && !slot.setup_skipped) {
    // This trial (re)spawned its fork server, so the template's one-time
    // workload setup sits on this trial's critical path.
    result.setup_seconds += slot.channel->template_setup_seconds();
  }
  result.inject_seconds = slot.channel->trial_inject_seconds();
  result.classify_child_seconds = slot.channel->trial_classify_seconds();
  result.phases = slot.channel->phases();
  if (slot.channel->record_ready()) result.record = slot.channel->record();
  // The model is the parent's own launch config, never the child's word
  // for it: tallies index per-model arrays with it.
  result.record.model = slot.model;
  result.window = windows_ == 0
                      ? 0
                      : std::min(windows_ - 1,
                                 static_cast<unsigned>(
                                     result.record.progress_fraction *
                                     windows_));

  if (killed_as != DueKind::kNone) {
    result.outcome = Outcome::kDue;
    result.due_kind = killed_as;
  } else if (WIFSIGNALED(status)) {
    result.outcome = Outcome::kDue;
    result.due_kind =
        WTERMSIG(status) == SIGXCPU ? DueKind::kRlimit : DueKind::kCrash;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kChildExitRlimit) {
    result.outcome = Outcome::kDue;
    result.due_kind = DueKind::kRlimit;
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
             (slot.mode == ForkMode::kLegacy
                  ? !slot.channel->output_ready()
                  : !slot.channel->verdict_ready())) {
    result.outcome = Outcome::kDue;
    result.due_kind = DueKind::kAbnormalExit;
  } else if (slot.injected && !result.record.injected) {
    // Clean exit but the flip never fired: the run finished before the
    // armed fraction (shouldn't happen with finish()-backstop, but stay
    // honest if it does).
    result.outcome = Outcome::kNotInjected;
  } else if (slot.mode != ForkMode::kLegacy) {
    // Fast path: the child already classified against the shared golden
    // mapping (or its digest) and shipped only the verdict.
    result.outcome = slot.channel->verdict_matches() ? Outcome::kMasked
                                                     : Outcome::kSdc;
  } else {
    // Clean exit: classify by comparing against the golden copy.
    const auto output = slot.channel->output();
    const bool matches =
        output.size() == golden_.size() &&
        std::memcmp(output.data(), golden_.data(), golden_.size()) == 0;
    result.outcome = matches ? Outcome::kMasked : Outcome::kSdc;
  }
  result.classified_seconds = seconds_since(slot.start);

  if (slot.exit_fd >= 0) {
    ::close(slot.exit_fd);
    slot.exit_fd = -1;
  }
  slot.active = false;
  slot.pid = -1;
  slot.respawn_attempts = 0;
  // slot.template_pid deliberately survives: the fork server outlives the
  // trials it ran and keeps serving this slot.
  --active_count_;

  if (config_.metrics != nullptr && escalated) {
    config_.metrics->counter("supervisor.escalated_kills").inc();
  }
  if (config_.metrics != nullptr && killed_as != DueKind::kNone) {
    config_.metrics->counter("supervisor.watchdog_kills").inc();
  }
  return result;
}

// phicheck:fork-child-entry
void TrialSupervisor::child_main(const TrialConfig* config,
                                 SharedChannel* channel) {
  // From here on we are in the forked child. The parent was single-threaded
  // at fork time, so heap and libc state are consistent. Exit only through
  // _exit() so the parent's atexit handlers and buffers are not replayed.
  //
  // Injected faults routinely corrupt the child's heap; glibc then spams
  // stderr before aborting. That abort IS the result (a DUE), so the noise
  // is dropped unless the operator asked for verbose logs.
  if (util::log_level() > util::LogLevel::kInfo) {
    // Deliberate stdio before the workload entry: the parent was
    // single-threaded at fork, and the redirect must land before any
    // workload code can crash and trigger glibc's stderr spew.
    // phicheck:allow(fork-safety) reviewed pre-workload stderr redirect
    std::FILE* sink = std::freopen("/dev/null", "w", stderr);
    (void)sink;
  }
  // Resource fences: a runaway child dies by rlimit in the kernel even if
  // the parent's watchdog is starved or buggy.
  if (config_.child_address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(config_.child_address_space_mb) * 1024 * 1024;
    const rlimit limit{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (config_.child_cpu_seconds > 0) {
    // Hard limit one second later so SIGXCPU (catchable, classifiable) is
    // what lands, not the uncatchable hard-limit SIGKILL.
    const rlimit limit{config_.child_cpu_seconds,
                       static_cast<rlim_t>(config_.child_cpu_seconds) + 1};
    ::setrlimit(RLIMIT_CPU, &limit);
  }
  // phicheck:fork-workload-entry — from here the child runs workload code
  // (heap, threads, locks are the workload's business; crashes are DUEs).
  try {
    const auto setup_start = Clock::now();
    auto workload = factory_();
    workload->setup(config_.input_seed);
    const double setup_seconds = seconds_since(setup_start);

    const auto register_start = Clock::now();
    SiteRegistry registry;
    workload->register_sites(registry);
    double inject_seconds = seconds_since(register_start);

    ProgressTracker progress;
    progress.reset(workload->total_steps());
    if (config_.heartbeat_divisions > 0) {
      progress.set_pulse(config_.heartbeat_divisions,
                         [channel] { channel->beat(); });
    }
    // Forward workload phase transitions to the parent through the shared
    // channel; timestamps are monotonic seconds from child start so the
    // tracer can place them inside the trial span.
    const auto child_start = Clock::now();
    progress.set_phase_hook(
        [channel, child_start](std::string_view phase, double fraction) {
          channel->store_phase(phase, fraction, seconds_since(child_start));
        });

    phi::Device device(config_.device_spec, config_.device_os_threads);

    const auto arm_start = Clock::now();
    util::Rng rng(config != nullptr ? config->trial_seed : 0);
    FlipEngine engine(registry, config != nullptr
                                    ? config->policy
                                    : SelectionPolicy::kCarolFi);
    if (config != nullptr) {
      const double target = rng.uniform(config->earliest_fraction,
                                        config->latest_fraction);
      // The hook runs on whichever worker thread crosses the target, like
      // the Flip-script running while the stopped program's state sits in
      // memory. Selection and fault bits come from the trial seed alone.
      progress.arm(target, [channel, config, &engine, &rng](double at) {
        // Publish a provisional record first: if the flip crashes the
        // program within microseconds, the parent still learns the model.
        InjectionRecord provisional;
        provisional.injected = true;
        provisional.model = config->model;
        provisional.progress_fraction = at;
        channel->store_record(provisional);
        const InjectionRecord record =
            engine.inject(config->model, rng, at, config->burst_elements);
        channel->store_record(record);
      });
    }
    inject_seconds += seconds_since(arm_start);
    // Timing lands before run() so a trial that dies mid-run (a DUE) still
    // reports what it paid for setup and arming.
    channel->store_trial_timing(setup_seconds, inject_seconds, 0.0);

    workload->run(device, progress);
    progress.finish();

    channel->store_output(workload->output_bytes());
  } catch (const std::bad_alloc&) {
    ::_exit(kChildExitRlimit);
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

// phicheck:fork-child-entry
void TrialSupervisor::template_main(SharedChannel* channel, int cmd_fd) {
  // Fork-server process: pay factory + setup + register_sites ONCE, then
  // loop re-forking trial grandchildren from this warm image on command.
  // COW gives every grandchild a pristine copy of the post-setup state, so
  // in-place mutation by one trial can never leak into the next.
  //
  // Every inherited descriptor but stdio and the command socket is closed
  // first: the parent end of our own socketpair, so the parent's close
  // reads as EOF here; every other command socket in the campaign process
  // (other slots', other supervisors'), so their shutdown never waits on
  // this process; and any campaign socket or file, which this process
  // would otherwise hold open for its whole life.
  close_fds_from(3, cmd_fd);
  // phicheck:fork-workload-entry — setup runs workload code; a crash here
  // surfaces as a template death and the parent respawns (bounded).
  try {
    const auto setup_start = Clock::now();
    auto workload = factory_();
    workload->setup(config_.input_seed);
    SiteRegistry registry;
    workload->register_sites(registry);
    channel->store_template_setup_seconds(seconds_since(setup_start));
    Workload& warm = *workload;
    while (true) {
      std::byte wake;
      const ssize_t n = util::io::read_some(cmd_fd, &wake, 1);
      if (n <= 0) ::_exit(0);  // parent closed the pipe: clean shutdown
      const TrialCommand command = channel->load_command();
      const pid_t pid = ::fork();
      if (pid < 0) ::_exit(kTemplateExitForkFailed);
      if (pid == 0) {
        fast_trial_main(warm, registry, command, channel);  // never returns
      }
      channel->publish_child(pid);
      int status = 0;
      if (waitpid_eintr(pid, &status, 0) < 0) {
        ::_exit(kTemplateExitWaitFailed);
      }
      channel->publish_status(status);
      // Completion byte, after the status is visible: wakes a parent
      // blocked in wait_for_completion(). Best effort — a vanished parent
      // surfaces as EOF on the next command read.
      const std::byte trial_done{1};
      (void)util::io::send_some(cmd_fd, &trial_done, 1, MSG_NOSIGNAL);
    }
  } catch (...) {
    ::_exit(3);
  }
}

// phicheck:fork-child-entry
void TrialSupervisor::fast_trial_main(Workload& workload,
                                      SiteRegistry& registry,
                                      const TrialCommand& command,
                                      SharedChannel* channel) {
  // Fast-path trial body: the workload arrives warm (COW from the campaign
  // process or a template), so there is no factory/setup/register_sites
  // here — straight to arming the flip and running. Classification happens
  // in place against the inherited golden mapping; only a verdict (and,
  // for SDC, the corrupted bytes) crosses the channel.
  if (util::log_level() > util::LogLevel::kInfo) {
    // Same deliberate pre-workload stderr redirect as child_main.
    // phicheck:allow(fork-safety) reviewed pre-workload stderr redirect
    std::FILE* sink = std::freopen("/dev/null", "w", stderr);
    (void)sink;
  }
  if (config_.child_address_space_mb > 0) {
    const rlim_t bytes =
        static_cast<rlim_t>(config_.child_address_space_mb) * 1024 * 1024;
    const rlimit limit{bytes, bytes};
    ::setrlimit(RLIMIT_AS, &limit);
  }
  if (config_.child_cpu_seconds > 0) {
    const rlimit limit{config_.child_cpu_seconds,
                       static_cast<rlim_t>(config_.child_cpu_seconds) + 1};
    ::setrlimit(RLIMIT_CPU, &limit);
  }
  // phicheck:fork-workload-entry — from here the child runs workload code.
  try {
    ProgressTracker progress;
    progress.reset(workload.total_steps());
    if (config_.heartbeat_divisions > 0) {
      progress.set_pulse(config_.heartbeat_divisions,
                         [channel] { channel->beat(); });
    }
    const auto child_start = Clock::now();
    progress.set_phase_hook(
        [channel, child_start](std::string_view phase, double fraction) {
          channel->store_phase(phase, fraction, seconds_since(child_start));
        });

    phi::Device device(config_.device_spec, config_.device_os_threads);

    // Identical RNG construction and draw order to the legacy child_main:
    // the same trial seed selects the same site, bit and injection time,
    // which is what makes fast-path tallies bit-identical to legacy.
    const auto arm_start = Clock::now();
    util::Rng rng(command.injected ? command.trial_seed : 0);
    FlipEngine engine(registry,
                      command.injected
                          ? static_cast<SelectionPolicy>(command.policy)
                          : SelectionPolicy::kCarolFi);
    if (command.injected) {
      const double target = rng.uniform(command.earliest_fraction,
                                        command.latest_fraction);
      progress.arm(target, [channel, &command, &engine, &rng](double at) {
        InjectionRecord provisional;
        provisional.injected = true;
        provisional.model = static_cast<FaultModel>(command.model);
        provisional.progress_fraction = at;
        channel->store_record(provisional);
        const InjectionRecord record =
            engine.inject(static_cast<FaultModel>(command.model), rng, at,
                          command.burst);
        channel->store_record(record);
      });
    }
    const double inject_seconds = seconds_since(arm_start);

    workload.run(device, progress);
    progress.finish();

    // Classify in place: memcmp against the inherited golden mapping, or
    // digest-only when the golden was adopted from a journal. The
    // byte-serial digest is paid only where it decides the verdict.
    const auto classify_start = Clock::now();
    const auto output = workload.output_bytes();
    std::uint64_t digest = 0;
    bool matches;
    if (golden_map_.mapped()) {
      matches = output.size() == golden_map_.size() &&
                std::memcmp(output.data(), golden_map_.golden().data(),
                            output.size()) == 0;
    } else {
      digest = fnv1a64(output);
      matches = output.size() == output_capacity_ && digest == golden_digest_;
    }
    // SDC ships the corrupted bytes for parent-side analysis; Masked ships
    // nothing but the verdict. Output lands before the verdict flag so the
    // parent never sees a verdict without its bytes.
    if (!matches) channel->store_output(output);
    // Warm trials paid no setup (the post-setup image arrived via COW);
    // template-mode setup is the template's one-time cost, attributed by
    // finalize_slot from template_setup_seconds for the trial that paid it.
    channel->store_trial_timing(0.0, inject_seconds,
                                seconds_since(classify_start));
    channel->store_verdict(matches, digest);
  } catch (const std::bad_alloc&) {
    ::_exit(kChildExitRlimit);
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

}  // namespace phifi::fi
