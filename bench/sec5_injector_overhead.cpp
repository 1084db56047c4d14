// Sec. 5.1 (text) — CAROL-FI's runtime overhead: about 4x the native
// execution time on average, at most 8x. The overhead sources differ
// (GDB + disabled optimizations there; fork isolation, volatile control
// accesses, and progress instrumentation here) but the claim under test is
// the same: the injector keeps trials cheap enough for 10k-trial campaigns.
//
// The second table isolates the *supervisor's* own CPU cost: the parent's
// CPU time per trial under the legacy fixed 200µs watchdog poll vs. the
// adaptive schedule (coarse sleeps far from the expected completion time,
// ~20 polls across the expected runtime near it), and the reduction the
// adaptive poll buys. Parent CPU is proportional to watchdog wakeups, so
// the saving grows with trial duration.
//
// The third table measures the telemetry subsystem's cost: campaign trial
// time with tracing + metrics disabled (the nullptr fast path, which must
// stay within noise of the pre-telemetry injector) vs. enabled (NDJSON
// trace + metrics registry + watchdog histograms), so every observability
// claim ships with its measured price.
//
// The fourth table measures the observatory's cost the same way: trials
// with the streaming estimator + an always-evaluated (never-firing)
// sequential stop rule vs. the nullptr fast path, emitted to
// BENCH_observatory.json.
//
// The fifth table prices the latency anatomy profiler (docs/PROFILING.md)
// the same way: campaign trial time with the accumulate-only profiler on
// vs. the nullptr fast path, emitted to BENCH_profiler.json — the
// profiler's "integer adds only" claim, measured.
//
// The sixth table measures multi-worker scheduler scaling: campaign
// throughput (trials/s) at --jobs 1/2/4/8 with a group-commit (kBatch)
// journal, telemetry off and on. Trial children are genuinely concurrent
// forks, so speedup tracks the host's core count — on a 4-core host jobs=4
// should reach >= 3x the jobs=1 throughput; on a 1-core container it stays
// near 1x by construction. The table also lands in BENCH_parallel.json so
// the perf trajectory is recorded run over run.
// The seventh table prices the fleet observability plane (docs/
// FLEET_OBSERVABILITY.md): one coordinator + one forked worker over a
// loopback unix socket, sweeping the worker's STATS snapshot interval
// (off / 1s / 250ms). STATS frames ride the heartbeat timer off the trial
// hot path, so throughput should be flat across the sweep; the table and
// BENCH_fabric_observability.json make that claim measurable run over run.
//
// The eighth table prices the trial fast path (docs/PARALLELISM.md):
// trials/s with the fork-server on vs. the legacy cold-start child, per
// workload at deliberately small instance sizes — setup + register_sites
// dominate short trials, which is exactly the regime the fast path
// amortizes. Emitted to BENCH_fastpath.json.
#include <sys/resource.h>
#include <sys/wait.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/campaign_journal.hpp"
#include "core/progress.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/options.hpp"
#include "fabric/worker.hpp"
#include "telemetry/estimator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "workloads/clamr_workload.hpp"
#include "workloads/dgemm.hpp"
#include "workloads/hotspot.hpp"
#include "workloads/lud.hpp"
#include "workloads/nw.hpp"

namespace {

/// Parent-process CPU seconds (user + system), excluding children.
double self_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Runs reps supervised trials under the given poll mode and returns the
/// parent's CPU milliseconds per trial.
double watchdog_cpu_ms_per_trial(const phifi::work::WorkloadInfo& info,
                                 phifi::fi::WatchdogPoll poll, int reps) {
  using namespace phifi;
  fi::SupervisorConfig config = bench::bench_supervisor_config();
  config.poll = poll;
  fi::TrialSupervisor supervisor(info.factory, config);
  supervisor.prepare_golden();
  const double cpu_start = self_cpu_seconds();
  for (int rep = 0; rep < reps; ++rep) {
    fi::TrialConfig trial;
    trial.trial_seed = 9000 + rep;
    trial.model = fi::FaultModel::kSingle;
    (void)supervisor.run_trial(trial);
  }
  return (self_cpu_seconds() - cpu_start) * 1000.0 / reps;
}

/// Wall-clock milliseconds per trial of a small campaign, with telemetry
/// fully off (`telemetry=false`) or fully on: metrics registry attached to
/// both supervisor and campaign, NDJSON trace to a temp file.
double campaign_ms_per_trial(const phifi::work::WorkloadInfo& info,
                             bool telemetry, std::size_t trials,
                             std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::MetricsRegistry metrics;
  std::unique_ptr<telemetry::TraceWriter> trace;
  char trace_path[] = "/tmp/phifi_sec5_trace_XXXXXX";
  if (telemetry) {
    const int fd = ::mkstemp(trace_path);
    if (fd >= 0) ::close(fd);
    trace = std::make_unique<telemetry::TraceWriter>(trace_path);
  }

  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  if (telemetry) sup_config.metrics = &metrics;
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (telemetry) {
    config.metrics = &metrics;
    config.trace = trace.get();
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count() /
      static_cast<double>(trials);
  if (telemetry) ::unlink(trace_path);
  return ms;
}

/// Wall-clock milliseconds per trial with the observatory attached: the
/// streaming CampaignEstimator fed from the commit path plus a sequential
/// stop rule armed with an epsilon so small it never fires — so every
/// committed trial pays the per-commit Wilson evaluation, the worst case.
double estimator_ms_per_trial(const phifi::work::WorkloadInfo& info,
                              bool estimator_on, std::size_t trials,
                              std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::CampaignEstimator estimator;
  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (estimator_on) {
    config.estimator = &estimator;
    config.stop_ci_width = 1e-9;  // evaluated every commit, never reached
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         static_cast<double>(trials);
}

/// Wall-clock milliseconds per trial with the latency anatomy profiler
/// attached (accumulate-only, the file-less mode the fabric workers use)
/// vs. the nullptr fast path. The profiler claims pure integer adds per
/// commit; this table is where that claim gets a measured price.
double profiler_ms_per_trial(const phifi::work::WorkloadInfo& info,
                             bool profiler_on, std::size_t trials,
                             std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::TrialProfiler profiler;
  fi::TrialSupervisor supervisor(info.factory,
                                 bench::bench_supervisor_config());
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  if (profiler_on) config.profiler = &profiler;
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
             .count() /
         static_cast<double>(trials);
}

/// Campaign throughput (trials per wall-clock second) with `jobs` workers
/// in flight and a group-commit journal, telemetry off or on.
double parallel_trials_per_sec(const phifi::work::WorkloadInfo& info,
                               unsigned jobs, bool telemetry,
                               std::size_t trials, std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  telemetry::MetricsRegistry metrics;
  std::unique_ptr<telemetry::TraceWriter> trace;
  char trace_path[] = "/tmp/phifi_sec5_ptrace_XXXXXX";
  if (telemetry) {
    const int fd = ::mkstemp(trace_path);
    if (fd >= 0) ::close(fd);
    trace = std::make_unique<telemetry::TraceWriter>(trace_path);
  }
  char journal_path[] = "/tmp/phifi_sec5_pjournal_XXXXXX";
  {
    const int fd = ::mkstemp(journal_path);
    if (fd >= 0) ::close(fd);
  }

  fi::SupervisorConfig sup_config = bench::bench_supervisor_config();
  if (telemetry) sup_config.metrics = &metrics;
  fi::TrialSupervisor supervisor(info.factory, sup_config);
  supervisor.prepare_golden();

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;
  config.jobs = jobs;
  config.journal_path = journal_path;
  config.journal_fsync = fi::JournalFsync::kBatch;
  if (telemetry) {
    config.metrics = &metrics;
    config.trace = trace.get();
  }
  fi::Campaign campaign(supervisor, config);

  const auto start = Clock::now();
  (void)campaign.run();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ::unlink(journal_path);
  if (telemetry) ::unlink(trace_path);
  return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
}

/// Fabric campaign throughput with one forked worker shipping STATS
/// snapshots every `stats_interval` seconds (0 = off). The coordinator
/// runs in this process; wall clock spans its whole lifetime, so any
/// snapshot cost — worker-side encode or coordinator-side fold — lands in
/// the number.
double fabric_trials_per_sec(const phifi::work::WorkloadInfo& info,
                             double stats_interval, std::size_t trials,
                             std::uint64_t seed) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;

  const std::string tag = std::to_string(::getpid()) + "_" +
                          std::to_string(static_cast<int>(
                              stats_interval * 1000.0));
  const std::string socket_path = "/tmp/phifi_sec5_fab_" + tag + ".sock";
  const std::string shard_path = "/tmp/phifi_sec5_fab_" + tag + ".jnl";
  ::unlink(socket_path.c_str());
  ::unlink(shard_path.c_str());

  fi::CampaignConfig config = bench::bench_campaign_config(seed);
  config.trials = trials;

  fi::TrialSupervisor supervisor(info.factory,
                                 bench::bench_supervisor_config());
  supervisor.prepare_golden();
  const std::uint64_t fingerprint = fi::campaign_fingerprint(
      config, supervisor.workload_name(), supervisor.time_windows());

  fabric::FabricOptions coordinator_options;
  coordinator_options.address = "unix:" + socket_path;
  coordinator_options.lease_size = 8;

  const auto start = Clock::now();
  const pid_t worker = ::fork();
  if (worker == 0) {
    fabric::FabricOptions worker_options = coordinator_options;
    worker_options.shard_path = shard_path;
    worker_options.stats_interval_seconds = stats_interval;
    fi::TrialSupervisor child_supervisor(info.factory,
                                         bench::bench_supervisor_config());
    child_supervisor.prepare_golden();
    std::ostringstream sink;
    const fabric::WorkerResult result = fabric::run_worker(
        child_supervisor, config, fingerprint, worker_options, nullptr,
        nullptr, sink);
    ::_exit(result.complete ? 0 : 1);
  }

  std::ostringstream sink;
  const fabric::CoordinatorResult result = fabric::run_coordinator(
      config, fingerprint, coordinator_options, nullptr, nullptr, nullptr,
      nullptr, sink);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  int status = 0;
  ::waitpid(worker, &status, 0);
  ::unlink(socket_path.c_str());
  ::unlink(shard_path.c_str());
  if (!result.complete) return 0.0;
  return seconds > 0.0 ? static_cast<double>(trials) / seconds : 0.0;
}

// Small-instance factories for the fast-path table. Short trials are where
// the per-trial setup + register_sites cost dominates, so they bound the
// speedup the fork server can buy; the registry's default sizes would bury
// it under run time.
std::unique_ptr<phifi::fi::Workload> make_small_dgemm() {
  return std::make_unique<phifi::work::Dgemm>(32);
}
std::unique_ptr<phifi::fi::Workload> make_small_hotspot() {
  return std::make_unique<phifi::work::HotSpot>(32, 32);
}
std::unique_ptr<phifi::fi::Workload> make_small_lud() {
  return std::make_unique<phifi::work::Lud>(32);
}
std::unique_ptr<phifi::fi::Workload> make_small_nw() {
  return std::make_unique<phifi::work::Nw>(64);
}
// Deep-refinement CLAMR at one timestep: AmrMesh preallocates every array
// at fully-refined capacity ((base << refine)^2 cells) so injection-site
// pointers stay stable, and setup() serially dry-runs the step schedule to
// learn progress weights. Both costs scale with capacity while the measured
// step scales with the few hundred ACTIVE cells — the cold-start-dominated
// regime of the paper's real runs (where input loading and mesh building
// take seconds), miniaturized. This is where the fork server pays off
// hardest: the template pays allocation + dry run once, grandchildren
// inherit it all by COW.
std::unique_ptr<phifi::fi::Workload> make_clamr_refine4() {
  phifi::work::clamr::MeshParams params;
  params.max_refine = 4;
  return std::make_unique<phifi::work::Clamr>(params, 1);
}
std::unique_ptr<phifi::fi::Workload> make_clamr_refine5() {
  phifi::work::clamr::MeshParams params;
  params.max_refine = 5;
  return std::make_unique<phifi::work::Clamr>(params, 1);
}

struct FastpathWorkload {
  const char* name;
  phifi::fi::WorkloadFactory factory;
};

constexpr FastpathWorkload kFastpathWorkloads[] = {
    {"DGEMM(32)", &make_small_dgemm},
    {"HotSpot(32x32)", &make_small_hotspot},
    {"LUD(32)", &make_small_lud},
    {"NW(64)", &make_small_nw},
    {"CLAMR(16,+4,1step)", &make_clamr_refine4},
    {"CLAMR(16,+5,1step)", &make_clamr_refine5},
};

/// Trials per wall-clock second through run_trial with the fast path on or
/// off. One unmeasured warm-up trial first, so template spawn (fast) and
/// page-cache effects (legacy) stay out of the steady-state rate; `mode`
/// reports how the supervisor resolved the fork mode.
double fastpath_trials_per_sec(phifi::fi::WorkloadFactory factory, bool fast,
                               int reps, std::string* mode) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;
  fi::SupervisorConfig config = bench::bench_supervisor_config();
  config.trial_fast_path = fast;
  fi::TrialSupervisor supervisor(factory, config);
  supervisor.prepare_golden();
  {
    fi::TrialConfig warmup;
    warmup.trial_seed = 4999;
    (void)supervisor.run_trial(warmup);
  }
  const auto start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    fi::TrialConfig trial;
    trial.trial_seed = 5000 + rep;
    trial.model = fi::FaultModel::kSingle;
    (void)supervisor.run_trial(trial);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (mode != nullptr) {
    *mode = std::string(fi::to_string(supervisor.fork_mode()));
  }
  return seconds > 0.0 ? static_cast<double>(reps) / seconds : 0.0;
}

/// Campaign trials per wall-clock second at `jobs` slots, fast path on or
/// off. The golden run is excluded; template spawns, the cancel of attempts
/// still in flight at the campaign boundary and supervisor teardown are
/// included — the costs a one-trial-at-a-time rate cannot see. Best of
/// three campaigns: an injected runaway write can take one trial to the
/// 1 s watchdog deadline or not, depending on this process's heap layout,
/// and one such trial would swamp a rate over a few dozen; a teardown
/// stall recurs in every campaign and still shows.
double fastpath_campaign_trials_per_sec(phifi::fi::WorkloadFactory factory,
                                        bool fast, unsigned jobs,
                                        std::size_t trials) {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;
  fi::SupervisorConfig config = bench::bench_supervisor_config();
  config.trial_fast_path = fast;
  fi::CampaignConfig campaign_config = bench::bench_campaign_config(777);
  campaign_config.trials = trials;
  campaign_config.jobs = jobs;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    auto supervisor = std::make_unique<fi::TrialSupervisor>(factory, config);
    supervisor->prepare_golden();
    const auto start = Clock::now();
    (void)fi::Campaign(*supervisor, campaign_config).run();
    supervisor.reset();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (seconds > 0.0) {
      best = std::max(best, static_cast<double>(trials) / seconds);
    }
  }
  return best;
}

}  // namespace

int main() {
  using namespace phifi;
  using Clock = std::chrono::steady_clock;
  util::init_log_from_env();

  util::Table table("Sec. 5.1 - Injector overhead per trial");
  table.set_header({"benchmark", "native [ms]", "supervised trial [ms]",
                    "overhead", "trials/s"});

  for (const auto& info : work::all_workloads()) {
    // Native: setup + run in-process, no supervisor, no fork.
    const auto native_start = Clock::now();
    constexpr int kNativeReps = 5;
    for (int rep = 0; rep < kNativeReps; ++rep) {
      auto workload = info.factory();
      workload->setup(1234);
      phi::Device device(phi::DeviceSpec::knights_corner_3120a(), 1);
      fi::ProgressTracker progress;
      progress.reset(workload->total_steps());
      workload->run(device, progress);
      progress.finish();
    }
    const double native_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  native_start)
            .count() /
        kNativeReps;

    // Supervised: full fork + flip + classify cycle.
    fi::TrialSupervisor supervisor(info.factory,
                                   bench::bench_supervisor_config());
    supervisor.prepare_golden();
    const auto trial_start = Clock::now();
    constexpr int kTrialReps = 20;
    for (int rep = 0; rep < kTrialReps; ++rep) {
      fi::TrialConfig trial;
      trial.trial_seed = 5000 + rep;
      trial.model = fi::FaultModel::kSingle;
      (void)supervisor.run_trial(trial);
    }
    const double trial_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - trial_start)
            .count() /
        kTrialReps;

    table.add_row({std::string(info.name), util::fmt(native_ms, 2),
                   util::fmt(trial_ms, 2),
                   util::fmt(native_ms > 0 ? trial_ms / native_ms : 0.0, 2) +
                       "x",
                   util::fmt(trial_ms > 0 ? 1000.0 / trial_ms : 0.0, 0)});
  }
  bench::print_table(table);

  util::Table watchdog("Supervisor watchdog CPU per trial (parent process)");
  watchdog.set_header({"benchmark", "fixed poll [ms]", "adaptive poll [ms]",
                       "reduction"});
  constexpr int kWatchdogReps = 20;
  for (const auto& info : work::all_workloads()) {
    const double fixed_ms = watchdog_cpu_ms_per_trial(
        info, fi::WatchdogPoll::kFixed, kWatchdogReps);
    const double adaptive_ms = watchdog_cpu_ms_per_trial(
        info, fi::WatchdogPoll::kAdaptive, kWatchdogReps);
    const double reduction =
        fixed_ms > 0.0 ? 1.0 - adaptive_ms / fixed_ms : 0.0;
    watchdog.add_row({std::string(info.name), util::fmt(fixed_ms, 3),
                      util::fmt(adaptive_ms, 3),
                      util::fmt_percent(reduction)});
  }
  bench::print_table(watchdog);

  util::Table telem("Telemetry overhead per trial (trace + metrics)");
  telem.set_header({"benchmark", "telemetry off [ms]", "telemetry on [ms]",
                    "overhead"});
  constexpr std::size_t kTelemetryTrials = 40;
  for (const auto& info : work::all_workloads()) {
    const double off_ms =
        campaign_ms_per_trial(info, /*telemetry=*/false, kTelemetryTrials,
                              /*seed=*/777);
    const double on_ms =
        campaign_ms_per_trial(info, /*telemetry=*/true, kTelemetryTrials,
                              /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    telem.add_row({std::string(info.name), util::fmt(off_ms, 2),
                   util::fmt(on_ms, 2), util::fmt_percent(overhead)});
  }
  bench::print_table(telem);

  // Observatory overhead: the streaming estimator plus a per-commit stop
  // check that never fires. Like the telemetry table, the "off" column is
  // the nullptr fast path. Lands in BENCH_observatory.json.
  util::Table observatory(
      "Observatory overhead per trial (estimator + stop rule)");
  observatory.set_header({"benchmark", "estimator off [ms]",
                          "estimator on [ms]", "overhead"});
  util::json::Value observatory_points = util::json::Value::array();
  for (const auto& info : work::all_workloads()) {
    const double off_ms = estimator_ms_per_trial(
        info, /*estimator_on=*/false, kTelemetryTrials, /*seed=*/777);
    const double on_ms = estimator_ms_per_trial(
        info, /*estimator_on=*/true, kTelemetryTrials, /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    observatory.add_row({std::string(info.name), util::fmt(off_ms, 2),
                         util::fmt(on_ms, 2), util::fmt_percent(overhead)});

    util::json::Value point = util::json::Value::object();
    point["workload"] = info.name;
    point["ms_per_trial_estimator_off"] = off_ms;
    point["ms_per_trial_estimator_on"] = on_ms;
    point["overhead_fraction"] = overhead;
    observatory_points.push_back(std::move(point));
  }
  bench::print_table(observatory);
  {
    util::json::Value doc = bench::bench_doc("sec5_observatory_overhead");
    doc["trials"] = static_cast<std::uint64_t>(kTelemetryTrials);
    doc["points"] = std::move(observatory_points);
    bench::write_bench_doc(doc, "BENCH_observatory.json");
  }

  // Profiler overhead: the latency anatomy accumulator on vs. off. The
  // "on" column pays the commit-path clock reads and histogram adds —
  // BENCH_profiler.json records that this stays within bench noise.
  util::Table prof("Profiler overhead per trial (latency anatomy)");
  prof.set_header({"benchmark", "profiler off [ms]", "profiler on [ms]",
                   "overhead"});
  util::json::Value prof_points = util::json::Value::array();
  for (const auto& info : work::all_workloads()) {
    const double off_ms = profiler_ms_per_trial(
        info, /*profiler_on=*/false, kTelemetryTrials, /*seed=*/777);
    const double on_ms = profiler_ms_per_trial(
        info, /*profiler_on=*/true, kTelemetryTrials, /*seed=*/777);
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    prof.add_row({std::string(info.name), util::fmt(off_ms, 2),
                  util::fmt(on_ms, 2), util::fmt_percent(overhead)});

    util::json::Value point = util::json::Value::object();
    point["workload"] = info.name;
    point["ms_per_trial_profiler_off"] = off_ms;
    point["ms_per_trial_profiler_on"] = on_ms;
    point["overhead_fraction"] = overhead;
    prof_points.push_back(std::move(point));
  }
  bench::print_table(prof);
  {
    util::json::Value doc = bench::bench_doc("sec5_profiler_overhead");
    doc["trials"] = static_cast<std::uint64_t>(kTelemetryTrials);
    doc["points"] = std::move(prof_points);
    bench::write_bench_doc(doc, "BENCH_profiler.json");
  }

  // Parallel scheduler scaling: one representative workload, --jobs sweep.
  // Speedup is relative to jobs=1 within the same telemetry setting.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  util::Table scaling("Parallel scheduler scaling (kBatch journal, " +
                      std::to_string(cores) + " host cores)");
  scaling.set_header({"jobs", "trials/s (telemetry off)", "speedup",
                      "trials/s (telemetry on)", "speedup"});
  const auto& scale_info = work::all_workloads().front();
  const std::size_t kScalingTrials = bench::env_size("PHIFI_TRIALS", 48);
  constexpr unsigned kJobsSweep[] = {1, 2, 4, 8};

  util::json::Value points = util::json::Value::array();
  double base_off = 0.0;
  double base_on = 0.0;
  for (const unsigned jobs : kJobsSweep) {
    const double off = parallel_trials_per_sec(
        scale_info, jobs, /*telemetry=*/false, kScalingTrials, /*seed=*/888);
    const double on = parallel_trials_per_sec(
        scale_info, jobs, /*telemetry=*/true, kScalingTrials, /*seed=*/888);
    if (jobs == 1) {
      base_off = off;
      base_on = on;
    }
    const double speedup_off = base_off > 0.0 ? off / base_off : 0.0;
    const double speedup_on = base_on > 0.0 ? on / base_on : 0.0;
    scaling.add_row({std::to_string(jobs), util::fmt(off, 1),
                     util::fmt(speedup_off, 2) + "x", util::fmt(on, 1),
                     util::fmt(speedup_on, 2) + "x"});

    util::json::Value point = util::json::Value::object();
    point["jobs"] = jobs;
    point["trials_per_sec_telemetry_off"] = off;
    point["trials_per_sec_telemetry_on"] = on;
    point["speedup_telemetry_off"] = speedup_off;
    point["speedup_telemetry_on"] = speedup_on;
    points.push_back(std::move(point));
  }
  bench::print_table(scaling);

  util::json::Value bench_point = bench::bench_doc("sec5_parallel_scaling");
  bench_point["workload"] = scale_info.name;
  bench_point["trials"] = static_cast<std::uint64_t>(kScalingTrials);
  bench_point["host_cores"] = cores;
  bench_point["journal_fsync"] = "batch";
  bench_point["points"] = std::move(points);
  bench::write_bench_doc(bench_point, "BENCH_parallel.json");

  // Fleet observability cost: the STATS interval sweep. "off" is the
  // baseline; the delta columns are the price of live fleet visibility.
  util::Table stats_sweep(
      "Fabric STATS snapshot interval (coordinator + 1 worker)");
  stats_sweep.set_header({"stats interval", "trials/s", "vs off"});
  const double kStatsSweep[] = {0.0, 1.0, 0.25};
  util::json::Value stats_points = util::json::Value::array();
  double stats_base = 0.0;
  for (const double interval : kStatsSweep) {
    const double rate = fabric_trials_per_sec(scale_info, interval,
                                              kScalingTrials, /*seed=*/999);
    if (interval == 0.0) stats_base = rate;
    const double relative = stats_base > 0.0 ? rate / stats_base : 0.0;
    const std::string label =
        interval == 0.0 ? "off"
                        : util::fmt(interval * 1000.0, 0) + " ms";
    stats_sweep.add_row({label, util::fmt(rate, 1),
                         util::fmt(relative, 2) + "x"});

    util::json::Value point = util::json::Value::object();
    point["stats_interval_seconds"] = interval;
    point["trials_per_sec"] = rate;
    point["relative_to_off"] = relative;
    stats_points.push_back(std::move(point));
  }
  bench::print_table(stats_sweep);

  util::json::Value stats_doc = bench::bench_doc("sec5_fabric_observability");
  stats_doc["workload"] = scale_info.name;
  stats_doc["trials"] = static_cast<std::uint64_t>(kScalingTrials);
  stats_doc["points"] = std::move(stats_points);
  bench::write_bench_doc(stats_doc, "BENCH_fabric_observability.json");

  // Trial fast path: fork-server vs. legacy cold start, small instances.
  // The mode column shows what the supervisor resolved the fast path to —
  // "warm" for resettable workloads, "template" otherwise. jobs 1 is
  // back-to-back run_trial; jobs 3 is a whole campaign (3x the trials), so
  // slot dispatch and the boundary cancel of in-flight attempts count too.
  // The jobs-3 rows run after every jobs-1 row: warm-mode trials run on
  // this process's heap, and the campaigns' allocations would change what
  // a runaway injected write hits in the jobs-1 rows that follow.
  util::Table fastpath("Trial fast path (fork-server) vs legacy cold start");
  fastpath.set_header({"benchmark", "mode", "jobs", "legacy trials/s",
                       "fast trials/s", "speedup"});
  const int kFastpathReps =
      static_cast<int>(bench::env_size("PHIFI_TRIALS", 48));
  util::json::Value fastpath_points = util::json::Value::array();
  std::vector<std::string> modes;  // resolved by the jobs-1 fast runs
  for (const unsigned jobs : {1u, 3u}) {
    for (std::size_t w = 0; w < std::size(kFastpathWorkloads); ++w) {
      const FastpathWorkload& wl = kFastpathWorkloads[w];
      double legacy = 0.0;
      double fast = 0.0;
      if (jobs == 1) {
        std::string mode;
        legacy = fastpath_trials_per_sec(wl.factory, /*fast=*/false,
                                         kFastpathReps, nullptr);
        fast = fastpath_trials_per_sec(wl.factory, /*fast=*/true,
                                       kFastpathReps, &mode);
        modes.push_back(mode);
      } else {
        const auto trials = static_cast<std::size_t>(3 * kFastpathReps);
        legacy = fastpath_campaign_trials_per_sec(wl.factory, /*fast=*/false,
                                                  jobs, trials);
        fast = fastpath_campaign_trials_per_sec(wl.factory, /*fast=*/true,
                                                jobs, trials);
      }
      const double speedup = legacy > 0.0 ? fast / legacy : 0.0;
      fastpath.add_row({wl.name, modes[w], std::to_string(jobs),
                        util::fmt(legacy, 0), util::fmt(fast, 0),
                        util::fmt(speedup, 2) + "x"});

      util::json::Value point = util::json::Value::object();
      point["workload"] = wl.name;
      point["fork_mode"] = modes[w];
      point["jobs"] = jobs;
      point["trials_per_sec_legacy"] = legacy;
      point["trials_per_sec_fast"] = fast;
      point["speedup"] = speedup;
      fastpath_points.push_back(std::move(point));
    }
  }
  bench::print_table(fastpath);

  util::json::Value fastpath_doc = bench::bench_doc("sec5_trial_fastpath");
  fastpath_doc["trials"] = static_cast<std::uint64_t>(kFastpathReps);
  fastpath_doc["points"] = std::move(fastpath_points);
  bench::write_bench_doc(fastpath_doc, "BENCH_fastpath.json");
  return 0;
}
