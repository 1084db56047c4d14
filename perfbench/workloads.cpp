// The benchmark's three workloads, driven through the public entry points
// of core (Campaign::run), fabric (run_coordinator / run_worker /
// merge_shards) and radiation (BeamCampaign::run). Layer timings come from
// spans around those calls, the TrialResult timing fields, and the
// TrialProfiler / TraceWriter sinks the campaign already accepts; nothing
// here reaches inside src/.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cli/config.hpp"
#include "core/campaign.hpp"
#include "core/campaign_journal.hpp"
#include "core/progress.hpp"
#include "fabric/coordinator.hpp"
#include "fabric/merge.hpp"
#include "fabric/worker.hpp"
#include "perfbench.hpp"
#include "phi/device.hpp"
#include "phi/resource_map.hpp"
#include "radiation/beam_campaign.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/json.hpp"
#include "workloads/registry.hpp"

extern char** environ;

namespace perfbench {

namespace fi = phifi::fi;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system CPU of this process and of every child it has reaped
/// (which in turn includes the children those reaped).
double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv_seconds(self.ru_utime) + tv_seconds(self.ru_stime) +
         tv_seconds(children.ru_utime) + tv_seconds(children.ru_stime);
}

double file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// What phifi_run uses when its config file sets nothing. Every workload
/// starts from these, so a changed program default shows up here without
/// an edit to the benchmark.
const phifi::cli::RunnerConfig& program_defaults() {
  static const phifi::cli::RunnerConfig defaults;
  return defaults;
}

std::unique_ptr<fi::TrialSupervisor> make_supervisor(
    fi::WorkloadFactory factory) {
  return std::make_unique<fi::TrialSupervisor>(
      factory, program_defaults().supervisor_config());
}

/// Per-trial layer samples from the timing fields a committed trial
/// carries (the same decomposition the profiler applies). Run time is
/// sampled only for trials that ran to completion, so it compares with the
/// native kernel; a crash cuts the run short.
void sample_trial(Layers& layers, const std::string& kernel,
                  const fi::TrialResult& trial) {
  const double ms = 1000.0;
  layers.sample("supervisor.fork_ms", trial.fork_done_seconds * ms);
  layers.sample("supervisor.setup_ms", trial.setup_seconds * ms);
  layers.sample("supervisor.inject_ms", trial.inject_seconds * ms);
  layers.sample("supervisor.classify_ms",
                (trial.classified_seconds - trial.reaped_seconds +
                 trial.classify_child_seconds) *
                    ms);
  if (trial.outcome != fi::Outcome::kMasked &&
      trial.outcome != fi::Outcome::kSdc) {
    return;
  }
  layers.sample("supervisor.run_ms." + kernel,
                (trial.reaped_seconds - trial.fork_done_seconds -
                 trial.setup_seconds - trial.inject_seconds -
                 trial.classify_child_seconds) *
                    ms);
}

/// Reorder-buffer waits recorded by a file-backed profiler.
void sample_rob_wait(Layers& layers, const std::string& profile_path) {
  const auto contents = phifi::telemetry::read_profile_file(profile_path);
  for (const auto& trial : contents.trials) {
    layers.sample(
        "campaign.rob_wait_ms",
        static_cast<double>(
            trial.us(phifi::telemetry::ProfilePhase::kRobWait)) /
            1000.0);
  }
}

}  // namespace

// ---------------------------------------------------------------- matrix

Rep run_matrix(const Pass& pass) {
  Rep rep;
  const double cpu_start = cpu_seconds();
  const auto kernels = phifi::work::all_workloads();

  const auto setup_start = Clock::now();
  std::vector<std::unique_ptr<fi::TrialSupervisor>> supervisors;
  for (const auto& info : kernels) {
    supervisors.push_back(make_supervisor(info.factory));
    supervisors.back()->prepare_golden();
  }
  rep.setup_s = since(setup_start);

  std::vector<fi::CampaignResult> results;
  std::vector<std::string> profiles;
  const auto result_start = Clock::now();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const std::string name(kernels[k].name);
    fi::CampaignConfig config = program_defaults().campaign_config();
    config.trials = kMatrixTrials;
    config.seed = fi::trial_seed_for(pass.seed, k);
    config.jobs = kMatrixSlots;
    std::unique_ptr<phifi::telemetry::TraceWriter> trace;
    std::unique_ptr<phifi::telemetry::TrialProfiler> profiler;
    if (pass.traced) {
      trace = std::make_unique<phifi::telemetry::TraceWriter>(
          pass.dir + "/matrix-" + name + ".trace.ndjson");
      profiles.push_back(pass.dir + "/matrix-" + name + ".profile.ndjson");
      profiler =
          std::make_unique<phifi::telemetry::TrialProfiler>(profiles.back());
      config.trace = trace.get();
      config.profiler = profiler.get();
    }
    results.push_back(fi::Campaign(*supervisors[k], config).run());
  }
  rep.result_s = since(result_start);
  rep.cpu_s = cpu_seconds() - cpu_start;

  double busy_s = 0.0;
  double hang_s = 0.0;
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    const std::string name(kernels[k].name);
    const fi::CampaignResult& result = results[k];
    if (result.aborted || result.interrupted) {
      rep.errors.push_back("matrix " + name + ": campaign did not finish");
    }
    if (result.overall.total() != kMatrixTrials) {
      rep.errors.push_back("matrix " + name + ": committed " +
                           std::to_string(result.overall.total()) + " of " +
                           std::to_string(kMatrixTrials) + " trials");
    }
    Tally& tally = rep.tallies[name];
    tally.masked = result.overall.masked;
    tally.sdc = result.overall.sdc;
    tally.due = result.overall.due;
    if (pass.doctor == Doctor::kTally && k == 0) {
      tally.sdc += tally.masked / 2;
      tally.masked -= tally.masked / 2;
    }
    rep.committed += result.overall.total();
    rep.failed += result.not_injected;
    rep.fork_modes[name] = std::string(fi::to_string(supervisors[k]->fork_mode()));

    for (const auto& trial : result.trials) {
      busy_s += trial.seconds;
      if (trial.due_kind == fi::DueKind::kHang ||
          trial.due_kind == fi::DueKind::kStall) {
        hang_s += trial.seconds;
      }
      if (pass.traced && trial.outcome != fi::Outcome::kNotInjected) {
        sample_trial(*pass.layers, name, trial);
      }
    }
    if (pass.traced) {
      pass.layers->value("supervisor.golden_s." + name,
                         supervisors[k]->golden_seconds());
    }
  }
  if (pass.traced) {
    Layers& layers = *pass.layers;
    for (const auto& path : profiles) sample_rob_wait(layers, path);
    const double slot_s = kMatrixSlots * rep.result_s;
    layers.value("supervisor.hang_s", hang_s);
    layers.value("campaign.slot_busy_frac", busy_s / slot_s);
    layers.value("campaign.idle_ms_per_trial",
                 1000.0 * (slot_s - busy_s) /
                     static_cast<double>(rep.committed));
  }
  return rep;
}

// ----------------------------------------------------------------- fleet

namespace {

constexpr std::string_view kFleetKernel = "LUD";

fi::CampaignConfig fleet_config(std::uint64_t seed) {
  fi::CampaignConfig config = program_defaults().campaign_config();
  config.trials = kFleetTrials;
  config.seed = seed;
  config.jobs = 1;
  return config;
}

/// phifi_run's fabric settings, on `address`.
phifi::fabric::FabricOptions fleet_options(const std::string& address) {
  const phifi::cli::RunnerConfig& config = program_defaults();
  phifi::fabric::FabricOptions options;
  options.address = address;
  options.lease_size = config.fabric_lease_size;
  options.heartbeat_seconds = config.fabric_heartbeat_seconds;
  options.lease_timeout_seconds = config.fabric_lease_timeout_seconds;
  options.reconnect_initial_ms = config.fabric_reconnect_ms;
  options.stats_interval_seconds = config.fabric_stats_seconds;
  return options;
}

/// True once a unix socket at `path` accepts a connection.
bool accepts(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const bool ok =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0;
  ::close(fd);
  return ok;
}

struct WorkerProc {
  pid_t pid = -1;
  int ready_fd = -1;  ///< parent reads one byte once the golden run is done
  int go_fd = -1;     ///< parent writes one byte to start the campaign
  std::string shard, trace, profile, result;
  int pid_fd = -1;  ///< readable once the worker exits
  bool exited = false;
  int status = 0;
  double exit_s = 0.0;  ///< seconds after the go signal
};

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

/// Starts one worker process: this binary re-executed in worker mode,
/// with its ready/go pipe ends on fds 3 and 4.
void spawn_worker(WorkerProc& worker, const std::string& self_exe,
                  const std::string& address, std::uint64_t seed) {
  int ready[2];
  int go[2];
  if (::pipe2(ready, O_CLOEXEC) != 0 || ::pipe2(go, O_CLOEXEC) != 0) {
    throw std::runtime_error("fleet: pipe failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, ready[1], 3);
  posix_spawn_file_actions_adddup2(&actions, go[0], 4);
  const std::string seed_text = std::to_string(seed);
  std::vector<std::string> args = {self_exe,       "--fleet-worker",
                                   address,        worker.shard,
                                   worker.trace,   worker.profile,
                                   worker.result,  seed_text};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const int rc = posix_spawn(&worker.pid, self_exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(ready[1]);
  ::close(go[0]);
  worker.ready_fd = ready[0];
  worker.go_fd = go[1];
  if (rc != 0) {
    worker.pid = -1;
    throw std::runtime_error(std::string("fleet: spawn failed: ") +
                             std::strerror(rc));
  }
}

/// Blocks until every worker has signalled ready (or one has died).
bool wait_ready(std::vector<WorkerProc>& workers) {
  for (auto& worker : workers) {
    pollfd pfd{worker.ready_fd, POLLIN, 0};
    if (::poll(&pfd, 1, 120000) != 1) return false;
    char byte = 0;
    if (::read(worker.ready_fd, &byte, 1) != 1) return false;
  }
  return true;
}

phifi::util::json::Value read_json_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return phifi::util::json::parse(text.str());
}

}  // namespace

Rep run_fleet(const Pass& pass, const std::string& self_exe) {
  namespace fabric = phifi::fabric;
  Rep rep;
  const std::string name(kFleetKernel);
  const fi::CampaignConfig config = fleet_config(pass.seed);
  const auto probe = phifi::work::find_workload(kFleetKernel)();
  const std::uint64_t fingerprint =
      fi::campaign_fingerprint(config, probe->name(), probe->time_windows());

  const std::string socket_path = pass.dir + "/coord.sock";
  fabric::FabricOptions options = fleet_options("unix:" + socket_path);
  options.ledger_path = pass.dir + "/lease.ledger";

  std::atomic<bool> stop{false};
  fi::CampaignConfig coord_config = config;
  coord_config.stop_flag = &stop;
  std::unique_ptr<phifi::telemetry::TraceWriter> coord_trace;
  if (pass.traced) {
    coord_trace = std::make_unique<phifi::telemetry::TraceWriter>(
        pass.dir + "/coordinator.trace.ndjson");
  }

  const double cpu_start = cpu_seconds();
  const auto setup_start = Clock::now();
  std::optional<fabric::CoordinatorResult> coord_result;
  std::string coord_error;
  std::atomic<bool> coord_returned{false};
  std::ostringstream coord_log;
  std::thread coordinator([&] {
    try {
      coord_result =
          fabric::run_coordinator(coord_config, fingerprint, options, nullptr,
                                  coord_trace.get(), nullptr, nullptr,
                                  coord_log);
    } catch (const std::exception& error) {
      coord_error = error.what();
    }
    coord_returned = true;
  });

  // Workers start only once the coordinator accepts connections: one that
  // connects too early backs off for reconnect_initial_ms.
  double connect_wait_s = 0.0;
  while (!accepts(socket_path)) {
    if (since(setup_start) > 30.0 || coord_returned) {
      stop = true;
      coordinator.join();
      throw std::runtime_error("fleet: coordinator never accepted: " +
                               coord_error);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  connect_wait_s = since(setup_start);

  std::vector<WorkerProc> workers(kFleetWorkers);
  for (unsigned w = 0; w < kFleetWorkers; ++w) {
    const std::string stem = pass.dir + "/worker" + std::to_string(w);
    workers[w].shard = stem + ".shard";
    workers[w].trace = stem + ".trace.ndjson";
    workers[w].profile = stem + ".profile.ndjson";
    workers[w].result = stem + ".result.json";
  }
  bool started = true;
  try {
    for (auto& worker : workers) {
      spawn_worker(worker, self_exe, options.address, pass.seed);
    }
    started = wait_ready(workers);
  } catch (const std::exception& error) {
    rep.errors.push_back(error.what());
    started = false;
  }
  rep.setup_s = since(setup_start);

  const auto go_time = Clock::now();
  for (auto& worker : workers) {
    if (started && worker.go_fd >= 0) {
      const char byte = 'g';
      if (::write(worker.go_fd, &byte, 1) != 1) started = false;
    }
    close_fd(worker.go_fd);  // EOF tells a waiting worker to give up
    close_fd(worker.ready_fd);
  }
  if (!started) {
    rep.errors.push_back("fleet: a worker failed before the campaign");
    stop = true;
  }

  // Reap workers as they exit, sleeping on their pidfds so this process
  // takes no wakeups from the cores the trials run on. A worker that dies
  // leaves its lease to be reclaimed by the coordinator; if the run
  // overstays, stop everything so the repetition ends and is reported
  // failed.
  bool killed = false;
  std::size_t live = 0;
  for (auto& worker : workers) {
    if (worker.pid <= 0) continue;
    ++live;
    worker.pid_fd =
        static_cast<int>(::syscall(SYS_pidfd_open, worker.pid, 0));
  }
  while (live > 0) {
    const bool doctor_due = pass.doctor == Doctor::kLease && !killed &&
                            workers[0].pid > 0;
    if (doctor_due && since(go_time) > 0.3) {
      ::kill(workers[0].pid, SIGKILL);
      killed = true;
    }
    if (since(go_time) > 120.0 && !stop) {
      rep.errors.push_back("fleet: campaign overstayed 120 s");
      stop = true;
      for (auto& worker : workers) {
        if (!worker.exited && worker.pid > 0) ::kill(worker.pid, SIGKILL);
      }
    }
    std::vector<pollfd> fds;
    int timeout_ms = doctor_due ? 10 : 1000;
    for (const auto& worker : workers) {
      if (worker.pid <= 0 || worker.exited) continue;
      if (worker.pid_fd < 0) timeout_ms = 1;  // no pidfd: fall back to naps
      fds.push_back({worker.pid_fd, POLLIN, 0});
    }
    ::poll(fds.data(), fds.size(), timeout_ms);
    for (auto& worker : workers) {
      if (worker.pid <= 0 || worker.exited) continue;
      if (::waitpid(worker.pid, &worker.status, WNOHANG) == worker.pid) {
        worker.exited = true;
        worker.exit_s = since(go_time);
        close_fd(worker.pid_fd);
        --live;
      }
    }
  }
  // Every worker is gone: a coordinator still waiting for work would wait
  // forever.
  stop = true;
  coordinator.join();

  const auto merge_start = Clock::now();
  fabric::MergeOptions merge_options;
  for (const auto& worker : workers) merge_options.shards.push_back(worker.shard);
  merge_options.out_path = pass.dir + "/merged.journal";
  std::optional<fabric::MergeSummary> merged;
  try {
    merged = fabric::merge_shards(config, probe->name(), probe->time_windows(),
                                  merge_options);
  } catch (const std::exception& error) {
    rep.errors.push_back(std::string("fleet: merge failed: ") + error.what());
  }
  const double merge_s = since(merge_start);
  rep.result_s = since(go_time);
  rep.cpu_s = cpu_seconds() - cpu_start;

  std::uint64_t executed = 0;
  double first_exit = 1e300;
  double last_exit = 0.0;
  for (const auto& worker : workers) {
    if (!WIFEXITED(worker.status) || WEXITSTATUS(worker.status) != 0) {
      rep.errors.push_back("fleet: worker " + std::to_string(worker.pid) +
                           " ended with status " +
                           std::to_string(worker.status));
      continue;
    }
    try {
      const auto doc = read_json_file(worker.result);
      executed += static_cast<std::uint64_t>(doc.number_or("executed", 0));
      rep.fork_modes[name] = doc.string_or("fork_mode", "?");
    } catch (const std::exception& error) {
      rep.errors.push_back("fleet: worker result unreadable: " +
                           std::string(error.what()));
    }
    first_exit = std::min(first_exit, worker.exit_s);
    last_exit = std::max(last_exit, worker.exit_s);
  }

  if (!coord_result) {
    rep.errors.push_back("fleet: coordinator failed: " + coord_error);
    return rep;
  }
  fabric::CoordinatorResult& coord = *coord_result;
  if (pass.doctor == Doctor::kTally) ++coord.fleet_sdc;
  if (!coord.complete || !coord.fleet_boundary) {
    rep.errors.push_back("fleet: coordinator did not reach the boundary");
  }
  if (coord.leases_reclaimed != 0) {
    rep.errors.push_back("fleet: " + std::to_string(coord.leases_reclaimed) +
                         " lease(s) reclaimed");
  }
  if (merged) {
    const fi::OutcomeTally& m = merged->overall;
    if (m.masked != coord.fleet_masked || m.sdc != coord.fleet_sdc ||
        m.due != coord.fleet_due) {
      std::ostringstream msg;
      msg << "fleet: coordinator tally " << coord.fleet_masked << "/"
          << coord.fleet_sdc << "/" << coord.fleet_due
          << " (masked/sdc/due) differs from merge_shards " << m.masked << "/"
          << m.sdc << "/" << m.due;
      rep.errors.push_back(msg.str());
    }
    if (m.total() != kFleetTrials) {
      rep.errors.push_back("fleet: merged " + std::to_string(m.total()) +
                           " of " + std::to_string(kFleetTrials) + " trials");
    }
  }
  Tally& tally = rep.tallies[name];
  tally.masked = coord.fleet_masked;
  tally.sdc = coord.fleet_sdc;
  tally.due = coord.fleet_due;
  rep.committed = tally.trials();
  const std::uint64_t stored = merged ? merged->shard_records : 0;
  rep.failed = coord.fleet_not_injected + (merged ? merged->duplicates : 0) +
               (executed > stored ? executed - stored : 0);

  if (pass.traced) {
    Layers& layers = *pass.layers;
    const double n = static_cast<double>(std::max<std::uint64_t>(executed, 1));
    double shard_bytes = 0.0;
    double trace_bytes = 0.0;
    double profile_bytes = 0.0;
    for (const auto& worker : workers) {
      shard_bytes += file_bytes(worker.shard);
      trace_bytes += file_bytes(worker.trace);
      profile_bytes += file_bytes(worker.profile);
    }
    layers.value("fabric.connect_wait_s", connect_wait_s);
    layers.value("fabric.leases_granted",
                 static_cast<double>(coord.leases_granted));
    layers.value("fabric.leases_reclaimed",
                 static_cast<double>(coord.leases_reclaimed));
    layers.value("fabric.useful_frac",
                 static_cast<double>(coord.fleet_completed) / n);
    layers.value("fabric.tail_s", last_exit - first_exit);
    layers.value("fabric.merge_s", merge_s);
    layers.value("journal.bytes_per_trial", shard_bytes / n);
    layers.value("telemetry.trace_bytes_per_trial", trace_bytes / n);
    layers.value("telemetry.profile_bytes_per_trial", profile_bytes / n);

    // Journal layer on its own: re-append the merged records through the
    // public writer at the default fsync policy, on the same filesystem,
    // splitting each append into write and fsync time.
    if (merged) {
      const fi::JournalContents contents =
          fi::read_journal(merge_options.out_path);
      fi::CampaignJournalWriter writer(pass.dir + "/probe.journal",
                                       contents.header, config.journal_fsync);
      for (const auto& record : contents.records) {
        const auto start = Clock::now();
        writer.append(record);
        const double total_ms = since(start) * 1000.0;
        const double flush_ms = writer.last_fsync_seconds() * 1000.0;
        layers.sample("journal.append_ms", total_ms - flush_ms);
        layers.sample("journal.flush_ms", flush_ms);
      }
    }
  }
  return rep;
}

int fleet_worker_main(int argc, char** argv) {
  namespace fabric = phifi::fabric;
  if (argc != 6) return 2;
  fabric::FabricOptions options = fleet_options(argv[0]);
  options.shard_path = argv[1];
  const std::string trace_path = argv[2];
  const std::string profile_path = argv[3];
  const std::string result_path = argv[4];
  const std::uint64_t seed = std::stoull(argv[5]);

  const auto supervisor_ptr =
      make_supervisor(phifi::work::find_workload(kFleetKernel));
  fi::TrialSupervisor& supervisor = *supervisor_ptr;
  supervisor.prepare_golden();
  phifi::telemetry::TraceWriter trace(trace_path);
  phifi::telemetry::TrialProfiler profiler(profile_path);
  fi::CampaignConfig config = fleet_config(seed);
  config.profiler = &profiler;
  const std::uint64_t fingerprint = fi::campaign_fingerprint(
      config, supervisor.workload_name(), supervisor.time_windows());

  char byte = 'r';
  if (::write(3, &byte, 1) != 1) return 3;
  if (::read(4, &byte, 1) != 1) return 3;  // parent gave up
  ::close(3);
  ::close(4);

  std::ostringstream log;
  const fabric::WorkerResult result = fabric::run_worker(
      supervisor, config, fingerprint, options, nullptr, &trace, log);
  profiler.sync();
  trace.sync();

  phifi::util::json::Value doc = phifi::util::json::Value::object();
  doc["executed"] = result.executed;
  doc["leases_done"] = result.leases_done;
  doc["fork_mode"] = std::string(fi::to_string(supervisor.fork_mode()));
  std::ofstream out(result_path, std::ios::trunc);
  out << doc.dump() << "\n";
  out.close();
  const bool ok = result.complete && !result.rejected && !result.aborted &&
                  !result.interrupted && out.good();
  return ok ? 0 : 1;
}

// ------------------------------------------------------------------ beam

Rep run_beam(const Pass& pass) {
  namespace radiation = phifi::radiation;
  Rep rep;
  static const phifi::phi::ResourceMap map = phifi::phi::ResourceMap::for_spec(
      phifi::phi::DeviceSpec::knights_corner_3120a());
  static const radiation::DeviceSensitivity sensitivity =
      radiation::DeviceSensitivity::knc_3120a(map);

  std::vector<const phifi::work::WorkloadInfo*> kernels;
  for (const auto& info : phifi::work::all_workloads()) {
    if (info.beam_tested) kernels.push_back(&info);
  }
  const double cpu_start = cpu_seconds();
  const auto setup_start = Clock::now();
  std::vector<std::unique_ptr<fi::TrialSupervisor>> supervisors;
  for (const auto* info : kernels) {
    supervisors.push_back(make_supervisor(info->factory));
    supervisors.back()->prepare_golden();
  }
  rep.setup_s = since(setup_start);

  std::uint64_t sdc = 0;
  std::uint64_t due = 0;
  const auto result_start = Clock::now();
  for (std::size_t k = 0; k < kernels.size(); ++k) {
    radiation::BeamConfig config = program_defaults().beam_config();
    config.seed = fi::trial_seed_for(pass.seed, k);
    config.min_sdc = kBeamMinSdc;
    config.min_due = kBeamMinDue;
    const radiation::BeamResult result =
        radiation::BeamCampaign(*supervisors[k], sensitivity, config).run();
    const std::string name(kernels[k]->name);
    if (result.sdc < config.min_sdc || result.due_total() < config.min_due) {
      rep.errors.push_back("beam " + name + ": stopped before min_sdc/min_due");
    }
    Tally& tally = rep.tallies[name];
    tally.masked = result.masked_faults;
    tally.sdc = result.sdc;
    tally.due = result.due_program;
    if (pass.doctor == Doctor::kTally && k == 0) {
      tally.sdc += tally.masked / 2;
      tally.masked -= tally.masked / 2;
    }
    rep.committed += result.executions;
    rep.fork_modes[name] =
        std::string(fi::to_string(supervisors[k]->fork_mode()));
    sdc += result.sdc;
    due += result.due_total();
  }
  rep.result_s = since(result_start);
  rep.cpu_s = cpu_seconds() - cpu_start;
  if (pass.traced) {
    Layers& layers = *pass.layers;
    layers.value("beam.executions", static_cast<double>(rep.committed));
    layers.value("beam.sdc", static_cast<double>(sdc));
    layers.value("beam.due", static_cast<double>(due));
    layers.value("beam.ms_per_execution",
                 1000.0 * rep.result_s / static_cast<double>(rep.committed));
  }
  return rep;
}

// --------------------------------------------------------------- kernels

void probe_kernels(Layers& layers) {
  constexpr int kSamples = 5;
  const fi::SupervisorConfig defaults = program_defaults().supervisor_config();
  for (const auto& info : phifi::work::all_workloads()) {
    const std::string name(info.name);
    for (int s = 0; s < kSamples; ++s) {
      auto workload = info.factory();
      const auto setup_start = Clock::now();
      workload->setup(defaults.input_seed);
      layers.sample("workloads.setup_ms." + name,
                    since(setup_start) * 1000.0);
      // Timed like the golden run: device start-up, run, device teardown.
      const auto run_start = Clock::now();
      {
        phifi::phi::Device device(defaults.device_spec,
                                  defaults.device_os_threads);
        fi::ProgressTracker progress;
        progress.reset(workload->total_steps());
        workload->run(device, progress);
        progress.finish();
      }
      layers.sample("workloads.native_ms." + name, since(run_start) * 1000.0);
    }
  }
}

}  // namespace perfbench
