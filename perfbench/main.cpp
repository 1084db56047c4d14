// End-to-end benchmark of the fault-injection harness (perfbench/README.md).
//
//   perfbench --workload matrix|fleet|beam --seed N --seconds S --trace 0|1
//             --reference perfbench/reference.json [--doctor tally|lease]
//   perfbench --make-reference N --reference perfbench/reference.json
//
// Repeats the workload for S seconds (each repetition seeded from N and its
// index), gates every repetition's outputs, and prints a metric table, a
// metadata line and, last, one JSON result line. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced repetitions
// of the workload, then adds one traced repetition of each other workload
// and a native-kernel probe, and reports every per-layer metric.
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "perfbench.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace json = phifi::util::json;
using Clock = std::chrono::steady_clock;

/// Repetitions per run, whatever --seconds says, so medians have support.
constexpr int kMinReps = 3;
/// No new repetition starts past this many seconds (runs must end < 180 s).
constexpr double kMaxSeconds = 130.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference = "perfbench/reference.json";
  Doctor doctor = Doctor::kNone;
  int make_reference = 0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload matrix|fleet|beam --seed N "
               "--seconds S --trace 0|1 [--reference PATH] "
               "[--doctor tally|lease]\n"
            << "       perfbench --make-reference N [--reference PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value == "1";
      } else if (flag == "--reference") {
        options.reference = value;
      } else if (flag == "--make-reference") {
        options.make_reference = std::stoi(value);
      } else if (flag == "--doctor") {
        if (value == "tally") {
          options.doctor = Doctor::kTally;
        } else if (value == "lease") {
          options.doctor = Doctor::kLease;
        } else {
          usage("unknown --doctor " + value);
        }
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (options.make_reference == 0 && options.workload != "matrix" &&
      options.workload != "fleet" && options.workload != "beam") {
    usage("--workload must be matrix, fleet or beam");
  }
  return options;
}

/// Turns address-space randomisation off for this process and every child
/// (the personality survives fork and exec) by re-executing once. Pointer-
/// site flips then hit the same layout on every run, so a seed repeats its
/// tallies exactly. Returns whether ASLR is off.
bool disable_aslr(char** argv) {
  const int current = personality(0xffffffff);
  if (current != -1 && (current & ADDR_NO_RANDOMIZE) != 0) return true;
  if (std::getenv("PERFBENCH_REEXEC") != nullptr) return false;
  setenv("PERFBENCH_REEXEC", "1", 1);
  if (current == -1 ||
      personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) ==
          -1) {
    return false;
  }
  execv("/proc/self/exe", argv);
  return false;  // exec failed: carry on with ASLR on, as recorded
}

std::string self_exe() {
  std::error_code ec;
  const auto path = fs::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  return path.string();
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    case 0x2FC12FC1: return "zfs";
    default: break;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
  return hex.str();
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string unit_of(const std::string& name) {
  auto has = [&name](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (has("_ms") || has("ms_per_")) return "ms";
  if (has("bytes_per_trial")) return "B";
  if (has("_mb")) return "MB";
  if (has("trials_per_s")) return "1/s";
  if (has("_s.") || name.ends_with("_s")) return "s";
  if (has("_frac") || has("inflation")) return "ratio";
  return "count";
}

/// One metric: the reported value plus the repetition spread behind it.
struct Metric {
  double value = 0.0;
  std::vector<double> reps;
};

using Metrics = std::map<std::string, Metric>;

Metric of_reps(std::vector<double> reps) {
  Metric metric;
  metric.value = median(reps);
  metric.reps = std::move(reps);
  return metric;
}

Metrics end_to_end(const std::vector<Rep>& reps) {
  std::vector<double> result, setup, rate, cpu;
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  for (const auto& rep : reps) {
    const auto n = static_cast<double>(std::max<std::uint64_t>(rep.committed, 1));
    result.push_back(rep.result_s);
    setup.push_back(rep.setup_s);
    rate.push_back(n / rep.result_s);
    cpu.push_back(1000.0 * rep.cpu_s / n);
    committed += rep.committed;
    failed += rep.failed;
  }
  Metrics metrics;
  metrics["result_s"] = of_reps(result);
  metrics["setup_s"] = of_reps(setup);
  metrics["trials_per_s"] = of_reps(rate);
  metrics["cpu_ms_per_trial"] = of_reps(cpu);
  metrics["peak_rss_mb"].value = peak_rss_mb();
  metrics["attempt_ok_frac"].value =
      static_cast<double>(committed) /
      static_cast<double>(std::max<std::uint64_t>(committed + failed, 1));
  return metrics;
}

Metrics per_layer(const Layers& layers) {
  Metrics metrics;
  for (const auto& [name, samples] : layers.samples) {
    // "<layer>.<what>_ms[.<kernel>]" -> "<layer>.<what>_ms.p50[.<kernel>]"
    const auto cut = name.find("_ms");
    const std::string stem = name.substr(0, cut + 3);
    const std::string tail = name.substr(cut + 3);
    if (stem.starts_with("workloads.")) {
      metrics[name] = of_reps(samples);
      continue;
    }
    metrics[stem + ".p50" + tail].value = percentile(samples, 50.0);
    if (stem == "supervisor.run_ms" || stem == "campaign.rob_wait_ms") {
      metrics[stem + ".p99" + tail].value = percentile(samples, 99.0);
    }
  }
  for (const auto& [name, values] : layers.values) {
    metrics[name] = of_reps(values);
  }
  // The paper's E8 ratio: in-trial run time over the native kernel.
  for (const auto& [name, native] : metrics) {
    const std::string prefix = "workloads.native_ms.";
    if (!name.starts_with(prefix)) continue;
    const std::string kernel = name.substr(prefix.size());
    const auto run = metrics.find("supervisor.run_ms.p50." + kernel);
    if (run == metrics.end() || native.value <= 0.0) continue;
    metrics["supervisor.inflation." + kernel].value =
        run->second.value / native.value;
  }
  return metrics;
}

std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

void print_table(const Metrics& metrics) {
  std::cout << std::left << std::setw(38) << "metric" << std::right
            << std::setw(14) << "median" << std::setw(14) << "q1"
            << std::setw(14) << "q3" << std::setw(6) << "n"
            << "  unit\n";
  for (const auto& [name, metric] : metrics) {
    std::cout << std::left << std::setw(38) << name << std::right
              << std::setw(14) << std::setprecision(6) << metric.value;
    if (metric.reps.size() > 1) {
      std::cout << std::setw(14) << percentile(metric.reps, 25.0)
                << std::setw(14) << percentile(metric.reps, 75.0)
                << std::setw(6) << metric.reps.size();
    } else {
      std::cout << std::setw(34) << "";
    }
    std::cout << "  " << unit_of(name) << "\n";
  }
}

std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << number(metric.value) << ", \"unit\": \"" << unit_of(name)
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::uint64_t workload_tag(const std::string& workload) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : workload) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

class Runner {
 public:
  Runner(const Options& options, std::string run_dir)
      : options_(options), run_dir_(std::move(run_dir)), exe_(self_exe()) {}

  /// Runs repetition `index` of `workload`; its seed depends only on
  /// --seed, the workload and the index.
  Rep run(const std::string& workload, std::uint64_t index, bool traced) {
    Pass pass;
    pass.seed = phifi::fi::trial_seed_for(
        options_.seed ^ workload_tag(workload), index);
    pass.traced = traced;
    pass.dir = run_dir_ + "/" + workload + "-" + std::to_string(index) +
               (traced ? "t" : "u");
    pass.doctor = options_.doctor;
    pass.layers = &layers_;
    fs::create_directories(pass.dir);
    Rep rep = workload == "matrix" ? run_matrix(pass)
              : workload == "fleet" ? run_fleet(pass, exe_)
                                    : run_beam(pass);
    fs::remove_all(pass.dir);
    for (const auto& [kernel, mode] : rep.fork_modes) {
      fork_modes_[kernel] = mode;
    }
    return rep;
  }

  Layers& layers() { return layers_; }
  const std::map<std::string, std::string>& fork_modes() const {
    return fork_modes_;
  }

 private:
  const Options& options_;
  std::string run_dir_;
  std::string exe_;
  Layers layers_;
  std::map<std::string, std::string> fork_modes_;
};

Tallies pooled(const std::vector<Rep>& reps) {
  Tallies total;
  for (const auto& rep : reps) {
    for (const auto& [kernel, tally] : rep.tallies) total[kernel] += tally;
  }
  return total;
}

/// The reference a workload's tallies are gated against; the fleet runs
/// the matrix configuration on LUD alone.
Tallies reference_for(const Reference& reference, const std::string& workload,
                      const Tallies& run) {
  const auto it = reference.find(workload == "beam" ? "beam" : "matrix");
  if (it == reference.end()) return {};
  if (workload != "fleet") return it->second;
  Tallies subset;
  for (const auto& [kernel, tally] : it->second) {
    if (run.count(kernel) != 0) subset[kernel] = tally;
  }
  return subset;
}

int make_reference(const Options& options, const std::string& run_dir) {
  Runner runner(options, run_dir);
  Reference reference;
  for (int i = 0; i < options.make_reference; ++i) {
    for (const std::string workload : {"matrix", "beam"}) {
      const Rep rep = runner.run(workload, static_cast<std::uint64_t>(i), false);
      if (!rep.errors.empty()) {
        std::cerr << "perfbench: " << rep.errors.front() << "\n";
        return 1;
      }
      for (const auto& [kernel, tally] : rep.tallies) {
        reference[workload][kernel] += tally;
      }
    }
    std::cerr << "reference: " << (i + 1) << "/" << options.make_reference
              << " seeds\n";
  }
  write_reference(options.reference, reference);
  return 0;
}

int run(const Options& options, bool aslr_off, const std::string& run_dir) {
  const Reference reference = load_reference(options.reference);
  Runner runner(options, run_dir);
  const auto start = Clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  // Repetitions of the named workload. Traced runs alternate untraced and
  // traced repetitions so the two see the same host conditions.
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  std::map<std::string, Rep> first_rep;  // workload -> repetition 0
  std::vector<std::string> errors;
  for (std::uint64_t index = 0;; ++index) {
    const bool is_traced = options.trace && index % 2 == 1;
    const std::size_t have = options.trace
                                 ? std::min(untraced.size(), traced.size())
                                 : untraced.size();
    if (have >= kMinReps && elapsed() >= options.seconds) break;
    if (have >= 1 && elapsed() >= kMaxSeconds) break;
    Rep rep = runner.run(options.workload, index, is_traced);
    errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
    if (index == 0) first_rep[options.workload] = rep;
    (is_traced ? traced : untraced).push_back(std::move(rep));
  }
  std::vector<Rep> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  check_rates(pooled(all),
              reference_for(reference, options.workload, pooled(all)),
              options.workload, errors);

  Metrics metrics;
  if (options.trace) {
    // Every layer on every traced run: one traced repetition of each other
    // workload, then the kernels without the injector.
    for (const std::string other : {"matrix", "fleet", "beam"}) {
      if (other == options.workload) continue;
      Rep rep = runner.run(other, 0, true);
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      check_rates(rep.tallies, reference_for(reference, other, rep.tallies),
                  other, errors);
      first_rep[other] = std::move(rep);
    }
    probe_kernels(runner.layers());
    metrics = per_layer(runner.layers());
    std::uint64_t diff = 0;
    for (const auto& [workload, rep] : first_rep) {
      diff += outcome_diff(rep.tallies,
                           reference_for(reference, workload, rep.tallies));
    }
    metrics["analysis.outcome_diff"].value = static_cast<double>(diff);
    std::vector<double> plain, probed;
    for (const auto& rep : untraced) plain.push_back(rep.result_s);
    for (const auto& rep : traced) probed.push_back(rep.result_s);
    metrics["telemetry.overhead_frac"].value =
        median(probed) / median(plain) - 1.0;
  } else {
    metrics = end_to_end(untraced);
  }

  std::uint64_t committed = 0;
  std::uint64_t failed = 0;
  for (const auto& rep : all) {
    committed += rep.committed;
    failed += rep.failed;
  }
  print_table(metrics);
  json::Value meta = json::Value::object();
  meta["workload"] = options.workload;
  meta["seed"] = options.seed;
  meta["trace"] = options.trace;
  meta["host_cores"] = static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  meta["aslr"] = aslr_off ? "off" : "on";
  meta["journal_fs"] = filesystem_of(run_dir);
  meta["repetitions"] = static_cast<std::uint64_t>(untraced.size());
  meta["traced_repetitions"] = static_cast<std::uint64_t>(traced.size());
  meta["seconds"] = elapsed();
  // Repetition-0 cells, to compare runs of the same --seed.
  for (const auto& [workload, rep] : first_rep) {
    for (const auto& [kernel, tally] : rep.tallies) {
      json::Value& cells = meta["tallies"][workload][kernel];
      cells.push_back(tally.masked);
      cells.push_back(tally.sdc);
      cells.push_back(tally.due);
    }
  }
  for (const auto& [kernel, mode] : runner.fork_modes()) {
    meta["fork_mode"][kernel] = mode;
  }
  std::cout << "# meta " << meta.dump() << "\n";
  for (const auto& error : errors) std::cout << "# FAIL " << error << "\n";
  std::cout << result_line(errors.empty(), committed + failed, failed, metrics)
            << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 1 && std::string(argv[1]) == "--fleet-worker") {
    return fleet_worker_main(argc - 2, argv + 2);
  }
  const bool aslr_off = disable_aslr(argv);
  const Options options = parse(argc, argv);
  phifi::util::init_log_from_env();
  // Scratch space inside the checkout, removed on the way out.
  const std::string run_dir =
      ".bench_build/runs/" + std::to_string(static_cast<long>(getpid()));
  int rc = 1;
  try {
    fs::create_directories(run_dir);
    rc = options.make_reference > 0 ? make_reference(options, run_dir)
                                    : run(options, aslr_off, run_dir);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    rc = 1;
  }
  std::error_code ec;
  fs::remove_all(run_dir, ec);
  return rc;
}
