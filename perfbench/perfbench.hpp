// Declarations shared by the benchmark's workloads, correctness gate and
// main program. See perfbench/README.md for what is measured and why.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Outcome counts of one kernel: committed injected trials (or executed
/// beam runs) split Masked / SDC / DUE.
struct Tally {
  std::uint64_t masked = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;

  [[nodiscard]] std::uint64_t trials() const { return masked + sdc + due; }
  Tally& operator+=(const Tally& other) {
    masked += other.masked;
    sdc += other.sdc;
    due += other.due;
    return *this;
  }
};

/// Tallies keyed by kernel name.
using Tallies = std::map<std::string, Tally>;

/// What the traced layers saw, pooled over the traced repetitions of a run.
/// `samples` are per-trial (or per-call) distributions reported as
/// percentiles; `values` hold one figure per repetition, reported as the
/// median.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::vector<double>> values;

  void sample(const std::string& name, double value) {
    samples[name].push_back(value);
  }
  void value(const std::string& name, double v) { values[name].push_back(v); }
};

/// One repetition of a workload: set-up, then the campaign(s) to the final
/// committed tally.
struct Rep {
  double setup_s = 0.0;
  double result_s = 0.0;
  /// CPU seconds of this process and every reaped child over the whole
  /// repetition (set-up included).
  double cpu_s = 0.0;
  std::uint64_t committed = 0;  ///< committed trials (or executed beam runs)
  std::uint64_t failed = 0;     ///< attempts launched but not committed
  Tallies tallies;
  std::map<std::string, std::string> fork_modes;  ///< kernel -> mode
  std::vector<std::string> errors;  ///< exact-check failures
};

/// Deliberate faults the gate self-test injects (run.py --self-test).
enum class Doctor { kNone, kTally, kLease };

/// Where and how a repetition runs.
struct Pass {
  std::uint64_t seed = 0;  ///< repetition seed, derived from --seed
  bool traced = false;     ///< attach the trace/profile sinks, fill layers
  std::string dir;         ///< scratch directory inside the checkout
  Doctor doctor = Doctor::kNone;
  Layers* layers = nullptr;  ///< filled when traced
};

// ---- workloads (workloads.cpp) ----

/// Figs. 4-6 injection matrix: six kernels x four fault models, CAROL-FI
/// policy, program defaults at kMatrixSlots slots, no journal or telemetry
/// unless traced.
Rep run_matrix(const Pass& pass);
/// LUD sharded over kFleetWorkers worker processes with a lease ledger,
/// shard journals, traces and profiles, then merged.
Rep run_fleet(const Pass& pass, const std::string& self_exe);
/// Fig. 2 beam campaign over the five beam-tested kernels.
Rep run_beam(const Pass& pass);
/// Native kernel timings (no injector) for every kernel.
void probe_kernels(Layers& layers);
/// Entry point of a fleet worker process (argv after "--fleet-worker").
int fleet_worker_main(int argc, char** argv);

inline constexpr std::size_t kMatrixTrials = 200;  ///< per kernel
inline constexpr unsigned kMatrixSlots = 3;
inline constexpr std::size_t kFleetTrials = 1200;
inline constexpr unsigned kFleetWorkers = 3;
inline constexpr std::uint64_t kBeamMinSdc = 20;
inline constexpr std::uint64_t kBeamMinDue = 12;

// ---- correctness gate (gate.cpp) ----

/// Reference tallies per workload ("matrix", "beam"), pooled over many
/// seeds of the same configuration (perfbench/reference.json).
using Reference = std::map<std::string, Tallies>;

Reference load_reference(const std::string& path);
void write_reference(const std::string& path, const Reference& reference);

/// Two-sided confidence of the Wilson intervals the gate compares.
inline constexpr double kGateConfidence = 0.9999;

/// Appends one error per kernel whose SDC or DUE rate is inconsistent with
/// the reference: the run's and the reference's Wilson intervals at
/// kGateConfidence do not overlap. A kernel missing from either side is an
/// error too.
void check_rates(const Tallies& run, const Tallies& reference,
                 const std::string& what, std::vector<std::string>& errors);

/// Trials by which a run's cells (kernel x Masked/SDC/DUE) differ from the
/// reference shares scaled to the run's trial count, summed over cells.
/// A count, not an interval: two runs of one seed agree on it unless a racy
/// trial flipped between them.
std::uint64_t outcome_diff(const Tallies& run, const Tallies& reference);

}  // namespace perfbench
