// Statistical correctness gate against pooled reference tallies.
//
// With address-space randomisation off, a seed reproduces its tallies
// almost exactly, but two equally valid trial paths (cold-start and
// fork-server children) still disagree on a few pointer-site flips, and a
// race inside the trial child occasionally flips one trial. The reference
// is therefore a pooled many-seed tally, not one seed's layout, and a run
// fails only when a kernel's rate is statistically inconsistent with it.
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "perfbench.hpp"
#include "util/json.hpp"
#include "util/statistics.hpp"

namespace perfbench {

namespace json = phifi::util::json;

Reference load_reference(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::stringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  Reference reference;
  for (const auto& [workload, kernels] : doc.as_object()) {
    for (const auto& [kernel, cells] : kernels.as_object()) {
      Tally& tally = reference[workload][kernel];
      tally.masked = static_cast<std::uint64_t>(cells.number_or("masked", 0));
      tally.sdc = static_cast<std::uint64_t>(cells.number_or("sdc", 0));
      tally.due = static_cast<std::uint64_t>(cells.number_or("due", 0));
    }
  }
  return reference;
}

void write_reference(const std::string& path, const Reference& reference) {
  json::Value doc = json::Value::object();
  for (const auto& [workload, kernels] : reference) {
    for (const auto& [kernel, tally] : kernels) {
      json::Value& cells = doc[workload][kernel];
      cells["masked"] = tally.masked;
      cells["sdc"] = tally.sdc;
      cells["due"] = tally.due;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

namespace {

bool overlap(const phifi::util::Interval& a, const phifi::util::Interval& b) {
  return a.lo <= b.hi && b.lo <= a.hi;
}

}  // namespace

void check_rates(const Tallies& run, const Tallies& reference,
                 const std::string& what, std::vector<std::string>& errors) {
  using phifi::util::wilson_interval;
  for (const auto& [kernel, tally] : run) {
    const auto ref = reference.find(kernel);
    if (ref == reference.end() || ref->second.trials() == 0) {
      errors.push_back(what + " " + kernel + ": no reference tally");
      continue;
    }
    if (tally.trials() == 0) {
      errors.push_back(what + " " + kernel + ": no committed trials");
      continue;
    }
    const struct {
      const char* name;
      std::uint64_t run_count;
      std::uint64_t ref_count;
    } rates[] = {{"SDC", tally.sdc, ref->second.sdc},
                 {"DUE", tally.due, ref->second.due}};
    for (const auto& rate : rates) {
      const auto mine =
          wilson_interval(rate.run_count, tally.trials(), kGateConfidence);
      const auto theirs = wilson_interval(
          rate.ref_count, ref->second.trials(), kGateConfidence);
      if (!overlap(mine, theirs)) {
        std::ostringstream msg;
        msg << what << " " << kernel << ": " << rate.name << " rate "
            << mine.point << " [" << mine.lo << ", " << mine.hi
            << "] over " << tally.trials() << " trials is outside reference "
            << theirs.point << " [" << theirs.lo << ", " << theirs.hi << "]";
        errors.push_back(msg.str());
      }
    }
  }
  for (const auto& [kernel, tally] : reference) {
    if (run.find(kernel) == run.end()) {
      errors.push_back(what + " " + kernel + ": kernel missing from run");
    }
  }
}

std::uint64_t outcome_diff(const Tallies& run, const Tallies& reference) {
  std::uint64_t diff = 0;
  for (const auto& [kernel, tally] : run) {
    const auto ref = reference.find(kernel);
    if (ref == reference.end() || ref->second.trials() == 0) {
      diff += tally.trials();
      continue;
    }
    const double scale = static_cast<double>(tally.trials()) /
                         static_cast<double>(ref->second.trials());
    const std::uint64_t mine[] = {tally.masked, tally.sdc, tally.due};
    const std::uint64_t theirs[] = {ref->second.masked, ref->second.sdc,
                                    ref->second.due};
    for (int cell = 0; cell < 3; ++cell) {
      const auto expected = static_cast<std::int64_t>(
          std::llround(scale * static_cast<double>(theirs[cell])));
      diff += static_cast<std::uint64_t>(
          std::llabs(static_cast<std::int64_t>(mine[cell]) - expected));
    }
  }
  return diff;
}

}  // namespace perfbench
