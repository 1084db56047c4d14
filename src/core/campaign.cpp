#include "core/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/statistics.hpp"

namespace phifi::fi {

namespace {

/// Flattens one trial into the string-typed trace record (the telemetry
/// layer deliberately knows nothing about core enums).
telemetry::TrialTrace make_trial_trace(const TrialResult& trial,
                                       std::uint64_t attempt, double ts_ms,
                                       unsigned slot) {
  telemetry::TrialTrace t;
  t.attempt = attempt;
  t.outcome = std::string(to_string(trial.outcome));
  t.due_kind = std::string(to_string(trial.due_kind));
  t.injected = trial.record.injected;
  t.model = std::string(to_string(trial.record.model));
  t.site = trial.record.site_name;
  t.category = trial.record.category;
  t.frame = trial.record.frame == FrameKind::kWorker ? "worker" : "global";
  t.worker = trial.record.worker;
  t.slot = slot;
  t.progress_fraction = trial.record.progress_fraction;
  t.window = trial.window;
  t.seconds = trial.seconds;
  t.heartbeats = trial.heartbeats;
  t.escalated_kill = trial.escalated_kill;
  t.fork_mode = std::string(to_string(trial.fork_mode));
  t.fork_seconds = trial.fork_done_seconds;
  t.setup_skipped = trial.setup_skipped;
  t.ts_ms = ts_ms;
  t.spans.push_back({"fork", 0.0, trial.fork_done_seconds * 1e3});
  t.spans.push_back(
      {"run", trial.fork_done_seconds * 1e3, trial.reaped_seconds * 1e3});
  t.spans.push_back({"classify", trial.reaped_seconds * 1e3,
                     trial.classified_seconds * 1e3});
  for (const PhaseRecord& phase : trial.phases) {
    t.phases.push_back({phase.name, phase.fraction, phase.t_seconds * 1e3});
  }
  return t;
}

/// Feeds one completed attempt into the metrics registry. Replayed
/// (journal-resumed) trials bump the campaign.* counters — the live
/// progress view must reflect total campaign state — but stay out of the
/// latency histogram, which records only this process's observations.
void feed_metrics(telemetry::MetricsRegistry& metrics,
                  const TrialResult& trial, bool replayed) {
  if (trial.outcome == Outcome::kNotInjected) {
    metrics.counter("campaign.not_injected").inc();
    return;
  }
  metrics.counter("campaign.completed").inc();
  switch (trial.outcome) {
    case Outcome::kMasked: metrics.counter("campaign.masked").inc(); break;
    case Outcome::kSdc: metrics.counter("campaign.sdc").inc(); break;
    case Outcome::kDue:
      metrics.counter("campaign.due").inc();
      metrics
          .counter("campaign.due." + std::string(to_string(trial.due_kind)))
          .inc();
      break;
    case Outcome::kNotInjected: break;
  }
  if (trial.escalated_kill) {
    metrics.counter("campaign.escalated_kills").inc();
  }
  if (!replayed) {
    metrics
        .histogram("campaign.trial_latency_ms",
                   telemetry::default_latency_edges_ms())
        .observe(trial.seconds * 1e3);
  }
}

/// Feeds one committed injected trial into the streaming estimator, in the
/// commit point's deterministic attempt order (replayed trials included,
/// so estimator state is identical across resumes and jobs values).
void feed_estimator(telemetry::CampaignEstimator& estimator,
                    const TrialResult& trial) {
  if (trial.outcome == Outcome::kNotInjected) return;
  estimator.record(to_estimator_outcome(trial.outcome),
                   std::string(to_string(trial.record.model)), trial.window,
                   trial.record.category, trial.record.injected);
}

/// A reaped trial waiting for its turn at the commit point. Completions
/// arrive in whatever order the workers finish; they are buffered here and
/// committed (journal, trace, tallies, observer) strictly in attempt-index
/// order so any jobs value yields bit-identical campaign state.
struct PendingTrial {
  JournalRecord record;
  double ts_ms = 0.0;
  unsigned slot = 0;
  /// Output snapshot for the observer, captured at reap time because the
  /// slot's shm channel may be reused before this attempt commits.
  std::vector<std::byte> output;
  /// Reap timestamp, set only when a profiler is attached: the reorder-
  /// buffer wait is commit time minus this.
  std::chrono::steady_clock::time_point reaped_at{};
};

/// Assembles the per-phase latency breakdown of one committed attempt for
/// the profiler. Child wall-clock is the reap interval; the child's own
/// reported setup/inject/classify slices are carved out of it and the rest
/// is the run. Negative residues (clock skew between the child's and the
/// parent's measurements) clamp to zero inside profile_us_from_seconds.
telemetry::TrialProfile make_trial_profile(const TrialResult& trial,
                                           std::uint64_t attempt,
                                           double rob_wait_seconds,
                                           double journal_seconds,
                                           double flush_seconds) {
  using telemetry::ProfilePhase;
  using telemetry::profile_us_from_seconds;
  telemetry::TrialProfile p;
  p.attempt = attempt;
  p.fork_mode = std::string(to_string(trial.fork_mode));
  p.us(ProfilePhase::kFork) =
      profile_us_from_seconds(trial.fork_done_seconds);
  p.us(ProfilePhase::kSetup) = profile_us_from_seconds(trial.setup_seconds);
  p.us(ProfilePhase::kInject) = profile_us_from_seconds(trial.inject_seconds);
  p.us(ProfilePhase::kRun) = profile_us_from_seconds(
      (trial.reaped_seconds - trial.fork_done_seconds) - trial.setup_seconds -
      trial.inject_seconds - trial.classify_child_seconds);
  p.us(ProfilePhase::kClassify) = profile_us_from_seconds(
      (trial.classified_seconds - trial.reaped_seconds) +
      trial.classify_child_seconds);
  p.us(ProfilePhase::kRobWait) = profile_us_from_seconds(rob_wait_seconds);
  p.us(ProfilePhase::kJournal) = profile_us_from_seconds(journal_seconds);
  p.us(ProfilePhase::kFlush) = profile_us_from_seconds(flush_seconds);
  return p;
}

/// One call of the scheduling loop: the attempt range, the durable sink,
/// and what each entry point does with a committed attempt.
struct Schedule {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  CampaignJournalWriter* journal = nullptr;
  /// Runs after the shared commit feed for every committed attempt, in
  /// index order, with the output snapshot (empty unless capture_output
  /// and the trial was Masked or SDC). Returns true at the boundary.
  std::function<bool(const JournalRecord&, std::span<const std::byte>)>
      commit;
  /// Returns false to cancel at once (see RangeHooks::on_tick).
  std::function<bool()> tick;
  bool capture_output = false;
  std::string label;  ///< log prefix
};

struct ScheduleEnd {
  std::uint64_t next_attempt = 0;  ///< first uncommitted attempt index
  bool stopped = false;    ///< stop_flag fired; in-flight attempts drained
  bool cancelled = false;  ///< tick() returned false
  bool aborted = false;    ///< circuit breaker tripped
};

/// The commit point: journal first (write-ahead of every in-memory
/// consumer), then trace, metrics, estimator and profiler, then the entry
/// point's own commit. Journal append and fsync flush are timed here for
/// both entry points.
bool commit_attempt(const CampaignConfig& config, const Schedule& schedule,
                    const PendingTrial& ready) {
  using Clock = std::chrono::steady_clock;
  const JournalRecord& record = ready.record;
  double journal_seconds = 0.0;
  double flush_seconds = 0.0;
  if (schedule.journal != nullptr) {
    if (config.profiler != nullptr) {
      const auto journal_start = Clock::now();
      schedule.journal->append(record);
      flush_seconds = schedule.journal->last_fsync_seconds();
      journal_seconds =
          std::chrono::duration<double>(Clock::now() - journal_start)
              .count() -
          flush_seconds;
    } else {
      schedule.journal->append(record);
    }
  }
  if (config.trace != nullptr) {
    config.trace->trial(make_trial_trace(record.trial, record.attempt_index,
                                         ready.ts_ms, ready.slot));
  }
  if (config.metrics != nullptr) {
    feed_metrics(*config.metrics, record.trial, /*replayed=*/false);
  }
  if (config.estimator != nullptr) {
    feed_estimator(*config.estimator, record.trial);
  }
  if (config.profiler != nullptr) {
    const double rob_wait =
        std::chrono::duration<double>(Clock::now() - ready.reaped_at).count();
    config.profiler->trial(make_trial_profile(record.trial,
                                              record.attempt_index, rob_wait,
                                              journal_seconds, flush_seconds));
  }
  return schedule.commit(record, ready.output);
}

/// The multi-worker scheduler behind run() and run_range().
///
/// Attempt indices are the campaign's single source of truth: index i's
/// seed is trial_seed_for(seed, i) and its fault model is models[i % M],
/// both independent of execution order. Up to `jobs` attempts run in
/// flight; completions land in `pending` and commit strictly in index
/// order, so --jobs 8, --jobs 1, any resume and any lease split agree
/// bit-for-bit. Attempts launched past the campaign boundary (the loop
/// cannot know in advance which attempt completes the campaign) are killed
/// uncommitted.
///
/// Stop rule: stop_flag drains (no new launches; in-flight attempts finish
/// and commit), a false tick() cancels at once.
ScheduleEnd schedule_attempts(TrialSupervisor& supervisor,
                              const CampaignConfig& config,
                              const Schedule& schedule) {
  using Clock = std::chrono::steady_clock;
  ScheduleEnd out;
  out.next_attempt = schedule.begin;
  if (schedule.begin >= schedule.end) return out;
  const unsigned jobs = std::max(1u, config.jobs);
  supervisor.ensure_slots(jobs);
  std::uint64_t next_index = schedule.begin;  // next fresh attempt
  std::uint64_t& commit_index = out.next_attempt;
  std::set<std::uint64_t> retry_queue;  // infra-failed indices, smallest first
  std::map<std::uint64_t, PendingTrial> pending;
  // Per-slot (attempt index, launch timestamp) of the in-flight trial.
  std::vector<std::optional<std::pair<std::uint64_t, double>>> inflight(jobs);
  std::size_t consecutive_failures = 0;
  auto backoff_until = Clock::now();
  bool boundary = false;
  const auto publish_active = [&] {
    if (config.metrics != nullptr) {
      config.metrics->gauge("campaign.workers_active")
          .set(static_cast<double>(supervisor.active_slots()));
    }
  };

  while (true) {
    // (1) Commit every buffered completion that is next in index order.
    // The boundary is checked only here — the deterministic commit point —
    // never on raw completion order.
    while (commit_index < schedule.end) {
      const auto it = pending.find(commit_index);
      if (it == pending.end()) break;
      const PendingTrial ready = std::move(it->second);
      pending.erase(it);
      ++commit_index;
      boundary = commit_attempt(config, schedule, ready);
      if (boundary) break;
    }
    if (boundary || commit_index >= schedule.end) break;

    // (2) Stop: a stop request drains, a false tick cancels at once
    // (committed records stand; a revoked lease must stop executing).
    if (!out.stopped && config.stop_flag != nullptr &&
        config.stop_flag->load(std::memory_order_relaxed)) {
      out.stopped = true;
    }
    if (schedule.tick && !schedule.tick()) {
      out.cancelled = true;
      break;
    }

    // (3) Launch into free slots: infra-failed retries first (they reuse
    // their original index and therefore their original seed), then fresh
    // indices up to the end of the range.
    if (!out.stopped && !out.aborted && Clock::now() >= backoff_until) {
      while (supervisor.active_slots() < jobs) {
        const bool from_retry = !retry_queue.empty();
        std::uint64_t index = 0;
        if (from_retry) {
          index = *retry_queue.begin();
        } else if (next_index < schedule.end) {
          index = next_index;
        } else {
          break;  // every index is committed, pending, or in flight
        }
        unsigned slot = 0;
        while (slot < jobs && supervisor.slot_active(slot)) ++slot;
        assert(slot < jobs);

        TrialConfig trial;
        trial.trial_seed = trial_seed_for(config.seed, index);
        trial.model = config.models[index % config.models.size()];
        trial.policy = config.policy;
        trial.earliest_fraction = config.earliest_fraction;
        trial.latest_fraction = config.latest_fraction;

        const double ts_ms =
            config.trace != nullptr ? config.trace->now_ms() : 0.0;
        try {
          supervisor.start_trial(slot, trial);
        } catch (const std::exception& error) {
          // Infrastructure failure (fork, not a trial outcome): back off
          // exponentially and retry the same index; K consecutive ones
          // trip the circuit breaker. One completion anywhere resets the
          // count, so a transient stretch does not accumulate forever —
          // while a genuinely wedged host still trips it even with other
          // slots busy.
          ++consecutive_failures;
          if (config.metrics != nullptr) {
            config.metrics->counter("campaign.infra_failures").inc();
          }
          util::log_warn() << schedule.label
                           << ": trial infrastructure failure ("
                           << consecutive_failures << "/"
                           << config.max_consecutive_failures
                           << "): " << error.what();
          retry_queue.insert(index);
          if (!from_retry) ++next_index;
          if (consecutive_failures >= config.max_consecutive_failures) {
            out.aborted = true;
          } else {
            const unsigned doublings = static_cast<unsigned>(
                std::min<std::size_t>(consecutive_failures - 1, 10));
            backoff_until =
                Clock::now() +
                std::chrono::milliseconds(
                    static_cast<std::uint64_t>(
                        config.retry_backoff_initial_ms)
                    << doublings);
          }
          break;
        }
        if (from_retry) {
          retry_queue.erase(retry_queue.begin());
        } else {
          ++next_index;
        }
        inflight[slot] = {{index, ts_ms}};
      }
      publish_active();
    }

    // (4) Nothing in flight: wind down after a drain or an abort, or wait
    // out a retry backoff. (Otherwise every index left is buffered in
    // `pending` and step (1) ends the loop.)
    if (supervisor.active_slots() == 0) {
      if (out.stopped || out.aborted) break;
      const auto now = Clock::now();
      if (now < backoff_until) {
        // Sleep in small steps so a stop request stays responsive.
        std::this_thread::sleep_for(
            std::min(std::chrono::duration_cast<std::chrono::milliseconds>(
                         backoff_until - now),
                     std::chrono::milliseconds(10)));
      }
      continue;
    }

    // (5) Reap: buffer completions for the commit point; any completion
    // proves the fork machinery works again.
    std::vector<SlotCompletion> done = supervisor.poll_slots();
    if (done.empty()) {
      supervisor.wait_for_completion();
      continue;
    }
    consecutive_failures = 0;
    for (SlotCompletion& completion : done) {
      assert(inflight[completion.slot].has_value());
      const auto [index, ts_ms] = *inflight[completion.slot];
      inflight[completion.slot].reset();
      PendingTrial entry;
      entry.record.attempt_index = index;
      entry.record.trial = std::move(completion.result);
      entry.ts_ms = ts_ms;
      entry.slot = completion.slot;
      if (schedule.capture_output &&
          (entry.record.trial.outcome == Outcome::kMasked ||
           entry.record.trial.outcome == Outcome::kSdc)) {
        const auto output = supervisor.slot_output(completion.slot);
        entry.output.assign(output.begin(), output.end());
      }
      if (config.profiler != nullptr) entry.reaped_at = Clock::now();
      pending.emplace(index, std::move(entry));
    }
    publish_active();
  }

  // Kill speculative attempts past the boundary, and anything still in
  // flight on cancel or abort: never committed, so the commit boundary is
  // identical for every jobs value.
  supervisor.kill_active_slots();
  if (config.metrics != nullptr) {
    config.metrics->gauge("campaign.workers_active").set(0.0);
  }
  return out;
}

}  // namespace

CampaignBoundary campaign_boundary(const CampaignConfig& config,
                                   std::uint64_t injected, std::uint64_t sdc) {
  if (injected >= config.trials) return CampaignBoundary::kTrialCount;
  if (config.stop_ci_width > 0.0 && injected > 0 &&
      util::wilson_interval(sdc, injected).half_width() <=
          config.stop_ci_width) {
    return CampaignBoundary::kPrecisionTarget;
  }
  return CampaignBoundary::kNone;
}

telemetry::EstimatorOutcome to_estimator_outcome(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSdc: return telemetry::EstimatorOutcome::kSdc;
    case Outcome::kDue: return telemetry::EstimatorOutcome::kDue;
    case Outcome::kMasked:
    case Outcome::kNotInjected: break;
  }
  return telemetry::EstimatorOutcome::kMasked;
}

void OutcomeTally::add(Outcome outcome) {
  switch (outcome) {
    case Outcome::kMasked: ++masked; break;
    case Outcome::kSdc: ++sdc; break;
    case Outcome::kDue: ++due; break;
    case Outcome::kNotInjected: break;
  }
}

OutcomeTally& OutcomeTally::operator+=(const OutcomeTally& other) {
  masked += other.masked;
  sdc += other.sdc;
  due += other.due;
  return *this;
}

void accumulate_trial(CampaignResult& result, const TrialResult& trial) {
  result.total_seconds += trial.seconds;
  if (trial.outcome == Outcome::kNotInjected) {
    ++result.not_injected;
    return;
  }
  result.overall.add(trial.outcome);
  if (trial.outcome == Outcome::kDue) {
    ++result.due_kinds[std::string(to_string(trial.due_kind))];
  }
  result.by_model[static_cast<std::size_t>(trial.record.model)].add(
      trial.outcome);
  if (trial.window < result.by_window.size()) {
    result.by_window[trial.window].add(trial.outcome);
  }
  if (trial.record.injected) {
    result.by_category[trial.record.category].add(trial.outcome);
    result
        .by_frame[trial.record.frame == FrameKind::kWorker ? "worker"
                                                           : "global"]
        .add(trial.outcome);
  }
  result.trials.push_back(trial);
}

std::uint64_t trial_seed_for(std::uint64_t campaign_seed,
                             std::uint64_t attempt_index) {
  // SplitMix64 whitening of the (seed, index) pair: adjacent indices give
  // statistically independent trial seeds, and any worker can compute any
  // attempt's seed without a shared draw cursor.
  util::SplitMix64 mix(campaign_seed ^
                       (0x9e3779b97f4a7c15ULL * (attempt_index + 1)));
  return mix.next();
}

std::uint64_t campaign_fingerprint(const CampaignConfig& config,
                                   std::string_view workload,
                                   unsigned time_windows) {
  // FNV-1a over every field a resume must agree on.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (char c : workload) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.policy));
  mix(config.models.size());
  for (FaultModel model : config.models) {
    mix(static_cast<std::uint64_t>(model));
  }
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(double));
  std::memcpy(&bits, &config.earliest_fraction, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &config.latest_fraction, sizeof(bits));
  mix(bits);
  mix(config.trials);
  mix(time_windows);
  // Sequential stopping is campaign shape: a resume must halt at the same
  // attempt the uninterrupted run would have, so the epsilon (0.0 =
  // disabled) is part of the identity.
  std::memcpy(&bits, &config.stop_ci_width, sizeof(bits));
  mix(bits);
  // Scheme version: v2 = counter-indexed seeds + attempt-index model
  // cycling; v3 = v2 + stop_ci_width in the fingerprint. Journals from
  // older schemes must not resume into this one.
  // config_.jobs is deliberately NOT mixed: any jobs value may resume any
  // journal.
  mix(3);
  return hash;
}

CampaignResult Campaign::run(const TrialObserver& observer) {
  assert(!config_.models.empty());
  CampaignResult result;
  result.workload = supervisor_->workload_name();
  result.time_windows = supervisor_->time_windows();
  result.by_window.resize(result.time_windows);
  result.trials.reserve(config_.trials);

  const std::uint64_t fingerprint = campaign_fingerprint(
      config_, result.workload, result.time_windows);

  if (config_.metrics != nullptr) {
    config_.metrics->gauge("campaign.trials_target")
        .set(static_cast<double>(config_.trials));
    config_.metrics->gauge("campaign.workers_active").set(0.0);
  }
  if (config_.trace != nullptr) {
    telemetry::TraceCampaign header;
    header.workload = result.workload;
    header.trials = config_.trials;
    header.seed = config_.seed;
    header.policy = std::string(to_string(config_.policy));
    for (FaultModel model : config_.models) {
      header.models.emplace_back(to_string(model));
    }
    header.time_windows = result.time_windows;
    header.resumed = config_.resume;
    header.jobs = std::max(1u, config_.jobs);
    config_.trace->campaign(header);
  }

  // The boundary after the commits so far; re-evaluated after every
  // injected commit, replayed or live (trials = 0 ends before any).
  CampaignBoundary boundary = campaign_boundary(config_, 0, 0);
  const auto commit_boundary = [&] {
    boundary = campaign_boundary(config_, result.overall.total(),
                                 result.overall.sdc);
    return boundary != CampaignBoundary::kNone;
  };

  // Durability: replay an existing journal (resume) and/or open a writer.
  std::unique_ptr<CampaignJournalWriter> journal;
  if (!config_.journal_path.empty()) {
    if (config_.resume) {
      const JournalContents contents = read_journal(config_.journal_path);
      if (contents.header.fingerprint != fingerprint) {
        throw std::runtime_error(
            "campaign resume rejected: journal '" + config_.journal_path +
            "' was written by a different campaign configuration");
      }
      if (contents.dropped_bytes > 0) {
        util::log_warn() << result.workload << ": journal dropped "
                         << contents.dropped_bytes
                         << " bytes of torn tail on resume";
      }
      // Replay in attempt-index order, dropping duplicates: the commit
      // point writes indices contiguously, so after sorting the records
      // must read 0,1,2,... — a repeated index is a duplicate to skip, a
      // gap means everything after it must be re-run.
      std::vector<JournalRecord> records = contents.records;
      std::stable_sort(records.begin(), records.end(),
                       [](const JournalRecord& a, const JournalRecord& b) {
                         return a.attempt_index < b.attempt_index;
                       });
      std::uint64_t expected = 0;
      for (const JournalRecord& record : records) {
        if (boundary != CampaignBoundary::kNone) break;
        if (record.attempt_index < expected) {
          util::log_warn() << result.workload
                           << ": journal duplicate of attempt "
                           << record.attempt_index << " skipped on resume";
          continue;
        }
        if (record.attempt_index > expected) {
          util::log_warn() << result.workload << ": journal gap at attempt "
                           << expected << "; re-running from there";
          break;
        }
        accumulate_trial(result, record.trial);
        // The resumed trace file already holds these trials; only the
        // metrics and estimator (process-local) need the replay.
        if (config_.metrics != nullptr) {
          feed_metrics(*config_.metrics, record.trial, /*replayed=*/true);
        }
        if (config_.estimator != nullptr) {
          feed_estimator(*config_.estimator, record.trial);
        }
        ++expected;
        // Replay walks the same commit boundaries the original run did, so
        // the campaign ends at the identical attempt (stop_ci_width is
        // fingerprinted: the journal cannot carry a different epsilon).
        commit_boundary();
      }
      result.attempts = expected;
      result.resumed_trials = result.overall.total();
      util::log_info() << result.workload << ": resumed "
                       << result.resumed_trials << "/" << config_.trials
                       << " trials from '" << config_.journal_path << "'";
      journal = std::make_unique<CampaignJournalWriter>(
          config_.journal_path, contents.valid_bytes, config_.journal_fsync,
          config_.journal_batch);
    } else {
      JournalHeader header;
      header.fingerprint = fingerprint;
      header.time_windows = result.time_windows;
      header.workload = result.workload;
      header.golden_digest = supervisor_->golden_digest();
      header.golden_seconds = supervisor_->golden_seconds();
      header.golden_output_bytes = supervisor_->golden_output_bytes();
      journal = std::make_unique<CampaignJournalWriter>(
          config_.journal_path, header, config_.journal_fsync,
          config_.journal_batch);
    }
  }

  if (boundary == CampaignBoundary::kNone) {
    Schedule schedule;
    schedule.begin = result.attempts;
    schedule.end = config_.trials * (1 + config_.max_retry_factor);
    schedule.journal = journal.get();
    schedule.capture_output = static_cast<bool>(observer);
    schedule.label = result.workload;
    schedule.commit = [&](const JournalRecord& record,
                          std::span<const std::byte> output) {
      accumulate_trial(result, record.trial);
      if (record.trial.outcome == Outcome::kNotInjected) return false;
      if (observer) observer(record.trial, output);
      if (result.overall.total() % 500 == 0) {
        util::log_info() << result.workload << ": "
                         << result.overall.total() << "/" << config_.trials
                         << " trials";
      }
      return commit_boundary();
    };
    const ScheduleEnd end =
        schedule_attempts(*supervisor_, config_, schedule);
    result.attempts = end.next_attempt;
    result.interrupted = end.stopped;
    result.aborted = end.aborted;
  }
  result.stopped_early = boundary == CampaignBoundary::kPrecisionTarget;

  const std::uint64_t completed = result.overall.total();
  if (journal != nullptr) journal->sync();
  if (config_.profiler != nullptr) config_.profiler->sync();
  if (config_.trace != nullptr) {
    telemetry::TraceEnd end;
    end.completed = completed;
    end.masked = result.overall.masked;
    end.sdc = result.overall.sdc;
    end.due = result.overall.due;
    end.not_injected = result.not_injected;
    end.interrupted = result.interrupted;
    end.aborted = result.aborted;
    end.stopped_early = result.stopped_early;
    end.elapsed_ms = config_.trace->now_ms();
    end.due_kinds = result.due_kinds;
    config_.trace->end(end);
    config_.trace->sync();
  }
  if (result.stopped_early) {
    util::log_info() << result.workload << ": precision target reached ("
                     << "SDC CI half-width <= " << config_.stop_ci_width
                     << ") after " << completed << "/" << config_.trials
                     << " trials; stopping early";
  } else if (result.interrupted) {
    util::log_warn() << result.workload << ": campaign interrupted after "
                     << completed << "/" << config_.trials
                     << " trials; journal flushed";
  } else if (result.aborted) {
    util::log_warn() << result.workload << ": campaign aborted after "
                     << config_.max_consecutive_failures
                     << " consecutive infrastructure failures";
  } else if (boundary == CampaignBoundary::kNone) {
    util::log_warn() << result.workload << ": campaign stopped after "
                     << result.attempts << " attempts with only " << completed
                     << " injected trials";
  }
  return result;
}

RangeResult Campaign::run_range(std::uint64_t begin, std::uint64_t end,
                                const RangeHooks& hooks) {
  assert(!config_.models.empty());
  RangeResult result;
  Schedule schedule;
  schedule.begin = begin;
  schedule.end = end;
  schedule.journal = hooks.journal;
  schedule.tick = hooks.on_tick;
  schedule.label =
      "range [" + std::to_string(begin) + "," + std::to_string(end) + ")";
  schedule.commit = [&](const JournalRecord& record,
                        std::span<const std::byte>) {
    ++result.committed;
    if (record.trial.outcome != Outcome::kNotInjected) ++result.injected;
    if (hooks.on_commit) hooks.on_commit(record);
    return false;  // the campaign boundary is re-derived at merge time
  };
  const ScheduleEnd loop = schedule_attempts(*supervisor_, config_, schedule);
  result.cancelled = loop.stopped || loop.cancelled;
  result.aborted = loop.aborted;
  return result;
}

}  // namespace phifi::fi
