#include "cluster/simulator.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "observability/stats.h"

namespace slider {
namespace {

constexpr SimDuration kNever = std::numeric_limits<SimDuration>::infinity();

// Process-wide scheduler event counters (one registry add per event; the
// per-stage tallies live in StageResult).
struct SchedulerInstruments {
  obs::Counter& speculative_reexecutions;
  obs::Counter& task_retries;
  obs::Counter& machines_blacklisted;
  obs::Counter& failures_injected;
};

SchedulerInstruments& instruments() {
  static SchedulerInstruments* inst = [] {
    obs::StatsRegistry& stats = obs::StatsRegistry::global();
    return new SchedulerInstruments{
        stats.counter("scheduler.speculative_reexecutions"),
        stats.counter("scheduler.task_retries"),
        stats.counter("scheduler.machines_blacklisted"),
        stats.counter("faults.injected"),
    };
  }();
  return *inst;
}

struct Slot {
  MachineId machine;
  SimDuration free_at;
};

// Earliest-available slot, ties broken by machine id for determinism.
std::size_t earliest_slot(const std::vector<Slot>& slots) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].free_at < slots[best].free_at) best = i;
  }
  return best;
}

// Earliest slot on one machine; slots are laid out machine-major.
std::size_t earliest_slot_on(const std::vector<Slot>& slots, MachineId machine,
                             int slots_per_machine) {
  const std::size_t base =
      static_cast<std::size_t>(machine) * static_cast<std::size_t>(slots_per_machine);
  std::size_t best = base;
  for (std::size_t i = base + 1; i < base + static_cast<std::size_t>(slots_per_machine);
       ++i) {
    if (slots[i].free_at < slots[best].free_at) best = i;
  }
  return best;
}

// Earliest slot NOT on the given machine; returns the machine's own slot
// when the cluster has nowhere else to run (single machine).
std::size_t earliest_slot_excluding(const std::vector<Slot>& slots,
                                    MachineId excluded,
                                    int slots_per_machine) {
  std::size_t best = slots.size();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].machine == excluded) continue;
    if (best == slots.size() || slots[i].free_at < slots[best].free_at) {
      best = i;
    }
  }
  if (best == slots.size()) {
    return earliest_slot_on(slots, excluded, slots_per_machine);
  }
  return best;
}

}  // namespace

StageResult StageSimulator::run_stage(std::span<const SimTask> tasks,
                                      SchedulePolicy policy,
                                      const HybridOptions& hybrid,
                                      StageTimeline* timeline,
                                      const StageFaultPlan* faults) const {
  if (faults != nullptr && !faults->empty()) {
    return run_stage_faulty(tasks, policy, hybrid, timeline, *faults);
  }
  if (timeline != nullptr) {
    timeline->clear();
    timeline->reserve(tasks.size());
  }
  const int spm = cluster_->slots_per_machine();
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(cluster_->num_machines() * spm));
  for (MachineId m = 0; m < cluster_->num_machines(); ++m) {
    for (int s = 0; s < spm; ++s) slots.push_back({m, 0.0});
  }

  // Longest-processing-time-first gives stable, near-optimal packing and
  // mirrors Hadoop's tendency to schedule big tasks early in a wave.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].duration > tasks[b].duration;
  });

  StageResult result;
  result.attempts = tasks.size();  // fault-free: exactly one attempt per task
  result.max_attempts_seen = tasks.empty() ? 0 : 1;
  for (const std::size_t idx : order) {
    const SimTask& task = tasks[idx];
    std::size_t chosen;
    bool migrated = false;

    if (task.preferred < 0 || policy == SchedulePolicy::kFirstFree) {
      chosen = earliest_slot(slots);
      migrated = task.preferred >= 0 && slots[chosen].machine != task.preferred;
    } else if (policy == SchedulePolicy::kPreferredOnly) {
      chosen = earliest_slot_on(slots, task.preferred, spm);
    } else {  // kHybrid
      // Compare estimated completion on the memo-local machine against the
      // best remote alternative (which pays the data-fetch penalty), and
      // migrate only when the remote finish beats local by more than the
      // patience tolerance. This covers both backed-up queues and
      // stragglers in one rule.
      const std::size_t preferred_slot =
          earliest_slot_on(slots, task.preferred, spm);
      const std::size_t other_slot =
          earliest_slot_excluding(slots, task.preferred, spm);
      const SimDuration pref_finish =
          slots[preferred_slot].free_at +
          task.duration * cluster_->duration_factor(task.preferred);
      const SimDuration other_finish =
          slots[other_slot].free_at +
          task.duration * cluster_->duration_factor(slots[other_slot].machine) +
          task.migration_penalty;
      const SimDuration tolerance =
          hybrid.patience_floor + hybrid.patience_factor * task.duration;
      if (slots[other_slot].machine != task.preferred &&
          other_finish + tolerance < pref_finish) {
        chosen = other_slot;
        migrated = true;
      } else {
        chosen = preferred_slot;
      }
    }

    Slot& slot = slots[chosen];
    SimDuration effective =
        task.duration * cluster_->duration_factor(slot.machine);
    if (migrated) {
      effective += task.migration_penalty;
      ++result.migrations;
    }
    const SimDuration start = slot.free_at;
    slot.free_at += effective;
    result.work += effective;
    const std::size_t primary_timeline_index =
        timeline != nullptr ? timeline->size() : 0;
    if (timeline != nullptr) {
      timeline->push_back(TaskPlacement{.task = idx,
                                        .machine = slot.machine,
                                        .start = start,
                                        .end = slot.free_at,
                                        .migrated = migrated});
    }

    // Straggler speculation (§6 / Table 1, kHybrid only): if the primary
    // copy landed on a machine at or beyond the slowdown threshold, launch
    // a backup on the earliest slot of another machine. Whichever copy
    // finishes first wins; the loser is killed at that moment, so it only
    // occupies its slot (and bills work) up to the winner's finish time.
    if (policy == SchedulePolicy::kHybrid && hybrid.speculate_slowdown > 0 &&
        cluster_->duration_factor(slot.machine) >= hybrid.speculate_slowdown &&
        cluster_->num_machines() > 1) {
      const std::size_t backup_idx =
          earliest_slot_excluding(slots, slot.machine, spm);
      Slot& backup = slots[backup_idx];
      if (backup.machine != slot.machine) {
        SimDuration backup_effective =
            task.duration * cluster_->duration_factor(backup.machine);
        if (backup.machine != task.preferred) {
          backup_effective += task.migration_penalty;
        }
        const SimDuration backup_start = backup.free_at;
        const SimDuration backup_end = backup_start + backup_effective;
        const SimDuration primary_end = slot.free_at;
        ++result.speculative_launched;
        // Every backup is a speculative re-execution of already-scheduled
        // work; the launch is counted regardless of which copy wins.
        instruments().speculative_reexecutions.add();
        if (backup_end < primary_end) {
          // Backup wins: the primary is killed when the backup finishes.
          ++result.speculative_wins;
          const SimDuration primary_ran = backup_end - start;
          result.work -= (primary_end - start);  // undo full primary charge
          result.work += primary_ran;            // primary until killed
          result.work += backup_effective;
          slot.free_at = backup_end;  // slot freed at the kill
          backup.free_at = backup_end;
          if (timeline != nullptr) {
            (*timeline)[primary_timeline_index].end = backup_end;
            timeline->push_back(TaskPlacement{.task = idx,
                                              .machine = backup.machine,
                                              .start = backup_start,
                                              .end = backup_end,
                                              .migrated =
                                                  backup.machine !=
                                                  task.preferred,
                                              .speculative = true});
          }
        } else {
          // Primary wins: the backup is killed at the primary's finish.
          const SimDuration backup_ran =
              std::max<SimDuration>(0, primary_end - backup_start);
          result.work += backup_ran;
          backup.free_at = backup_start + backup_ran;
          if (timeline != nullptr && backup_ran > 0) {
            timeline->push_back(TaskPlacement{.task = idx,
                                              .machine = backup.machine,
                                              .start = backup_start,
                                              .end = backup.free_at,
                                              .migrated =
                                                  backup.machine !=
                                                  task.preferred,
                                              .speculative = true});
          }
        }
      }
    }
  }
  // Makespan is computed at the end rather than incrementally: speculation
  // kills can rewind a slot's free_at, so the running max would overstate.
  for (const Slot& slot : slots) {
    result.makespan = std::max(result.makespan, slot.free_at);
  }
  return result;
}

// Fault-aware stage execution. Semantics:
//   * A machine listed in `dead_machines` (failed before the stage began)
//     never receives an attempt.
//   * A machine with a scheduled crash at time T accepts attempts that
//     START before T — the scheduler cannot see the future — but any
//     attempt still running at T is killed there: the placement is recorded
//     with failed=true and end=T, the partial run is billed as work, and
//     the task is re-queued with ready time T + backoff_base * 2^attempt.
//   * An injected attempt failure (attempt_fails predicate) consumes the
//     attempt's full effective duration before failing, counts toward the
//     machine's blacklist threshold, and re-queues the task the same way.
//     The predicate is never consulted on a task's final permitted attempt,
//     so injected failures alone can never exceed the attempt cap.
//   * Final attempts are additionally placed only on slots guaranteed to
//     complete before the machine's crash instant, so a bounded number of
//     attempts always suffices (the chaos schedule keeps at least one
//     machine alive).
// Termination: every crash kill makes the killed machine ineligible for
// all later-starting attempts (free_at is clamped to the crash time, and
// eligibility requires start < crash), so a task can be killed at most once
// per crashing machine; injected failures are capped by max_attempts.
StageResult StageSimulator::run_stage_faulty(std::span<const SimTask> tasks,
                                             SchedulePolicy policy,
                                             const HybridOptions& hybrid,
                                             StageTimeline* timeline,
                                             const StageFaultPlan& plan) const {
  (void)hybrid;  // speculation is disabled under fault injection
  if (timeline != nullptr) {
    timeline->clear();
    timeline->reserve(tasks.size());
  }
  const int spm = cluster_->slots_per_machine();
  const int num_machines = cluster_->num_machines();
  std::vector<Slot> slots;
  slots.reserve(static_cast<std::size_t>(num_machines * spm));
  for (MachineId m = 0; m < num_machines; ++m) {
    for (int s = 0; s < spm; ++s) slots.push_back({m, 0.0});
  }

  // Per-machine crash instant (earliest wins) and stage-local health.
  std::vector<SimDuration> crash_at(static_cast<std::size_t>(num_machines),
                                    kNever);
  for (const StageFaultPlan::Crash& crash : plan.crashes) {
    if (crash.machine < 0 || crash.machine >= num_machines) continue;
    auto& at = crash_at[static_cast<std::size_t>(crash.machine)];
    at = std::min(at, std::max<SimDuration>(0, crash.at));
  }
  for (const MachineId dead : plan.dead_machines) {
    if (dead < 0 || dead >= num_machines) continue;
    crash_at[static_cast<std::size_t>(dead)] = 0;  // start >= 0: never eligible
  }
  std::vector<int> injected_failures(static_cast<std::size_t>(num_machines), 0);
  std::vector<bool> blacklisted(static_cast<std::size_t>(num_machines), false);

  const int max_attempts = std::max(1, plan.max_attempts);

  struct Pending {
    std::size_t task;
    int attempt;
    SimDuration ready;
  };

  // Eligibility: a slot can host an attempt with the given ready time if
  // its machine is alive when the attempt would start. Final attempts must
  // additionally be guaranteed to finish before the machine's crash.
  auto slot_start = [&](const Slot& slot, SimDuration ready) {
    return std::max(slot.free_at, ready);
  };
  auto eligible = [&](const Slot& slot, SimDuration ready, bool honor_blacklist,
                      bool require_completion, SimDuration effective) {
    const auto m = static_cast<std::size_t>(slot.machine);
    if (honor_blacklist && blacklisted[m]) return false;
    const SimDuration start = slot_start(slot, ready);
    if (require_completion) return start + effective <= crash_at[m];
    return start < crash_at[m];
  };
  // Effective duration of `task` on `machine` (straggler factors still
  // apply; crashes and stragglers compose).
  auto effective_on = [&](const SimTask& task, MachineId machine) {
    SimDuration effective = task.duration * cluster_->duration_factor(machine);
    if (task.preferred >= 0 && machine != task.preferred) {
      effective += task.migration_penalty;
    }
    return effective;
  };
  // Earliest-starting eligible slot (ties: lowest slot index, i.e. lowest
  // machine id), optionally restricted to / excluding one machine.
  auto pick_slot = [&](const SimTask& task, SimDuration ready,
                       bool honor_blacklist, bool require_completion,
                       MachineId only_machine,
                       MachineId exclude_machine) -> std::ptrdiff_t {
    std::ptrdiff_t best = -1;
    SimDuration best_start = kNever;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const Slot& slot = slots[i];
      if (only_machine >= 0 && slot.machine != only_machine) continue;
      if (exclude_machine >= 0 && slot.machine == exclude_machine) continue;
      const SimDuration effective = effective_on(task, slot.machine);
      if (!eligible(slot, ready, honor_blacklist, require_completion,
                    effective)) {
        continue;
      }
      const SimDuration start = slot_start(slot, ready);
      if (best < 0 || start < best_start) {
        best = static_cast<std::ptrdiff_t>(i);
        best_start = start;
      }
    }
    return best;
  };

  // Longest-processing-time-first for the initial wave, matching the
  // fault-free path; retries are processed in (ready time, task) order.
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tasks[a].duration > tasks[b].duration;
                   });

  std::vector<Pending> wave;
  wave.reserve(tasks.size());
  for (const std::size_t idx : order) wave.push_back({idx, 0, 0.0});

  StageResult result;
  std::vector<int> attempts_of(tasks.size(), 0);
  std::vector<Pending> next_wave;

  while (!wave.empty()) {
    for (const Pending& pending : wave) {
      const SimTask& task = tasks[pending.task];
      const bool final_attempt = pending.attempt + 1 >= max_attempts;

      // Choose a slot. First attempts follow the configured policy over
      // the eligible slots; retries take the earliest eligible slot (the
      // memoized state may have died with the machine, so locality is no
      // longer worth waiting for). Relaxation ladder when nothing fits:
      // ignore the blacklist, then (final attempts) drop the guaranteed-
      // completion requirement and take the latest-crashing machine.
      std::ptrdiff_t chosen = -1;
      if (pending.attempt == 0 && policy == SchedulePolicy::kPreferredOnly &&
          task.preferred >= 0) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/true,
                           final_attempt, task.preferred, -1);
      } else if (pending.attempt == 0 && policy == SchedulePolicy::kHybrid &&
                 task.preferred >= 0) {
        const std::ptrdiff_t pref =
            pick_slot(task, pending.ready, true, final_attempt, task.preferred,
                      -1);
        const std::ptrdiff_t other =
            pick_slot(task, pending.ready, true, final_attempt, -1,
                      task.preferred);
        if (pref >= 0 && other >= 0) {
          const SimDuration pref_finish =
              slot_start(slots[static_cast<std::size_t>(pref)], pending.ready) +
              task.duration * cluster_->duration_factor(task.preferred);
          const Slot& other_slot = slots[static_cast<std::size_t>(other)];
          const SimDuration other_finish =
              slot_start(other_slot, pending.ready) +
              effective_on(task, other_slot.machine);
          const SimDuration tolerance =
              hybrid.patience_floor + hybrid.patience_factor * task.duration;
          chosen = other_finish + tolerance < pref_finish ? other : pref;
        } else {
          chosen = pref >= 0 ? pref : other;
        }
      }
      if (chosen < 0) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/true,
                           final_attempt, -1, -1);
      }
      if (chosen < 0) {
        chosen = pick_slot(task, pending.ready, /*honor_blacklist=*/false,
                           final_attempt, -1, -1);
      }
      if (chosen < 0 && final_attempt) {
        // No slot can guarantee completion; take the latest-crashing
        // eligible slot and accept a possible further kill (termination is
        // still bounded: each kill removes a machine from eligibility).
        chosen = pick_slot(task, pending.ready, false, false, -1, -1);
        std::ptrdiff_t latest = -1;
        SimDuration latest_crash = -1;
        for (std::size_t i = 0; i < slots.size(); ++i) {
          const SimDuration start = slot_start(slots[i], pending.ready);
          const auto m = static_cast<std::size_t>(slots[i].machine);
          if (start < crash_at[m] && crash_at[m] > latest_crash) {
            latest = static_cast<std::ptrdiff_t>(i);
            latest_crash = crash_at[m];
          }
        }
        if (latest >= 0) chosen = latest;
      }
      SLIDER_CHECK(chosen >= 0)
          << "no eligible slot for task " << pending.task << " attempt "
          << pending.attempt << " (all machines failed?)";

      Slot& slot = slots[static_cast<std::size_t>(chosen)];
      const auto machine = slot.machine;
      const auto m = static_cast<std::size_t>(machine);
      const bool migrated = task.preferred >= 0 && machine != task.preferred;
      const SimDuration effective = effective_on(task, machine);
      const SimDuration start = slot_start(slot, pending.ready);
      const SimDuration nominal_end = start + effective;

      ++result.attempts;
      attempts_of[pending.task] = pending.attempt + 1;
      result.max_attempts_seen =
          std::max(result.max_attempts_seen, pending.attempt + 1);
      if (migrated) ++result.migrations;

      const bool killed_by_crash = nominal_end > crash_at[m];
      const bool injected_failure =
          !killed_by_crash && !final_attempt && plan.attempt_fails &&
          plan.attempt_fails(pending.task, pending.attempt, machine);

      if (killed_by_crash) {
        // The machine dies mid-attempt: bill the partial run, freeze the
        // slot at the crash instant, and re-queue after backoff.
        const SimDuration end = crash_at[m];
        slot.free_at = end;
        result.work += end - start;
        ++result.failed_attempts;
        ++result.task_retries;
        instruments().task_retries.add();
        if (timeline != nullptr) {
          timeline->push_back(TaskPlacement{.task = pending.task,
                                            .machine = machine,
                                            .start = start,
                                            .end = end,
                                            .migrated = migrated,
                                            .attempt = pending.attempt,
                                            .failed = true});
        }
        const SimDuration backoff =
            plan.backoff_base *
            static_cast<SimDuration>(1u << std::min(pending.attempt, 16));
        next_wave.push_back(
            {pending.task, pending.attempt + 1, end + backoff});
      } else if (injected_failure) {
        // The attempt ran to completion and then failed (lost output,
        // poisoned container, ...): full duration billed, machine strikes
        // toward the blacklist, task re-queued.
        slot.free_at = nominal_end;
        result.work += effective;
        ++result.failed_attempts;
        ++result.task_retries;
        instruments().task_retries.add();
        instruments().failures_injected.add();
        if (++injected_failures[m] >= plan.blacklist_threshold &&
            !blacklisted[m]) {
          blacklisted[m] = true;
          ++result.machines_blacklisted;
          instruments().machines_blacklisted.add();
        }
        if (timeline != nullptr) {
          timeline->push_back(TaskPlacement{.task = pending.task,
                                            .machine = machine,
                                            .start = start,
                                            .end = nominal_end,
                                            .migrated = migrated,
                                            .attempt = pending.attempt,
                                            .failed = true});
        }
        const SimDuration backoff =
            plan.backoff_base *
            static_cast<SimDuration>(1u << std::min(pending.attempt, 16));
        next_wave.push_back(
            {pending.task, pending.attempt + 1, nominal_end + backoff});
      } else {
        slot.free_at = nominal_end;
        result.work += effective;
        if (timeline != nullptr) {
          timeline->push_back(TaskPlacement{.task = pending.task,
                                            .machine = machine,
                                            .start = start,
                                            .end = nominal_end,
                                            .migrated = migrated,
                                            .attempt = pending.attempt});
        }
      }
    }
    // Retries run as the next wave, ordered by (ready time, task index)
    // for determinism.
    std::stable_sort(next_wave.begin(), next_wave.end(),
                     [](const Pending& a, const Pending& b) {
                       if (a.ready != b.ready) return a.ready < b.ready;
                       return a.task < b.task;
                     });
    wave.swap(next_wave);
    next_wave.clear();
  }

  for (const int count : attempts_of) {
    result.max_attempts_seen = std::max(result.max_attempts_seen, count);
  }
  for (const Slot& slot : slots) {
    result.makespan = std::max(result.makespan, slot.free_at);
  }
  return result;
}

}  // namespace slider
