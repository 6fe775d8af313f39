#include "rdd/job_manager.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "mem/memory_manager.h"
#include "rdd/context.h"
#include "sim/cluster_metrics.h"

namespace shark {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

struct JobManager::JobRun {
  JobSpec spec;
  JobState state;
  TraceCollector trace;
  std::thread thread;
  uint64_t ticket = 0;

  enum class Phase { kNotStarted, kRunning, kParked, kFinished };
  Phase phase = Phase::kNotStarted;  // guarded by mu_
  bool runnable = false;             // guarded by mu_

  Status result;
  bool queued = false;
  double arrival = 0.0;
  double admit = 0.0;
  double finish = 0.0;
  /// Streaming mode stamps Submit() time for wall-clock latency; batch mode
  /// leaves it unset so outcomes stay a pure virtual-time function.
  bool host_timed = false;
  std::chrono::steady_clock::time_point host_start;
};

JobManager::JobManager(ClusterContext* ctx, Options options)
    : ctx_(ctx), options_(options) {
  DagScheduler::CoopHooks hooks;
  hooks.park = [this](JobState* job) { ParkHook(job); };
  hooks.resume = [this](JobState* job) { ResumeHook(job); };
  ctx_->scheduler().set_coop_hooks(std::move(hooks));
}

JobManager::~JobManager() {
  if (started_) Stop();
  ctx_->scheduler().set_coop_hooks(DagScheduler::CoopHooks());
}

// ---- Baton protocol --------------------------------------------------------
//
// Exactly one thread — the driver or one job thread — executes between any
// two handoffs, and every handoff passes through mu_, so all engine state is
// mutex-ordered even though no engine structure carries its own lock.

void JobManager::ResumeUntilBlocked(JobRun* run) {
  std::unique_lock<std::mutex> lk(mu_);
  if (run->phase == JobRun::Phase::kNotStarted) {
    run->phase = JobRun::Phase::kRunning;
    run->runnable = true;
    run->thread = std::thread([this, run] { JobThreadMain(run); });
  } else if (run->phase == JobRun::Phase::kFinished) {
    return;
  } else {
    run->runnable = true;
    cv_.notify_all();
  }
  cv_.wait(lk, [run] { return !run->runnable; });
}

void JobManager::JobThreadMain(JobRun* run) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [run] { return run->runnable; });
  }
  SetCurrentJobState(&run->state);
  Status status = run->spec.body ? run->spec.body() : Status::OK();
  // The body's RDD graphs died with it; drop the shuffles nothing reaches
  // any more while this thread still holds the baton.
  ctx_->scheduler().ReleaseDeadShuffles();
  // Reading the clock without the lock is safe: the driver is blocked until
  // this thread parks or finishes, and the handoff synchronizes through mu_.
  const double finish = ctx_->now();
  SetCurrentJobState(nullptr);
  std::lock_guard<std::mutex> lk(mu_);
  run->result = std::move(status);
  run->finish = finish;
  run->phase = JobRun::Phase::kFinished;
  run->runnable = false;
  cv_.notify_all();
}

void JobManager::ParkHook(JobState* job) {
  std::unique_lock<std::mutex> lk(mu_);
  JobRun* run = by_state_.at(job);
  run->phase = JobRun::Phase::kParked;
  run->runnable = false;
  cv_.notify_all();
  cv_.wait(lk, [run] { return run->runnable; });
  run->phase = JobRun::Phase::kRunning;
}

void JobManager::ResumeHook(JobState* job) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = by_state_.find(job);
  if (it == by_state_.end()) return;
  JobRun* run = it->second;
  if (run->phase == JobRun::Phase::kFinished) return;
  run->runnable = true;
  cv_.notify_all();
  cv_.wait(lk, [run] { return !run->runnable; });
}

// ---- Admission -------------------------------------------------------------

bool JobManager::CanAdmit(const JobRun& run, size_t running_count,
                          std::string* deny_reason) const {
  if (options_.max_concurrent > 0 &&
      running_count >= static_cast<size_t>(options_.max_concurrent)) {
    *deny_reason = "concurrency";
    return false;
  }
  if (run.spec.mem_demand_bytes > 0 &&
      run.spec.mem_demand_bytes >
          ctx_->memory_manager().AdmissionHeadroomBytes()) {
    *deny_reason = "memory";
    return false;
  }
  return true;
}

void JobManager::Admit(JobRun* run) {
  const double now = ctx_->now();
  run->admit = now;
  run->state.job_seq = next_job_seq_++;
  run->state.label = run->spec.label;
  run->state.weight = run->spec.weight > 0 ? run->spec.weight : 1.0;
  run->state.cooperative = true;
  run->state.trace = &run->trace;
  run->trace.set_query_id(run->spec.query_id);
  ctx_->memory_manager().ReserveAdmission(run->spec.mem_demand_bytes);
  ctx_->metrics().OnJobAdmitted(now - run->arrival);
  {
    std::lock_guard<std::mutex> lk(mu_);
    by_state_[&run->state] = run;
  }
  ResumeUntilBlocked(run);
}

JobOutcome JobManager::Reap(JobRun* run) {
  if (run->thread.joinable()) run->thread.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    by_state_.erase(&run->state);
  }
  ctx_->memory_manager().ReleaseAdmission(run->spec.mem_demand_bytes);
  ctx_->metrics().OnJobFinished(run->result.ok(), run->finish - run->admit);
  JobOutcome out;
  out.label = run->spec.label;
  out.query_id = run->spec.query_id;
  out.session = run->spec.session;
  out.status = run->result;
  out.queued = run->queued;
  out.arrival_vtime = run->arrival;
  out.admit_vtime = run->admit;
  out.finish_vtime = run->finish;
  if (run->host_timed) {
    out.host_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - run->host_start)
                           .count();
  }
  if (options_.collect_query_metrics) {
    // Driver thread, event-loop order: the virtual quantities are
    // deterministic; host latency (streaming only) feeds a histogram that
    // batch-mode expositions never see.
    ctx_->metrics().OnQueryComplete(run->spec.session, run->result.ok(),
                                    run->finish - run->arrival,
                                    run->admit - run->arrival,
                                    out.host_seconds);
  }
  return out;
}

bool JobManager::AdmitAndReap(std::deque<JobRun*>* queue,
                              std::deque<JobRun*>* arrivals,
                              std::vector<JobRun*>* running,
                              const std::function<void(JobRun*)>& on_done) {
  bool progressed = false;
  // Reap first: finished jobs free admission headroom for the queue.
  for (auto it = running->begin(); it != running->end();) {
    JobRun* run = *it;
    bool done;
    {
      std::lock_guard<std::mutex> lk(mu_);
      done = run->phase == JobRun::Phase::kFinished;
    }
    if (done) {
      it = running->erase(it);
      on_done(run);
      progressed = true;
    } else {
      ++it;
    }
  }
  // Queued jobs go strictly before newer arrivals (FIFO); the queue head is
  // force-admitted when nothing runs, so admission can never deadlock.
  for (;;) {
    std::string reason;
    if (!queue->empty()) {
      JobRun* run = queue->front();
      if (CanAdmit(*run, running->size(), &reason) || running->empty()) {
        queue->pop_front();
        Admit(run);
        running->push_back(run);
        progressed = true;
        continue;
      }
    }
    if (!arrivals->empty()) {
      JobRun* run = arrivals->front();
      arrivals->pop_front();
      std::string why;
      if (queue->empty() &&
          (CanAdmit(*run, running->size(), &why) || running->empty())) {
        Admit(run);
        running->push_back(run);
      } else {
        // Admissible on its own merits but behind queued jobs: that is a
        // concurrency deferral, not a memory one.
        if (why.empty()) why = "concurrency";
        run->queued = true;
        ctx_->metrics().OnJobQueued(why);
        queue->push_back(run);
      }
      progressed = true;
      continue;
    }
    break;
  }
  ctx_->metrics().SetJobsRunning(static_cast<int64_t>(running->size()));
  ctx_->metrics().SetJobsQueued(static_cast<int64_t>(queue->size()));
  return progressed;
}

// ---- Batch mode ------------------------------------------------------------

std::vector<JobOutcome> JobManager::RunJobs(std::vector<JobSpec> specs) {
  SHARK_CHECK(!started_);  // batch and streaming modes are exclusive
  const size_t n = specs.size();
  std::vector<std::unique_ptr<JobRun>> owned;
  owned.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto run = std::make_unique<JobRun>();
    run->spec = std::move(specs[i]);
    run->ticket = i;
    run->arrival = std::max(run->spec.arrival_vtime, ctx_->now());
    owned.push_back(std::move(run));
  }
  std::vector<JobRun*> order;
  order.reserve(n);
  for (auto& run : owned) order.push_back(run.get());
  std::stable_sort(order.begin(), order.end(),
                   [](const JobRun* a, const JobRun* b) {
                     return a->arrival < b->arrival;
                   });

  size_t next_arrival = 0;
  std::deque<JobRun*> queue;
  std::deque<JobRun*> arrivals;
  std::vector<JobRun*> running;
  std::vector<JobOutcome> outcomes(n);
  size_t finished = 0;

  while (finished < n) {
    while (next_arrival < n && order[next_arrival]->arrival <= ctx_->now()) {
      arrivals.push_back(order[next_arrival++]);
    }
    if (AdmitAndReap(&queue, &arrivals, &running, [&](JobRun* run) {
          outcomes[run->ticket] = Reap(run);
          ++finished;
        })) {
      continue;
    }
    const double limit = next_arrival < n ? order[next_arrival]->arrival : kInf;
    Result<DagScheduler::DriveResult> step = ctx_->scheduler().DriveOnce(limit);
    SHARK_CHECK(step.ok());  // scheduling errors fail individual sets
    switch (step.value()) {
      case DagScheduler::DriveResult::kProcessed:
        break;
      case DagScheduler::DriveResult::kDeferred:
      case DagScheduler::DriveResult::kIdle:
        // The next event (if any) lies beyond the next arrival, or nothing
        // is in flight: advance the open-loop clock to that arrival. An
        // unfinished job always implies a future arrival here — running
        // jobs are parked on active sets, and an unadmittable queue head
        // would have been force-admitted above.
        SHARK_CHECK(next_arrival < n);
        ctx_->AdvanceTo(order[next_arrival]->arrival);
        break;
    }
  }
  return outcomes;
}

// ---- Streaming mode --------------------------------------------------------

void JobManager::Start() {
  SHARK_CHECK(!started_);
  started_ = true;
  stop_requested_ = false;
  driver_ = std::thread([this] { StreamLoop(); });
}

uint64_t JobManager::Submit(JobSpec spec) {
  std::lock_guard<std::mutex> lk(mu_);
  auto run = std::make_unique<JobRun>();
  run->ticket = next_ticket_++;
  run->spec = std::move(spec);
  run->host_timed = true;
  run->host_start = std::chrono::steady_clock::now();
  const uint64_t ticket = run->ticket;
  inbox_.push_back(std::move(run));
  cv_.notify_all();
  return ticket;
}

JobOutcome JobManager::Await(uint64_t ticket) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return done_outcomes_.count(ticket) > 0; });
  auto it = done_outcomes_.find(ticket);
  JobOutcome out = std::move(it->second);
  done_outcomes_.erase(it);
  return out;
}

void JobManager::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_requested_ = true;
    cv_.notify_all();
  }
  if (driver_.joinable()) driver_.join();
  started_ = false;
  // Any inspection that raced the shutdown runs here: the engine is
  // quiescent once the driver has joined.
  std::deque<InspectReq*> leftovers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftovers.swap(inspects_);
  }
  for (InspectReq* req : leftovers) {
    (*req->fn)();
    std::lock_guard<std::mutex> lk(mu_);
    req->done = true;
    cv_.notify_all();
  }
}

void JobManager::Inspect(const std::function<void()>& fn) {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (started_) {
      InspectReq req{&fn, false};
      inspects_.push_back(&req);
      cv_.notify_all();
      cv_.wait(lk, [&req] { return req.done; });
      return;
    }
  }
  // Batch / idle mode: no driver thread owns the engine, the caller does.
  fn();
}

void JobManager::StreamLoop() {
  std::vector<std::unique_ptr<JobRun>> owned;
  std::deque<JobRun*> queue;
  std::deque<JobRun*> arrivals;
  std::vector<JobRun*> running;
  for (;;) {
    std::deque<InspectReq*> inspections;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [&] {
        return !inbox_.empty() || !running.empty() || !queue.empty() ||
               !arrivals.empty() || !inspects_.empty() || stop_requested_;
      });
      while (!inbox_.empty()) {
        owned.push_back(std::move(inbox_.front()));
        inbox_.pop_front();
        JobRun* run = owned.back().get();
        // Streaming arrivals are stamped with the clock at dequeue; the
        // driver holds the baton here, so the read is race-free.
        run->arrival = ctx_->now();
        arrivals.push_back(run);
      }
      inspections.swap(inspects_);
      if (stop_requested_ && inspections.empty() && arrivals.empty() &&
          queue.empty() && running.empty()) {
        break;  // fully drained
      }
    }
    // Inspections run with the baton held by this thread and every job
    // thread parked, so they can read any engine state race-free.
    for (InspectReq* req : inspections) {
      (*req->fn)();
      std::lock_guard<std::mutex> lk(mu_);
      req->done = true;
      cv_.notify_all();
    }
    const bool progressed =
        AdmitAndReap(&queue, &arrivals, &running, [&](JobRun* run) {
          const uint64_t ticket = run->ticket;
          JobOutcome out = Reap(run);
          owned.erase(std::find_if(owned.begin(), owned.end(),
                                   [run](const std::unique_ptr<JobRun>& p) {
                                     return p.get() == run;
                                   }));
          std::lock_guard<std::mutex> lk(mu_);
          done_outcomes_[ticket] = std::move(out);
          cv_.notify_all();
        });
    if (progressed) continue;
    if (running.empty()) continue;  // idle: back to waiting for submissions
    Result<DagScheduler::DriveResult> step = ctx_->scheduler().DriveOnce(kInf);
    SHARK_CHECK(step.ok());
    // kDeferred cannot happen with an infinite limit; kIdle is a transient
    // right after the last running job finishes (reaped on the next pass).
  }
}

}  // namespace shark
