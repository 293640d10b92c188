//===- dbi/InstallQueue.cpp -----------------------------------------------===//

#include "dbi/InstallQueue.h"

#include <cassert>

using namespace pcc;
using namespace pcc::dbi;

void TraceInstallQueue::addJob(std::vector<uint32_t> Starts, JobFn Fn) {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (uint32_t Start : Starts) {
    assert(!JobOfStart.count(Start) && "duplicate payload job");
    JobOfStart.emplace(Start, Jobs.size());
  }
  Jobs.push_back(Job{std::move(Fn), JobState::Unclaimed, {}});
}

bool TraceInstallQueue::runNextJob() {
  size_t Index;
  JobFn Fn;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (NextScan != Jobs.size() &&
           Jobs[NextScan].State != JobState::Unclaimed)
      ++NextScan;
    if (NextScan == Jobs.size())
      return false;
    Index = NextScan++;
    Jobs[Index].State = JobState::Claimed;
    ++InFlight;
    ++Sched.ChunksClaimed;
    Fn = std::move(Jobs[Index].Fn);
  }
  std::vector<ReadyTrace> Results = Fn(); // Outside the lock.
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Jobs[Index].Results = std::move(Results);
    Jobs[Index].State = JobState::Published;
    ++Sched.ChunksPublished;
    --InFlight;
  }
  Advanced.notify_all();
  return true;
}

std::vector<ReadyTrace> TraceInstallQueue::drainReady() {
  std::vector<ReadyTrace> Out;
  std::unique_lock<std::mutex> Lock(Mutex);
  for (Job &J : Jobs) {
    if (J.State != JobState::Published)
      continue;
    for (ReadyTrace &R : J.Results)
      Out.push_back(std::move(R));
    J.Results.clear();
    J.State = JobState::Consumed;
  }
  return Out;
}

std::vector<ReadyTrace> TraceInstallQueue::takeFor(uint32_t GuestStart) {
  std::unique_lock<std::mutex> Lock(Mutex);
  auto It = JobOfStart.find(GuestStart);
  if (It == JobOfStart.end())
    return {};
  Job &J = Jobs[It->second];
  switch (J.State) {
  case JobState::Unclaimed:
    // Withdraw: the engine needs the trace *now*; validating just that
    // one inline is exactly the synchronous path, and consuming the job
    // keeps a worker from repeating the work. The chunk-mates fall back
    // to the same inline path at their own first executions.
    J.State = JobState::Consumed;
    J.Fn = nullptr;
    ++Sched.ChunksWithdrawn;
    return {};
  case JobState::Claimed:
    // A worker is mid-validation. Do not wait for it: the workers may
    // run at background priority, so blocking here would invert
    // priorities and stall the run behind arbitrary external load. The
    // caller validates its one trace inline — duplicate host-side work
    // on immutable bytes, invisible to the cost model — and the
    // worker's result is simply never consumed for that trace.
    ++Sched.ChunksInFlightSkipped;
    return {};
  case JobState::Published:
    break;
  case JobState::Consumed:
    return {};
  }
  J.State = JobState::Consumed;
  return std::move(J.Results);
}

void TraceInstallQueue::cancelPending() {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (Job &J : Jobs) {
    if (J.State != JobState::Unclaimed)
      continue;
    J.State = JobState::Consumed;
    J.Fn = nullptr;
  }
}

void TraceInstallQueue::waitInFlight() {
  std::unique_lock<std::mutex> Lock(Mutex);
  Advanced.wait(Lock, [this] { return InFlight == 0; });
}

ScheduleStats TraceInstallQueue::scheduleStats() const {
  std::unique_lock<std::mutex> Lock(Mutex);
  return Sched;
}
