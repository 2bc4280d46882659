// Semantics suite for the serving scheduler (core/scheduler.hpp).
//
// The contract under test: the scheduler changes ADMISSION and ORDER, never
// results. Every completed request is bit-identical to the serial plan;
// policy decisions (EDF-within-class, shedding order, tenant quotas,
// coalescing) are asserted deterministically by building queue states under
// pause() and reading back Result::dispatch_seq after resume() — no
// sleep-based ordering guesses, so the suite holds under ASan/UBSan/TSan
// slowdowns.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "request_grids.hpp"
#include "tsv/tsv.hpp"

namespace tsv {
namespace {

const Options kRun = opts(Method::kTranspose, Tiling::kNone, 4);

// ---------------------------------------------------------------------------
// Histogram arithmetic stands alone: counts, mean, interpolated quantiles.
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, QuantilesAndMean) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean_seconds(), 0.0);

  for (int i = 0; i < 900; ++i) h.record(3e-6);   // bucket [2 us, 4 us)
  for (int i = 0; i < 100; ++i) h.record(100e-6); // bucket [64 us, 128 us)
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean_seconds(), (900 * 3e-6 + 100 * 100e-6) / 1000.0, 1e-12);
  // p50 lands in the 3 us bucket, p99 in the 100 us bucket; interpolation
  // stays inside the landing bucket's bounds.
  EXPECT_GE(h.quantile(0.50), 2e-6);
  EXPECT_LE(h.quantile(0.50), 4e-6);
  EXPECT_GE(h.quantile(0.99), 64e-6);
  EXPECT_LE(h.quantile(0.99), 128e-6);
  EXPECT_LE(h.quantile(0.50), h.quantile(0.95));
  EXPECT_LE(h.quantile(0.95), h.quantile(0.99));
  // Degenerate quantiles clamp instead of reading out of range.
  EXPECT_GE(h.quantile(0.0), 0.0);
  EXPECT_LE(h.quantile(1.0), 128e-6);
}

// ---------------------------------------------------------------------------
// The baseline contract: requests complete, results are bit-identical to
// the serial plan, and every counter adds up.
// ---------------------------------------------------------------------------

TEST(Scheduler, CompletesBitIdenticalWithHonestCounters) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  constexpr int kN = 8;
  std::vector<Req> reqs;
  for (int i = 0; i < kN; ++i) {
    reqs.emplace_back(i);
    reqs[static_cast<std::size_t>(i)].fut = sched.submit(
        *reqs[static_cast<std::size_t>(i)].grid,
        StencilSpec{.kind = StencilKind::k1d3p}, kRun,
        i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive);
  }
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  for (int i = 0; i < kN; ++i) {
    const Grid1D<double> expected =
        serial_expected(i, kRun, sched.executor().threads_per_gang());
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0)
        << "request " << i << " diverged from serial Plan::execute";
  }

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.deadline_missed, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
  // Per-class latency: every completion recorded exactly once, in its class.
  EXPECT_EQ(s.latency_of(ServiceClass::kInteractive).count(),
            static_cast<std::uint64_t>(kN / 2));
  EXPECT_EQ(s.latency_of(ServiceClass::kBatch).count(),
            static_cast<std::uint64_t>(kN / 2));
  EXPECT_GT(s.latency_of(ServiceClass::kBatch).mean_seconds(), 0.0);
  // The wrapped executor saw exactly one task per group, nothing queued.
  EXPECT_EQ(s.executor.submitted, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(s.executor.queue_depth, 0u);
  EXPECT_EQ(sched.executor().queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Dispatch order. Build the whole queue under pause(), resume, and read the
// policy's decisions back from Result::dispatch_seq — one gang serializes
// dispatch, so the order is exact, not statistical.
// ---------------------------------------------------------------------------

TEST(Scheduler, EdfOrdersInteractiveFirstThenDeadline) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  Req a(1), b(2), c(3), d(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  a.fut = sched.submit(*a.grid, spec, kRun, ServiceClass::kBatch, 1000.0);
  b.fut = sched.submit(*b.grid, spec, kRun, ServiceClass::kBatch, 100.0);
  c.fut = sched.submit(*c.grid, spec, kRun, ServiceClass::kInteractive);
  d.fut = sched.submit(*d.grid, spec, kRun, ServiceClass::kInteractive, 50.0);
  sched.resume();

  // Interactive bypasses batch; within a class EDF, no deadline sorts last.
  EXPECT_EQ(d.fut.get().dispatch_seq, 0u);
  EXPECT_EQ(c.fut.get().dispatch_seq, 1u);
  EXPECT_EQ(b.fut.get().dispatch_seq, 2u);
  EXPECT_EQ(a.fut.get().dispatch_seq, 3u);
}

TEST(Scheduler, FifoControlPreservesAdmissionOrder) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .policy = SchedPolicy::kFifo});
  sched.pause();
  Req a(1), b(2), c(3), d(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  a.fut = sched.submit(*a.grid, spec, kRun, ServiceClass::kBatch, 1000.0);
  b.fut = sched.submit(*b.grid, spec, kRun, ServiceClass::kBatch, 100.0);
  c.fut = sched.submit(*c.grid, spec, kRun, ServiceClass::kInteractive);
  d.fut = sched.submit(*d.grid, spec, kRun, ServiceClass::kInteractive, 50.0);
  sched.resume();

  EXPECT_EQ(a.fut.get().dispatch_seq, 0u);
  EXPECT_EQ(b.fut.get().dispatch_seq, 1u);
  EXPECT_EQ(c.fut.get().dispatch_seq, 2u);
  EXPECT_EQ(d.fut.get().dispatch_seq, 3u);
}

// ---------------------------------------------------------------------------
// Tenant quotas: a tenant at its in-flight cap is overtaken by other
// tenants' queued work; its backlog resumes as completions free the quota.
// ---------------------------------------------------------------------------

TEST(Scheduler, TenantQuotaLetsOtherTenantsOvertake) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1},
                   .max_inflight_per_tenant = 1});
  sched.pause();
  Req a1(1), a2(2), a3(3), b1(4);
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  a1.fut = sched.submit(*a1.grid, spec, kRun, ServiceClass::kBatch, 0, "a");
  a2.fut = sched.submit(*a2.grid, spec, kRun, ServiceClass::kBatch, 0, "a");
  a3.fut = sched.submit(*a3.grid, spec, kRun, ServiceClass::kBatch, 0, "a");
  b1.fut = sched.submit(*b1.grid, spec, kRun, ServiceClass::kBatch, 0, "b");
  // resume dispatches both gangs' worth under ONE lock hold: a1 first
  // (admission order), then b1 — a2/a3 are at tenant a's quota. The peak
  // gauge is therefore exactly 1 before any completion can race it.
  sched.resume();

  EXPECT_EQ(a1.fut.get().dispatch_seq, 0u);
  EXPECT_EQ(b1.fut.get().dispatch_seq, 1u);
  const Scheduler::Result ra2 = a2.fut.get();
  const Scheduler::Result ra3 = a3.fut.get();
  EXPECT_EQ(ra2.dispatch_seq, 2u);
  EXPECT_EQ(ra3.dispatch_seq, 3u);
  sched.wait_idle();
  EXPECT_EQ(sched.stats().peak_tenant_inflight, 1u);
}

// ---------------------------------------------------------------------------
// Coalescing: identical (spec, shape, options, contents) submissions against
// a queued leader become ONE executor task; every waiter's grid gets the
// leader's bits. Grid contents are walked as bytes through GridRef, so every
// rank and dtype shares one digest/compare/copy path — the suite runs all
// six grid types through it.
// ---------------------------------------------------------------------------

template <typename G>
void expect_coalesces(const Options& run) {
  SCOPED_TRACE(::testing::Message()
               << "rank " << G::kRank << ", "
               << dtype_name(dtype_of<typename G::value_type>()));
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  constexpr int kWaiters = 4;  // one leader + 3 followers, same salt
  std::vector<ReqOf<G>> reqs;
  const StencilSpec spec = spec_of_rank<G::kRank>();
  for (int i = 0; i < kWaiters; ++i) {
    reqs.emplace_back(7);
    reqs[static_cast<std::size_t>(i)].fut =
        sched.submit(*reqs[static_cast<std::size_t>(i)].grid, spec, run,
                     ServiceClass::kBatch);
  }
  sched.resume();

  std::uint64_t leader_seq = 0;
  for (int i = 0; i < kWaiters; ++i) {
    const Scheduler::Result r = reqs[static_cast<std::size_t>(i)].fut.get();
    if (i == 0) {
      EXPECT_FALSE(r.coalesced);
      leader_seq = r.dispatch_seq;
    } else {
      EXPECT_TRUE(r.coalesced);
      EXPECT_EQ(r.dispatch_seq, leader_seq);  // one group, one dispatch
    }
  }
  const G expected =
      serial_expected<G>(7, run, sched.executor().threads_per_gang());
  for (auto& r : reqs)
    EXPECT_EQ(max_abs_diff(expected, *r.grid), 0)
        << "a coalesced waiter is not bit-identical to the leader";

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.admitted, static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kWaiters - 1));
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kWaiters));
  // Exactly ONE task reached the executor, ONE plan-cache probe ran.
  EXPECT_EQ(s.executor.submitted, 1u);
  EXPECT_EQ(s.executor.plan_cache.misses, 1u);
  EXPECT_EQ(s.executor.plan_cache.hits, 0u);

  // A dispatched group's coalescing window is CLOSED: the same contents
  // submitted after the drain start a fresh group and a fresh execution
  // (the input grids now hold advanced state, digests differ anyway; this
  // pins the open_-map erase on dispatch).
  ReqOf<G> late(7);
  late.fut = sched.submit(*late.grid, spec, run, ServiceClass::kBatch);
  EXPECT_FALSE(late.fut.get().coalesced);
  EXPECT_EQ(sched.stats().coalesced, static_cast<std::uint64_t>(kWaiters - 1));
}

TEST(Scheduler, CoalescesIdenticalSubmissionsToOneExecution) {
  // An odd step count leaves the leader's result in the buffer its plan
  // swapped in (Jacobi parity), so the fan-out must read the grid as it is
  // after execution, not where its storage was at submit.
  const Options odd = opts(Method::kTranspose, Tiling::kNone, 3);
  for (const Options& run : {kRun, odd}) {
    expect_coalesces<Grid1D<double>>(run);
    expect_coalesces<Grid2D<double>>(run);
    expect_coalesces<Grid3D<double>>(run);
    expect_coalesces<Grid1D<float>>(run);
    expect_coalesces<Grid2D<float>>(run);
    expect_coalesces<Grid3D<float>>(run);
  }
}

// A digest match only nominates a group; the join needs equal bytes. The
// leader's grid is overwritten while it waits in the queue, so its group
// still carries salt 7's digest over salt 8's contents — a 64-bit collision
// by construction. A salt-7 follower must run on its own.
TEST(Scheduler, DigestCollisionRunsAsItsOwnGroup) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req leader(7), follower(7);
  leader.fut = sched.submit(*leader.grid, spec, kRun, ServiceClass::kBatch);
  leader.grid->fill([](index x) { return noise<double>(8, x); });
  follower.fut = sched.submit(*follower.grid, spec, kRun, ServiceClass::kBatch);
  sched.resume();

  EXPECT_FALSE(leader.fut.get().coalesced);
  EXPECT_FALSE(follower.fut.get().coalesced);
  const int tpg = sched.executor().threads_per_gang();
  EXPECT_EQ(max_abs_diff(serial_expected(8, kRun, tpg), *leader.grid), 0.0);
  EXPECT_EQ(max_abs_diff(serial_expected(7, kRun, tpg), *follower.grid), 0.0);
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.coalesced, 0u);
  EXPECT_EQ(s.executor.submitted, 2u);
  EXPECT_EQ(s.completed, 2u);
}

// ---------------------------------------------------------------------------
// Overload: shedding order (lowest class first among past-deadline queued
// groups), rejection when nothing is sheddable, OverloadError through every
// affected future — all decided at submit, asserted while paused.
// ---------------------------------------------------------------------------

TEST(Scheduler, ShedsPastDeadlineLowestClassFirstThenRejects) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1},
                   .queue_capacity = 2});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req b1(1), i1(2), i2(3), i3(4), b2(5);

  b1.fut = sched.submit(*b1.grid, spec, kRun, ServiceClass::kBatch, 1e-6);
  i1.fut = sched.submit(*i1.grid, spec, kRun, ServiceClass::kInteractive, 1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));  // both overdue

  // Full queue + sheddable batch work: the batch group goes first even
  // though the interactive one is just as dead.
  i2.fut = sched.submit(*i2.grid, spec, kRun, ServiceClass::kInteractive);
  EXPECT_THROW(b1.fut.get(), OverloadError);

  // Full again; only the overdue INTERACTIVE group is sheddable now.
  i3.fut = sched.submit(*i3.grid, spec, kRun, ServiceClass::kInteractive);
  EXPECT_THROW(i1.fut.get(), OverloadError);

  // Full, and nothing queued is past its deadline: the NEWCOMER is refused.
  b2.fut = sched.submit(*b2.grid, spec, kRun, ServiceClass::kBatch);
  EXPECT_THROW(b2.fut.get(), OverloadError);

  SchedulerStats s = sched.stats();
  EXPECT_EQ(s.submitted, 5u);
  EXPECT_EQ(s.admitted, 4u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.queued, 2u);

  sched.resume();
  EXPECT_NO_THROW(i2.fut.get());
  EXPECT_NO_THROW(i3.fut.get());
  s = sched.stats();
  EXPECT_EQ(s.completed, 2u);
  // Shed work never reached the executor.
  EXPECT_EQ(s.executor.submitted, 2u);
}

// ---------------------------------------------------------------------------
// Deadline misses count COMPLETED-late requests — distinct from shedding.
// ---------------------------------------------------------------------------

TEST(Scheduler, DeadlineMissAccountsCompletedLateWork) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  sched.pause();
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  Req late(1), ok(2);
  late.fut = sched.submit(*late.grid, spec, kRun, ServiceClass::kInteractive,
                          0.5);  // 0.5 ms deadline...
  ok.fut = sched.submit(*ok.grid, spec, kRun, ServiceClass::kInteractive);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // ...long gone
  sched.resume();

  const Scheduler::Result r1 = late.fut.get();
  const Scheduler::Result r2 = ok.fut.get();
  EXPECT_TRUE(r1.deadline_missed);
  EXPECT_GE(r1.latency_seconds, 0.0005);
  EXPECT_FALSE(r2.deadline_missed);  // no deadline, can't miss
  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.deadline_missed, 1u);
  EXPECT_EQ(s.completed, 2u);
  EXPECT_EQ(s.shed, 0u);
}

// ---------------------------------------------------------------------------
// Failures surface through the future exactly like Executor::submit, and
// count as failed, not completed.
// ---------------------------------------------------------------------------

TEST(Scheduler, ConfigErrorPropagatesThroughFuture) {
  Scheduler sched({.executor = {.gangs = 1, .threads_per_gang = 1}});
  Req bad(1), good(2);
  Options neg = kRun;
  neg.max_threads = -1;  // rejected at resolve, like the serial path
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  bad.fut = sched.submit(*bad.grid, spec, neg);
  EXPECT_THROW(bad.fut.get(), ConfigError);
  good.fut = sched.submit(*good.grid, spec, kRun);
  EXPECT_NO_THROW(good.fut.get());

  const SchedulerStats s = sched.stats();
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 1u);
  // Failed completions record no latency sample.
  EXPECT_EQ(s.latency_of(ServiceClass::kBatch).count(), 1u);
}

// ---------------------------------------------------------------------------
// Destruction drains: paused, with a full queue, the destructor resumes,
// runs everything, and satisfies every future before joining.
// ---------------------------------------------------------------------------

TEST(Scheduler, DestructorResumesAndDrains) {
  constexpr int kJobs = 6;
  std::vector<Req> reqs;
  {
    Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
    sched.pause();
    const StencilSpec spec{.kind = StencilKind::k1d3p};
    for (int i = 0; i < kJobs; ++i) {
      reqs.emplace_back(i);
      reqs[static_cast<std::size_t>(i)].fut =
          sched.submit(*reqs[static_cast<std::size_t>(i)].grid, spec, kRun);
    }
  }  // ~Scheduler: unpause, dispatch all, wait for completion
  for (int i = 0; i < kJobs; ++i) {
    auto& f = reqs[static_cast<std::size_t>(i)].fut;
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW(f.get());
    const Grid1D<double> expected = serial_expected(i, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0);
  }
}

// ---------------------------------------------------------------------------
// Concurrent submitters racing the admission path: counters still add up,
// results stay serial-identical. (The TSan job runs this suite.)
// ---------------------------------------------------------------------------

TEST(Scheduler, ConcurrentSubmittersKeepCountersConsistent) {
  Scheduler sched({.executor = {.gangs = 2, .threads_per_gang = 1}});
  constexpr int kThreads = 4, kPerThread = 6;
  std::vector<Req> reqs;
  for (int i = 0; i < kThreads * kPerThread; ++i) reqs.emplace_back(i);

  std::vector<std::thread> submitters;
  const StencilSpec spec{.kind = StencilKind::k1d3p};
  for (int t = 0; t < kThreads; ++t)
    submitters.emplace_back([&, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads)
        reqs[static_cast<std::size_t>(i)].fut = sched.submit(
            *reqs[static_cast<std::size_t>(i)].grid, spec, kRun,
            i % 2 ? ServiceClass::kBatch : ServiceClass::kInteractive,
            /*deadline_ms=*/0.0, i % 3 ? "x" : "y");
    });
  for (auto& t : submitters) t.join();
  for (auto& r : reqs) EXPECT_NO_THROW(r.fut.get());
  sched.wait_idle();

  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const Grid1D<double> expected = serial_expected(i, kRun, 1);
    EXPECT_EQ(max_abs_diff(expected, *reqs[static_cast<std::size_t>(i)].grid),
              0.0);
  }
  const SchedulerStats s = sched.stats();
  const auto n = static_cast<std::uint64_t>(kThreads * kPerThread);
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.latency_of(ServiceClass::kInteractive).count() +
                s.latency_of(ServiceClass::kBatch).count(),
            n);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.executor.workspaces.in_flight, 0u);
}

}  // namespace
}  // namespace tsv
