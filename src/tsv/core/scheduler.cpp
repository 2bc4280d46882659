#include "tsv/core/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <tuple>
#include <utility>

namespace tsv {

namespace {

using Clock = Scheduler::Clock;

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

// Deterministic backoff jitter: a splitmix64 stream seeded from the group's
// admission seq, so a replayed fault schedule replays its backoff schedule
// too (no global rng, no cross-request coupling).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

// Which taxonomy class a member's failure belongs to, for the
// cancelled/timed_out counters (subsets of failed).
enum class ErrKind { kOther, kCancelled, kTimeout };

ErrKind err_kind(const std::exception_ptr& e) noexcept {
  try {
    std::rethrow_exception(e);
  } catch (const CancelledError&) {
    return ErrKind::kCancelled;
  } catch (const TimeoutError&) {
    return ErrKind::kTimeout;
  } catch (...) {
    return ErrKind::kOther;
  }
}

// ---- grid content: digest, compare, fan-out copy, retry snapshot ----------
//
// Coalescing identity must cover the INPUT DATA, not just the configuration:
// two requests with equal (spec, shape, options) but different grid contents
// produce different results and must never share one execution. A grid's
// content is every logical cell including the halo (Dirichlet halos are
// inputs too), walked row by row as bytes through GridRef; lead-padding
// bytes outside the halo are skipped, so two grids that are cell-for-cell
// equal hash and compare equal regardless of allocator noise. The FNV-1a
// digest only finds a candidate group: a join also needs a byte compare
// against the leader's grid, so a 64-bit collision cannot hand a follower
// another grid's result.

std::uint64_t fnv1a(std::uint64_t h, const std::byte* p, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t content_digest(const GridRef& g) {
  std::uint64_t d = 1469598103934665603ull;
  g.for_each_row(
      [&](index y, index z) { d = fnv1a(d, g.row(y, z), g.row_bytes()); });
  return d;
}

/// Cell-for-cell equality of two grids' interior + halo rows.
bool same_content(const GridRef& a, const GridRef& b) {
  if (!same_geometry(a, b)) return false;
  bool same = true;
  a.for_each_row([&](index y, index z) {
    same = same && std::memcmp(a.row(y, z), b.row(y, z), a.row_bytes()) == 0;
  });
  return same;
}

/// Fans a leader's finished grid out to a follower. Same geometry by
/// construction: the coalesce key contains shape and dtype, so a mismatch is
/// a scheduler bug, not a user error.
void copy_content(const GridRef& dst, const GridRef& src) {
  require(same_geometry(dst, src),
          "Scheduler: coalesced grids of different geometry");
  dst.for_each_row([&](index y, index z) {
    std::memcpy(dst.row(y, z), src.row(y, z), dst.row_bytes());
  });
}

// Retry snapshot: the group's input rows (interior + halo), taken before
// the first attempt and copied back before each re-execution. Every fault
// point fires pre-mutation, so for INJECTED faults the restore is a no-op
// by construction — the snapshot is what makes the retry guarantee hold for
// real faults too (a bad_alloc or partial failure mid-execution leaves
// whatever state it leaves; the restore erases it).
std::vector<std::byte> snapshot_content(const GridRef& g) {
  std::vector<std::byte> snap;
  g.for_each_row([&](index y, index z) {
    snap.insert(snap.end(), g.row(y, z), g.row(y, z) + g.row_bytes());
  });
  return snap;
}

void restore_content(const GridRef& g, const std::vector<std::byte>& snap) {
  const std::byte* p = snap.data();
  g.for_each_row([&](index y, index z) {
    std::memcpy(g.row(y, z), p, g.row_bytes());
    p += g.row_bytes();
  });
}

}  // namespace

const char* service_class_name(ServiceClass c) {
  switch (c) {
    case ServiceClass::kInteractive: return "interactive";
    case ServiceClass::kBatch: return "batch";
  }
  return "?";
}

// ---- LatencyHistogram ------------------------------------------------------

void LatencyHistogram::record(double seconds) {
  ++n_;
  sum_ += seconds;
  double v = seconds / kBaseSeconds;
  int b = 0;
  while (b < kBuckets - 1 && v >= 2.0) {
    v *= 0.5;
    ++b;
  }
  ++counts_[static_cast<std::size_t>(b)];
}

double LatencyHistogram::bucket_upper_seconds(int b) {
  return std::ldexp(kBaseSeconds, b + 1);
}

double LatencyHistogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(n_);
  std::uint64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t c = counts_[static_cast<std::size_t>(b)];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      // Interpolate inside the landing bucket [lo, hi).
      const double lo = b == 0 ? 0.0 : std::ldexp(kBaseSeconds, b);
      const double hi = std::ldexp(kBaseSeconds, b + 1);
      const double frac = std::clamp(
          (target - static_cast<double>(cum)) / static_cast<double>(c), 0.0,
          1.0);
      return lo + frac * (hi - lo);
    }
    cum += c;
  }
  return std::ldexp(kBaseSeconds, kBuckets);  // unreachable
}

// ---- Scheduler -------------------------------------------------------------

/// One submission's completion endpoint: its promise plus everything the
/// completion path needs to account it (class, deadline, admission time).
struct Scheduler::Member {
  std::promise<Result> promise;
  Clock::time_point admitted;
  Clock::time_point deadline = kNoDeadline;       ///< soft SLO (tracked)
  Clock::time_point exec_deadline = kNoDeadline;  ///< hard timeout (enforced)
  ServiceClass cls = ServiceClass::kBatch;
  GridRef grid;
  CancelToken cancel;
  bool follower = false;
};

/// One admission-queue entry: the leader submission plus every follower
/// coalesced onto it. The group's class/deadline are the most urgent of its
/// members, so a follower can PROMOTE a queued batch request into the
/// interactive lane — the result serves both, so it inherits the stricter
/// SLO.
struct Scheduler::Group {
  StencilSpec spec;
  Options options;  ///< normalized: dtype from the grid, gang-capped team
  Shape shape;
  std::pair<PlanKey, std::uint64_t> key;
  ServiceClass cls = ServiceClass::kBatch;
  Clock::time_point deadline = kNoDeadline;
  std::uint64_t seq = 0;           ///< admission order (tiebreak)
  std::uint64_t dispatch_seq = 0;  ///< set when handed to the executor
  std::string tenant;              ///< leader's quota bucket
  std::vector<Member> members;     ///< members[0] is the leader

  // Written by run_group on the gang (single-threaded there), read by
  // on_group_done on the same thread — no synchronization needed.
  std::vector<std::exception_ptr> member_errors;  ///< per-member overrides
  std::uint64_t retries_used = 0;
  bool retry_exhausted = false;

  // Trace timestamps. `dispatched` is written under mu_ (dispatch_locked);
  // `sweep_start` is written by run_group on the gang and read by
  // on_group_done on the same thread, like member_errors above.
  Clock::time_point dispatched{};
  Clock::time_point sweep_start{};
};

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(cfg), ex_(cfg.executor) {
  cfg_.queue_capacity = std::max<std::size_t>(1, cfg_.queue_capacity);
  trace_ring_.reserve(cfg_.trace_capacity);
}

Scheduler::~Scheduler() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stopping_ = true;
    paused_ = false;  // a paused scheduler still drains on destruction
    dispatch_locked(lock);
    idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
  }
  // After the drain no task can reference this scheduler again; the
  // executor member's own destructor joins its (now idle) workers. Any
  // group whose handoff threw during the final dispatch still owes its
  // futures an answer.
  flush_failed_dispatches();
}

std::future<Scheduler::Result> Scheduler::submit(Request req) {
  const Clock::time_point now = Clock::now();

  // Normalize exactly like Executor::submit: the grid is the source of
  // truth for the dtype, and the gang size caps the team (negative caps
  // pass through so resolve_options rejects them on the worker).
  Options o = req.options;
  o.dtype = req.grid.dtype();
  if (o.max_threads == 0)
    o.max_threads = ex_.threads_per_gang();
  else if (o.max_threads > 0)
    o.max_threads = std::min(o.max_threads, ex_.threads_per_gang());

  const Shape shape = shape_of(req.grid);
  // The digest is an O(n) read of the caller's grid, which the caller owns
  // until the future resolves: computed here, outside mu_, so concurrent
  // submitters do not serialize on it.
  const std::uint64_t digest = cfg_.coalesce ? content_digest(req.grid) : 0;

  Member m;
  m.admitted = now;
  if (req.deadline_ms > 0.0)
    m.deadline = now + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               req.deadline_ms));
  // The timeout budget starts at submit — queueing counts against it.
  if (req.timeout_ms > 0.0)
    m.exec_deadline = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    req.timeout_ms));
  m.cls = req.cls;
  m.grid = req.grid;
  m.cancel = req.cancel;
  std::future<Result> fut = m.promise.get_future();

  std::shared_ptr<Group> victim;       // shed group: promises failed post-unlock
  const char* reject_msg = nullptr;    // set => reject this submission
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.submitted;

    if (stopping_) {
      ++stats_.rejected;
      reject_msg = "tsv::Scheduler: shutting down";
    } else {
      const std::pair<PlanKey, std::uint64_t> key{
          PlanKey::make(shape, req.stencil, o), digest};
      bool joinable = cfg_.coalesce;
      if (auto it = open_.find(key); joinable && it != open_.end()) {
        // A digest match only nominates the open group: the join also needs
        // the leader's grid to equal this one byte for byte. The leader's
        // grid is stable here — its group is still queued (dispatch closes
        // the group under mu_).
        Group& g = *it->second;
        if (same_content(g.members.front().grid, req.grid)) {
          m.follower = true;
          g.cls = std::min(g.cls, req.cls);
          g.deadline = std::min(g.deadline, m.deadline);
          g.members.push_back(std::move(m));
          ++stats_.admitted;
          ++stats_.coalesced;
          return fut;  // no queue slot consumed: the work already exists
        }
        // A digest collision: run as a group of its own, not registered
        // for joins, so the open group keeps its key.
        joinable = false;
      }

      if (queue_.size() >= cfg_.queue_capacity) {
        // Full: shed queued work that is already past its deadline —
        // lowest priority class first, then most overdue, then oldest.
        // Nothing sheddable means the NEWCOMER is rejected: admitted work
        // with a live deadline is never dropped for later arrivals.
        // Victim order: lowest priority class first (batch before
        // interactive), then most overdue, then oldest.
        const auto shed_rank = [](const Group& g) {
          return std::tuple(-static_cast<int>(g.cls), g.deadline, g.seq);
        };
        std::size_t best = queue_.size();
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          const Group& g = *queue_[i];
          if (g.deadline == kNoDeadline || g.deadline > now) continue;
          if (best == queue_.size() || shed_rank(g) < shed_rank(*queue_[best]))
            best = i;
        }
        if (best < queue_.size()) {
          victim = queue_[best];
          queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
          close_locked(victim);
          stats_.shed += victim->members.size();
        } else {
          ++stats_.rejected;
          reject_msg = "tsv::Scheduler: admission queue full";
        }
      }

      if (reject_msg == nullptr) {
        auto g = std::make_shared<Group>();
        g->spec = std::move(req.stencil);
        g->options = o;
        g->shape = shape;
        g->key = key;
        g->cls = m.cls;
        g->deadline = m.deadline;
        g->seq = seq_++;
        g->tenant = std::move(req.tenant);
        g->members.push_back(std::move(m));
        if (joinable) open_.emplace(g->key, g);
        queue_.push_back(std::move(g));
        ++stats_.admitted;
        dispatch_locked(lock);
      }
    }
  }

  // Promise resolution happens outside the lock: a waiter woken by
  // set_exception may immediately call stats() and must not self-deadlock.
  if (victim)
    for (Member& vm : victim->members)
      vm.promise.set_exception(std::make_exception_ptr(OverloadError(
          "tsv::Scheduler: shed past-deadline request (queue full)")));
  if (reject_msg != nullptr)
    m.promise.set_exception(
        std::make_exception_ptr(OverloadError(reject_msg)));
  flush_failed_dispatches();
  return fut;
}

void Scheduler::dispatch_locked(std::unique_lock<std::mutex>& lock) {
  // Hand the executor at most `gangs` groups: every dispatched group starts
  // immediately on an idle gang, so the FIFO inside the executor never
  // holds more than the work already running — ORDER lives here.
  (void)lock;  // held by the caller; documents the contract
  while (!paused_ && inflight_ < static_cast<std::size_t>(ex_.gangs()) &&
         !queue_.empty()) {
    std::size_t best = queue_.size();
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const Group& g = *queue_[i];
      if (cfg_.max_inflight_per_tenant > 0) {
        auto it = tenant_inflight_.find(g.tenant);
        if (it != tenant_inflight_.end() &&
            it->second >= cfg_.max_inflight_per_tenant)
          continue;  // tenant at quota: its backlog waits, others overtake
      }
      if (best == queue_.size()) {
        best = i;
        continue;
      }
      const Group& b = *queue_[best];
      const bool wins =
          cfg_.policy == SchedPolicy::kFifo
              ? g.seq < b.seq
              // Interactive before batch; within a class earliest deadline
              // first (no deadline = kNoDeadline sorts last); admission
              // order breaks ties.
              : std::tuple(static_cast<int>(g.cls), g.deadline, g.seq) <
                    std::tuple(static_cast<int>(b.cls), b.deadline, b.seq);
      if (wins) best = i;
    }
    if (best == queue_.size()) return;  // everything eligible is at quota

    std::shared_ptr<Group> g = queue_[best];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best));
    close_locked(g);  // group closed: input in use
    g->dispatch_seq = dispatch_seq_++;
    g->dispatched = Clock::now();

    // The handoff itself can throw (std::bad_alloc growing the executor's
    // queue, std::system_error from a dead pool). If it does, the group is
    // already off the queue and its task will never run — without this
    // catch every member's future would stay unfulfilled forever. The
    // group parks in failed_dispatch_; the promises are resolved by
    // flush_failed_dispatches() OUTSIDE mu_. Counted before the inflight
    // bump, so nothing needs undoing.
    try {
      ex_.submit_task([this, g] { run_group(g); });
    } catch (...) {
      stats_.failed += g->members.size();
      failed_dispatch_.emplace_back(g, std::current_exception());
      continue;
    }
    ++inflight_;
    const int t = ++tenant_inflight_[g->tenant];
    stats_.peak_tenant_inflight =
        std::max(stats_.peak_tenant_inflight, static_cast<std::size_t>(t));
  }
}

void Scheduler::close_locked(const std::shared_ptr<Group>& g) {
  auto it = open_.find(g->key);
  if (it != open_.end() && it->second == g) open_.erase(it);
}

void Scheduler::flush_failed_dispatches() {
  std::vector<std::pair<std::shared_ptr<Group>, std::exception_ptr>> failed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    failed.swap(failed_dispatch_);
  }
  for (auto& [g, e] : failed)
    for (Member& m : g->members) m.promise.set_exception(e);
}

/// The executor task for one dispatched group. The first live member
/// computes through the shared plan cache (one cache probe, one execution
/// per GROUP) under the group's ExecControl; the other live members receive
/// a byte copy of that result — coalesced waiters are bit-identical by
/// construction. Transient failures re-execute from a snapshot of the input
/// under the retry budget; members already cancelled or timed out at
/// dispatch are pruned up front and fail individually without costing an
/// execution. Errors reach every member's future and still count in the
/// executor's own failed_ (the rethrow).
void Scheduler::run_group(const std::shared_ptr<Group>& g) {
  g->sweep_start = Clock::now();
  std::exception_ptr err;
  try {
    const Clock::time_point now = g->sweep_start;

    // Prune members that are dead on arrival: a cancelled member fails with
    // CancelledError, an expired one with TimeoutError — and neither blocks
    // the live members' execution. Cancel wins when both apply (an explicit
    // cancel is the caller's word).
    g->member_errors.assign(g->members.size(), nullptr);
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < g->members.size(); ++i) {
      const Member& m = g->members[i];
      if (m.cancel.cancelled()) {
        g->member_errors[i] = std::make_exception_ptr(CancelledError(
            "tsv::Scheduler: request cancelled before dispatch"));
      } else if (m.exec_deadline != kNoDeadline && now >= m.exec_deadline) {
        g->member_errors[i] = std::make_exception_ptr(TimeoutError(
            "tsv::Scheduler: timeout expired before dispatch"));
      } else {
        live.push_back(i);
      }
    }

    if (!live.empty()) {
      // Group-level execution control. The cancel predicate fires only when
      // EVERY live member cancelled (one waiter's cancel must not take the
      // shared result from the rest). The deadline is finite only when
      // every live member has one, and then it is the LATEST: the hard
      // abort exists to reclaim the gang once NO member's budget can still
      // use the result — a member whose own budget expires mid-run still
      // receives the completed result (the work was done; enforcement
      // never destroys usable output).
      ExecControl ctl;
      ctl.cancelled = [g, live] {
        for (std::size_t i : live) {
          const Member& m = g->members[i];
          if (!m.cancel.valid() || !m.cancel.cancelled()) return false;
        }
        return true;
      };
      bool all_dated = true;
      Clock::time_point latest = Clock::time_point::min();
      for (std::size_t i : live) {
        if (g->members[i].exec_deadline == kNoDeadline) {
          all_dated = false;
          break;
        }
        latest = std::max(latest, g->members[i].exec_deadline);
      }
      if (all_dated) ctl.deadline = latest;

      GridRef exec_grid = g->members[live.front()].grid;
      std::vector<std::byte> snap;
      if (cfg_.retry_budget > 0) snap = snapshot_content(exec_grid);
      std::uint64_t jitter_state = g->seq;

      for (int attempt = 0;; ++attempt) {
        try {
          fault_point(FaultSite::kExecutorDispatch);
          ctl.check();
          detail::execute_request(ex_.plan_cache(), g->shape, g->spec,
                                  g->options, exec_grid, &ctl);
          break;
        } catch (...) {
          std::exception_ptr e = std::current_exception();
          if (!is_transient_error(e)) throw;
          if (attempt >= cfg_.retry_budget) {
            g->retry_exhausted = true;
            throw;
          }
          ++g->retries_used;
          if (!snap.empty()) restore_content(exec_grid, snap);
          double backoff_ms =
              std::min(cfg_.retry_backoff_ms * std::ldexp(1.0, attempt),
                       cfg_.retry_backoff_max_ms);
          backoff_ms *= 0.5 + 0.5 * uniform01(jitter_state);
          if (backoff_ms > 0.0)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff_ms));
        }
      }
      for (std::size_t k = 1; k < live.size(); ++k)
        copy_content(g->members[live[k]].grid, exec_grid);
    }
  } catch (...) {
    err = std::current_exception();
  }
  on_group_done(g, err);
  if (err) std::rethrow_exception(err);
}

void Scheduler::on_group_done(const std::shared_ptr<Group>& group,
                              std::exception_ptr error) {
  const Clock::time_point now = Clock::now();
  // A member's outcome is its OWN error when run_group pruned it (cancelled
  // or expired before dispatch), otherwise the group's shared outcome.
  const auto member_error = [&](std::size_t i) {
    return i < group->member_errors.size() && group->member_errors[i]
               ? group->member_errors[i]
               : error;
  };
  std::vector<Result> results(group->members.size());
  std::vector<std::pair<std::shared_ptr<Group>, std::exception_ptr>> failed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    --inflight_;
    auto it = tenant_inflight_.find(group->tenant);
    if (it != tenant_inflight_.end() && --it->second <= 0)
      tenant_inflight_.erase(it);
    stats_.retries += group->retries_used;
    if (group->retry_exhausted) ++stats_.retry_exhausted;
    const auto rel = [this](Clock::time_point t) {
      return std::chrono::duration<double>(t - epoch_).count();
    };
    for (std::size_t i = 0; i < group->members.size(); ++i) {
      const Member& m = group->members[i];
      char outcome = 'C';
      if (std::exception_ptr e = member_error(i)) {
        ++stats_.failed;
        outcome = 'F';
        switch (err_kind(e)) {
          case ErrKind::kCancelled: ++stats_.cancelled; outcome = 'X'; break;
          case ErrKind::kTimeout: ++stats_.timed_out; outcome = 'T'; break;
          case ErrKind::kOther: break;
        }
      } else {
        Result& r = results[i];
        r.dispatch_seq = group->dispatch_seq;
        r.latency_seconds =
            std::chrono::duration<double>(now - m.admitted).count();
        r.deadline_missed = m.deadline != kNoDeadline && now > m.deadline;
        r.coalesced = m.follower;
        ++stats_.completed;
        if (r.deadline_missed) ++stats_.deadline_missed;
        stats_.latency[static_cast<std::size_t>(m.cls)].record(
            r.latency_seconds);
      }
      if (cfg_.trace_capacity > 0) {
        TraceSpan ts;
        ts.seq = group->seq;
        ts.dispatch_seq = group->dispatch_seq;
        ts.cls = m.cls;
        ts.coalesced = m.follower;
        ts.outcome = outcome;
        ts.submit_s = rel(m.admitted);
        ts.dispatch_s = rel(group->dispatched);
        ts.sweep_s = rel(group->sweep_start);
        ts.complete_s = rel(now);
        push_trace_locked(ts);
      }
    }
    dispatch_locked(lock);
    failed.swap(failed_dispatch_);
    if (queue_.empty() && inflight_ == 0) idle_cv_.notify_all();
  }
  // Outside the lock — and touching only groups, never `this`: once the
  // destructor observed the drain it may already be tearing the scheduler
  // down while this tail runs. (That is also why the failed-dispatch flush
  // is inlined here instead of calling flush_failed_dispatches().)
  for (auto& [fg, fe] : failed)
    for (Member& fm : fg->members) fm.promise.set_exception(fe);
  for (std::size_t i = 0; i < group->members.size(); ++i) {
    if (std::exception_ptr e = member_error(i))
      group->members[i].promise.set_exception(e);
    else
      group->members[i].promise.set_value(results[i]);
  }
}

void Scheduler::push_trace_locked(const TraceSpan& ts) {
  if (trace_ring_.size() < cfg_.trace_capacity) {
    trace_ring_.push_back(ts);
    return;
  }
  trace_ring_[trace_pos_] = ts;
  trace_pos_ = (trace_pos_ + 1) % cfg_.trace_capacity;
}

void Scheduler::pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void Scheduler::resume() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = false;
    dispatch_locked(lock);
  }
  flush_failed_dispatches();
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && inflight_ == 0; });
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    s.queued = queue_.size();
    s.inflight = inflight_;
    // Oldest-first: the ring overwrites at trace_pos_, so chronological
    // order is [trace_pos_, end) then [0, trace_pos_).
    s.traces.reserve(trace_ring_.size());
    for (std::size_t i = 0; i < trace_ring_.size(); ++i)
      s.traces.push_back(
          trace_ring_[(trace_pos_ + i) % trace_ring_.size()]);
  }
  s.executor = ex_.stats();
  return s;
}

}  // namespace tsv
